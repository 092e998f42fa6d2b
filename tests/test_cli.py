import csv
import io
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import gfmredux
from gfmredux import ROUTES, cli, gf_to_gfm, mdp, parse, product_nba, synthesize
from gfmredux.cli import EXACT_DEFAULT_LIMIT, main, main_gen_pattern, main_ltl2gfm_gf
from gfmredux.hoa import from_hoa
from gfmredux.redux import pa_from_json


@pytest.fixture
def fixture_file(fixture_text, tmp_path):
    def save(name):
        p = tmp_path / name
        p.write_text(fixture_text(name), encoding="utf-8")
        return str(p)

    return save


def test_gen_pattern(capsys):
    assert main(["gen-pattern", "tdr", "3"]) == 0
    assert capsys.readouterr().out == "GF(a & XXXb)\n"
    assert main_gen_pattern(["ncs", "1", "2"]) == 0
    assert capsys.readouterr().out == "GF(a & Xb & XXXc)\n"


def test_gen_pattern_bad_params(capsys):
    assert main(["gen-pattern", "tdr"]) == 1
    assert "error:" in capsys.readouterr().err


def test_ltl2gfm_gf_writes_hoa(tmp_path, capsys):
    out = tmp_path / "a.hoa"
    assert main(["ltl2gfm-gf", "GF(a & Xb)", "--out", str(out)]) == 0
    a = from_hoa(out.read_text())
    assert a.n_states == 2 and a.kind == "buchi"
    assert main_ltl2gfm_gf(["GF a"]) == 0
    assert "HOA: v1" in capsys.readouterr().out


def test_ltl2gfm_gf_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("GF(a | b)"))
    assert main(["ltl2gfm-gf"]) == 0
    assert "States: 1" in capsys.readouterr().out


def test_ltl2gfm_gf_exit_codes(capsys):
    assert main(["ltl2gfm-gf", "GF(a &"]) == 1
    assert "parse error" in capsys.readouterr().err
    assert main(["ltl2gfm-gf", "GF(Ga)"]) == 2
    assert "co-safety" in capsys.readouterr().err
    assert main(["ltl2gfm-gf", "F a"]) == 2


def test_redux_outputs(fixture_file, tmp_path, capsys):
    pa_p = tmp_path / "pa.json"
    dba_p = tmp_path / "dba.hoa"
    min_p = tmp_path / "min.hoa"
    rep_p = tmp_path / "rep.json"
    rc = main([
        "redux", "--in", fixture_file("commit_blind.hoa"),
        "--out", str(pa_p), "--dba-out", str(dba_p),
        "--min-out", str(min_p), "--report", str(rep_p),
    ])
    assert rc == 0
    line = capsys.readouterr().out
    assert line == "indexed_dba:5  dca:5  minimized:4  pa:4  (input:3)\n"
    pa = pa_from_json(json.loads(pa_p.read_text()))
    assert len(pa.transitions) == 4
    assert from_hoa(dba_p.read_text()).kind == "buchi"
    assert from_hoa(min_p.read_text()).kind == "cobuchi"
    rep = json.loads(rep_p.read_text())
    assert [s["name"] for s in rep["stages"]] == [
        "indexed_dba", "dca", "minimized", "pa",
    ]


def test_product_json(fixture_file, tmp_path):
    out = tmp_path / "prod.json"
    rc = main([
        "product", "--mdp", fixture_file("coinflip_mdp.json"),
        "--formula", "GF(b | c)", "--out", str(out),
    ])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"route", "mdp", "pairs", "marked"}
    assert doc["route"] == "gf-direct"
    assert len(doc["pairs"]) == len(doc["mdp"]["states"])


def test_solve_routes_agree(fixture_file, capsys):
    mdp = fixture_file("coinflip_mdp.json")
    for route in ROUTES:
        assert main(["solve", "--mdp", mdp, "--formula", "GF(b | c)",
                     "--route", route]) == 0
        assert capsys.readouterr().out == (
            f"value = 1  [{route}, exact, product 3 states]\n"
        )
        assert main(["solve", "--mdp", mdp, "--formula", "GF b",
                     "--route", route]) == 0
        assert capsys.readouterr().out.startswith("value = 1/2  ")


def _int(digits: str) -> int:
    """int(digits) in pieces short enough for CPython's limit on the digits
    of one conversion, so the test does not have to lift it."""
    n = 0
    for i in range(0, len(digits), 1000):
        n = n * 10 ** len(digits[i:i + 1000]) + int(digits[i:i + 1000])
    return n


def test_exact_values_print_at_any_length(tmp_path, capsys):
    """A 100-state chain that reaches the goal with probability
    ((2**150 - 1) / 2**150) ** 100: its denominator has 4,516 digits."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    n = 100
    states = [{"label": [], "actions": [{"name": "go", "to": [
        [i + 1 if i + 1 < n else n + 1, f"{2**150 - 1}/{2**150}"],
        [n, f"1/{2**150}"],
    ]}]} for i in range(n)]
    states += [{"label": [], "actions": [{"name": "stay", "to": [[n, "1"]]}]},
               {"label": ["a"], "actions": [{"name": "stay", "to": [[n + 1, "1"]]}]}]
    chain = {"atoms": ["a"], "initial": 0, "states": states}
    path, out = tmp_path / "chain.json", tmp_path / "res.json"
    path.write_text(json.dumps(chain), encoding="utf-8")
    m = mdp.mdp_from_json(chain)
    atoms = m.alphabet.atoms
    value = synthesize(product_nba(m, gf_to_gfm(parse("GF a", atoms), atoms))).value
    assert value == Fraction(2**150 - 1, 2**150) ** n
    assert main(["solve", "--mdp", str(path), "--formula", "GF a",
                 "--out", str(out)]) == 0
    shown = capsys.readouterr().out
    assert shown.endswith("  [gf-direct, exact, product 102 states]\n")
    printed = shown.removeprefix("value = ").split()[0]
    written = json.loads(out.read_text())["value"]
    for text in (printed, written):
        num, den = text.split("/")
        assert Fraction(_int(num), _int(den)) == value
    assert len(den) == 4516
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit

    # product probabilities longer than the limit are read and written whole
    big = "9" * 4400 + "/1" + "0" * 4400
    rest = "1/1" + "0" * 4400
    coin = {"atoms": ["a"], "initial": 0, "states": [
        {"label": [], "actions": [{"name": "go", "to": [[1, big], [2, rest]]}]},
        {"label": ["a"], "actions": [{"name": "stay", "to": [[1, "1"]]}]},
        {"label": [], "actions": [{"name": "stay", "to": [[2, "1"]]}]},
    ]}
    path.write_text(json.dumps(coin), encoding="utf-8")
    for route in ROUTES:
        assert main(["product", "--mdp", str(path), "--formula", "GF a",
                     "--route", route, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        probs = {p for state in doc["mdp"]["states"]
                 for action in state["actions"] for _, p in action["to"]}
        assert {big, rest} <= probs
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit


def test_solve_nba_override(fixture_file, tmp_path, capsys):
    out = tmp_path / "res.json"
    strat = tmp_path / "strat.json"
    rc = main([
        "solve", "--mdp", fixture_file("coinflip_mdp.json"),
        "--nba", fixture_file("commit_blind.hoa"),
        "--out", str(out), "--strategy-out", str(strat),
    ])
    assert rc == 0
    assert capsys.readouterr().out == (
        "value = 1/2  [nba-file, exact, product 7 states]\n"
    )
    doc = json.loads(out.read_text())
    assert doc["value"] == "1/2" and doc["value_float"] == 0.5
    assert doc["exact"] is True and doc["product_states"] == 7
    assert doc["exact_reason"] == f"limit {EXACT_DEFAULT_LIMIT}"
    assert doc["error_bound"] == 0
    assert isinstance(doc["sweeps"], int)
    sdoc = json.loads(strat.read_text())
    assert sdoc["type"] == "memoryless"
    assert len(sdoc["states"]) == 7


def test_solve_env_forces_float(fixture_file, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GFMREDUX_EXACT", "0")
    out = tmp_path / "res.json"
    rc = main(["solve", "--mdp", fixture_file("coinflip_mdp.json"),
               "--formula", "GF b", "--out", str(out)])
    assert rc == 0
    assert "float" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["exact"] is False and doc["value"] is None
    assert doc["exact_reason"] == "env"
    assert 0 <= doc["error_bound"] <= 1e-10
    assert abs(doc["value_float"] - 0.5) <= 1e-9
    # two sweeps of the lower bound (the second changes nothing), one check
    assert doc["sweeps"] == 3


def test_solve_empty_env_means_unset(fixture_file, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GFMREDUX_EXACT", "")
    out = tmp_path / "res.json"
    assert main(["solve", "--mdp", fixture_file("coinflip_mdp.json"),
                 "--formula", "GF b", "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("value = 1/2  [gf-direct, exact,")
    assert json.loads(out.read_text())["exact_reason"] == f"limit {EXACT_DEFAULT_LIMIT}"


def test_solve_float_cap_is_an_error(fixture_file, capsys, monkeypatch):
    monkeypatch.setenv("GFMREDUX_EXACT", "0")
    monkeypatch.setattr(mdp, "_VI_CAP", 0)
    rc = main(["solve", "--mdp", fixture_file("coinflip_mdp.json"),
               "--formula", "GF b"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: float value iteration "
                                              "did not converge")


def test_solve_needs_formula_or_nba(fixture_file, capsys):
    assert main(["solve", "--mdp", fixture_file("coinflip_mdp.json")]) == 1
    assert "need --formula or --nba" in capsys.readouterr().err


def test_check_equiv_agree(fixture_file, capsys):
    blind = fixture_file("commit_blind.hoa")
    assert main(["check-equiv", blind, blind, "--lassos", "50"]) == 0
    assert capsys.readouterr().out == "agree on 50 sampled lassos\n"
    shrink = fixture_file("shrink3to2.hoa")
    assert main(["check-equiv", shrink, shrink, "--lassos", "50"]) == 0
    assert capsys.readouterr().out == (
        "equivalent (exact check and 50 sampled lassos)\n"
    )


def test_check_equiv_detects_difference(tmp_path, capsys):
    fa, fb = str(tmp_path / "fa.hoa"), str(tmp_path / "fb.hoa")
    assert main(["ltl2gfm-gf", "GF a", "--out", fa]) == 0
    assert main(["ltl2gfm-gf", "GF(a & Xa)", "--out", fb]) == 0
    assert main(["check-equiv", fa, fb, "--lassos", "100"]) == 3
    assert capsys.readouterr().out.startswith("disagree on lasso #0:")


def test_check_equiv_alphabet_mismatch(fixture_file, capsys):
    rc = main(["check-equiv", fixture_file("commit_blind.hoa"),
               fixture_file("shrink3to2.hoa")])
    assert rc == 1
    assert "different alphabets" in capsys.readouterr().err


@pytest.mark.parametrize("case", [
    "redux-bad-states", "check-equiv-bad-states", "solve-missing-mdp",
    "solve-action-without-name", "solve-fractional-initial", "bench-grid-without-cases",
    "bench-case-without-formula-or-family", "bench-formula-does-not-parse",
    "bench-formula-not-gf", "solve-exact-env-false",
])
def test_bad_input_reports_error_without_traceback(
    case, fixture_text, fixture_file, tmp_path
):
    blind = fixture_file("commit_blind.hoa")
    bad_hoa = tmp_path / "bad.hoa"
    bad_hoa.write_text(
        fixture_text("commit_blind.hoa").replace("States: 3", "States: x"),
        encoding="utf-8",
    )
    doc = json.loads(fixture_text("coinflip_mdp.json"))
    del doc["states"][0]["actions"][0]["name"]
    nameless = tmp_path / "nameless.json"
    nameless.write_text(json.dumps(doc), encoding="utf-8")
    doc = json.loads(fixture_text("coinflip_mdp.json"))
    doc["initial"] = 0.9
    fractional = tmp_path / "fractional.json"
    fractional.write_text(json.dumps(doc), encoding="utf-8")
    no_cases, no_source = tmp_path / "no_cases.json", tmp_path / "no_source.json"
    no_cases.write_text(json.dumps({"nocases": 1}), encoding="utf-8")
    no_source.write_text(json.dumps({"cases": [{"params": [3]}]}), encoding="utf-8")
    unparsed, not_gf = tmp_path / "unparsed.json", tmp_path / "not_gf.json"
    unparsed.write_text(json.dumps({"cases": [{"formula": "GF(("}]}), encoding="utf-8")
    not_gf.write_text(json.dumps({"cases": [{"formula": "GF a"}, {"formula": "G a"}]}),
                      encoding="utf-8")
    argv = {
        "redux-bad-states": ["redux", "--in", str(bad_hoa)],
        "check-equiv-bad-states": ["check-equiv", str(bad_hoa), blind],
        "solve-missing-mdp": ["solve", "--mdp", str(tmp_path / "missing.json"),
                              "--formula", "GF a"],
        "solve-action-without-name": ["solve", "--mdp", str(nameless),
                                      "--formula", "GF b"],
        "solve-fractional-initial": ["solve", "--mdp", str(fractional),
                                     "--formula", "GF b"],
        "bench-grid-without-cases": ["bench", "--grid", str(no_cases)],
        "bench-case-without-formula-or-family": ["bench", "--grid", str(no_source)],
        "bench-formula-does-not-parse": ["bench", "--grid", str(unparsed)],
        "bench-formula-not-gf": ["bench", "--grid", str(not_gf)],
        "solve-exact-env-false": ["solve", "--mdp", fixture_file("coinflip_mdp.json"),
                                  "--formula", "GF b"],
    }[case]
    src = os.path.dirname(os.path.dirname(gfmredux.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("GFMREDUX_EXACT", None)
    if case == "solve-exact-env-false":
        env["GFMREDUX_EXACT"] = "false"
    proc = subprocess.run(
        [sys.executable, "-m", "gfmredux.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    # exit code 2 for a formula that is not GF(co-safety), as in ltl2gfm-gf
    assert proc.returncode == (2 if case == "bench-formula-not-gf" else 1)
    assert proc.stderr.startswith("error:")
    if case == "solve-exact-env-false":
        assert proc.stderr == "error: GFMREDUX_EXACT must be 0 or 1\n"
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_tdr_300_prints_and_translates(capsys):
    assert main(["gen-pattern", "tdr", "300"]) == 0
    text = capsys.readouterr().out
    assert text == "GF(a & " + "X" * 300 + "b)\n"
    assert main(["ltl2gfm-gf", text]) == 0
    assert "\nStates: 301\n" in capsys.readouterr().out


@pytest.mark.parametrize("case", ["ltl2gfm-gf-1500-x", "gen-pattern-tdr-3000",
                                  "redux-label-3000-not"])
def test_too_deep_input_is_one_error_line(case, tmp_path, capsys):
    deep = tmp_path / "deep.hoa"
    deep.write_text(
        'HOA: v1\nStates: 1\nStart: 0\nAP: 1 "a"\nAcceptance: 1 Inf(0)\n--BODY--\n'
        "State: 0\n[" + "!" * 3000 + "0] 0 {0}\n--END--\n", encoding="utf-8")
    argv = {
        "ltl2gfm-gf-1500-x": ["ltl2gfm-gf", "GF(a & " + "X" * 1500 + "b)"],
        "gen-pattern-tdr-3000": ["gen-pattern", "tdr", "3000"],
        "redux-label-3000-not": ["redux", "--in", str(deep)],
    }[case]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: input nested too deeply\n")


@pytest.mark.parametrize("flag", [("--max-len", "0"), ("--lassos", "-5")])
def test_check_equiv_rejects_out_of_range_counts(flag, fixture_file):
    shrink = fixture_file("shrink3to2.hoa")
    src = os.path.dirname(os.path.dirname(gfmredux.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "gfmredux.cli", "check-equiv", shrink, shrink, *flag],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage:")
    assert f"error: argument {flag[0]}: {flag[1]} is below" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_bench_outputs_are_stable(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({
        "cases": [
            {"family": "tdr", "params": [2]},
            {"name": "or-pair", "formula": "GF(a | b)"},
        ],
        "timeout": 60,
    }))
    c1, c2 = tmp_path / "b1.csv", tmp_path / "b2.csv"
    md, times = tmp_path / "b.md", tmp_path / "t.json"
    assert main(["bench", "--grid", str(grid), "--csv", str(c1),
                 "--md", str(md), "--times-out", str(times)]) == 0
    assert capsys.readouterr().out == (
        "tdr[2]: gfm=3, reset_dba=4, redux_min=4\n"
        "or-pair: gfm=1, reset_dba=1, redux_min=1\n"
    )
    assert main(["bench", "--grid", str(grid), "--csv", str(c2)]) == 0
    capsys.readouterr()
    assert c1.read_bytes() == c2.read_bytes()
    assert c1.read_text() == (
        "name,gfm,reset_dba,redux_min\n"
        "tdr[2],3,4,4\n"
        "or-pair,1,1,1\n"
    )
    lines = md.read_text().splitlines()
    assert lines[0] == "| name | gfm | reset-dba | redux-min |"
    assert lines[2] == "| tdr[2] | **3** | 4 | 4 |"
    assert lines[3] == "| or-pair | **1** | **1** | **1** |"
    assert sorted(json.loads(times.read_text())) == ["or-pair", "tdr[2]"]


def test_bench_timeout_cells(tmp_path, capsys, monkeypatch):
    # every route builds for a minute in the worker, so the case is cut off
    # however fast the machine
    fork = cli.multiprocessing.get_context("fork")
    monkeypatch.setattr(cli.multiprocessing, "get_context", lambda: fork)

    def slow(f, atoms):
        time.sleep(60)

    for key, route in list(ROUTES.items()):
        monkeypatch.setitem(ROUTES, key, route._replace(build=slow))
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({
        "cases": [{"family": "lib", "params": [8]}],
        "timeout": 0.05,
    }))
    csv, md = tmp_path / "b.csv", tmp_path / "b.md"
    assert main(["bench", "--grid", str(grid), "--csv", str(csv),
                 "--md", str(md)]) == 0
    assert capsys.readouterr().out == (
        "lib[8]: gfm=timeout, reset_dba=timeout, redux_min=timeout\n"
    )
    assert csv.read_text() == (
        "name,gfm,reset_dba,redux_min\nlib[8],timeout,timeout,timeout\n"
    )
    assert md.read_text().splitlines()[2] == "| lib[8] | timeout | timeout | timeout |"


def test_bench_timeout_keeps_the_routes_that_finished(tmp_path, capsys):
    # the reset-subset DBA of TDR 20 has 2**20 states and is cut off; the
    # GFM automaton and its reduction take milliseconds and keep their cells
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"cases": [{"family": "tdr", "params": [20]}],
                                "timeout": 0.5}))
    csv, times = tmp_path / "b.csv", tmp_path / "t.json"
    assert main(["bench", "--grid", str(grid), "--csv", str(csv),
                 "--times-out", str(times)]) == 0
    assert capsys.readouterr().out == "tdr[20]: gfm=21, reset_dba=timeout, redux_min=22\n"
    assert csv.read_text() == "name,gfm,reset_dba,redux_min\ntdr[20],21,timeout,22\n"
    assert sorted(json.loads(times.read_text())["tdr[20]"]) == ["gfm", "redux_min"]


def test_bench_error_cells(tmp_path, capsys, monkeypatch):
    # a route that raises in the worker: the case ends without a result,
    # which is an error, not a timeout, and bench still exits 0
    fork = cli.multiprocessing.get_context("fork")
    monkeypatch.setattr(cli.multiprocessing, "get_context", lambda: fork)

    def boom(f, atoms):
        raise RuntimeError("route failed")

    monkeypatch.setitem(ROUTES, "dba-oracle", ROUTES["dba-oracle"]._replace(build=boom))
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"cases": [{"family": "tdr", "params": [2]}],
                                "timeout": 60}))
    csv_path, md = tmp_path / "b.csv", tmp_path / "b.md"
    assert main(["bench", "--grid", str(grid), "--csv", str(csv_path),
                 "--md", str(md)]) == 0
    assert capsys.readouterr().out == "tdr[2]: gfm=error, reset_dba=error, redux_min=error\n"
    assert csv_path.read_text() == "name,gfm,reset_dba,redux_min\ntdr[2],error,error,error\n"
    assert md.read_text().splitlines()[2] == "| tdr[2] | error | error | error |"


def _md_cells(line: str) -> list[str]:
    """The cells of a Markdown table row: split at each unescaped |, with
    \\| read back as |."""
    return [cell.strip().replace("\\|", "|")
            for cell in re.split(r"(?<!\\)\|", line)[1:-1]]


@pytest.mark.parametrize("case, name", [
    ({"formula": "GF(a | b)"}, "GF(a | b)"),
    ({"name": "x,y", "formula": "GF a"}, "x,y"),
    ({"name": 'say "x|y", z', "formula": "GF a"}, 'say "x|y", z'),
], ids=["pipe-in-formula", "comma", "quote-pipe-comma"])
def test_bench_tables_escape_case_names(case, name, tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"cases": [case]}))
    csv_path, md_path = tmp_path / "b.csv", tmp_path / "b.md"
    assert main(["bench", "--grid", str(grid), "--csv", str(csv_path),
                 "--md", str(md_path)]) == 0
    capsys.readouterr()
    with open(csv_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["name", "gfm", "reset_dba", "redux_min"]
    assert rows[1:] == [[name, "1", "1", "1"]]
    lines = md_path.read_text(encoding="utf-8").splitlines()
    assert [_md_cells(line) for line in lines[2:]] == [[name, "**1**", "**1**", "**1**"]]


@pytest.mark.parametrize("cases, message", [
    ([{"family": "tdr", "params": [2]}, {"name": "tdr[2]", "formula": "GF(a & X b)"}],
     "error: bench grid case 1: name 'tdr[2]' is used by an earlier case\n"),
    ([{"name": ["x"], "formula": "GF a"}],
     "error: bench grid case 0: 'name' ['x'] is not a string\n"),
], ids=["repeated", "not-a-string"])
def test_bench_rejects_bad_case_names(cases, message, tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"cases": cases}))
    assert main(["bench", "--grid", str(grid)]) == 1
    assert capsys.readouterr() == ("", message)


@pytest.mark.parametrize("timeout", [
    "inf", "nan", float("inf"), float("nan"), -1, 0, True, "60", 3e6,
])
def test_bench_rejects_bad_grid_timeout(timeout, tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({
        "cases": [{"family": "tdr", "params": [2]}], "timeout": timeout,
    }))
    assert main(["bench", "--grid", str(grid)]) == 1
    out = capsys.readouterr()
    assert out.err.startswith("error: bench grid 'timeout' must be")
    assert out.out == ""


@pytest.mark.parametrize("timeout", ["inf", "nan", "-1", "0", "3e6"])
def test_bench_rejects_bad_timeout_option(timeout, tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"cases": [{"family": "tdr", "params": [2]}]}))
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--grid", str(grid), "--timeout", timeout])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.err.startswith("usage:")
    assert f"error: argument --timeout: {timeout} is not above 0" in out.err
    assert out.out == ""


def test_fixtures_copier(tmp_path, capsys):
    out = tmp_path / "fx"
    assert main(["fixtures", str(out)]) == 0
    assert "wrote 9 fixture files" in capsys.readouterr().out
    names = sorted(p.name for p in out.iterdir())
    assert "commit_blind.hoa" in names and "coinflip_mdp.json" in names
    assert len(names) == 9
