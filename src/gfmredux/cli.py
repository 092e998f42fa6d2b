"""Command line front end.

Subcommands: gen-pattern, ltl2gfm-gf, redux, product, solve, bench,
check-equiv, fixtures.  `gen-pattern` and `ltl2gfm-gf` are also installed
as standalone commands.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import multiprocessing
import os
import random
import sys
import time
from importlib import resources

from .automata import AutomatonError, LassoWord, complete, lasso_member
from .gf_direct import gf_body, gf_to_gfm
from .gfg_min import nca_lang_equiv
from .hoa import HoaError, from_hoa, to_hoa
from .ltl import LtlError, LtlParseError, parse, to_string
from .mdp import (
    MdpError,
    mdp_from_json,
    mdp_to_json,
    product_nba,
    strategy_to_json,
    synthesize,
)
from .patterns import FAMILIES, gen_pattern
from .redux import pa_to_json, redux
from .routes import ROUTES


class GridError(ValueError):
    """A `bench` grid document that is not shaped as README.md describes."""


class NotGfError(ValueError):
    """A `bench` grid formula that is not GF(co-safety); exit code 2, as in
    `ltl2gfm-gf`."""


# errors that bad input or a failed operation raise: main reports them as
# `error: ...` with exit code 1 instead of a traceback
_INPUT_ERRORS = (
    LtlError, HoaError, MdpError, AutomatonError, OSError, json.JSONDecodeError,
    GridError,
)
# the largest product solved exactly by default: on the win/trap MDP family of
# perfbench/workloads.py (goal GF(a & XXb)), exact solving took 1.5 s at 4,139
# product states and 12 s at 8,320 with CPython 3.11 on a Xeon core (float
# mode: 0.5 s and 1.2 s)
EXACT_DEFAULT_LIMIT = 5_000
# the longest `bench` waits for a case, in seconds (poll overflows past 2**31 ms)
_BENCH_TIMEOUT_MAX = 1_000_000


def _write(path: str | None, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _write_json(path: str | None, doc):
    _write(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


# ------------------------------------------------------------- subcommands

def _cmd_gen_pattern(args) -> int:
    print(to_string(gen_pattern(args.family, tuple(args.params))))
    return 0


def _cmd_ltl2gfm_gf(args) -> int:
    text = args.formula if args.formula is not None else sys.stdin.read()
    try:
        f = parse(text)
    except LtlParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    try:
        a = gf_to_gfm(f)
    except LtlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _write(args.out, to_hoa(a, name=to_string(f)))
    return 0


def _cmd_redux(args) -> int:
    a = from_hoa(_read(args.infile))
    result = redux(a)
    if args.out:
        _write_json(args.out, pa_to_json(result.pa))
    if args.dba_out:
        _write(args.dba_out, to_hoa(result.dba, name="indexed-dba"))
    if args.min_out:
        _write(args.min_out, to_hoa(result.report.minimized, name="minimized"))
    if args.report:
        _write_json(args.report, result.report.to_json())
    stages = result.report.stages
    print(
        "  ".join(f"{s.name}:{s.states}" for s in stages)
        + f"  (input:{a.n_states})"
    )
    return 0


def _build_product(args):
    m = mdp_from_json(json.loads(_read(args.mdp)))
    if args.nba:
        aut = from_hoa(_read(args.nba))
        return product_nba(m, aut), "nba-file"
    if not args.formula:
        raise LtlError("need --formula or --nba")
    atoms = m.alphabet.atoms
    route = ROUTES[args.route]
    return route.product(m, route.build(parse(args.formula, atoms), atoms)), args.route


def _cmd_product(args) -> int:
    prod, route = _build_product(args)
    doc = {
        "route": route,
        "mdp": mdp_to_json(prod.mdp),
        "pairs": [list(pq) for pq in prod.pairs],
        "marked": sorted(list(t) for t in prod.marked),
    }
    _write_json(args.out, doc)
    return 0


def _pick_exact(n_states: int) -> tuple[bool, str]:
    """Exact or float arithmetic, and why: "env" when GFMREDUX_EXACT
    decides, else "limit N" for the product size limit N."""
    env = os.environ.get("GFMREDUX_EXACT")
    if env:
        if env not in ("0", "1"):
            raise MdpError("GFMREDUX_EXACT must be 0 or 1")
        return env == "1", "env"
    return n_states <= EXACT_DEFAULT_LIMIT, f"limit {EXACT_DEFAULT_LIMIT}"


def _cmd_solve(args) -> int:
    prod, route = _build_product(args)
    exact, reason = _pick_exact(prod.mdp.n_states)
    res = synthesize(prod, exact=exact)
    doc = {
        "route": route,
        "exact": exact,
        "exact_reason": reason,
        "value": str(res.value) if exact else None,
        "value_float": float(res.value),
        "error_bound": res.values.gap,
        "sweeps": res.values.sweeps,
        "product_states": prod.mdp.n_states,
        "goal_states": len(res.goal),
        "mecs": len(res.mecs),
        "accepting_mecs": sum(1 for mec in res.mecs if mec.accepting),
    }
    if args.strategy_out:
        _write_json(
            args.strategy_out,
            strategy_to_json(prod.mdp, res.strategy, pairs=prod.pairs),
        )
    if args.out:
        _write_json(args.out, doc)
    shown = str(res.value) if exact else f"{res.value:.10f}"
    print(f"value = {shown}  [{route}, {'exact' if exact else 'float'}, "
          f"product {prod.mdp.n_states} states]")
    return 0


# ------------------------------------------------------------------- bench

# The routes a bench worker builds, in groups: it sends a group's sizes when
# the group's last route is built.  The GFM automaton goes with its reduction;
# every other route (the reset-subset DBA, whose subset construction can blow
# up) is sent alone, in table order.
_BENCH_GROUPS = (("gf-direct", "redux-pa"),) + tuple(
    (key,) for key in ROUTES if key not in ("gf-direct", "redux-pa"))


def _bench_case(text: str, conn):
    """Build one case's automata through ROUTES, sending {column: (size,
    seconds)} for each group of _BENCH_GROUPS as it ends."""
    f = parse(text)
    for group in _BENCH_GROUPS:
        built = {}
        for key in group:
            route = ROUTES[key]
            t0 = time.perf_counter()
            built[route.column] = (route.build(f, None).n_states, time.perf_counter() - t0)
        conn.send(built)
    conn.close()


_BENCH_COLUMNS = tuple(route.column for route in ROUTES.values())


def _run_bench(cases, timeout: float):
    """Run each case in its own worker process.  Returns (rows, times); a
    row is (name, sizes, missing), where `missing` is the cell of a column
    with no size: "timeout" for the routes not built when the case was cut
    off, "error" for all of them if its worker ended without every size (it
    raised or was killed)."""
    rows = []
    all_times = {}
    ctx = multiprocessing.get_context()
    for name, text in cases:
        parent, child = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=_bench_case, args=(text, child))
        proc.start()
        child.close()
        sizes, times, missing = {}, {}, "timeout"
        deadline = time.monotonic() + timeout
        try:
            while len(sizes) < len(_BENCH_COLUMNS) \
                    and parent.poll(max(deadline - time.monotonic(), 0)):
                for column, (size, seconds) in parent.recv().items():
                    sizes[column], times[column] = size, seconds
        except EOFError:  # the worker ended early: it raised or was killed
            sizes, times, missing = {}, {}, "error"
        if len(sizes) < len(_BENCH_COLUMNS):
            proc.terminate()  # cut off; nothing happens to an ended worker
        proc.join()
        parent.close()
        if times:
            all_times[name] = times
        rows.append((name, sizes, missing))
    return rows, all_times


def _bench_cell(size: int | None, missing: str, best: int | None = None) -> str:
    """One size of a bench table: `missing` for a case without sizes, bold
    (in Markdown) when it is the row's minimum `best`."""
    if size is None:
        return missing
    return f"**{size}**" if size == best else str(size)


def _bench_csv(rows) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")  # quotes a name with , or "
    writer.writerow(["name", *_BENCH_COLUMNS])
    for name, sizes, missing in rows:
        writer.writerow([name] + [_bench_cell(sizes.get(c), missing) for c in _BENCH_COLUMNS])
    return out.getvalue()


def _bench_md(rows) -> str:
    header = "| name | " + " | ".join(c.replace("_", "-") for c in _BENCH_COLUMNS) + " |"
    sep = "|" + "---|" * (len(_BENCH_COLUMNS) + 1)
    out = [header, sep]
    for name, sizes, missing in rows:
        best = min(sizes.values(), default=None)
        cells = [_bench_cell(sizes.get(c), missing, best) for c in _BENCH_COLUMNS]
        out.append("| " + " | ".join([name.replace("|", "\\|")] + cells) + " |")
    return "\n".join(out) + "\n"


def _grid_cases(grid) -> list[tuple[str, str]]:
    """(name, formula text) of each case of a bench grid.  Raises GridError
    if the grid is malformed, two cases share a name or a formula does not
    parse, NotGfError if a formula is not GF(co-safety)."""
    if not isinstance(grid, dict) or not isinstance(grid.get("cases"), list):
        raise GridError("bench grid must be a JSON object with a list 'cases'")
    cases = {}
    for i, entry in enumerate(grid["cases"]):
        entry = entry if isinstance(entry, dict) else {}
        family, params = entry.get("family"), entry.get("params", [])
        if isinstance(entry.get("formula"), str):
            text = entry["formula"]
            name = entry.get("name", text)
        elif isinstance(family, str) and isinstance(params, list) \
                and all(type(p) is int for p in params):
            text = to_string(gen_pattern(family, tuple(params)))
            name = entry.get("name", f"{family}[{','.join(map(str, params))}]"
                             if params else family)
        else:
            raise GridError(f"bench grid case {i} needs a string 'formula', or a "
                            "string 'family' and a list of integers 'params'")
        if not isinstance(name, str):
            raise GridError(f"bench grid case {i}: 'name' {name!r} is not a string")
        if name in cases:
            raise GridError(f"bench grid case {i}: name {name!r} is used by an "
                            "earlier case")
        try:
            f = parse(text)
        except LtlParseError as exc:
            raise GridError(f"bench grid case {i}: {exc}") from None
        try:
            gf_body(f)
        except LtlError as exc:
            raise NotGfError(f"bench grid case {i}: {exc}") from None
        cases[name] = text
    return list(cases.items())


def _cmd_bench(args) -> int:
    grid = json.loads(_read(args.grid))
    try:
        cases = _grid_cases(grid)
    except NotGfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    timeout = grid.get("timeout", args.timeout)
    if not _is_timeout(timeout):
        raise GridError("bench grid 'timeout' must be a number of seconds above 0 "
                        f"and at most {_BENCH_TIMEOUT_MAX}")
    rows, all_times = _run_bench(cases, timeout)
    if args.csv:
        _write(args.csv, _bench_csv(rows))
    if args.md:
        _write(args.md, _bench_md(rows))
    if args.times_out:
        _write_json(args.times_out, all_times)
    for name, sizes, missing in rows:
        cells = ", ".join(f"{c}={_bench_cell(sizes.get(c), missing)}" for c in _BENCH_COLUMNS)
        print(f"{name}: {cells}")
    return 0


# -------------------------------------------------------------- check-equiv

def _cmd_check_equiv(args) -> int:
    a1 = from_hoa(_read(args.left))
    a2 = from_hoa(_read(args.right))
    if a1.alphabet != a2.alphabet:
        print("error: automata use different alphabets", file=sys.stderr)
        return 1
    rng = random.Random(args.seed)
    for i in range(args.lassos):
        prefix = tuple(
            rng.randrange(a1.alphabet.size)
            for _ in range(rng.randint(0, args.max_len))
        )
        cycle = tuple(
            rng.randrange(a1.alphabet.size)
            for _ in range(rng.randint(1, args.max_len))
        )
        w = LassoWord(prefix=prefix, cycle=cycle)
        m1, m2 = lasso_member(a1, w), lasso_member(a2, w)
        if m1 != m2:
            print(f"disagree on lasso #{i}: prefix={list(prefix)} "
                  f"cycle={list(cycle)}: left={m1} right={m2}")
            return 3
    if a1.kind == "cobuchi" and a2.kind == "cobuchi":
        ce = nca_lang_equiv(complete(a1), complete(a2))
        if ce is not None:
            print(f"disagree on lasso: prefix={list(ce.prefix)} "
                  f"cycle={list(ce.cycle)}")
            return 3
        print(f"equivalent (exact check and {args.lassos} sampled lassos)")
        return 0
    print(f"agree on {args.lassos} sampled lassos")
    return 0


def _cmd_fixtures(args) -> int:
    outdir = args.outdir
    os.makedirs(outdir, exist_ok=True)
    root = resources.files("gfmredux") / "fixtures"
    count = 0
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if entry.name.endswith((".hoa", ".json")):
            data = entry.read_text(encoding="utf-8")
            with open(os.path.join(outdir, entry.name), "w",
                      encoding="utf-8") as fh:
                fh.write(data)
            count += 1
    print(f"wrote {count} fixture files to {outdir}")
    return 0


# ------------------------------------------------------------------ parser

def _at_least(low: int):
    """argparse type: an integer of at least `low`."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is below {low}")
        return value
    return integer


def _is_timeout(value) -> bool:
    """A number of seconds, not a bool, nan or inf, in (0, _BENCH_TIMEOUT_MAX]."""
    return type(value) in (int, float) and 0 < value <= _BENCH_TIMEOUT_MAX


def _timeout(text: str) -> float:
    """argparse type: a bench timeout in seconds."""
    value = float(text)
    if not _is_timeout(value):
        raise argparse.ArgumentTypeError(
            f"{text} is not above 0 and at most {_BENCH_TIMEOUT_MAX}")
    return value


def _make_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="gfmredux", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-pattern", help="print a benchmark pattern formula")
    p.add_argument("family", type=str.upper, choices=FAMILIES)
    p.add_argument("params", nargs="*", type=int)
    p.set_defaults(func=_cmd_gen_pattern)

    p = sub.add_parser(
        "ltl2gfm-gf",
        help="GF(co-safety) formula to a good-for-MDP Buchi automaton (HOA)",
    )
    p.add_argument("formula", nargs="?", help="read from stdin when omitted")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=_cmd_ltl2gfm_gf)

    p = sub.add_parser("redux", help="run the state-reduction pipeline")
    p.add_argument("--in", dest="infile", required=True, help="input HOA")
    p.add_argument("--out", help="probabilistic automaton JSON")
    p.add_argument("--dba-out", dest="dba_out", help="indexed DBA HOA")
    p.add_argument("--min-out", dest="min_out", help="minimised co-Buchi HOA")
    p.add_argument("--report", help="stage report JSON")
    p.set_defaults(func=_cmd_redux)

    for name, helptext in (
        ("product", "build an MDP x automaton product"),
        ("solve", "optimal satisfaction probability and strategy"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--mdp", required=True, help="MDP JSON file")
        p.add_argument("--formula", help="GF(co-safety) goal")
        p.add_argument("--route", choices=ROUTES, default="gf-direct")
        p.add_argument("--nba", help="HOA automaton overriding the formula")
        if name == "product":
            p.add_argument("--out", help="product JSON (default stdout)")
            p.set_defaults(func=_cmd_product)
        else:
            p.add_argument("--out", help="result JSON")
            p.add_argument("--strategy-out", dest="strategy_out",
                           help="strategy JSON")
            p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("bench", help="size table over a formula grid")
    p.add_argument("--grid", required=True, help="grid JSON")
    p.add_argument("--csv", help="CSV output")
    p.add_argument("--md", help="Markdown output")
    p.add_argument("--times-out", dest="times_out", help="timings JSON")
    p.add_argument("--timeout", type=_timeout, default=300.0)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("check-equiv",
                       help="compare two automata on random lassos")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--lassos", type=_at_least(0), default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-len", dest="max_len", type=_at_least(1), default=8)
    p.set_defaults(func=_cmd_check_equiv)

    p = sub.add_parser("fixtures", help="copy bundled fixture files")
    p.add_argument("outdir")
    p.set_defaults(func=_cmd_fixtures)

    return top


def main(argv=None) -> int:
    """Run one subcommand; the exit codes are listed in README.md."""
    args = _make_parser().parse_args(argv)
    # exact values and product probabilities can have more digits than CPython
    # turns into text by default (4,300 from 3.10.7 and 3.11 on): lift that
    # limit while the subcommand runs, and give the caller its own back
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:  # formulas and labels are read and folded recursively
        print("error: input nested too deeply", file=sys.stderr)
        return 1
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def main_gen_pattern(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    return main(["gen-pattern"] + argv)


def main_ltl2gfm_gf(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    return main(["ltl2gfm-gf"] + argv)


if __name__ == "__main__":
    sys.exit(main())
