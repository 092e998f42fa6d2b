import os
import random
import subprocess
import sys

import pytest

import gfmredux
from gfmredux import hoa
from gfmredux.automata import Alphabet, LassoWord, build_automaton, lasso_member
from gfmredux.gf_direct import gf_to_gfm
from gfmredux.hoa import HoaError, from_hoa, to_hoa
from gfmredux.ltl import atoms_named, parse
from gfmredux.redux import redux


def test_round_trip_plain():
    a = gf_to_gfm(parse("GF(a & XXb)"))
    b = from_hoa(to_hoa(a, name="x"))
    assert b.alphabet == a.alphabet
    assert b.kind == a.kind
    assert b.initial == a.initial
    assert b.transitions == a.transitions
    assert b.marked == a.marked


def test_quoted_strings_are_escaped():
    ap = atoms_named("a\\", "x\\y")
    f = parse('G F ("a\\" & X "x\\y")', ap)
    a = gf_to_gfm(f, ap)
    text = to_hoa(a, name=str(parse('G F "x y"')))
    assert 'name: "GF\\"x y\\""' in text.splitlines()
    assert 'AP: 2 "a\\\\" "x\\\\y"' in text.splitlines()
    b = from_hoa(text)
    assert b.alphabet.atoms.names == ("a\\", "x\\y")
    assert b.transitions == a.transitions and b.marked == a.marked


def test_round_trip_indexed_arity():
    res = redux(gf_to_gfm(parse("GF(a & XXXb)")))
    mini = res.report.minimized
    assert mini.alphabet.index_arity > 1
    text = to_hoa(mini)
    assert f"x-index-arity: {mini.alphabet.index_arity}" in text
    assert "_idx0" in text
    b = from_hoa(text)
    assert b.alphabet == mini.alphabet
    assert b.transitions == mini.transitions
    assert b.marked == mini.marked
    assert b.kind == "cobuchi"


def test_incomplete_automaton_round_trip(fixture_text):
    a = from_hoa(fixture_text("commit_blind.hoa"))
    assert a.n_states == 3
    assert not a.is_complete
    assert not a.is_deterministic
    # {b}^w and {c}^w are accepted, {a}^w is not
    b_letter = a.alphabet.letter(0b010)
    c_letter = a.alphabet.letter(0b100)
    a_letter = a.alphabet.letter(0b001)
    assert lasso_member(a, LassoWord((), (b_letter,)))
    assert lasso_member(a, LassoWord((), (c_letter,)))
    assert lasso_member(a, LassoWord((a_letter,), (c_letter,)))
    assert not lasso_member(a, LassoWord((), (a_letter,)))
    # once committed, the branch cannot host the other emitter
    assert not lasso_member(a, LassoWord((a_letter,), (b_letter, c_letter)))


def test_label_condensation_is_exact():
    rng = random.Random(5)
    al = Alphabet(atoms_named("a", "b", "c"), 1)
    for _ in range(20):
        edges = []
        for q in range(3):
            for letter in al.letters():
                for s in range(3):
                    if rng.random() < 0.3:
                        edges.append((q, letter, s, rng.random() < 0.3))
        a = build_automaton(al, 3, 0, "buchi", edges)
        b = from_hoa(to_hoa(a))
        assert b.transitions == a.transitions
        assert b.marked == a.marked
    # indexed alphabets, whose indices of a mask mostly share one cell, so
    # that (successor, mark) groups span letter classes of several letters
    for arity in (2, 3) * 10:
        al = Alphabet(atoms_named("a", "b"), arity)
        edges = []
        for q in range(3):
            for m in range(4):
                shared = [(s, rng.random() < 0.3) for s in range(3) if rng.random() < 0.4]
                for i in range(1, arity + 1):
                    own = shared if rng.random() < 0.75 else [
                        (s, rng.random() < 0.3) for s in range(3) if rng.random() < 0.4]
                    edges += [(q, al.letter(m, i), s, hot) for s, hot in own]
        a = build_automaton(al, 3, 0, "buchi", edges)
        b = from_hoa(to_hoa(a))
        assert b.alphabet == a.alphabet
        assert b.transitions == a.transitions
        assert b.marked == a.marked


def test_rejects_state_based_acceptance():
    text = (
        "HOA: v1\nStates: 1\nStart: 0\nAP: 1 \"a\"\n"
        "Acceptance: 1 Inf(0)\n--BODY--\nState: 0 {0}\n[t] 0\n--END--\n"
    )
    with pytest.raises(HoaError, match="transition-based"):
        from_hoa(text)


def test_rejects_unknown_capitalized_header():
    text = (
        "HOA: v1\nStates: 1\nStart: 0\nAP: 1 \"a\"\nZoom: 3\n"
        "Acceptance: 1 Inf(0)\n--BODY--\nState: 0\n[t] 0 {0}\n--END--\n"
    )
    with pytest.raises(HoaError, match="Zoom"):
        from_hoa(text)


def test_ignores_unknown_lowercase_header():
    text = (
        "HOA: v1\nStates: 1\nStart: 0\nAP: 1 \"a\"\nzoom: 3\n"
        "Acceptance: 1 Inf(0)\n--BODY--\nState: 0\n[t] 0 {0}\n--END--\n"
    )
    a = from_hoa(text)
    assert a.n_states == 1 and a.kind == "buchi"


def test_rejects_other_acceptance():
    text = (
        "HOA: v1\nStates: 1\nStart: 0\nAP: 1 \"a\"\n"
        "Acceptance: 2 Inf(0) & Fin(1)\n--BODY--\nState: 0\n[t] 0\n--END--\n"
    )
    with pytest.raises(HoaError, match="acceptance"):
        from_hoa(text)


def test_rejects_index_beyond_arity():
    # arity 3 needs two index bits; setting both encodes index 4
    text = (
        "HOA: v1\nStates: 1\nStart: 0\nAP: 3 \"a\" \"_idx0\" \"_idx1\"\n"
        "x-index-arity: 3\nAcceptance: 1 Inf(0)\n--BODY--\n"
        "State: 0\n[1&2] 0\n--END--\n"
    )
    with pytest.raises(HoaError, match="x-index-arity"):
        from_hoa(text)


def test_repeated_bad_labels_raise_at_their_first_edge():
    head = "HOA: v1\nStates: 2\nStart: 0\nAP: 1 \"a\"\nAcceptance: 1 Inf(0)\n--BODY--\n"
    bad_syntax = head + "State: 0\n[0 &] 1\nState: 1\n[0 &] 0\n[0 &] 7\n--END--\n"
    with pytest.raises(HoaError, match=r"^bad label syntax: '0 &'$"):
        from_hoa(bad_syntax)
    with pytest.raises(
        HoaError, match=r"^AP index out of range in label '!1' \(AP count 1\)$"
    ):
        from_hoa(head + "State: 0\n[0] 1\n[!1] 1\n--END--\n")
    arity = head.replace('AP: 1 "a"', 'AP: 3 "a" "_idx0" "_idx1"\nx-index-arity: 3')
    good_then_bad = (
        arity + "State: 0\n[!1&!2] 1\n[!1&!2] 0\nState: 1\n[1&2] 0\n[1&2] 1\n--END--\n"
    )
    with pytest.raises(
        HoaError, match=r"^transition label uses index 4 beyond x-index-arity 3$"
    ):
        from_hoa(good_then_bad)
    # the label is read where its edge is: an earlier bad target comes first
    with pytest.raises(HoaError, match="target 7 out of range"):
        from_hoa(good_then_bad.replace("[1&2] 0", "[1&2] 7"))


def _random_label(rng, n_aps, depth):
    """A random label over AP indices below n_aps, as its HOA text and its
    truth under an AP valuation (bit k of v sets AP k)."""
    r = rng.random()
    if depth == 0 or r < 0.3:
        k = rng.randrange(n_aps + 2)
        if k >= n_aps:
            return "tf"[k - n_aps], lambda v, const=k == n_aps: const
        return str(k), lambda v, k=k: bool(v >> k & 1)
    if r < 0.45:
        text, holds = _random_label(rng, n_aps, depth - 1)
        return f"!({text})", lambda v: not holds(v)
    (lt, lh), (rt, rh) = (_random_label(rng, n_aps, depth - 1) for _ in "lr")
    if rng.random() < 0.5:
        return f"({lt}) & ({rt})", lambda v: lh(v) and rh(v)
    return f"({lt})|({rt})", lambda v: lh(v) or rh(v)


def test_random_labels_read_as_their_valuations():
    """Edge i of state 0 goes to state i, so the successors of each letter
    name exactly the labels that hold under it."""
    rng = random.Random(14)
    for _ in range(60):
        n_aps = rng.randint(1, 4)
        labels = [_random_label(rng, n_aps, rng.randint(0, 4)) for _ in range(6)]
        aps = " ".join(f'"p{k}"' for k in range(n_aps))
        text = "".join(
            [f"HOA: v1\nStates: 6\nStart: 0\nAP: {n_aps} {aps}\n"
             "Acceptance: 1 Inf(0)\n--BODY--\nState: 0\n"]
            + [f"[{label}] {i}\n" for i, (label, _) in enumerate(labels)]
            + [f"State: {q}\n[t] {q}\n" for q in range(1, 6)] + ["--END--\n"]
        )
        a = from_hoa(text)
        assert a.alphabet.index_arity == 1
        for v in range(1 << n_aps):
            letter = a.alphabet.letter(v)
            expected = tuple(i for i, (_, holds) in enumerate(labels) if holds(v))
            assert a.transitions[0][letter] == expected, (text, v)


def test_label_beyond_arity_names_the_lowest_index():
    text = (
        "HOA: v1\nStates: 1\nStart: 0\nAP: 4 \"a\" \"_idx0\" \"_idx1\" \"_idx2\"\n"
        "x-index-arity: 5\nAcceptance: 1 Inf(0)\n--BODY--\nState: 0\n[t] 0\n--END--\n"
    )
    with pytest.raises(HoaError, match=r"^transition label uses index 6 beyond"):
        from_hoa(text)


def test_repeated_labels_give_the_same_automaton():
    rng = random.Random(9)
    al = Alphabet(atoms_named("a"), 2)
    repeats = 0
    for _ in range(20):
        edges = [
            (q, x, s, rng.random() < 0.3)
            for q in range(4) for x in al.letters() for s in range(4)
            if rng.random() < 0.3
        ]
        a = build_automaton(al, 4, 0, "buchi", edges)
        text = to_hoa(a)
        # the same labels spelled apart: wrap the i-th one in i parentheses
        lines = text.splitlines()
        spelled = [
            "[" + "(" * i + ln[1:ln.index("]")] + ")" * i + ln[ln.index("]"):]
            if ln.startswith("[") else ln
            for i, ln in enumerate(lines)
        ]
        b = from_hoa(text)
        assert b == from_hoa("\n".join(spelled)) == a
        labels = [ln[: ln.index("]")] for ln in lines if ln.startswith("[")]
        repeats += len(labels) - len(set(labels))
    assert repeats > 20


def test_arity_one_keeps_index_looking_names_as_atoms():
    text = (
        "HOA: v1\nStates: 1\nStart: 0\nAP: 2 \"a\" \"_idx0\"\n"
        "x-index-arity: 1\nAcceptance: 1 Inf(0)\n--BODY--\n"
        "State: 0\n[t] 0 {0}\n--END--\n"
    )
    a = from_hoa(text)
    assert a.alphabet.atoms.names == ("a", "_idx0")
    assert a.alphabet.index_arity == 1


def test_duplicate_edge_mark_collapse_depends_on_kind():
    # same (state, letter, dst) listed marked and unmarked
    buchi = (
        "HOA: v1\nStates: 1\nStart: 0\nAP: 1 \"a\"\n"
        "Acceptance: 1 Inf(0)\n--BODY--\nState: 0\n[t] 0 {0}\n[t] 0\n--END--\n"
    )
    a = from_hoa(buchi)
    assert (0, 0, 0) in a.marked and (0, 1, 0) in a.marked
    cobuchi = buchi.replace("Inf(0)", "Fin(0)")
    b = from_hoa(cobuchi)
    assert not b.marked
    # each letter of a line merges with what that letter had before
    c = from_hoa(cobuchi.replace("[t] 0 {0}\n[t] 0", "[!0] 0\n[t] 0 {0}"))
    assert c.marked == {(0, 1, 0)}


def test_overlapping_labels_resolve_marks_letter_by_letter():
    # two successors, each read by labels that overlap with different marks
    text = (
        "HOA: v1\nStates: 2\nStart: 0\nAP: 2 \"a\" \"b\"\nAcceptance: 1 Inf(0)\n"
        "--BODY--\nState: 0\n[0] 0 {0}\n[0 | 1] 0\n[1] 1 {0}\n[!0] 1 {0}\n[0 & 1] 1\n"
        "State: 1\n[t] 1\n--END--\n"
    )
    # letter: (successors, marked ones under Buchi, marked ones under co-Buchi)
    expected = {
        0b00: ((1,), {1}, {1}),
        0b01: ((0,), {0}, set()),
        0b10: ((0, 1), {1}, {1}),
        0b11: ((0, 1), {0, 1}, set()),
    }
    for kind, col in (("buchi", 1), ("cobuchi", 2)):
        a = from_hoa(text if kind == "buchi" else text.replace("Inf(0)", "Fin(0)"))
        assert a.kind == kind
        for letter, want in expected.items():
            assert a.transitions[0][letter] == want[0]
            assert {s for s in (0, 1) if (0, letter, s) in a.marked} == want[col]
        assert a.transitions[1] == ((1,),) * 4
        assert all(q == 0 for q, _, _ in a.marked)


def test_sixteen_aps_read_to_their_cells():
    aps = " ".join(f'"p{k}"' for k in range(16))
    a = from_hoa(
        f"HOA: v1\nStates: 2\nStart: 0\nAP: 16 {aps}\nAcceptance: 1 Fin(0)\n"
        "--BODY--\nState: 0\n[t] 1\nState: 1\n[0 & !15] 0 {0}\n--END--\n"
    )
    assert a.alphabet.size == 1 << 16
    assert a.transitions[0] == ((1,),) * (1 << 16)
    reads = [v for v in range(1 << 16) if v & 1 and not v >> 15]
    assert [v for v, cell in enumerate(a.transitions[1]) if cell] == reads
    assert {a.transitions[1][v] for v in reads} == {(0,)}
    assert a.marked == {(1, v, 0) for v in reads}


def _cube_set(cubes, n):
    """The valuations over n APs that some cube of literals holds under,
    found by trying each valuation."""
    def holds(lit, v):
        return bool(v >> int(lit.lstrip("!")) & 1) != lit.startswith("!")
    return sum(1 << v for v in range(1 << n)
               if any(all(holds(lit, v) for lit in cube) for cube in cubes))


def test_cover_is_exact_and_the_same_for_the_same_set():
    rng = random.Random(23)
    for n in range(7):
        full = (1 << (1 << n)) - 1
        assert hoa._cover(full, n) == [()]  # printed as t
        assert hoa._cover(0, n) == []
        for _ in range(40):
            density = rng.random()
            vs = sum(1 << v for v in range(1 << n) if rng.random() < density)
            cubes = hoa._cover(vs, n)
            assert _cube_set(cubes, n) == vs, (n, vs)
            assert hoa._cover(int(str(vs)), n) == cubes
            for cube in cubes:
                aps = [int(lit.lstrip("!")) for lit in cube]
                assert aps == sorted(set(aps)) and all(k < n for k in aps)
    # in a written file: the full set is t, and equal sets print alike
    al = Alphabet(atoms_named("a", "b", "c"), 1)
    edges = [(0, x, 0) for x in al.letters()]
    edges += [(q, x, 1, True) for q in (0, 1) for x in (1, 3, 6)]
    lines = to_hoa(build_automaton(al, 2, 0, "buchi", edges)).splitlines()
    body = lines[lines.index("--BODY--") + 1:]
    assert body[:3] == ["State: 0", "[t] 0", body[2]]
    assert body[2].endswith("] 1 {0}") and body[3:] == ["State: 1", body[2], "--END--"]


def test_version_and_body_required():
    with pytest.raises(HoaError):
        from_hoa("HOA: v2\nStates: 1\n--BODY--\n--END--\n")
    with pytest.raises(HoaError):
        from_hoa("HOA: v1\nStates: 1\nStart: 0\nAP: 0\nAcceptance: 1 Inf(0)\n")


@pytest.mark.parametrize("old, new", [
    ("States: 1", "States: x"),
    ("AP: 1 ", "AP: one "),
    ("AP: 1 \"a\"", "AP:"),
    ("Acceptance:", "x-index-arity: two\nAcceptance:"),
    ("[t] 0 {0}", "[t 0 {0}"),
    ("[t] 0 {0}", "[1] 0 {0}"),
    ("[t] 0 {0}", "[!1] 0 {0}"),
    ("[t] 0 {0}", "[0&(t&0] 0 {0}"),
    ("AP: 1 \"a\"", "AP: 17 " + " ".join(f'"p{i}"' for i in range(17))),
    ("AP: 1 \"a\"", "AP: 17 " + " ".join(f'"p{i}"' for i in range(17))
     + "\nx-index-arity: 2"),
])
def test_malformed_numbers_and_labels_raise_hoa_error(old, new):
    text = (
        "HOA: v1\nStates: 1\nStart: 0\nAP: 1 \"a\"\n"
        "Acceptance: 1 Inf(0)\n--BODY--\nState: 0\n[t] 0 {0}\n--END--\n"
    )
    assert from_hoa(text).n_states == 1
    with pytest.raises(HoaError):
        from_hoa(text.replace(old, new, 1))


def _two_state_text(states_header: str) -> str:
    return (
        f"HOA: v1\nStates: {states_header}\nStart: 0\nAP: 2 \"a\" \"b\"\n"
        "Acceptance: 1 Inf(0)\n--BODY--\nState: 0\n[0] 1 {0}\nState: 1\n[t] 0\n"
        "--END--\n"
    )


def test_cell_budget_counts_states_times_letters(monkeypatch):
    monkeypatch.setattr(hoa, "MAX_CELLS", 8)  # 2 states over 4 letters
    assert from_hoa(_two_state_text("2")).n_states == 2
    monkeypatch.setattr(hoa, "MAX_CELLS", 7)
    with pytest.raises(HoaError) as err:
        from_hoa(_two_state_text("2"))
    assert str(err.value) == (
        "States: 2 times 4 letters is over the limit of 7 (state, letter) cells")


def test_negative_states_has_its_own_message():
    with pytest.raises(HoaError) as err:
        from_hoa(_two_state_text("-2"))
    assert str(err.value) == "States: -2 is negative"


def test_huge_states_header_is_refused_before_allocating():
    # a child process with 1 GiB of address space: a reader that allocates
    # for the header fails there at once instead of exhausting the machine
    pytest.importorskip("resource")
    script = (
        "import resource\n"
        "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, hard))\n"
        "from gfmredux.hoa import HoaError, from_hoa\n"
        "try:\n"
        f"    from_hoa({_two_state_text('100000000000')!r})\n"
        "except HoaError as exc:\n"
        "    print(exc)\n"
    )
    src = os.path.dirname(os.path.dirname(gfmredux.__file__))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("States: 100000000000 times 4 letters is over the limit "
                           "of 1048576 (state, letter) cells\n")
