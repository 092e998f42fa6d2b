"""Hand-computed cases for the benchmark's reference checks.

Run with `python3 -m pytest perfbench/test_reference.py` or
`python3 perfbench/test_reference.py`.
"""

import os
import sys
from types import SimpleNamespace

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reference as R  # noqa: E402
import workloads as W  # noqa: E402

A, B = ("atom", "a"), ("atom", "b")
BITS = {"a": 0, "b": 1}  # letter 0 = {}, 1 = {a}, 2 = {b}, 3 = {a, b}


def holds(f, prefix, cycle):
    return R.ltl_holds(f, prefix, cycle, BITS)


def test_ltl_atoms_next_and_negation():
    assert holds(A, (1,), (0,))
    assert not holds(A, (), (0,))
    assert holds(("X", B), (1, 2), (0,))
    assert not holds(("X", B), (2, 1), (0,))
    assert holds(("not", A), (2,), (1,))


def test_ltl_until_finally_globally_on_the_cycle():
    assert holds(("U", A, B), (1, 1), (2,))
    assert not holds(("U", A, B), (), (1,))  # a forever, b never
    assert not holds(("U", A, B), (0,), (2,))  # a fails before b comes
    assert holds(("F", B), (0, 0), (0, 2))  # b only inside the cycle
    assert holds(("G", A), (), (1, 3))
    assert not holds(("G", A), (1,), (1, 0))
    assert holds(W.gf(A), (0, 0), (0, 1))
    assert not holds(W.gf(A), (1, 1), (0,))
    assert holds(W.tdr(2), (), (1, 0, 2))  # a, then b two steps later, forever
    assert not holds(W.tdr(2), (), (1, 2))


def test_to_text_is_fully_parenthesised():
    assert R.to_text(W.tdr(2)) == "G(F((a & X(X(b)))))"
    assert R.to_text(("U", ("not", A), ("or", B, ("tt",)))) == "(!a U (b | tt))"


def automaton(kind, transitions, marked, initial=0):
    return SimpleNamespace(kind=kind, initial=initial,
                           transitions=transitions, marked=frozenset(marked))


# letters 0 and 1; one state whose letter-1 self-loop is marked
ONE_STATE = (((0,), (0,)),)


def test_buchi_acceptance():
    inf_one = automaton("buchi", ONE_STATE, {(0, 1, 0)})
    assert R.automaton_accepts(inf_one, (), (0, 1))
    assert not R.automaton_accepts(inf_one, (1, 1), (0,))
    # nondeterministic FG(letter 1): guess the point after which only 1 comes
    fg = automaton("buchi", (((0,), (0, 1)), ((), (1,))), {(1, 1, 1)})
    assert R.automaton_accepts(fg, (0, 1, 0), (1,))
    assert not R.automaton_accepts(fg, (), (0, 1))


def test_cobuchi_acceptance():
    fin_one = automaton("cobuchi", ONE_STATE, {(0, 1, 0)})
    assert R.automaton_accepts(fin_one, (1, 1), (0,))
    assert not R.automaton_accepts(fin_one, (), (0, 1))


def test_pa_document_graph():
    doc = {"initial": 0, "states": [
        [[[0, "1", False]], [[1, "1/2", True], [0, "1/2", False]]],
        [[[1, "1", False]], [[1, "1", True]]],
    ]}
    g = R.pa_doc_as_automaton(doc)
    assert g.transitions == (((0,), (0, 1)), ((1,), (1,)))
    assert g.marked == {(0, 1, 1), (1, 1, 1)}
    assert R.automaton_accepts(g, (), (1,))
    assert not R.automaton_accepts(g, (), (0,))


def mdp(states, initial=0):
    return {"atoms": [], "initial": initial,
            "states": [{"label": [], "actions": [{"name": f"x{i}", "to": to}
                                                 for i, to in enumerate(acts)]}
                       for acts in states]}


def test_bracket_picks_the_better_action():
    # 0: go = 1/2 win, 1/2 trap; risky = 3/4 to state 3, which wins half the
    # time: 3/8; idle never leaves.  The value is 1/2.
    doc = mdp([
        [[[1, "1/2"], [2, "1/2"]], [[3, "3/4"], [2, "1/4"]], [[0, "1"]]],
        [[[1, "1"]]],
        [[[2, "1"]]],
        [[[1, "1/2"], [2, "1/2"]]],
    ])
    lo, hi = R.reach_bracket(doc, {1})
    assert lo <= 0.5 <= hi and hi - lo <= 1e-12


def test_bracket_removes_self_loops():
    # stay w.p. 1 - 2e-11, else win or trap: exactly 1/2 after one sweep
    doc = W.slow_chain_mdp()
    lo, hi = R.reach_bracket(doc, {W.WIN}, max_sweeps=3)
    assert lo == hi == 0.5


def test_bracket_refuses_an_end_component_without_the_target():
    # 0 and 1 can bounce forever, so the upper bound cannot converge
    doc = mdp([
        [[[1, "1"]], [[2, "1/2"], [3, "1/2"]]],
        [[[0, "1"]]],
        [[[2, "1"]]],
        [[[3, "1"]]],
    ])
    with pytest.raises(RuntimeError):
        R.reach_bracket(doc, {2}, max_sweeps=50)


def test_win_trap_family_leaks_everywhere():
    import random

    doc = W.win_trap_mdp(random.Random(0), 30)
    for entry in doc["states"][2:]:
        for act in entry["actions"]:
            assert {W.WIN, W.TRAP} & {s for s, _ in act["to"]}
    lo, hi = R.reach_bracket(doc, {W.WIN})
    assert 0 < lo <= hi < 1 and hi - lo <= 1e-12


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
