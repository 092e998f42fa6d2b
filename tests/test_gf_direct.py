import random

import pytest

from gfmredux.automata import Alphabet, LassoWord, build_automaton, lasso_member
from gfmredux.gf_direct import (
    _useful_states,
    cosafety_to_nfa,
    gf_body,
    gf_to_dba,
    gf_to_gfm,
    nfa_to_gfm_gf,
    reset_subset_dba,
)
from gfmredux.graph import numbering
from gfmredux.ltl import (
    AtomSet,
    LtlError,
    PropBdd,
    af_step,
    atom_set,
    atoms_named,
    fold,
    parse,
    to_nnf,
)
from gfmredux.patterns import gen_pattern
from oracles import eval_lasso, random_cosafety_text


def test_gf_body_accepts_and_strips():
    f = parse("GF(a & Xb)")
    assert str(gf_body(f)) == "a & Xb"
    # NNF runs first, so an equivalent negated form is fine
    assert str(gf_body(parse("!F G !(a)"))) == "a"


def test_gf_body_rejections():
    with pytest.raises(LtlError, match="form GF"):
        gf_body(parse("F(a)"))
    with pytest.raises(LtlError, match="co-safety"):
        gf_body(parse("GF(Ga)"))
    with pytest.raises(LtlError, match="co-safety"):
        gf_body(parse("GF(!(a U b))"))


def test_nfa_states_are_residual_classes():
    nfa = cosafety_to_nfa(parse("a & XXb"))
    # residuals: a&XXb, Xb, b, tt, plus the dead ff sink
    assert nfa.n_states == 5
    assert nfa.kind == "finite"
    assert len(nfa.final_states) == 1


def test_nfa_of_a_formula_co_safety_once_folded():
    # tt | G a folds to tt: the one accepting state, over no atoms
    nfa = cosafety_to_nfa(parse("tt | G a"))
    assert (nfa.n_states, nfa.final_states, nfa.transitions) == (1, {0}, (((0,),),))
    # a | (ff & G b) folds to a, and keeps the alphabet of a and b
    nfa = cosafety_to_nfa(parse("a | (ff & G b)"))
    assert nfa.n_states == 3 and nfa.alphabet.atoms.names == ("a", "b")


def test_nfa_splits_top_level_disjunctions():
    # the two disjuncts drive separate branches instead of a joint residual
    nfa = cosafety_to_nfa(parse("(a & XXa) | (b & XXb)"))
    gfm = nfa_to_gfm_gf(nfa)
    assert not gfm.is_deterministic


def test_gfm_sizes_small():
    assert gf_to_gfm(parse("GF a")).n_states == 1
    assert gf_to_gfm(parse("GF(a | b)")).n_states == 1
    assert gf_to_gfm(parse("GF(a & Xb)")).n_states == 2
    assert gf_to_gfm(parse("GF(a & XXb)")).n_states == 3


def test_gfm_trivial_body_is_universal():
    a = gf_to_gfm(parse("GF(a | !a)"))
    assert a.n_states == 1
    letters = list(a.alphabet.letters())
    assert all((0, letter, 0) in a.marked for letter in letters)


def test_gfm_is_complete_and_marks_point_home():
    a = gf_to_gfm(parse("GF(a & XXXb)"))
    assert a.is_complete
    assert a.initial == 0
    assert all(s == 0 for (_, _, s) in a.marked)


def test_gfm_language_matches_direct_evaluation():
    rng = random.Random(11)
    for text in ("GF(a & Xb)", "GF(a | b & Xa)", "GF(a U b)", "GF(a & XXb)"):
        f = parse(text)
        a = gf_to_gfm(f)
        size = a.alphabet.size
        for _ in range(150):
            w = LassoWord(
                tuple(rng.randrange(size) for _ in range(rng.randint(0, 5))),
                tuple(rng.randrange(size) for _ in range(rng.randint(1, 5))),
            )
            assert lasso_member(a, w) == eval_lasso(f, w), (text, w)


def test_reset_dba_is_deterministic_complete():
    for text in ("GF(a & XXb)", "GF(a U b)", "GF((a & Xa) | (b & Xb))"):
        d = gf_to_dba(parse(text))
        assert d.is_deterministic and d.is_complete
        assert d.kind == "buchi"


def test_reset_dba_language_matches_direct_evaluation():
    rng = random.Random(12)
    for text in ("GF(a & Xb)", "GF(a U b)", "GF((a & Xa) | (b & Xb))"):
        f = parse(text)
        d = gf_to_dba(f)
        size = d.alphabet.size
        for _ in range(150):
            w = LassoWord(
                tuple(rng.randrange(size) for _ in range(rng.randint(0, 5))),
                tuple(rng.randrange(size) for _ in range(rng.randint(1, 5))),
            )
            assert lasso_member(d, w) == eval_lasso(f, w), (text, w)


def test_routes_agree_on_random_lassos():
    rng = random.Random(13)
    for text in ("GF(a & XXXb)", "GF(a & Xb & XXXc)"):
        f = parse(text)
        a, d = gf_to_gfm(f), gf_to_dba(f)
        size = a.alphabet.size
        for _ in range(200):
            w = LassoWord(
                tuple(rng.randrange(size) for _ in range(rng.randint(0, 6))),
                tuple(rng.randrange(size) for _ in range(rng.randint(1, 6))),
            )
            assert lasso_member(a, w) == lasso_member(d, w)


def test_explicit_atom_set_controls_alphabet():
    ap = atoms_named("a", "b", "c")
    a = gf_to_gfm(parse("GF a", ap), ap)
    assert a.alphabet.atoms == ap
    assert a.alphabet.size == 8


def test_formula_over_another_atom_set_is_refused():
    # read against ("b", "a"), atom a's index 0 would name b
    with pytest.raises(LtlError, match="differ"):
        gf_to_gfm(parse("G F a"), atoms_named("b", "a"))
    # b has no bit in a one-atom alphabet
    with pytest.raises(LtlError, match="differ"):
        gf_to_gfm(parse("G F (a & X b)"), atoms_named("a"))
    with pytest.raises(LtlError, match="differ"):
        gf_to_dba(parse("G F a"), atoms_named("b", "a"))
    with pytest.raises(LtlError, match="differ"):
        cosafety_to_nfa(parse("a"), atoms_named("a", "b"))
    # an equal set built apart is the same alphabet; a formula without atoms
    # takes any
    assert gf_to_gfm(parse("G F a"), atoms_named("a")).n_states == 1
    assert gf_to_gfm(parse("G F tt"), atoms_named("a", "b")).alphabet.size == 4


def _per_letter_nfa(f, atoms):
    """cosafety_to_nfa without letter classes: one derivative for every
    state and every letter."""
    g = fold(to_nnf(f))
    alphabet = Alphabet(atoms or atom_set(g) or AtomSet(()), 1)
    bdd = PropBdd()
    order, number = numbering(bdd.node(g))
    reps = {order[0]: g}
    edges = []
    for q, node in enumerate(order):
        for letter in alphabet.letters():
            residual = af_step(reps[node], letter)
            for part in residual.children if residual.kind == "or" else (residual,):
                n = bdd.node(part)
                reps.setdefault(n, part)
                edges.append((q, letter, number(n)))
    finals = [number(bdd.TRUE)] if bdd.TRUE in reps else []
    return build_automaton(alphabet, len(order), 0, "finite", edges, finals=finals)


def _per_letter_wraps(nfa):
    """nfa_to_gfm_gf and reset_subset_dba without letter classes: one cell
    for every state and every letter, built from an edge list."""
    alphabet, finals = nfa.alphabet, nfa.final_states
    if nfa.initial in finals:
        universal = build_automaton(alphabet, 1, 0, "buchi",
                                    [(0, x, 0, True) for x in alphabet.letters()])
        return universal, universal
    useful = _useful_states(nfa)
    order, number = numbering(nfa.initial)
    edges = []
    for i, q in enumerate(order):
        for letter in alphabet.letters():
            base = nfa.succ(q, letter)
            targets = {s for s in base if s in useful and s not in finals}
            edges += [(i, letter, number(s)) for s in sorted(targets)]
            edges.append((i, letter, 0, any(s in finals for s in base)))
    gfm = build_automaton(alphabet, len(order), 0, "buchi", edges)

    start = frozenset({nfa.initial})
    order, number = numbering(start)
    edges = []
    for i, subset in enumerate(order):
        for letter in alphabet.letters():
            targets = {s for q in subset for s in nfa.succ(q, letter) if s in useful}
            fires = not targets.isdisjoint(finals)
            succ = start if fires else frozenset(targets | {nfa.initial})
            edges.append((i, letter, number(succ), fires))
    return gfm, build_automaton(alphabet, len(order), 0, "buchi", edges)


def test_letter_classes_give_the_per_letter_nfa():
    bodies = [(gf_body(gen_pattern("TDR", (n,))), None) for n in range(2, 7)]
    bodies += [(gf_body(gen_pattern("LIB", (n,))), None) for n in range(2, 5)]
    bodies += [(gf_body(gen_pattern("NCS", params)), None) for params in (
        (1, 2), (1, 2, 1), (1, 2, 2), (1, 2, 3),
        (1, 2, 3, 1), (1, 2, 3, 2), (1, 2, 3, 3), (1, 2, 3, 4),
    )]
    abc = atoms_named("a", "b", "c")
    rng = random.Random(7)
    bodies += [(parse(random_cosafety_text(rng, max_depth=4), abc), abc)
               for _ in range(200)]
    for f, atoms in bodies:
        nfa = cosafety_to_nfa(f, atoms)
        assert nfa == _per_letter_nfa(f, atoms), str(f)
        assert (nfa_to_gfm_gf(nfa), reset_subset_dba(nfa)) == _per_letter_wraps(nfa), str(f)


def test_converters_reject_wrong_kinds():
    nfa = cosafety_to_nfa(parse("a & Xb"))
    gfm = nfa_to_gfm_gf(nfa)
    with pytest.raises(LtlError):
        nfa_to_gfm_gf(gfm)
    with pytest.raises(LtlError):
        reset_subset_dba(gfm)
    with pytest.raises(LtlError):
        cosafety_to_nfa(parse("Ga"))
