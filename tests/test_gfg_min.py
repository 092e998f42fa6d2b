import random

import pytest

from gfmredux.automata import (
    Alphabet,
    Automaton,
    AutomatonError,
    LassoWord,
    build_automaton,
    lang_partition,
    lasso_member,
)
from gfmredux import gfg_min
from gfmredux.gf_direct import gf_to_dba
from gfmredux.gfg_min import (
    MinimizeError,
    _redirect,
    _run_accepts,
    alive_states,
    minimize,
    nca_determinize,
    nca_lang_equiv,
    normalize_safety,
    safe_contained,
    safe_deterministic,
    semantically_deterministic,
)
from gfmredux.hoa import from_hoa
from gfmredux.ltl import AtomSet
from gfmredux.patterns import gen_pattern
from gfmredux.redux import dba_to_dca
from oracles import brute_lasso_member, brute_safe_contained

ALPH = Alphabet(AtomSet(("a",)), 1)


def _dcw(transitions, marked, initial=0):
    return Automaton(
        alphabet=ALPH,
        kind="cobuchi",
        initial=initial,
        transitions=transitions,
        marked=frozenset(marked),
    )


# marks every second occurrence of letter 1; language = finitely many 1s
FLIP = _dcw((((0,), (1,)), ((1,), (0,))), {(1, 1, 0)})

# letter 1 sends the wait state to a dead sink; 0 = stay safe
DELAY = _dcw(
    (((0,), (1,)), ((2,), (3,)), ((2,), (3,)), ((3,), (3,))),
    {(1, 0, 2), (3, 0, 3), (3, 1, 3)},
)

# language = words containing at least one 1; state 3 is unreachable
CONTAINS = _dcw(
    (((0,), (1,)), ((2,), (1,)), ((1,), (1,)), ((3,), (3,))),
    {(0, 0, 0)},
)


def test_minimize_fixture_three_to_two(fixture_text):
    d = from_hoa(fixture_text("shrink3to2.hoa"))
    m = minimize(d)
    assert (d.n_states, m.n_states) == (3, 2)
    assert m.meta["lang_class"] == (0, 1)
    assert nca_lang_equiv(m, d) is None


def test_minimize_collapses_flip_to_one_state():
    m = minimize(FLIP)
    assert m.n_states == 1
    assert m.meta["lang_class"] == (0,)
    assert nca_lang_equiv(m, FLIP) is None
    # finitely many 1s: letter 1 marked, letter 0 unmarked
    assert (0, 1, 0) in m.marked and (0, 0, 0) not in m.marked


def test_minimize_delay_automaton():
    m = minimize(DELAY)
    assert m.n_states == 3
    assert m.meta["lang_class"] == (0, 1, 2)
    assert nca_lang_equiv(m, DELAY) is None


def test_minimize_contains_automaton():
    m = minimize(CONTAINS)
    assert m.n_states == 2
    assert m.meta["lang_class"] == (0, 1)
    assert nca_lang_equiv(m, CONTAINS) is None


def test_minimize_idempotent():
    for d in (FLIP, DELAY, CONTAINS):
        m = minimize(d)
        again = minimize(m)
        assert again.n_states == m.n_states


def test_minimize_output_certificates():
    for d in (DELAY, CONTAINS):
        m = minimize(d)
        assert m.is_deterministic and m.is_complete
        assert safe_deterministic(m)
        assert semantically_deterministic(m, m.meta["lang_class"])


def test_minimize_rejects_bad_inputs():
    buchi = Automaton(
        alphabet=ALPH, kind="buchi", initial=0,
        transitions=(((0,), (0,)),), marked=frozenset({(0, 1, 0)}),
    )
    with pytest.raises(AutomatonError, match="co-Buchi"):
        minimize(buchi)
    incomplete = Automaton(
        alphabet=ALPH, kind="cobuchi", initial=0,
        transitions=(((0,), ()),), marked=frozenset(),
    )
    with pytest.raises(AutomatonError, match="deterministic complete"):
        minimize(incomplete)


def test_alive_states_and_normalize_safety():
    # state 1 loops through marked edges only: no safe tail exists there
    d = _dcw((((1,), (0,)), ((1,), (1,))), {(1, 0, 1), (1, 1, 1)})
    assert alive_states(d) == frozenset({0})
    nd = normalize_safety(d)
    assert nd.marked - d.marked == {(0, 0, 1)}
    assert normalize_safety(nd) is nd


def test_safe_contained_hand_case():
    assert safe_contained(DELAY, 3, 2)
    assert not safe_contained(DELAY, 2, 3)
    assert all(safe_contained(DELAY, q, q) for q in DELAY.states())


def test_safe_contained_matches_joint_runs():
    rng = random.Random(13)
    counts = [0, 0]
    for _ in range(150):
        al = Alphabet(AtomSet(()), rng.randint(2, 4))
        n = rng.randint(2, 5)
        edges = [
            (q, x, rng.randrange(n), rng.random() < 0.3)
            for q in range(n) for x in al.letters()
        ]
        d = build_automaton(al, n, 0, "cobuchi", edges)
        bad = brute_safe_contained(d)
        for p in d.states():
            for q in d.states():
                assert safe_contained(d, p, q) == ((p, q) not in bad)
                counts[(p, q) in bad] += 1
    assert min(counts) > 300


def _random_dcw(rng):
    al = Alphabet(AtomSet(("a", "b")[: rng.randint(1, 2)]), rng.randint(1, 2))
    n = rng.randint(2, 8)
    edges = [
        (q, x, rng.randrange(n), rng.random() < 0.3)
        for q in range(n) for x in al.letters()
    ]
    return build_automaton(al, n, 0, "cobuchi", edges)


def _random_lasso(rng, size, max_len=6):
    return LassoWord(
        tuple(rng.randrange(size) for _ in range(rng.randint(0, max_len))),
        tuple(rng.randrange(size) for _ in range(rng.randint(1, max_len))),
    )


def test_run_accepts_matches_the_redirected_automaton():
    rng = random.Random(23)
    for _ in range(200):
        d = _random_dcw(rng)
        gone, target = rng.sample(range(d.n_states), 2)
        keep_marks = rng.random() < 0.5
        cand = _redirect(d, gone, target, keep_marks)
        for _ in range(10):
            w = _random_lasso(rng, d.alphabet.size)
            assert _run_accepts(d, w) == lasso_member(d, w)
            assert _run_accepts(d, w, gone, target, keep_marks) == lasso_member(cand, w)


@pytest.mark.parametrize("family, params", [("TDR", (3,)), ("NCS", (1, 2))])
def test_stored_lassos_refute_failed_merges(family, params, monkeypatch):
    d = dba_to_dca(gf_to_dba(gen_pattern(family, params)))
    stored = []  # lassos returned by earlier checks
    real_equiv = gfg_min.nca_lang_equiv

    def spy_equiv(cand, original):
        for w in stored:  # no stored lasso separates a checked candidate
            assert lasso_member(cand, w) == lasso_member(d, w), w
        ce = real_equiv(cand, original)
        if ce is not None:
            stored.append(ce)
        return ce

    products = []  # one per product construction, of either kind
    for name in ("dcw_counterexample", "dcw_separating_lasso"):
        def spy_product(a, b, real=getattr(gfg_min, name)):
            products.append(a)
            return real(a, b)

        monkeypatch.setattr(gfg_min, name, spy_product)
    monkeypatch.setattr(gfg_min, "nca_lang_equiv", spy_equiv)
    m = minimize(d)
    assert m.n_states == d.n_states == 8
    assert stored
    # one product per check; checking every TDR 3 candidate in full took 50
    # products, and two per check (one per inclusion) 16 with kept lassos
    assert len(products) == {"TDR": 11, "NCS": 14}[family]


def _with_idle_atom(d):
    """The same automaton over one more atom, which no state reads: letter y
    of the larger alphabet acts as letter y mod |alphabet| of the old one."""
    base = d.alphabet
    big = Alphabet(AtomSet(base.atoms.names + ("idle",)), base.index_arity)
    edges = [
        (q, y, s, (q, y % base.size, s) in d.marked)
        for q in d.states()
        for y in big.letters()
        for s in d.succ(q, y % base.size)
    ]
    return build_automaton(big, d.n_states, d.initial, "cobuchi", edges)


def test_idle_atom_changes_no_relation():
    rng = random.Random(11)
    shrunk = 0
    for _ in range(150):
        d = _random_dcw(rng)
        e = _with_idle_atom(d)
        assert e.alphabet.size == 2 * d.alphabet.size
        assert lang_partition(e) == lang_partition(d)
        assert alive_states(e) == alive_states(d)
        for p in d.states():
            for q in d.states():
                assert safe_contained(e, p, q) == safe_contained(d, p, q)
        m = minimize(d)
        assert minimize(e).n_states == m.n_states
        shrunk += m.n_states < d.n_states
    assert shrunk >= 30


# nondeterministic: stay in 0 (marks on 1) or hop to 1 (marks on 0);
# accepts words with finitely many 0s or finitely many 1s
BISTABLE = Automaton(
    alphabet=ALPH, kind="cobuchi", initial=0,
    transitions=(((0, 1), (0,)), ((1,), (1,))),
    marked=frozenset({(0, 0, 0), (1, 1, 1)}),
)


def test_nca_determinize_breakpoint():
    det = nca_determinize(BISTABLE)
    assert det.n_states == 4
    assert det.is_deterministic and det.is_complete
    assert nca_lang_equiv(det, BISTABLE) is None
    assert lasso_member(det, LassoWord((), (1,)))
    assert lasso_member(det, LassoWord((1, 0), (0,)))
    assert not lasso_member(det, LassoWord((), (0, 1)))


def test_nca_determinize_keeps_the_language_of_random_automata():
    """The breakpoint determinisation of a complete nondeterministic
    co-Buchi automaton accepts exactly the lassos the automaton accepts."""
    rng = random.Random(31)
    counts = [0, 0]

    def cell(n):
        return [(s, rng.random() < 0.3)
                for s in rng.sample(range(n), rng.randint(1, min(2, n)))]

    for k in range(450):
        # after 300 plain alphabets, indexed ones whose indices of a mask
        # mostly share one cell, so letter classes have several members
        al = Alphabet(AtomSet(("a", "b")[: rng.randint(1, 2)]), 1 if k < 300 else 2 + k % 2)
        n = rng.randint(1, 4)
        if k < 300:
            edges = [(q, x, s, hot) for q in range(n) for x in al.letters()
                     for s, hot in cell(n)]
        else:
            edges = []
            for q in range(n):
                for m in range(1 << len(al.atoms)):
                    shared = cell(n)
                    for i in range(1, al.index_arity + 1):
                        own = shared if rng.random() < 0.75 else cell(n)
                        edges += [(q, al.letter(m, i), s, hot) for s, hot in own]
        a = build_automaton(al, n, 0, "cobuchi", edges)
        det = nca_determinize(a)
        assert det.is_deterministic and det.is_complete
        for _ in range(4):
            w = _random_lasso(rng, al.size, max_len=3)
            accepted = brute_lasso_member(a, w)
            assert brute_lasso_member(det, w) == accepted, (a, w)
            counts[accepted] += 1
    assert min(counts) >= 300, counts


def test_nca_determinize_state_cap():
    with pytest.raises(MinimizeError, match="exceeded 1 states"):
        nca_determinize(BISTABLE, max_states=1)


def test_nca_lang_equiv_witness_is_real():
    ce = nca_lang_equiv(FLIP, CONTAINS)
    assert ce is not None
    assert lasso_member(FLIP, ce) != lasso_member(CONTAINS, ce)
