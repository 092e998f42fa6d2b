import dataclasses
import random
from fractions import Fraction

import pytest

from gfmredux.automata import (
    Alphabet,
    Automaton,
    AutomatonError,
    LassoWord,
    ProbAutomaton,
    _congruence,
    _pair_relations,
    build_automaton,
    complete,
    dcw_counterexample,
    dcw_separating_lasso,
    lang_partition,
    lasso_member,
    pa_lasso_prob,
    prune_unreachable,
    strongly_connected_components,
)
from gfmredux.gfg_min import nca_determinize
from gfmredux.graph import closure, component_of, coreach, numbering
from gfmredux.ltl import atoms_named
from oracles import brute_lasso_member, brute_pa_lasso_prob, brute_safe_contained

AL1 = Alphabet(atoms_named("a"), 1)   # letters: 0 = {}, 1 = {a}


def two_letter(kind, edges, n, initial=0, finals=()):
    return build_automaton(AL1, n, initial, kind, edges, finals=finals)


def test_alphabet_letter_packing():
    al = Alphabet(atoms_named("a", "b"), 3)
    assert al.size == 12
    for mask in range(4):
        for idx in (1, 2, 3):
            letter = al.letter(mask, idx)
            assert al.mask(letter) == mask
            assert al.index(letter) == idx
    with pytest.raises(AutomatonError):
        al.letter(4, 1)
    with pytest.raises(AutomatonError):
        al.letter(0, 4)
    with pytest.raises(AutomatonError):
        Alphabet(atoms_named("a"), 0)


def test_lasso_word_validation():
    with pytest.raises(AutomatonError):
        LassoWord((0,), ())
    w = LassoWord((0, 1), (1, 0, 1))
    assert w.total == 5
    assert [w.letter_at(i) for i in range(5)] == [0, 1, 1, 0, 1]
    assert w.next_pos(4) == 2
    assert w.next_pos(1) == 2


def test_build_and_complete():
    a = two_letter("buchi", [(0, 1, 0, True)], 1)
    assert not a.is_complete
    c = complete(a)
    assert c.is_complete and c.n_states == 2
    # the sink rejects: its loops are marked for cobuchi-style reading only
    # when completing a cobuchi automaton
    assert not any((1, letter, 1) in c.marked for letter in AL1.letters())
    d = two_letter("cobuchi", [(0, 1, 0)], 1)
    cd = complete(d)
    assert all((1, letter, 1) in cd.marked for letter in AL1.letters())
    assert complete(cd) is cd


def test_prune_unreachable():
    a = two_letter("buchi", [(0, 0, 0, True), (0, 1, 0), (1, 0, 0)], 2)
    p = prune_unreachable(a)
    assert p.n_states == 1
    assert (0, 0, 0) in p.marked


def test_scc_reverse_topological():
    comps = strongly_connected_components(
        [0, 1, 2, 3], lambda q: {0: [1], 1: [0, 2], 2: [3], 3: [2]}[q]
    )
    assert sorted(map(sorted, comps)) == [[0, 1], [2, 3]]
    # reverse topological: the sink component {2,3} first
    assert sorted(comps[0]) == [2, 3]


def test_scc_successors_outside_node_list():
    comps = strongly_connected_components([0], lambda q: [1] if q == 0 else [])
    assert [0] in [sorted(c) for c in comps]


def _random_digraph(rng):
    n = rng.randint(1, 12)
    density = rng.random() * 0.4
    succs = {u: [v for v in range(n) if rng.random() < density] for u in range(n)}
    for u in succs:
        rng.shuffle(succs[u])
    return n, succs


def _brute_reach(n, succs, allowed):
    """reach[u][v]: a path of length >= 0 from u to v inside `allowed`
    (Warshall's transitive closure)."""
    reach = [[u == v or (u in allowed and v in allowed and v in succs[u])
              for v in range(n)] for u in range(n)]
    for k in allowed:
        for u in range(n):
            if reach[u][k]:
                for v in range(n):
                    if reach[k][v]:
                        reach[u][v] = True
    return reach


def test_graph_kernel_matches_brute_force_reachability():
    rng = random.Random(20240601)
    for _ in range(300):
        n, succs = _random_digraph(rng)
        every = set(range(n))
        reach = _brute_reach(n, succs, every)
        succ = succs.__getitem__

        comp_of = component_of(strongly_connected_components(range(n), succ))
        for u in range(n):
            for v in range(n):
                assert (comp_of[u] == comp_of[v]) == (reach[u][v] and reach[v][u])

        seeds = rng.sample(range(n), rng.randint(1, n))
        order = closure(seeds, succ)
        assert order[:len(seeds)] == seeds
        assert len(order) == len(set(order))
        assert set(order) == {v for v in range(n) if any(reach[s][v] for s in seeds)}
        # breadth-first discovery: each later node is found by its earliest
        # predecessor in the order, in that predecessor's successor order
        found_by = []
        for v in order[len(seeds):]:
            i = min(i for i, u in enumerate(order) if v in succs[u])
            found_by.append((i, succs[order[i]].index(v)))
        assert found_by == sorted(found_by)

        nodes = set(rng.sample(range(n), rng.randint(1, n)))
        targets = rng.sample(sorted(nodes), rng.randint(0, len(nodes)))
        inside = _brute_reach(n, succs, nodes)
        assert coreach(nodes, succ, targets) == {
            u for u in nodes if any(inside[u][t] for t in targets)
        }


def test_numbering_gives_ids_in_first_call_order():
    order, number = numbering("s")
    assert order == ["s"] and number("s") == 0
    assert [number(x) for x in ("b", "a", "b", "s", "c")] == [1, 2, 1, 0, 3]
    assert order == ["s", "b", "a", "c"]


def test_numbering_walk_sees_nodes_appended_during_it():
    """Walking `order` while numbering successors visits every node
    reachable from the start, each once, in closure's breadth-first order."""
    rng = random.Random(11)
    for _ in range(100):
        n, succs = _random_digraph(rng)
        start = rng.randrange(n)
        order, number = numbering(start)
        walked = []
        for i, u in enumerate(order):
            assert number(u) == i
            walked.append(u)
            for v in succs[u]:
                number(v)
        assert walked == order == closure([start], succs.__getitem__)


def test_buchi_lasso_member():
    # accepts words with infinitely many a's
    a = two_letter("buchi", [(0, 0, 0), (0, 1, 0, True)], 1)
    assert lasso_member(a, LassoWord((), (1,)))
    assert lasso_member(a, LassoWord((1,), (0, 1)))
    assert not lasso_member(a, LassoWord((1, 1), (0,)))


def test_cobuchi_lasso_member():
    # accepts words with finitely many a's
    a = two_letter("cobuchi", [(0, 0, 0), (0, 1, 0, True)], 1)
    assert lasso_member(a, LassoWord((1, 1), (0,)))
    assert not lasso_member(a, LassoWord((), (0, 1)))


def test_lasso_member_resolves_nondeterminism():
    # state 1 loops on a only, state 2 on none; a run must pick 1 on a^w
    a = two_letter(
        "buchi",
        [(0, 1, 1), (0, 1, 2), (1, 1, 1, True), (2, 0, 2, True)],
        3,
    )
    assert lasso_member(a, LassoWord((), (1,)))
    assert lasso_member(a, LassoWord((1,), (0,)))
    assert not lasso_member(a, LassoWord((), (0,)))


def test_lasso_member_rejects_finite_kind():
    nfa = two_letter("finite", [(0, 1, 0)], 1, finals=[0])
    with pytest.raises(AutomatonError):
        lasso_member(nfa, LassoWord((), (0,)))


def test_lasso_letters_validated():
    a = two_letter("buchi", [(0, 0, 0, True), (0, 1, 0, True)], 1)
    with pytest.raises(AutomatonError):
        lasso_member(a, LassoWord((), (7,)))


def test_lasso_member_against_oracle():
    # nondeterministic automata with missing moves, of both kinds
    rng = random.Random(31)
    alphabets = (AL1, Alphabet(atoms_named("a", "b"), 1))
    answers = set()
    for _ in range(600):
        kind, al, n = rng.choice(("buchi", "cobuchi")), rng.choice(alphabets), rng.randint(1, 5)
        edges = [
            (q, x, s, rng.random() < 0.4)
            for q in range(n) for x in al.letters() for s in range(n)
            if rng.random() < 0.35
        ]
        a = build_automaton(al, n, 0, kind, edges)
        for _ in range(8):
            w = LassoWord(
                tuple(rng.randrange(al.size) for _ in range(rng.randint(0, 4))),
                tuple(rng.randrange(al.size) for _ in range(rng.randint(1, 4))),
            )
            accepts = lasso_member(a, w)
            assert accepts == brute_lasso_member(a, w), (a, w)
            answers.add((kind, accepts))
    assert len(answers) == 4


def dcw_fin_a():
    # co-Buchi: finitely many a's
    return two_letter("cobuchi", [(0, 0, 0), (0, 1, 0, True)], 1)


def dcw_never_a():
    # co-Buchi with a dead state: no a's at all
    return two_letter(
        "cobuchi",
        [(0, 0, 0), (0, 1, 1, True), (1, 0, 1, True), (1, 1, 1, True)],
        2,
    )


def test_dcw_containment():
    fin, never = dcw_fin_a(), dcw_never_a()
    assert dcw_counterexample(never, fin) is None
    ce = dcw_counterexample(fin, never)
    assert ce is not None
    # the witness really separates the languages
    assert lasso_member(fin, ce) and not lasso_member(never, ce)
    assert dcw_counterexample(fin, fin) is None


def test_dcw_counterexample_validates_inputs():
    fin = dcw_fin_a()
    incomplete = two_letter("cobuchi", [(0, 0, 0)], 1)
    with pytest.raises(AutomatonError):
        dcw_counterexample(fin, incomplete)
    buchi = two_letter("buchi", [(0, 0, 0), (0, 1, 0)], 1)
    with pytest.raises(AutomatonError):
        dcw_counterexample(buchi, fin)


def _random_cobuchi(rng, alphabet, nondet, max_states=8):
    """2 to max_states states; a nondeterministic one has up to two
    successors per letter, and some states of it may lack a letter."""
    n = rng.randint(2, max_states)
    edges = []
    for q in range(n):
        for x in alphabet.letters():
            k = rng.choice((0, 1, 1, 2)) if nondet else 1
            edges.extend(
                (q, x, s, rng.random() < 0.3) for s in rng.sample(range(n), min(k, n))
            )
    return build_automaton(alphabet, n, 0, "cobuchi", edges)


def test_dcw_counterexample_witnesses_are_real():
    rng = random.Random(7)
    alphabets = (AL1, Alphabet(atoms_named("a", "b"), 1), Alphabet(atoms_named("a"), 3))
    found = contained = 0
    for i in range(300):
        al = rng.choice(alphabets)
        a1 = _random_cobuchi(rng, al, nondet=i % 3 == 0)
        if i % 5 == 0:
            # a determinisation of a1 accepts every word a1 accepts
            a2 = nca_determinize(complete(a1))
            assert dcw_counterexample(a1, a2) is None
            continue
        a2 = _random_cobuchi(rng, al, nondet=False)
        w = dcw_counterexample(a1, a2)
        if w is None:
            contained += 1
            for _ in range(20):
                v = LassoWord(
                    tuple(rng.randrange(al.size) for _ in range(rng.randint(0, 3))),
                    tuple(rng.randrange(al.size) for _ in range(rng.randint(1, 3))),
                )
                assert not lasso_member(a1, v) or lasso_member(a2, v), (a1, a2, v)
        else:
            found += 1
            assert lasso_member(a1, w) and not lasso_member(a2, w), (a1, a2, w)
    assert found >= 100 and contained >= 20, (found, contained)


def test_lang_partition_agrees_with_inclusion_checks():
    """lang_partition against two dcw_counterexample calls per state pair,
    and the safe non-containment of `_pair_relations` against joint runs on
    every same-class pair.  At most four states keep the joint runs few."""
    rng = random.Random(20)
    coarse = discrete = merged = 0
    for _ in range(1000):
        al = rng.choice((AL1, Alphabet(atoms_named("a"), 2)))
        d = _random_cobuchi(rng, al, nondet=False, max_states=4)
        part, noncont = lang_partition(d), _pair_relations(d)[1]
        blocks = len(set(_congruence(d)))
        discrete += blocks == d.n_states
        coarse += blocks < len(set(part))
        at = [dataclasses.replace(d, initial=q) for q in d.states()]
        n = d.n_states
        bad = brute_safe_contained(d)
        for p in d.states():
            for q in range(p):
                same = (dcw_counterexample(at[p], at[q]) is None
                        and dcw_counterexample(at[q], at[p]) is None)
                assert (part[p] == part[q]) == same, (d, p, q)
                merged += same
            for q in d.states():
                if part[p] == part[q]:
                    assert (p * n + q in noncont) == ((p, q) in bad), (d, p, q)
    # coarse: the congruence holds states of different languages together
    assert discrete >= 20 and coarse >= 300 and merged >= 300, (discrete, coarse, merged)


def test_lang_partition_merges_equivalent_states():
    # 1 and 2 are universal copies; 3 is a rejecting trap; 0 differs from all
    a = build_automaton(
        AL1, 4, 0, "cobuchi",
        [
            (0, 0, 1), (0, 1, 3),
            (1, 0, 1), (1, 1, 2),
            (2, 0, 2), (2, 1, 1),
            (3, 0, 3, True), (3, 1, 3, True),
        ],
    )
    part = lang_partition(a)
    assert part[1] == part[2]
    assert len({part[0], part[1], part[3]}) == 3


def test_one_block_congruence_leaves_the_product_to_decide():
    # 0 accepts finitely many 1s, 1 finitely many 0s: neither is empty or
    # universal, and every letter keeps each state where it is
    d = two_letter(
        "cobuchi", [(0, 0, 0), (0, 1, 0, True), (1, 0, 1, True), (1, 1, 1)], 2
    )
    assert len(set(_congruence(d))) == 1
    part, noncont = _pair_relations(d)
    assert part == (0, 1)
    # 0 reads 0s safely and 1 reads 1s: neither safe language holds the other
    assert brute_safe_contained(d) == {(0, 1), (1, 0)}
    assert noncont == {0 * 2 + 1, 1 * 2 + 0}


def test_discrete_congruence_builds_no_pair():
    # 2 is empty; 0 and 1 are neither empty nor universal, and only 1 moves
    # to 2 on letter 0, so one refinement round parts them
    d = two_letter(
        "cobuchi",
        [(0, 0, 0), (0, 1, 1), (1, 0, 2), (1, 1, 0), (2, 0, 2, True), (2, 1, 2, True)],
        3,
    )
    assert len(set(_congruence(d))) == 3
    assert _pair_relations(d) == ((0, 1, 2), frozenset())


def test_separating_lasso_against_both_inclusions():
    rng = random.Random(21)
    alphabets = (AL1, Alphabet(atoms_named("a", "b"), 1), Alphabet(atoms_named("a"), 2))
    equal = 0
    for i in range(400):
        al = rng.choice(alphabets)
        a1 = _random_cobuchi(rng, al, nondet=False)
        # every third pair: a determinisation of a1, which has its language
        a2 = (nca_determinize(a1) if i % 3 == 0
              else _random_cobuchi(rng, al, nondet=False))
        ce12, ce21 = dcw_counterexample(a1, a2), dcw_counterexample(a2, a1)
        w = dcw_separating_lasso(a1, a2)
        assert w == (ce12 if ce12 is not None else ce21)
        if w is None:
            equal += 1
        else:
            assert brute_lasso_member(a1, w) != brute_lasso_member(a2, w), (a1, a2, w)
    assert equal >= 20, equal
    with pytest.raises(AutomatonError, match="deterministic and complete"):
        dcw_separating_lasso(a1, _random_cobuchi(rng, al, nondet=True))


def test_pa_validation():
    one, half = Fraction(1), Fraction(1, 2)
    for dist, message in [
        (((1, half), (0, half)), "successors must be sorted and unique"),
        (((0, half), (0, half)), "successors must be sorted and unique"),
        ((), "empty distribution"),
        (((0, Fraction(0)), (1, one)), "probabilities must be positive fractions"),
        (((0, half), (1, Fraction(1, 3))), "distribution sums to 5/6"),
        (((0, half),), "distribution sums to 1/2"),
        (((2, one),), "successor 2 out of range"),
    ]:
        with pytest.raises(AutomatonError, match=f"^state 0: {message}$"):
            ProbAutomaton(AL1, 0, ((dist, ((0, one),)), (((1, one),), ((1, one),))))
    # marked triples must name real transitions
    with pytest.raises(AutomatonError):
        ProbAutomaton(
            AL1, 0,
            ((((0, Fraction(1)),), ((0, Fraction(1)),)),),
            marked=frozenset({(0, 0, 5)}),
        )


def test_pa_lasso_prob_mixes():
    # on letter a: stay at 0 [marked self-loop] w.p. 1/2, fall to sink 1 w.p. 1/2
    pa = ProbAutomaton(
        AL1, 0,
        (
            (((1, Fraction(1)),), ((0, Fraction(1, 2)), (1, Fraction(1, 2)))),
            (((1, Fraction(1)),), ((1, Fraction(1)),)),
        ),
        marked=frozenset({(0, 1, 0)}),
    )
    # staying forever has probability lim (1/2)^n = 0, so acceptance is 0
    assert pa_lasso_prob(pa, LassoWord((), (1,))) == 0
    assert pa_lasso_prob(pa, LassoWord((), (0,))) == 0
    # on a: 0 and 1 swap w.p. 1/2; otherwise 0 falls to the rejecting sink 3
    # and 1 to the accepting sink 2.  x0 = x1/2, x1 = x0/2 + 1/2: the
    # transient component {0, 1} needs one linear solve and x0 = 1/3.
    # Letter {} keeps every state where it is.
    one, half = Fraction(1), Fraction(1, 2)
    pa = ProbAutomaton(
        AL1, 0,
        (
            (((0, one),), ((1, half), (3, half))),
            (((1, one),), ((0, half), (2, half))),
            (((2, one),), ((2, one),)),
            (((3, one),), ((3, one),)),
        ),
        marked=frozenset({(2, 0, 2), (2, 1, 2)}),
    )
    assert pa_lasso_prob(pa, LassoWord((), (1,))) == Fraction(1, 3)
    # a a from 0: at 0 or 2 w.p. 1/4 each, then {} forever keeps them there
    assert pa_lasso_prob(pa, LassoWord((1, 1), (0,))) == Fraction(1, 4)
    # alternating a with {} stretches the component over both positions
    assert pa_lasso_prob(pa, LassoWord((), (1, 0))) == Fraction(1, 3)
    assert pa_lasso_prob(pa, LassoWord((1,), (0,))) == 0


def _random_pa(rng):
    n = rng.randint(2, 6)
    transitions, marked = [], set()
    # sinks give the chains several bottom components, so values strictly
    # between 0 and 1 occur
    sinks = {q for q in range(n) if rng.random() < 0.4}
    for q in range(n):
        row = []
        for letter in AL1.letters():
            succs = (
                [q] if q in sinks
                else sorted(rng.sample(range(n), rng.randint(1, min(3, n))))
            )
            weights = [rng.randint(1, 4) for _ in succs]
            row.append(tuple(
                (s, Fraction(wt, sum(weights))) for s, wt in zip(succs, weights)
            ))
            marked.update((q, letter, s) for s in succs if rng.random() < 0.4)
        transitions.append(tuple(row))
    return ProbAutomaton(AL1, rng.randrange(n), tuple(transitions), frozenset(marked))


def test_pa_lasso_prob_against_oracle():
    rng = random.Random(2024)
    fractional = 0
    for _ in range(300):
        pa = _random_pa(rng)
        for _ in range(5):
            w = LassoWord(
                tuple(rng.randrange(2) for _ in range(rng.randint(0, 3))),
                tuple(rng.randrange(2) for _ in range(rng.randint(1, 3))),
            )
            p = pa_lasso_prob(pa, w)
            assert p == brute_pa_lasso_prob(pa, w), (pa, w)
            fractional += 0 < p < 1
    assert fractional >= 100


def test_pa_lasso_prob_zero_one_on_deterministic_rows():
    pa = ProbAutomaton(
        AL1, 0,
        (
            (((0, Fraction(1)),), ((1, Fraction(1)),)),
            (((1, Fraction(1)),), ((1, Fraction(1)),)),
        ),
        marked=frozenset({(1, 0, 1), (1, 1, 1)}),
    )
    assert pa_lasso_prob(pa, LassoWord((), (1,))) == 1
    assert pa_lasso_prob(pa, LassoWord((), (0,))) == 0
