import dataclasses
import json
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from gfmredux import ROUTES, mdp
from gfmredux.automata import Alphabet, _unchecked, complete
from gfmredux.gf_direct import gf_to_dba, gf_to_gfm
from gfmredux.hoa import from_hoa
from gfmredux.ltl import AtomSet, atoms_named, parse, to_string
from gfmredux.mdp import (
    Mdp,
    MdpError,
    ProductMdp,
    Strategy,
    extract_reach_strategy,
    gen_random_mdp,
    induce_mc,
    max_reach,
    mdp_from_json,
    mdp_to_json,
    mec_decompose,
    product_nba,
    product_pa,
    strategy_to_json,
    synthesize,
)
from gfmredux.patterns import gen_pattern
from gfmredux.redux import nca_to_pa, redux
from oracles import brute_max_reach, brute_mecs, random_cosafety_text


@pytest.fixture
def coin(fixture_text):
    return mdp_from_json(json.loads(fixture_text("coinflip_mdp.json")))


def _mdp(transitions, labels, atoms=("a",), initial=0):
    names = tuple(
        tuple(f"u{i}" for i in range(len(row))) for row in transitions
    )
    return Mdp(
        alphabet=Alphabet(AtomSet(atoms), 1),
        initial=initial,
        action_names=names,
        transitions=transitions,
        labels=labels,
    )


def test_mdp_validation():
    half = Fraction(1, 2)
    with pytest.raises(MdpError, match="sums to"):
        _mdp(((((0, half),),),), (0,))
    loop = (((1, Fraction(1)),),)
    with pytest.raises(MdpError, match="sorted"):
        _mdp(((((1, half), (0, half)),), loop), (0, 0))
    with pytest.raises(MdpError, match="positive fractions"):
        _mdp(((((0, 0.5), (1, 0.5)),), loop), (0, 0))
    with pytest.raises(MdpError, match="label out of range"):
        _mdp(((((0, Fraction(1)),),),), (5,))
    with pytest.raises(MdpError, match="no actions"):
        _mdp(((),), (0,))
    with pytest.raises(MdpError, match="repeats an action"):
        Mdp(
            alphabet=Alphabet(AtomSet(("a",)), 1),
            initial=0,
            action_names=(("u", "u"),),
            transitions=((((0, Fraction(1)),), ((0, Fraction(1)),)),),
            labels=(0,),
        )
    with pytest.raises(MdpError, match="unindexed"):
        Mdp(
            alphabet=Alphabet(AtomSet(("a",)), 2),
            initial=0,
            action_names=(("u",),),
            transitions=((((0, Fraction(1)),),),),
            labels=(0,),
        )


def test_mdp_json_round_trip(coin):
    doc = mdp_to_json(coin)
    assert set(doc) == {"atoms", "initial", "states"}
    assert mdp_from_json(doc) == coin
    assert mdp_from_json(json.loads(json.dumps(doc))) == coin


@pytest.mark.parametrize("spoil", [
    lambda d: d["states"][0]["actions"][0].pop("name"),
    lambda d: d["states"][0]["actions"][0].update(to=[[0]]),
    lambda d: d["states"][0]["actions"][0].update(to=[["x", "1"]]),
    lambda d: d["states"][0].update(label=["nope"]),
    lambda d: d["states"].__setitem__(0, "state"),
    lambda d: d.update(initial="zero"),
])
def test_mdp_json_malformed_entries_raise_mdp_error(coin, spoil):
    doc = json.loads(json.dumps(mdp_to_json(coin)))
    spoil(doc)
    with pytest.raises(MdpError, match="malformed MDP"):
        mdp_from_json(doc)


@pytest.mark.parametrize("spoil, message", [
    (lambda d: d.update(initial=0.9), "state id 0.9 is not an integer"),
    (lambda d: d.update(initial=True), "state id True is not an integer"),
    (lambda d: d["states"][0]["actions"][0]["to"][0].__setitem__(0, 0.7),
     "state id 0.7 is not an integer"),
    (lambda d: d["states"][0]["actions"][0]["to"][0].__setitem__(0, True),
     "state id True is not an integer"),
    (lambda d: d["states"][0]["actions"][0]["to"][0].__setitem__(0, "1"),
     "state id '1' is not an integer"),
    (lambda d: d["states"][0].update(label="ab"), "label 'ab' is not a list"),
    (lambda d: d.update(atoms="ab"), "atoms 'ab' are not a list"),
])
def test_mdp_json_rejects_non_integer_ids_and_string_labels(coin, spoil, message):
    doc = json.loads(json.dumps(mdp_to_json(coin)))
    spoil(doc)
    with pytest.raises(MdpError, match=f"malformed MDP.*{re.escape(message)}"):
        mdp_from_json(doc)


def _two_state_doc(to):
    return {"atoms": ["a"], "initial": 0, "states": [
        {"label": [], "actions": [{"name": "go", "to": to}]},
        {"label": ["a"], "actions": [{"name": "stay", "to": [[1, "1"]]}]},
    ]}


@pytest.mark.parametrize("to, message", [
    ([[0, "1/2"], [1, "5/12"]], "state 0: distribution sums to 11/12"),
    ([[0, "0"], [1, "1"]], "state 0: probabilities must be positive fractions"),
    ([[0, "-1/2"], [1, "3/2"]], "state 0: probabilities must be positive fractions"),
])
def test_mdp_json_rejects_bad_distributions(to, message):
    with pytest.raises(MdpError, match=re.escape(message)):
        mdp_from_json(_two_state_doc(to))


def test_mdp_rejects_float_probabilities_that_sum_to_one():
    loop = (((1, Fraction(1)),),)
    with pytest.raises(MdpError, match="positive fractions"):
        _mdp(((((0, 0.25), (1, 0.75)),), loop), (0, 0))


def test_mdp_json_parses_repeated_probability_texts_alike():
    doc = _two_state_doc([[1, "1/2"], [0, 0.5]])
    doc["states"][1]["actions"].append({"name": "split", "to": [[0, "1/2"], [1, "1/2"]]})
    m = mdp_from_json(doc)
    half = ((0, Fraction(1, 2)), (1, Fraction(1, 2)))
    assert m.dist(0, 0) == m.dist(1, 1) == half
    assert all(type(p) is Fraction for _, p in m.dist(0, 0) + m.dist(1, 1))


PRODUCT_ATOMS = ("a", "b", "a1", "a2")


def test_products_of_checked_inputs_pass_the_full_check():
    """Products are built without Mdp.__post_init__; running it on them must
    find nothing, for every route.  The redux PAs are deterministic, so
    uniform-weight PAs of the nondeterministic GFM automata add products of
    fractional automaton weights."""
    ap = atoms_named(*PRODUCT_ATOMS)
    autos = []
    for text in ["GF a"] + [to_string(gen_pattern(family, (n,)))
                            for family, n in (("TDR", 2), ("TDR", 3), ("LIB", 2))]:
        f = parse(text, ap)
        gfm = gf_to_gfm(f, ap)
        autos.append((gfm, gf_to_dba(f, ap), redux(gfm).pa, nca_to_pa(complete(gfm))))
    assert any(p != 1 for *_, uniform in autos for row in uniform.transitions
               for dist in row for _, p in dist)
    for seed in range(20):
        m = gen_random_mdp(random.Random(seed), atoms=PRODUCT_ATOMS)
        for gfm, dba, pa, uniform in autos:
            for prod in (product_nba(m, gfm), product_nba(m, dba),
                         product_pa(m, pa), product_pa(m, uniform)):
                prod.mdp.__post_init__()


def test_unchecked_takes_fields_from_values_base_and_defaults(coin):
    copy = _unchecked(Mdp, coin, meta="tag")
    assert copy == coin and copy.meta == "tag" and copy.labels is coin.labels
    fresh = _unchecked(Mdp, alphabet=coin.alphabet, initial=0,
                       action_names=coin.action_names,
                       transitions=coin.transitions, labels=coin.labels)
    assert fresh == coin and fresh.meta is None
    with pytest.raises(TypeError, match="no value for field 'action_names'"):
        _unchecked(Mdp, alphabet=coin.alphabet, initial=0)
    with pytest.raises(TypeError, match="has no fields"):
        _unchecked(Mdp, coin, lables=())


def test_product_values_blind(coin, fixture_text):
    prod = product_nba(coin, from_hoa(fixture_text("commit_blind.hoa")))
    res = synthesize(prod)
    assert res.value == Fraction(1, 2)
    assert res.values.exact
    assert len(res.goal) == 2
    assert len(res.mecs) == 4
    assert sum(1 for x in res.mecs if x.accepting) == 2
    assert induce_mc(prod, res.strategy) == Fraction(1, 2)


def test_product_values_wait(coin, fixture_text):
    prod = product_nba(coin, from_hoa(fixture_text("commit_wait.hoa")))
    res = synthesize(prod)
    assert res.value == Fraction(1)
    assert len(res.mecs) == 6
    assert induce_mc(prod, res.strategy) == Fraction(1)


def test_product_values_det(coin, fixture_text):
    prod = product_nba(coin, from_hoa(fixture_text("commit_det.hoa")))
    res = synthesize(prod)
    assert res.value == Fraction(1)
    assert len(res.mecs) == 2
    assert induce_mc(prod, res.strategy) == Fraction(1)


def test_product_nba_rejects_mismatches(coin, fixture_text):
    blind = from_hoa(fixture_text("commit_blind.hoa"))
    with pytest.raises(MdpError, match="Buchi"):
        product_nba(coin, from_hoa(fixture_text("shrink3to2.hoa")))
    other = _mdp(((((0, Fraction(1)),),),), (0,), atoms=("z",))
    with pytest.raises(MdpError, match="different atoms"):
        product_nba(other, blind)


def test_redux_pa_route_matches(coin, fixture_text):
    r = redux(from_hoa(fixture_text("commit_blind.hoa")))
    res = synthesize(product_pa(coin, r.pa))
    assert res.value == Fraction(1, 2)


def test_strategy_json_shape(coin, fixture_text):
    prod = product_nba(coin, from_hoa(fixture_text("commit_blind.hoa")))
    res = synthesize(prod)
    doc = strategy_to_json(prod.mdp, res.strategy, prod.pairs)
    assert doc["type"] == "memoryless"
    assert len(doc["states"]) == prod.mdp.n_states
    first = doc["states"][0]
    assert first["mdp_state"] == 0 and first["automaton_state"] == 0
    for entry in doc["states"]:
        total = sum(Fraction(p) for _, p in entry["choose"])
        assert total == 1


def _check_mecs_against_enumeration(seeds, max_states):
    for seed in seeds:
        rng = random.Random(seed)
        m = gen_random_mdp(rng, max_states=max_states)
        trips = [
            (q, ai, s)
            for q in m.states()
            for ai in range(m.n_actions(q))
            for s, _ in m.dist(q, ai)
        ]
        marked = frozenset(rng.sample(trips, min(3, len(trips))))
        got = [
            (x.states, x.actions, x.accepting, x.closed)
            for x in mec_decompose(m, marked)
        ]
        assert got == brute_mecs(m, marked), seed


def test_mec_decompose_against_enumeration():
    _check_mecs_against_enumeration(range(25), max_states=5)


def test_mec_decompose_against_enumeration_up_to_nine_states():
    # larger models, where a component is more often searched again after
    # it lost an action (12 of these 150 need a second search)
    _check_mecs_against_enumeration(range(150), max_states=9)


def test_mec_decompose_refines_a_split_part_again():
    # all of 0-4 is one strongly connected component until 3 drops its action
    # 1 (it can reach the sink 5); the rest splits into {0, 1, 2} and {3, 4},
    # so 1 drops its action 1 (into 3), and {0, 1, 2} splits again into
    # {0, 1} and {2}, where 2 keeps only its self-loop
    one, half = Fraction(1), Fraction(1, 2)
    m = _mdp(
        ((((1, one),),),
         (((0, one),), ((2, half), (3, half))),
         (((0, one),), ((2, one),)),
         (((4, one),), ((0, half), (5, half))),
         (((3, one),),),
         (((5, one),),)),
        (0,) * 6,
    )
    marked = frozenset({(2, 1, 2)})
    got = [(x.states, x.actions, x.accepting, x.closed) for x in mec_decompose(m, marked)]
    assert got == brute_mecs(m, marked)
    assert got == [
        ({0, 1}, {(0, 0), (1, 0)}, False, False),
        ({2}, {(2, 1)}, True, False),
        ({3, 4}, {(3, 0), (4, 0)}, False, False),
        ({5}, {(5, 0)}, False, True),
    ]


def test_max_reach_against_enumeration():
    for seed in range(25):
        rng = random.Random(seed)
        m = gen_random_mdp(rng, max_states=5)
        goal = frozenset(rng.sample(range(m.n_states), rng.randint(1, m.n_states)))
        want = brute_max_reach(m, goal)
        assert list(max_reach(m, goal).values) == want, seed
        approx = max_reach(m, goal, exact=False)
        assert not approx.exact
        assert all(
            abs(float(w) - v) <= 1e-9 for w, v in zip(want, approx.values)
        ), seed


def test_almost_sure_attractor_tie_rule():
    # 2 reaches the goal 0 only with probability 1/2, so the second pass of
    # the almost-sure search removes it and drops 3's action 0 into it.  3's
    # actions 1 and 2 both reach the goal's layer; the lower index wins.  5's
    # action 1 reaches the goal before its action 0 reaches 4, so it wins.
    one, half = Fraction(1), Fraction(1, 2)
    m = _mdp(
        ((((0, one),),),
         (((1, one),),),
         (((0, half), (1, half)),),
         (((2, one),), ((0, half), (4, half)), ((0, one),)),
         (((1, one),), ((3, one),)),
         (((4, one),), ((0, one),))),
        (0,) * 6,
    )
    for exact in (True, False):
        vv = max_reach(m, frozenset({0}), exact=exact)
        assert vv.values == (1, 0, 0.5, 1, 1, 1)
        assert vv.policy == {2: 0, 3: 1, 4: 1, 5: 1}
    # 6's actions reach 3 and 5, both two steps from the goal once 5's action
    # 0 (into 2) is dropped; predecessors are read in state order, so 3 is
    # reached first and 6 takes action 0
    m = _mdp(
        ((((0, one),),),
         (((1, one),),),
         (((0, half), (1, half)),),
         (((4, one),),),
         (((0, one),),),
         (((2, one),), ((4, one),)),
         (((3, one),), ((5, one),))),
        (0,) * 7,
    )
    assert max_reach(m, frozenset({0})).policy == {2: 0, 3: 0, 4: 0, 5: 1, 6: 0}


WIN, TRAP = 0, 1
SINKS = (((WIN, Fraction(1)),),), (((TRAP, Fraction(1)),),)


@pytest.mark.parametrize("leak", [Fraction(1, 10**6), Fraction(1, 10**11)])
def test_float_slow_mixing_chain(leak):
    # one state that stays put with probability 1 - 2 * leak
    m = _mdp(
        (*SINKS, (((WIN, leak), (TRAP, leak), (2, 1 - 2 * leak)),)),
        (0, 0, 0), initial=2,
    )
    vv = max_reach(m, frozenset({WIN}), exact=False)
    assert abs(vv[2] - 0.5) <= 1e-9
    assert vv.gap <= mdp._VI_TOL
    assert max_reach(m, frozenset({WIN})).gap == 0


def test_float_cap_raises_instead_of_returning(monkeypatch):
    # two states that swap with probability 1 - 1e-6 and leak the rest
    swap, leak = 1 - Fraction(1, 10**6), Fraction(1, 2 * 10**6)
    m = _mdp(
        (*SINKS,
         (((WIN, leak), (TRAP, leak), (3, swap)),),
         (((WIN, leak), (TRAP, leak), (2, swap)),)),
        (0, 0, 0, 0), initial=2,
    )
    assert max_reach(m, frozenset({WIN}))[2] == Fraction(1, 2)
    monkeypatch.setattr(mdp, "_VI_CAP", 5)
    with pytest.raises(MdpError, match="did not converge"):
        max_reach(m, frozenset({WIN}), exact=False)


def test_float_upper_bound_deflated_on_interior_end_component(monkeypatch):
    # states 2 and 3 may swap forever (an end component that is not a goal);
    # 2 can exit to a coin flip, 3 to a state 4 that wins with 1/3
    third = Fraction(1, 3)
    half = Fraction(1, 2)
    m = _mdp(
        (*SINKS,
         (((3, Fraction(1)),), ((WIN, half), (TRAP, half))),
         (((2, Fraction(1)),), ((4, Fraction(1)),)),
         (((WIN, third), (TRAP, 1 - third)),)),
        (0, 0, 0, 0, 0), initial=2,
    )
    goal = frozenset({WIN})
    want = brute_max_reach(m, goal)
    assert max_reach(m, goal).values == tuple(want)
    assert want[2] == want[3] == half
    # no deflation: the upper bound is guessed just above the lower one and
    # checked by one sweep, so the end component of 2 and 3 cannot hold it at 1
    monkeypatch.setattr(mdp, "_VI_CAP", 100)
    approx = max_reach(m, goal, exact=False)
    assert all(abs(float(w) - v) <= 1e-9 for w, v in zip(want, approx.values))


def _with_sinks(m, goal, trap):
    """m with the goal and the trap state each reduced to one self-loop, as
    a product whose marked edge is the goal's loop."""
    names = tuple(
        ("stay",) if q in (goal, trap) else m.action_names[q] for q in m.states()
    )
    trans = tuple(
        (((q, Fraction(1)),),) if q in (goal, trap) else m.transitions[q]
        for q in m.states()
    )
    sinks = dataclasses.replace(m, action_names=names, transitions=trans)
    return ProductMdp(
        mdp=sinks,
        pairs=tuple((q, 0) for q in m.states()),
        marked=frozenset({(goal, 0, goal)}),
        base=sinks,
    )


def _sink_models():
    """200 seeded random MDPs, each with a goal and a trap state, so that
    many states have values strictly between 0 and 1."""
    for seed in range(200):
        rng = random.Random(1000 + seed)
        m = gen_random_mdp(rng)
        goal, trap = rng.sample(range(m.n_states), 2)
        yield seed, goal, _with_sinks(m, goal, trap)


def test_induce_mc_and_max_reach_against_enumeration():
    for seed, g, prod in _sink_models():
        m, goal = prod.mdp, frozenset({g})
        want = brute_max_reach(m, goal)
        vv = max_reach(m, goal)
        assert list(vv.values) == want, seed
        approx = max_reach(m, goal, exact=False)
        assert all(
            abs(float(w) - v) <= 1e-9 for w, v in zip(want, approx.values)
        ), seed
        exact_strategy, float_strategy = (
            Strategy(tuple(((ai, Fraction(1)),) for ai in picks))
            for picks in (extract_reach_strategy(m, goal, vv),
                          extract_reach_strategy(m, goal, approx))
        )
        for q in m.states():
            start = dataclasses.replace(prod, mdp=dataclasses.replace(m, initial=q))
            assert induce_mc(start, exact_strategy) == want[q], (seed, q)
            assert abs(induce_mc(start, float_strategy) - want[q]) <= 1e-9, (seed, q)


def test_float_values_lie_within_their_gap():
    for seed, g, prod in _sink_models():
        m, goal = prod.mdp, frozenset({g})
        want = max_reach(m, goal).values
        approx = max_reach(m, goal, exact=False)
        assert approx.gap <= mdp._VI_TOL, seed
        assert all(
            abs(float(w) - v) <= approx.gap + 1e-15 for w, v in zip(want, approx.values)
        ), seed


def test_float_refuted_upper_bound_guess(monkeypatch):
    # two states that swap with probability 1 - 1/1000 and leak the rest: the
    # lower bound creeps up, so once a sweep raises it by at most 1e-10 it is
    # still far below 1/2 and the first guessed upper bound fails its check
    swap, leak = 1 - Fraction(1, 1000), Fraction(1, 2000)
    m = _mdp(
        (*SINKS,
         (((WIN, leak), (TRAP, leak), (3, swap)),),
         (((WIN, leak), (TRAP, leak), (2, swap)),)),
        (0, 0, 0, 0), initial=2,
    )
    swept = []  # each bound vector the sweeps work on: the lower, then guesses
    sweep = mdp._sweep

    def spy(rows, x):
        if not any(x is y for y in swept):
            swept.append(x)
        return sweep(rows, x)

    monkeypatch.setattr(mdp, "_sweep", spy)
    vv = max_reach(m, frozenset({WIN}), exact=False)
    assert len(swept) >= 3
    assert vv.gap <= mdp._VI_TOL
    assert abs(vv[2] - 0.5) <= vv.gap + 1e-15
    assert abs(vv[3] - 0.5) <= vv.gap + 1e-15
    assert vv.sweeps > 1000


def _solve_list_products():
    """The products of perfbench's `solve` list, built through its routes."""
    bench = Path(__file__).resolve().parent.parent / "perfbench"
    sys.path.insert(0, str(bench))
    try:
        import reference
        import workloads
    finally:
        sys.path.remove(str(bench))
    for name, doc, goal, route, _ in workloads.solve_inputs():
        m = mdp_from_json(doc)
        f = parse(reference.to_text(goal), m.alphabet.atoms)
        build, product = ROUTES[route].build, ROUTES[route].product
        yield name, product(m, build(f, m.alphabet.atoms))


def _random_products():
    """Products of seeded random MDPs with random GF(co-safety) goals,
    through every route."""
    for seed in range(30):
        rng = random.Random(seed)
        m = gen_random_mdp(rng, max_states=6, max_actions=3)
        body = random_cosafety_text(rng, max_depth=3, atoms=("a", "b"))
        f = parse(f"GF({body})", m.alphabet.atoms)
        for key, route in ROUTES.items():
            yield (seed, key), route.product(m, route.build(f, m.alphabet.atoms))


def test_synthesize_finds_the_product_mecs_over_the_mdp_mecs():
    for key, prod in (*_random_products(), *_solve_list_products()):
        got = synthesize(prod, exact=False).mecs
        assert got == mec_decompose(prod.mdp, prod.marked), key


def test_exact_policy_iteration_from_a_blind_start(monkeypatch):
    # start from every state's first action instead of the float policy,
    # so that policy iteration has to switch actions
    monkeypatch.setattr(
        mdp, "_seed_policy", lambda m, interior, *_: dict.fromkeys(interior, 0)
    )
    for seed, g, prod in _sink_models():
        m, goal = prod.mdp, frozenset({g})
        assert list(max_reach(m, goal).values) == brute_max_reach(m, goal), seed


def test_gen_random_mdp_seed_determinism():
    a = gen_random_mdp(random.Random(42))
    b = gen_random_mdp(random.Random(42))
    assert a == b
    assert 1 <= a.n_states <= 6
    for q in a.states():
        for ai in range(a.n_actions(q)):
            assert sum(p for _, p in a.dist(q, ai)) == 1
