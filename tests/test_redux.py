import json
import random
import re
from fractions import Fraction

import pytest

from gfmredux.automata import (
    Alphabet,
    AutomatonError,
    LassoWord,
    build_automaton,
    complete,
    lasso_member,
    pa_lasso_prob,
)
from gfmredux import gfg_min
from gfmredux.gf_direct import gf_to_gfm
from gfmredux.hoa import from_hoa
from gfmredux.ltl import AtomSet, atoms_named, parse, to_string
from gfmredux.patterns import gen_pattern
from gfmredux.redux import dba_to_dca, gfm_to_dba, nca_to_pa, pa_from_json, pa_to_json, redux


def test_gfm_to_dba_indexes_nondeterminism(fixture_text):
    a = from_hoa(fixture_text("commit_blind.hoa"))
    d = gfm_to_dba(a)
    # completion sink plus the rank-overflow sink on top of 3 states
    assert d.n_states == 5
    assert d.alphabet.index_arity == 2
    assert d.alphabet.size == 16
    assert d.is_deterministic and d.is_complete
    assert d.kind == "buchi"
    assert len(d.marked) == len(a.marked)


def test_gfm_to_dba_identity_on_deterministic(fixture_text):
    a = from_hoa(fixture_text("commit_det.hoa"))
    d = gfm_to_dba(a)
    assert d.alphabet.index_arity == 1
    assert d.transitions == complete(a).transitions


def _random_nba(rng):
    """A nondeterministic, possibly incomplete Buchi automaton."""
    al = Alphabet(AtomSet(("a", "b")[: rng.randint(1, 2)]), rng.randint(1, 3))
    n = rng.randint(1, 6)
    edges = [
        (q, x, s, rng.random() < 0.3)
        for q in range(n) for x in al.letters() for s in range(n)
        if rng.random() < 0.35
    ]
    return build_automaton(al, n, rng.randrange(n), "buchi", edges)


def test_gfm_to_dba_equals_the_edge_list_construction():
    rng = random.Random(31)
    arities = set()
    for _ in range(150):
        a = complete(_random_nba(rng))
        base = a.alphabet
        k = max(len(a.succ(q, x)) for q in a.states() for x in base.letters())
        alphabet = Alphabet(base.atoms, base.index_arity * k)
        sink = a.n_states
        edges = []
        for q in a.states():
            for x in base.letters():
                succs = a.succ(q, x)
                for j in range(1, k + 1):
                    lifted = alphabet.letter(base.mask(x), (base.index(x) - 1) * k + j)
                    if j <= len(succs):
                        s = succs[j - 1]
                        edges.append((q, lifted, s, (q, x, s) in a.marked))
                    else:
                        edges.append((q, lifted, sink, False))
        n = a.n_states
        if any(len(a.succ(q, x)) < k for q in a.states() for x in base.letters()):
            edges += [(sink, y, sink, False) for y in alphabet.letters()]
            n += 1
        assert gfm_to_dba(a) == build_automaton(alphabet, n, a.initial, "buchi", edges)
        arities.add((base.index_arity, k))
    assert any(i > 1 and k > 1 for i, k in arities)


def test_gfm_to_dba_rejects_cobuchi(fixture_text):
    a = from_hoa(fixture_text("shrink3to2.hoa"))
    with pytest.raises(AutomatonError, match="Buchi"):
        gfm_to_dba(a)


def test_dba_to_dca_flips_reading(fixture_text):
    d = gfm_to_dba(from_hoa(fixture_text("commit_blind.hoa")))
    c = dba_to_dca(d)
    assert c.kind == "cobuchi"
    assert c.transitions == d.transitions and c.marked == d.marked
    w = LassoWord((), (0,))
    assert lasso_member(c, w) != lasso_member(d, w)


def test_dba_to_dca_rejects_nondeterministic(fixture_text):
    a = from_hoa(fixture_text("commit_blind.hoa"))
    with pytest.raises(AutomatonError, match="deterministic complete"):
        dba_to_dca(complete(a))


def test_nca_to_pa_uniform_rows(fixture_text):
    a = complete(from_hoa(fixture_text("commit_blind.hoa")))
    c = dba_to_dca(gfm_to_dba(a))
    pa = nca_to_pa(c)
    for q in range(len(pa.transitions)):
        for letter in pa.alphabet.letters():
            dist = pa.dist(q, letter)
            assert sum(p for _, p in dist) == 1
            assert all(p == Fraction(1, len(dist)) for _, p in dist)


def test_nca_to_pa_of_checked_inputs_passes_the_full_check():
    """nca_to_pa builds its PA without ProbAutomaton.__post_init__; running
    it on PAs of redux results and of complete GFM automata must find
    nothing, and an incomplete input must still be refused."""
    ap = atoms_named("a", "b", "a1", "a2")
    for text in ["GF a", "GF(a & Xb)"] + [
        to_string(gen_pattern(family, (n,)))
        for family, n in (("TDR", 2), ("TDR", 3), ("LIB", 2))
    ]:
        gfm = gf_to_gfm(parse(text, ap), ap)
        redux(gfm).pa.__post_init__()
        nca_to_pa(complete(gfm)).__post_init__()
    rng = random.Random(41)
    refused = 0
    for _ in range(60):
        a = _random_nba(rng)
        nca_to_pa(complete(a)).__post_init__()
        if not a.is_complete:
            refused += 1
            with pytest.raises(AutomatonError, match="needs a complete automaton"):
                nca_to_pa(a)
    assert refused > 10


def test_redux_stage_report(fixture_text):
    res = redux(from_hoa(fixture_text("commit_blind.hoa")))
    names = [s.name for s in res.report.stages]
    assert names == ["indexed_dba", "dca", "minimized", "pa"]
    sizes = {s.name: s.states for s in res.report.stages}
    assert sizes == {"indexed_dba": 5, "dca": 5, "minimized": 4, "pa": 4}
    assert all(s.seconds >= 0 for s in res.report.stages)
    doc = res.report.to_json()
    assert set(doc) == {"gfm_asserted_by_caller", "stages"}
    assert doc["gfm_asserted_by_caller"] is True
    assert [s["states"] for s in doc["stages"]] == [5, 5, 4, 4]
    assert res.pa.meta["lang_class"] == (0, 1, 2, 3)


def test_redux_pa_matches_dba_membership(fixture_text):
    res = redux(from_hoa(fixture_text("commit_blind.hoa")))
    rng = random.Random(7)
    size = res.dba.alphabet.size
    for _ in range(300):
        w = LassoWord(
            tuple(rng.randrange(size) for _ in range(rng.randint(0, 4))),
            tuple(rng.randrange(size) for _ in range(rng.randint(1, 4))),
        )
        p = pa_lasso_prob(res.pa, w)
        assert p in (0, 1)
        assert p == (1 if lasso_member(res.dba, w) else 0)


def test_pa_json_round_trip(fixture_text):
    res = redux(from_hoa(fixture_text("commit_blind.hoa")))
    doc = pa_to_json(res.pa)
    # two runs on one input write the same document
    assert pa_to_json(redux(from_hoa(fixture_text("commit_blind.hoa"))).pa) == doc
    # a document that still carries the old run token loads as before
    assert pa_from_json({**doc, "redux_id": 1}) == pa_from_json(doc)
    back = pa_from_json(doc)
    assert back.alphabet == res.pa.alphabet
    assert back.initial == res.pa.initial
    assert back.transitions == res.pa.transitions
    assert back.marked == res.pa.marked
    assert back.meta["lang_class"] == res.pa.meta["lang_class"]


def test_pa_to_json_writes_each_probability_as_str():
    rng = random.Random(37)
    weights = set()
    for _ in range(40):
        pa = nca_to_pa(complete(_random_nba(rng)))
        # a PA read back holds one Fraction object per move, not per weight
        for p in (pa, pa_from_json(pa_to_json(pa))):
            want = [
                [[[s, str(w), (q, x, s) in p.marked] for s, w in p.dist(q, x)]
                 for x in p.alphabet.letters()]
                for q in p.states()
            ]
            assert json.dumps(pa_to_json(p)["states"]) == json.dumps(want)
        weights.update(w for row in pa.transitions for dist in row for _, w in dist)
    assert len(weights) > 2


def test_pa_from_json_checks_row_count(fixture_text):
    doc = pa_to_json(redux(from_hoa(fixture_text("commit_blind.hoa"))).pa)
    doc["states"][0] = doc["states"][0][:-1]
    with pytest.raises(AutomatonError, match="letter rows"):
        pa_from_json(doc)


def _first_move(doc):
    return doc["states"][0][0][0]


@pytest.mark.parametrize("spoil, message", [
    (lambda d: d.update(initial=0.9), "state id 0.9 is not an integer"),
    (lambda d: d.update(initial=True), "state id True is not an integer"),
    (lambda d: d.pop("atoms"), "document: 'atoms'"),
    (lambda d: d.update(atoms="ab"), "atoms 'ab' are not a list"),
    (lambda d: d.update(index_arity=2.5), "index_arity 2.5 is not an integer"),
    (lambda d: d.update(index_arity="2"), "index_arity '2' is not an integer"),
    (lambda d: d.update(index_arity=True), "index_arity True is not an integer"),
    (lambda d: d["states"].__setitem__(0, "rows"), "rows 'rows' are not a list"),
    (lambda d: d["states"][0].__setitem__(0, "moves"), "moves 'moves' are not a list"),
    (lambda d: d["states"][0][0].__setitem__(0, [0, "1"]), "move [0, '1'] is not"),
    (lambda d: _first_move(d).__setitem__(0, True), "state id True is not an integer"),
    (lambda d: _first_move(d).__setitem__(0, 0.7), "state id 0.7 is not an integer"),
    (lambda d: _first_move(d).__setitem__(1, "x"), "bad probability 'x'"),
    (lambda d: _first_move(d).__setitem__(1, "1/0"), "bad probability '1/0'"),
    (lambda d: _first_move(d).__setitem__(2, "yes"), "mark 'yes' is not a boolean"),
    (lambda d: d["lang_class"].pop(), "is not one integer per state"),
    (lambda d: d["lang_class"].__setitem__(0, "x"), "is not one integer per state"),
    (lambda d: d["lang_class"].__setitem__(0, True), "is not one integer per state"),
    (lambda d: d.update(lang_class=True), "lang_class True is not one integer"),
])
def test_pa_from_json_rejects_malformed_fields(fixture_text, spoil, message):
    doc = pa_to_json(redux(from_hoa(fixture_text("commit_blind.hoa"))).pa)
    spoil(doc)
    with pytest.raises(AutomatonError, match=f"malformed PA.*{re.escape(message)}"):
        pa_from_json(doc)


def test_redux_always_checks_final_equivalence(fixture_text, monkeypatch):
    checked = []
    real = gfg_min.nca_lang_equiv

    def spy(a, b):
        checked.append(a)
        return real(a, b)

    monkeypatch.setattr(gfg_min, "nca_lang_equiv", spy)
    res = redux(from_hoa(fixture_text("commit_blind.hoa")))
    assert res.report.minimized.n_states == 4
    # the last check compares the finished automaton with the input
    assert checked[-1].transitions == res.report.minimized.transitions
    assert checked[-1].meta == {"lang_class": res.report.minimized.meta["lang_class"]}
