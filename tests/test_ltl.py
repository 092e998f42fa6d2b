import itertools
import pickle
import random
from dataclasses import FrozenInstanceError

import pytest

from gfmredux.automata import LassoWord
from gfmredux.gf_direct import gf_to_gfm

from gfmredux.ltl import (
    FF,
    TT,
    AtomSet,
    LtlError,
    LtlFormula,
    LtlParseError,
    PropBdd,
    af_step,
    always,
    atom,
    atom_set,
    atoms_named,
    ev,
    fold,
    is_cosafety,
    land,
    lnot,
    lor,
    nxt,
    parse,
    prop_equiv,
    release,
    subformulas,
    to_nnf,
    to_string,
    until,
)
from oracles import eval_lasso, random_cosafety_text

AB = atoms_named("a", "b")
A = atom(AB, "a")
B = atom(AB, "b")


def test_parse_precedence():
    assert parse("a | b & c U d") == lor(
        atom(atoms_named("a", "b", "c", "d"), "a"),
        land(
            atom(atoms_named("a", "b", "c", "d"), "b"),
            until(
                atom(atoms_named("a", "b", "c", "d"), "c"),
                atom(atoms_named("a", "b", "c", "d"), "d"),
            ),
        ),
    )


def test_until_right_associative():
    f = parse("a U b U c")
    assert f.kind == "until"
    assert f.children[1].kind == "until"


def test_implies_rewritten_at_parse():
    assert parse("a -> b", AB) == lor(lnot(A), B)
    # right associative: a -> (b -> a)
    f = parse("a -> b -> a", AB)
    assert f == lor(lnot(A), lor(lnot(B), A))


def test_unary_stacking_and_constants():
    f = parse("XXFa", AB)
    assert f == nxt(nxt(ev(A)))
    assert parse("1", AB) == TT
    assert parse("tt & a", AB) == land(TT, A)
    assert parse("0 | ff", AB) == lor(FF, FF)


def test_operator_letters_never_in_bare_names():
    # 'X' splits the word: this is X applied to atom 'a'
    assert parse("Xa", AB) == nxt(A)
    # lowercase x is an ordinary name character
    f = parse("max")
    assert f.kind == "atom" and f.name == "max"
    # any letter starts a bare name, not only ASCII ones
    assert [c.name for c in parse("\u00e9 & x").children] == ["\u00e9", "x"]
    with pytest.raises(LtlParseError):
        parse("maX")  # atom 'ma' followed by X with nothing to apply to


def test_quoted_atoms():
    f = parse('"msg send" U "aXb"')
    assert f.children[0].name == "msg send"
    assert f.children[1].name == "aXb"
    assert to_string(f) == '"msg send" U "aXb"'
    # only X/F/G/U force quoting; other capitals are ordinary
    assert to_string(parse('"acK"')) == "acK"
    assert parse(to_string(parse('"aXb"'))).name == "aXb"


def test_parse_error_positions():
    with pytest.raises(LtlParseError) as err:
        parse("a & ")
    assert err.value.pos == 4
    with pytest.raises(LtlParseError):
        parse('a & "unterminated')
    with pytest.raises(LtlParseError):
        parse('""')
    with pytest.raises(LtlParseError):
        parse("a - b")
    with pytest.raises(LtlParseError):
        parse("a @ b")
    with pytest.raises(LtlParseError):
        parse("(a | b")
    with pytest.raises(LtlParseError):
        parse("a b")


@pytest.mark.parametrize("text, message", [
    ("a & ", "unexpected '' (position 4)"),
    ("a - b", "expected '->' (position 2)"),
    ('a & "unterminated', "unterminated quoted atom (position 4)"),
    ('""', "empty quoted atom (position 0)"),
    ("a @ b", "unexpected character '@' (position 2)"),
    ("(a | b", "expected rparen, got '' (position 6)"),
    ("a b", "unexpected 'b' (position 2)"),
    ("maX", "unexpected 'X' (position 2)"),
    ("\u00b2", "unexpected character '\u00b2' (position 0)"),  # isdigit, not isalpha
    ("G F -> a", "unexpected '->' (position 4)"),
    ("!(a", "expected rparen, got '' (position 3)"),
])
def test_parse_errors_name_message_and_position(text, message):
    with pytest.raises(LtlParseError) as err:
        parse(text)
    assert str(err.value) == message
    assert err.value.pos == int(message.rsplit(" ", 1)[1][:-1])


def test_to_string_round_trip():
    corpus = [
        "a & b | !c",
        "GF(a & XXXb)",
        "a U (b U c) & Xd",
        '"weird name" | a_2',
        "F(a & F(b & Fc))",
        "!(a -> b)",
        "G(!p1 | p1 U (p2 & p2 U p3))",
    ]
    for text in corpus:
        f = parse(text)
        assert parse(to_string(f)) == f


def test_random_gf_formulas_read_back_from_their_text():
    rng = random.Random(18)
    for _ in range(500):
        f = parse(f"GF({random_cosafety_text(rng)})")
        assert parse(to_string(f), atom_set(f)) == f


def test_nnf_pushes_negations():
    f = to_nnf(parse("!(a & Xb)", AB))
    assert f == lor(lnot(A), nxt(lnot(B)))
    assert to_nnf(parse("!!a", AB)) == A
    assert to_nnf(parse("!Fa", AB)) == always(lnot(A))


def test_nnf_until_dual_prints_as_release():
    f = to_nnf(parse("!(a U b)", AB))
    assert f == release(lnot(A), lnot(B))
    assert to_string(f) == "!a R !b"
    # 'R' is a rendering, not an input token: it reads as an atom-ish name
    with pytest.raises(LtlParseError):
        parse("!a R !b", AB)


def test_release_binds_like_until_when_printed():
    assert to_string(nxt(release(A, B))) == "X(a R b)"
    assert to_string(until(release(A, B), A)) == "(a R b) U a"
    assert to_string(release(A, until(B, A))) == "a R b U a"
    assert to_string(release(until(A, B), A)) == "(a U b) R a"
    # fold keys conjuncts by their text: two conjuncts that printed alike
    # were one, and the conjunction looked equivalent to one of them
    both = land(ev(release(A, B)), release(ev(A), B))
    assert to_string(both) == "F(a R b) & Fa R b"
    assert fold(both) == both
    assert not prop_equiv(both, release(ev(A), B))


def test_fold_returns_an_unchanged_formula_itself():
    # a copied X chain made every cache lookup of fold compare two equal
    # chains level by level, which overflowed the stack near 250 levels
    fold.cache_clear()  # an equal chain folded earlier would be returned
    chain = _x_pow(B, 300)
    for f in (chain, land(chain, A), lnot(A), until(A, chain)):
        assert fold(f) is f
    assert fold(lnot(lnot(A))) == A


def test_is_cosafety():
    assert is_cosafety(parse("a U (b & Xc)"))
    assert is_cosafety(parse("F(a & Fb)"))
    assert not is_cosafety(parse("Ga"))
    assert not is_cosafety(parse("!(a U b)"))
    assert not is_cosafety(parse("F G a"))


def test_formula_hash_and_text_are_cached_but_not_fields():
    text = "a U (b & X a) | F (b & X X a)"
    f, g = parse(text, AB), parse(text, AB)
    built = lor(until(A, land(B, nxt(A))), ev(land(B, nxt(nxt(A)))))
    assert f is not g and f == g == built
    assert hash(f) == hash(g) == hash(built)
    h = hash(f)
    assert to_string(f) == to_string(built) == "a U (b & Xa) | F(b & XXa)"
    fold(f)
    assert hash(f) == h
    # a formula printed before it is hashed hashes the same
    fresh = parse(text, AB)
    to_string(fresh)
    assert hash(fresh) == h
    with pytest.raises(FrozenInstanceError):
        f.kind = "and"
    with pytest.raises(FrozenInstanceError):
        f.children = ()
    # the cached hash would be wrong in another process: pickles drop it
    copy = pickle.loads(pickle.dumps(f))
    assert copy == f
    assert all("_hash" not in vars(s) and "_text" not in vars(s)
               for s in subformulas(copy))
    assert hash(copy) == h


def _x_chain(depth, leaf):
    f = leaf
    for _ in range(depth):
        f = nxt(f)
    return f


def test_deep_next_chains_compare_without_recursion():
    # 1,000 levels: a per-level recursion would pass the interpreter's limit
    f, g = _x_chain(1000, A), _x_chain(1000, atom(atoms_named("a", "b"), "a"))
    assert f is not g and f == g and not f != g
    assert hash(f) == hash(g)
    assert f != _x_chain(1000, B) and f != _x_chain(999, A)
    assert f != nxt(_x_chain(998, ev(A)))
    assert f != "X" * 1000 + "a"
    text = "G F (a & " + "X " * 300 + "b)"
    assert parse(text) == parse(text)


def test_fold_aci():
    assert fold(parse("b & a & b", AB)) == land(A, B)
    assert fold(parse("a | ff | a", AB)) == A
    assert fold(parse("a & tt", AB)) == A
    assert fold(parse("a & ff", AB)) == FF
    assert fold(parse("a | tt", AB)) == TT
    assert fold(parse("(a | b) | (b | a)", AB)) == lor(A, B)
    # flattening respects the sorted-by-rendering order
    assert fold(parse("b | a", AB)) == fold(parse("a | b", AB))


def test_prop_equiv_treats_temporal_subformulas_as_variables():
    assert prop_equiv(parse("(a | b) & (a | c)"), parse("a | b & c"))
    assert prop_equiv(parse("Fa | !Fa", AB), TT)
    assert prop_equiv(parse("Fa & !Fa", AB), FF)
    assert not prop_equiv(parse("FFa", AB), parse("Fa", AB))  # distinct vars
    assert not prop_equiv(parse("a U b", AB), parse("b", AB))


# six temporal subformulas, read as propositional variables
TEMPORAL = (ev(A), nxt(B), until(A, B), ev(land(A, nxt(B))), nxt(nxt(A)), ev(B))


def _random_prop(rng, depth):
    if depth == 0 or rng.random() < 0.2:
        return rng.choice(TEMPORAL + (TT, FF))
    k = rng.choice(("and", "or", "not"))
    if k == "not":
        return lnot(_random_prop(rng, depth - 1))
    parts = [_random_prop(rng, depth - 1) for _ in range(rng.randint(2, 3))]
    return land(*parts) if k == "and" else lor(*parts)


def _truth_table(f):
    """f's value under each assignment to TEMPORAL, in a fixed order."""
    def value(g, val):
        if g.kind in ("tt", "ff"):
            return g.kind == "tt"
        if g.kind == "not":
            return not value(g.children[0], val)
        if g.kind == "and":
            return all(value(c, val) for c in g.children)
        if g.kind == "or":
            return any(value(c, val) for c in g.children)
        return val[g]
    return tuple(value(f, dict(zip(TEMPORAL, bits)))
                 for bits in itertools.product((False, True), repeat=len(TEMPORAL)))


def test_prop_bdd_nodes_are_equal_iff_truth_tables_are():
    rng = random.Random(4)
    bdd = PropBdd()
    formulas = [_random_prop(rng, 3) for _ in range(400)]
    node_of_table = {}
    for f in formulas:
        table = _truth_table(f)
        n = bdd.node(f)
        assert node_of_table.setdefault(table, n) == n, f
        assert (n == PropBdd.TRUE) == all(table) and (n == PropBdd.FALSE) == (not any(table))
    nodes = list(node_of_table.values())
    assert len(set(nodes)) == len(nodes)  # distinct tables, distinct nodes
    assert 20 < len(nodes) < len(formulas) - 100  # both outcomes are exercised


def _x_pow(f, n):
    for _ in range(n):
        f = nxt(f)
    return f


def test_prop_equiv_on_long_conjunctions():
    conj70 = land(*(ev(_x_pow(A, i)) for i in range(1, 71)))
    conj71 = land(conj70, ev(_x_pow(A, 71)))
    assert not prop_equiv(conj70, conj71)
    assert prop_equiv(conj71, land(*reversed(conj71.children)))


def test_gfm_size_for_seven_delayed_eventualities():
    # GF(F Xa & F XXa & ... & F X^7 a): 36 states, one per residual class
    body = land(*(ev(_x_pow(A, i)) for i in range(1, 8)))
    assert gf_to_gfm(always(ev(body))).n_states == 36


def test_af_step_literals():
    # letters are atom bitmasks: a=1, b=2 over AtomSet (a, b)
    assert af_step(A, 0b01) == TT
    assert af_step(A, 0b10) == FF
    assert af_step(lnot(A), 0b10) == TT
    assert af_step(lnot(A), 0b01) == FF


def test_af_step_temporal():
    assert af_step(nxt(A), 0b00) == A
    f = ev(A)
    assert af_step(f, 0b01) == TT
    assert af_step(f, 0b00) == f
    g = until(A, B)
    assert af_step(g, 0b10) == TT          # rhs fires
    assert af_step(g, 0b01) == g           # lhs holds, obligation continues
    assert af_step(g, 0b00) == FF          # neither
    h = land(A, nxt(B))
    assert af_step(h, 0b01) == B
    assert af_step(h, 0b10) == FF


def test_af_step_needs_cosafety_nnf():
    with pytest.raises(LtlError):
        af_step(always(A), 0)
    with pytest.raises(LtlError):
        af_step(lnot(ev(A)), 0)


def _ref_af(f, letter):
    """The derivative of f after `letter`, left unfolded: af_step(f, letter)
    must be its fold."""
    k = f.kind
    if k in ("tt", "ff"):
        return f
    if k in ("atom", "not"):
        a = f if k == "atom" else f.children[0]
        return TT if (letter >> a.atom_index & 1) == (k == "atom") else FF
    if k in ("and", "or"):
        return (land if k == "and" else lor)(*(_ref_af(c, letter) for c in f.children))
    if k == "next":
        return f.children[0]
    if k == "finally":
        return lor(_ref_af(f.children[0], letter), f)
    assert k == "until"
    lhs, rhs = f.children
    return lor(_ref_af(rhs, letter), land(_ref_af(lhs, letter), f))


def _unfolded(rng, f):
    """A formula that folds to fold(f) but is not folded: every and/or node
    gets a repeated child and a unit, its children are shuffled, and its
    first two nest in a node of the same kind."""
    kids = [_unfolded(rng, c) for c in f.children]
    if f.kind not in ("and", "or"):
        return LtlFormula(f.kind, tuple(kids), f.atom_set, f.atom_index)
    kids += [rng.choice(kids), TT if f.kind == "and" else FF]
    rng.shuffle(kids)
    return LtlFormula(f.kind, (LtlFormula(f.kind, tuple(kids[:2])), *kids[2:]))


def test_af_step_is_the_folded_derivative():
    rng = random.Random(21)
    for _ in range(60):
        f = to_nnf(parse(random_cosafety_text(rng, max_depth=4)))
        g = _unfolded(rng, f)
        assert fold(g) == fold(f) and (g == f or g != fold(g))
        # the given formulas and their residuals, nearest first
        todo = list(dict.fromkeys([f, fold(f), g]))
        seen = set(todo)
        for h in todo:
            for letter in range(8):
                residual = af_step(h, letter)
                assert residual == fold(_ref_af(h, letter)), (h, letter)
                if len(todo) < 30 and residual not in seen:
                    seen.add(residual)
                    todo.append(residual)


def test_af_step_reads_the_first_letter_of_a_lasso():
    rng = random.Random(22)
    for _ in range(120):
        f = to_nnf(parse(random_cosafety_text(rng, max_depth=4)))
        for g in (f, _unfolded(rng, f)):
            prefix = tuple(rng.randrange(8) for _ in range(rng.randint(0, 3)))
            w = LassoWord(prefix, tuple(rng.randrange(8) for _ in range(rng.randint(1, 3))))
            letter = rng.randrange(8)
            assert eval_lasso(g, LassoWord((letter, *prefix), w.cycle)) \
                == eval_lasso(af_step(g, letter), w), (g, letter, w)


def test_atom_cap():
    AtomSet(tuple(f"p{i}" for i in range(16)))
    with pytest.raises(LtlError):
        AtomSet(tuple(f"p{i}" for i in range(17)))
    with pytest.raises(LtlError):
        AtomSet(("a", "a"))
    with pytest.raises(LtlError):
        AtomSet(('has"quote',))


def test_parse_with_explicit_atom_set():
    f = parse("b", AB)
    assert f.atom_index == 1
    with pytest.raises(LtlError):
        parse("c", AB)
