"""LTL syntax, parsing, normal forms, and the single-letter derivative af.

Formulas are immutable trees.  Atoms are indices into a shared AtomSet so
that letters of an alphabet can be plain bitmasks; printing recovers names.
Each formula computes its hash and its printed form (the sort key of `fold`)
once, on first use, and keeps them; neither takes part in `==` or pickling.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

MAX_ATOMS = 16

_BARE_NAME = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*")
_OPERATOR_LETTERS = frozenset("XFGU")


class LtlError(ValueError):
    pass


class LtlParseError(LtlError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (position {pos})")
        self.pos = pos


@dataclass(frozen=True)
class AtomSet:
    """Ordered set of atomic-proposition names; formula atoms index into it."""

    names: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise LtlError(f"duplicate atom names: {self.names}")
        if len(self.names) > MAX_ATOMS:
            raise LtlError(f"too many atoms: {len(self.names)} > {MAX_ATOMS}")
        for n in self.names:
            if not n or '"' in n:
                raise LtlError(f"bad atom name: {n!r}")

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise LtlError(f"unknown atom: {name!r}") from None

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self):
        return iter(self.names)


def atoms_named(*names: str) -> AtomSet:
    return AtomSet(tuple(names))


# Formula kinds: tt ff atom not and or next finally globally until release.
# 'and'/'or' children are flattened at construction; fold() adds ACI + units.
@dataclass(frozen=True)
class LtlFormula:
    kind: str
    children: tuple["LtlFormula", ...] = ()
    atom_set: AtomSet | None = None
    atom_index: int = -1

    # caches filled on first use, not fields: == ignores them, and
    # __reduce__ leaves them out of pickles (str hashes differ by process)
    _hash = None
    _text = None

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.kind, self.children, self.atom_set, self.atom_index))
            object.__setattr__(self, "_hash", h)
        return h

    def __reduce__(self):
        return LtlFormula, (self.kind, self.children, self.atom_set, self.atom_index)

    @property
    def name(self) -> str:
        assert self.kind == "atom"
        return self.atom_set.names[self.atom_index]

    def __str__(self) -> str:
        return to_string(self)

    def __repr__(self) -> str:
        return f"<ltl {to_string(self)}>"


TT = LtlFormula("tt")
FF = LtlFormula("ff")


def atom(atoms: AtomSet, name: str) -> LtlFormula:
    return LtlFormula("atom", (), atoms, atoms.index(name))


def lnot(f: LtlFormula) -> LtlFormula:
    return LtlFormula("not", (f,))


def _nary(kind: str, parts) -> LtlFormula:
    flat: list[LtlFormula] = []
    for p in parts:
        if p.kind == kind:
            flat.extend(p.children)
        else:
            flat.append(p)
    if not flat:
        return TT if kind == "and" else FF
    if len(flat) == 1:
        return flat[0]
    return LtlFormula(kind, tuple(flat))


def land(*parts: LtlFormula) -> LtlFormula:
    return _nary("and", parts)


def lor(*parts: LtlFormula) -> LtlFormula:
    return _nary("or", parts)


def nxt(f: LtlFormula) -> LtlFormula:
    return LtlFormula("next", (f,))


def ev(f: LtlFormula) -> LtlFormula:
    return LtlFormula("finally", (f,))


def always(f: LtlFormula) -> LtlFormula:
    return LtlFormula("globally", (f,))


def until(lhs: LtlFormula, rhs: LtlFormula) -> LtlFormula:
    return LtlFormula("until", (lhs, rhs))


def release(lhs: LtlFormula, rhs: LtlFormula) -> LtlFormula:
    return LtlFormula("release", (lhs, rhs))


def subformulas(f: LtlFormula):
    yield f
    for c in f.children:
        yield from subformulas(c)


def atom_set(f: LtlFormula) -> AtomSet | None:
    """The AtomSet shared by all atoms of f (None if f has no atoms)."""
    found = None
    for g in subformulas(f):
        if g.kind == "atom":
            if found is None:
                found = g.atom_set
            elif found != g.atom_set:
                raise LtlError("formula mixes atoms from different AtomSets")
    return found


# ---------------------------------------------------------------- printing

_PREC = {"or": 1, "and": 2, "until": 3}


def _prec(f: LtlFormula) -> int:
    return _PREC.get(f.kind, 4)


def _atom_str(name: str) -> str:
    if (
        _BARE_NAME.fullmatch(name)
        and not _OPERATOR_LETTERS.intersection(name)
        and name not in ("tt", "ff")
    ):
        return name
    return f'"{name}"'


def to_string(f: LtlFormula) -> str:
    s = f._text
    if s is None:
        s = _print(f)
        object.__setattr__(f, "_text", s)
    return s


def _pstr(f: LtlFormula, need: int) -> str:
    """f printed, in parentheses if it binds looser than `need`."""
    s = to_string(f)
    return "(" + s + ")" if _prec(f) < need else s


def _print(f: LtlFormula) -> str:
    k = f.kind
    if k == "tt":
        s = "tt"
    elif k == "ff":
        s = "ff"
    elif k == "atom":
        s = _atom_str(f.name)
    elif k == "not":
        s = "!" + _pstr(f.children[0], 4)
    elif k in ("next", "finally", "globally"):
        s = {"next": "X", "finally": "F", "globally": "G"}[k] + _pstr(f.children[0], 4)
    elif k == "until":
        s = _pstr(f.children[0], 4) + " U " + _pstr(f.children[1], 3)
    elif k == "release":
        s = _pstr(f.children[0], 4) + " R " + _pstr(f.children[1], 3)
    elif k == "and":
        s = " & ".join(_pstr(c, 3) for c in f.children)
    elif k == "or":
        s = " | ".join(_pstr(c, 2) for c in f.children)
    else:  # pragma: no cover
        raise LtlError(f"unknown kind {k!r}")
    return s


# ----------------------------------------------------------------- parsing

def _tokenize(text: str) -> list[tuple[str, str, int]]:
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "()!&|":
            out.append(({"(": "lparen", ")": "rparen", "!": "not",
                         "&": "and", "|": "or"}[c], c, i))
            i += 1
        elif c == "-":
            if text[i : i + 2] != "->":
                raise LtlParseError("expected '->'", i)
            out.append(("implies", "->", i))
            i += 2
        elif c in _OPERATOR_LETTERS:
            out.append((c, c, i))
            i += 1
        elif c == '"':
            j = text.find('"', i + 1)
            if j < 0:
                raise LtlParseError("unterminated quoted atom", i)
            if j == i + 1:
                raise LtlParseError("empty quoted atom", i)
            out.append(("atom", text[i + 1 : j], i))
            i = j + 1
        elif c in "01":
            out.append(("const", c, i))
            i += 1
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_") \
                    and text[j] not in _OPERATOR_LETTERS:
                j += 1
            word = text[i:j]
            if word in ("tt", "ff"):
                out.append(("const", word, i))
            else:
                out.append(("atom", word, i))
            i = j
        else:
            raise LtlParseError(f"unexpected character {c!r}", i)
    out.append(("end", "", n))
    return out


class _Parser:
    def __init__(self, tokens, atoms: AtomSet):
        self.toks = tokens
        self.pos = 0
        self.atoms = atoms

    def peek(self):
        return self.toks[self.pos]

    def take(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, typ: str):
        t = self.take()
        if t[0] != typ:
            raise LtlParseError(f"expected {typ}, got {t[1]!r}", t[2])
        return t

    def parse(self) -> LtlFormula:
        f = self.implies()
        t = self.peek()
        if t[0] != "end":
            raise LtlParseError(f"unexpected {t[1]!r}", t[2])
        return f

    def implies(self) -> LtlFormula:
        lhs = self.disj()
        if self.peek()[0] == "implies":
            self.take()
            rhs = self.implies()
            return lor(lnot(lhs), rhs)
        return lhs

    def disj(self) -> LtlFormula:
        parts = [self.conj()]
        while self.peek()[0] == "or":
            self.take()
            parts.append(self.conj())
        return lor(*parts) if len(parts) > 1 else parts[0]

    def conj(self) -> LtlFormula:
        parts = [self.until_()]
        while self.peek()[0] == "and":
            self.take()
            parts.append(self.until_())
        return land(*parts) if len(parts) > 1 else parts[0]

    def until_(self) -> LtlFormula:
        lhs = self.unary()
        if self.peek()[0] == "U":
            self.take()
            return until(lhs, self.until_())
        return lhs

    def unary(self) -> LtlFormula:
        t = self.take()
        typ = t[0]
        if typ == "not":
            return lnot(self.unary())
        if typ == "X":
            return nxt(self.unary())
        if typ == "F":
            return ev(self.unary())
        if typ == "G":
            return always(self.unary())
        if typ == "lparen":
            f = self.implies()
            self.expect("rparen")
            return f
        if typ == "const":
            return TT if t[1] in ("tt", "1") else FF
        if typ == "atom":
            return atom(self.atoms, t[1])
        raise LtlParseError(f"unexpected {t[1]!r}", t[2])


def parse(text: str, atoms: AtomSet | None = None) -> LtlFormula:
    """Parse an LTL formula.

    Grammar: atoms (bare names may not contain X/F/G/U; quote with "...")
    and constants tt/ff/1/0, operators ! & | -> X F G U, with unary tightest,
    then U (right-assoc), & , |, -> (right-assoc).  '->' is rewritten to
    !a | b during parsing.  Without an explicit AtomSet, atoms are numbered
    in order of first appearance.
    """
    tokens = _tokenize(text)
    if atoms is None:
        seen: dict[str, None] = {}
        for typ, val, _ in tokens:
            if typ == "atom":
                seen[val] = None
        atoms = AtomSet(tuple(seen))
    return _Parser(tokens, atoms).parse()


# ------------------------------------------------------------ normal forms

# the operator each one turns into when a negation passes through it
_DUAL = {"tt": "ff", "and": "or", "finally": "globally", "until": "release"}
_DUAL.update({v: k for k, v in _DUAL.items()}, next="next")


def to_nnf(f: LtlFormula) -> LtlFormula:
    """Push negations down to atoms (introduces 'release' as the dual of U)."""
    return _nnf(f, False)


def _nnf(f: LtlFormula, negate: bool) -> LtlFormula:
    """The negation normal form of f, or of !f when `negate` is set."""
    k = f.kind
    if k == "not":
        return _nnf(f.children[0], not negate)
    if k == "atom":
        return lnot(f) if negate else f
    if k not in _DUAL:
        raise LtlError(f"unknown kind {k!r}")
    kids = [_nnf(c, negate) for c in f.children]
    k = _DUAL[k] if negate else k
    if k in ("and", "or"):
        return _nary(k, kids)
    return LtlFormula(k, tuple(kids))


def is_cosafety(f: LtlFormula) -> bool:
    """True iff the negation normal form of f contains no G and no R."""
    return is_cosafety_nnf(to_nnf(f))


def is_cosafety_nnf(g: LtlFormula) -> bool:
    """is_cosafety for g already in negation normal form."""
    return all(h.kind not in ("globally", "release") for h in subformulas(g))


# ------------------------------------------------------------- fold / af

# one translation folds a few hundred distinct formulas (605 for LIB 9) and
# derives at most a few thousand (subformula, letter) pairs (2,370 for LIB 6;
# LIB 9 derives 28,196 pairs but repeats none, so eviction costs it nothing);
# the bounds keep a long-lived process from holding every formula it ever saw
@lru_cache(maxsize=4096)
def fold(f: LtlFormula) -> LtlFormula:
    """Canonical form: flatten and/or, drop units, absorb tt/ff, dedupe, sort."""
    k = f.kind
    if k in ("and", "or"):
        absorb, unit = (FF, TT) if k == "and" else (TT, FF)
        kids: dict[str, LtlFormula] = {}
        for c in f.children:
            fc = fold(c)
            if fc == absorb:
                return absorb
            if fc == unit:
                continue
            if fc.kind == k:
                for g in fc.children:
                    kids[to_string(g)] = g
            else:
                kids[to_string(fc)] = fc
        if not kids:
            return unit
        ordered = [kids[s] for s in sorted(kids)]
        if len(ordered) == 1:
            return ordered[0]
        return LtlFormula(k, tuple(ordered))
    if k == "not":
        c = fold(f.children[0])
        if c == TT:
            return FF
        if c == FF:
            return TT
        if c.kind == "not":
            return c.children[0]
        return lnot(c)
    if k in ("tt", "ff", "atom"):
        return f
    return LtlFormula(k, tuple(map(fold, f.children)))


@lru_cache(maxsize=4096)  # bound: see fold
def _af(f: LtlFormula, letter: int) -> LtlFormula:
    k = f.kind
    if k in ("tt", "ff"):
        return f
    if k == "atom":
        return TT if letter >> f.atom_index & 1 else FF
    if k == "not":
        c = f.children[0]
        if c.kind != "atom":
            raise LtlError("af needs negation normal form")
        return FF if letter >> c.atom_index & 1 else TT
    if k == "and":
        return land(*(_af(c, letter) for c in f.children))
    if k == "or":
        return lor(*(_af(c, letter) for c in f.children))
    if k == "next":
        return f.children[0]
    if k == "finally":
        return lor(_af(f.children[0], letter), f)
    if k == "until":
        lhs, rhs = f.children
        return lor(_af(rhs, letter), land(_af(lhs, letter), f))
    raise LtlError(f"af is defined for co-safety formulas only, got {k}")


def af_step(f: LtlFormula, letter: int) -> LtlFormula:
    """One derivative step: the folded residual of f after reading `letter`.

    `letter` is a bitmask over f's AtomSet.  f must be co-safety in NNF.
    """
    return fold(_af(f, letter))


def now_atoms(f: LtlFormula) -> int:
    """The bitmask of the atoms f reads in the current letter, those not
    under X: af_step(f, letter) depends on letter & now_atoms(f) alone."""
    k = f.kind
    if k == "atom":
        return 1 << f.atom_index
    if k == "next":
        return 0
    mask = 0
    for c in f.children:
        mask |= now_atoms(c)
    return mask


# ------------------------------------------------------- prop. equivalence

class PropBdd:
    """Hash-consed reduced ordered BDD of formulas read propositionally.

    tt, ff, and, or and not are connectives; every other subformula, atoms
    included, is a variable, numbered in order of first appearance.  Equal
    nodes mean propositionally equivalent formulas (Bryant 1986).  Node 0 is
    FALSE and node 1 is TRUE; the tables live as long as the instance.
    """

    FALSE, TRUE = 0, 1

    def __init__(self):
        self._nodes: list[tuple[int, int, int]] = [(-1, 0, 0), (-1, 1, 1)]
        self._unique: dict[tuple[int, int, int], int] = {}
        self._vars: dict[LtlFormula, int] = {}
        self._of: dict[LtlFormula, int] = {}
        self._and: dict[tuple[int, int], int] = {}
        self._not: dict[int, int] = {}

    def _mk(self, var: int, lo: int, hi: int) -> int:
        if lo == hi:
            return lo
        key = (var, lo, hi)
        n = self._unique.get(key)
        if n is None:
            n = self._unique[key] = len(self._nodes)
            self._nodes.append(key)
        return n

    def conj(self, a: int, b: int) -> int:
        if a > b:
            a, b = b, a
        if a == self.TRUE:
            return b
        if a == self.FALSE or a == b:
            return a
        r = self._and.get((a, b))
        if r is None:
            va, la, ha = self._nodes[a]
            vb, lb, hb = self._nodes[b]
            if va == vb:
                r = self._mk(va, self.conj(la, lb), self.conj(ha, hb))
            elif va < vb:
                r = self._mk(va, self.conj(la, b), self.conj(ha, b))
            else:
                r = self._mk(vb, self.conj(a, lb), self.conj(a, hb))
            self._and[a, b] = r
        return r

    def neg(self, a: int) -> int:
        if a <= self.TRUE:
            return self.TRUE - a
        r = self._not.get(a)
        if r is None:
            v, lo, hi = self._nodes[a]
            r = self._mk(v, self.neg(lo), self.neg(hi))
            self._not[a] = r
            self._not[r] = a
        return r

    def disj(self, a: int, b: int) -> int:
        return self.neg(self.conj(self.neg(a), self.neg(b)))

    def node(self, f: LtlFormula) -> int:
        n = self._of.get(f)
        if n is None:
            k = f.kind
            if k == "tt":
                n = self.TRUE
            elif k == "ff":
                n = self.FALSE
            elif k == "not":
                n = self.neg(self.node(f.children[0]))
            elif k in ("and", "or"):
                op, n = (self.conj, self.TRUE) if k == "and" else (self.disj, self.FALSE)
                for c in f.children:
                    n = op(n, self.node(c))
            else:
                n = self._mk(self._vars.setdefault(f, len(self._vars)),
                             self.FALSE, self.TRUE)
            self._of[f] = n
        return n


def prop_equiv(f: LtlFormula, g: LtlFormula) -> bool:
    """Propositional equivalence, maximal temporal subformulas as variables."""
    bdd = PropBdd()
    return bdd.node(fold(f)) == bdd.node(fold(g))
