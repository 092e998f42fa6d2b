"""LTL syntax, parsing, normal forms, and the single-letter derivative af.

Formulas are immutable trees.  Atoms are indices into a shared AtomSet so
that letters of an alphabet can be plain bitmasks; printing recovers names.
One operator table, `_OPERATORS`, gives every operator's symbol, binding
power and associativity; the printer and the precedence-climbing reader
both read it, and the operator letters it names are the ones bare atom
names may not contain.  Each formula computes its hash and its printed form
(the sort key of `fold`) once, on first use, and keeps them; neither takes
part in `==` or pickling.  Hashing and `==` walk a formula without a call
per level, so a deep `X` chain does not reach the recursion limit.  The
derivative `af_step` comes out folded: `_af` joins the folded derivatives of
a formula's children by `fold`'s own rules, so no unfolded residual is built.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

MAX_ATOMS = 16

# The operator table that the printer and the reader share: symbol, formula
# kind, binding power (higher binds tighter) and associativity.  A "flat"
# operator chains into one n-ary node, a "right" one nests to the right and
# a "prefix" one takes one operand.  '->' is only read, as !a | b; 'R', the
# dual of U in negation normal forms, is only printed, so it is not a token
# and does not force quoting.
_OPERATORS = (
    ("->", "implies", 0, "right"),
    ("|", "or", 1, "flat"),
    ("&", "and", 2, "flat"),
    ("U", "until", 3, "right"),
    ("R", "release", 3, "right"),
    ("!", "not", 4, "prefix"),
    ("X", "next", 4, "prefix"),
    ("F", "finally", 4, "prefix"),
    ("G", "globally", 4, "prefix"),
)
_TIGHTEST = 4  # atoms and constants bind like the prefix operators
_READ = {op[0]: op for op in _OPERATORS if op[1] != "release"}
_OF_KIND = {op[1]: op for op in _OPERATORS}
_OPERATOR_LETTERS = "".join(sym for sym in _READ if sym.isalpha())
_SYMBOLS = {sym[0]: sym for sym in (*_READ, "(", ")")}  # by first character
_BARE_NAME = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*")
# the rest of a bare name: isalnum() or '_' characters, no operator letter
_WORD = re.compile(f"[^\\W{_OPERATOR_LETTERS}]*")


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
            # the unhashed subformulas, parents before children, are hashed
            # in reverse: no call recurses per level of a deep formula
            order, seen = [self], {id(self)}
            for f in order:
                for c in f.children:
                    if c._hash is None and id(c) not in seen:
                        seen.add(id(c))
                        order.append(c)
            for f in reversed(order):
                h = hash((f.kind, f.children, f.atom_set, f.atom_index))
                object.__setattr__(f, "_hash", h)
        return h

    def __eq__(self, other) -> bool:
        """Structural equality: identity, then the kinds and cached hashes,
        then a walk over the pairs of subformulas that are not identical, on
        an explicit stack, so that a deep formula does not recurse per
        level."""
        if self is other:
            return True
        if other.__class__ is not LtlFormula:
            return NotImplemented
        mine, theirs = self._hash, other._hash
        if (self.kind != other.kind
                or mine != theirs and mine is not None and theirs is not None):
            return False
        stack = [(self, other)]
        while stack:
            f, g = stack.pop()
            if (f.kind, f.atom_index, f.atom_set) != (g.kind, g.atom_index, g.atom_set):
                return False
            fc, gc = f.children, g.children
            if fc is not gc:  # leaves share the empty tuple
                if len(fc) != len(gc):
                    return False
                for a, b in zip(fc, gc):
                    if a is not b:
                        stack.append((a, b))
        return True

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

def _atom_str(name: str) -> str:
    """name, quoted unless the reader reads it back bare as this atom."""
    bare = _BARE_NAME.fullmatch(name) and _WORD.fullmatch(name)
    return name if bare and name not in ("tt", "ff") else f'"{name}"'


def to_string(f: LtlFormula) -> str:
    s = f._text
    if s is None:
        s = _print(f)
        object.__setattr__(f, "_text", s)
    return s


def _print(f: LtlFormula) -> str:
    k = f.kind
    if k in ("tt", "ff"):
        return k
    if k == "atom":
        return _atom_str(f.name)
    sym, _, bp, assoc = _OF_KIND[k]
    parts = []
    for i, c in enumerate(f.children):
        # an operand that binds looser than its operator is bracketed; the
        # operand of a prefix operator and the right one of a right-associative
        # operator may bind as tightly as the operator itself
        need = bp if assoc == "prefix" or (assoc == "right" and i) else bp + 1
        s = to_string(c)
        binds = _OF_KIND[c.kind][2] if c.kind in _OF_KIND else _TIGHTEST
        parts.append(s if binds >= need else "(" + s + ")")
    return sym + parts[0] if assoc == "prefix" else f" {sym} ".join(parts)


# ----------------------------------------------------------------- parsing

def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(type, value, position) triples: operators and parentheses have their
    symbol as type, the other types are "atom", "const" and "end"."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif (sym := _SYMBOLS.get(c)) is not None:
            if not text.startswith(sym, i):
                raise LtlParseError(f"expected {sym!r}", i)
            out.append((sym, sym, i))
            i += len(sym)
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
            j = _WORD.match(text, i).end()
            word = text[i:j]
            out.append(("const" if word in ("tt", "ff") else "atom", word, i))
            i = j
        else:
            raise LtlParseError(f"unexpected character {c!r}", i)
    out.append(("end", "", n))
    return out


def parse(text: str, atoms: AtomSet | None = None) -> LtlFormula:
    """Parse an LTL formula.

    Grammar: atoms (bare names may not contain X/F/G/U; quote with "...")
    and constants tt/ff/1/0, operators ! & | -> X F G U, with unary tightest,
    then U (right-assoc), & , |, -> (right-assoc), as `_OPERATORS` lists
    them.  '->' is rewritten to !a | b during parsing.  Without an explicit
    AtomSet, atoms are numbered in order of first appearance.
    """
    toks = _tokenize(text)
    if atoms is None:
        atoms = AtomSet(tuple(dict.fromkeys(v for typ, v, _ in toks if typ == "atom")))
    pos = 0

    def expr(min_bp: int) -> LtlFormula:
        """One operand, then every infix operator binding at least min_bp
        (precedence climbing)."""
        nonlocal pos
        typ, val, at = toks[pos]
        pos += 1
        op = _READ.get(typ)
        if op is not None and op[3] == "prefix":
            lhs = LtlFormula(op[1], (expr(op[2]),))
        elif typ == "(":
            lhs = expr(0)
            typ, val, at = toks[pos]
            if typ != ")":
                raise LtlParseError(f"expected rparen, got {val!r}", at)
            pos += 1
        elif typ == "const":
            lhs = TT if val in ("tt", "1") else FF
        elif typ == "atom":
            lhs = atom(atoms, val)
        else:
            raise LtlParseError(f"unexpected {val!r}", at)
        while True:
            op = _READ.get(toks[pos][0])
            if op is None or op[3] == "prefix" or op[2] < min_bp:
                return lhs
            pos += 1
            _, kind, bp, assoc = op
            rhs = expr(bp if assoc == "right" else bp + 1)
            if kind == "implies":
                lhs = lor(lnot(lhs), rhs)
            elif assoc == "flat":
                lhs = _nary(kind, (lhs, rhs))
            else:
                lhs = LtlFormula(kind, (lhs, rhs))

    f = expr(0)
    typ, val, at = toks[pos]
    if typ != "end":
        raise LtlParseError(f"unexpected {val!r}", at)
    return f


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

# one translation folds a few dozen distinct formulas (55 for LIB 9: residuals
# come out of _af folded, so fold sees only the body's subformulas) and
# derives at most a few thousand (subformula, letter) pairs (2,370 for LIB 6;
# LIB 9 derives 28,198 pairs but repeats none, so eviction costs it nothing);
# the bounds keep a long-lived process from holding every formula it ever saw
@lru_cache(maxsize=4096)
def fold(f: LtlFormula) -> LtlFormula:
    """Canonical form: flatten and/or, drop units, absorb tt/ff, dedupe, sort."""
    k = f.kind
    if k in ("and", "or"):
        return _join(k, map(fold, f.children), f)
    if k == "not":
        c = fold(f.children[0])
        if c == TT:
            return FF
        if c == FF:
            return TT
        if c.kind == "not":
            return c.children[0]
        return f if c is f.children[0] else lnot(c)
    if k in ("tt", "ff", "atom"):
        return f
    kids = tuple(map(fold, f.children))
    return f if kids == f.children else LtlFormula(k, kids)


def _join(k: str, parts, given: LtlFormula | None = None) -> LtlFormula:
    """The folded and/or node of kind k over folded `parts`, by fold's rules:
    absorb tt/ff, drop units, flatten one level, dedupe and sort by printed
    text.  `given`, a node of kind k, comes back itself if its children are
    the result's."""
    absorb, unit = (FF, TT) if k == "and" else (TT, FF)
    kids: dict[str, LtlFormula] = {}
    for p in parts:
        pk = p.kind
        if pk == absorb.kind:
            return absorb
        if pk == k:
            for g in p.children:
                kids[to_string(g)] = g
        elif pk != unit.kind:
            kids[to_string(p)] = p
    if len(kids) <= 1:
        return next(iter(kids.values()), unit)
    ordered = tuple(kids[s] for s in sorted(kids))
    return given if given is not None and ordered == given.children else LtlFormula(k, ordered)


@lru_cache(maxsize=4096)  # bound: see fold
def _af(f: LtlFormula, letter: int) -> LtlFormula:
    """fold of the residual of f after `letter`, joined from the folded
    residuals of f's children; X, F and U reuse their folded operands."""
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
    if k in ("and", "or"):  # every child is derived: one outside NNF raises
        return _join(k, [_af(c, letter) for c in f.children])
    if k == "next":
        return fold(f.children[0])
    if k == "finally":
        return _join("or", (_af(f.children[0], letter), fold(f)))
    if k == "until":
        lhs, rhs = f.children
        return _join("or", (_af(rhs, letter), _join("and", (_af(lhs, letter), fold(f)))))
    raise LtlError(f"af is defined for co-safety formulas only, got {k}")


def af_step(f: LtlFormula, letter: int) -> LtlFormula:
    """One derivative step: the folded residual of f after reading `letter`.

    `letter` is a bitmask over f's AtomSet.  f must be co-safety in NNF.
    """
    return _af(f, letter)


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
