"""Transition-based omega-automata and ultimately-periodic word algorithms.

States are 0..n-1, letters are dense ids over an Alphabet (an atom bitmask
plus an optional transition index used by the indexed-alphabet pipeline).
Acceptance lives on transitions: `marked` holds (state, letter, successor)
triples.  kind is "buchi" (visit marks infinitely often), "cobuchi"
(eventually avoid marks forever), or "finite" (NFA with final_states).
The pair products behind language inclusion, language classes and safe
containment read each automaton through integer tables over its letter
classes (letters with the same successors and marks from every state, one
representative each) and number a pair (p, q) as the integer p * n2 + q.
Constructions walk an alphabet through the same tables, one cell per class
of their input; `build_automaton` is the helper for callers with edge lists.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain
from operator import add
from typing import NamedTuple

from .exact import chain_accept
from .graph import (
    closure, component_of, coreach, cycle_nodes, strongly_connected_components,
)
from .ltl import AtomSet

KINDS = ("buchi", "cobuchi", "finite")


class AutomatonError(ValueError):
    pass


def _state_id(value) -> int:
    """A state id read from JSON: integers only, since int() would truncate
    0.7 to 0, and bool is an int."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"state id {value!r} is not an integer")
    return value


def _probability(text) -> Fraction:
    """A probability read from JSON: a number or a string such as "1/3"."""
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad probability {text!r}: {exc}") from None


def _distribution_error(dist, n: int) -> str | None:
    """What is wrong with the distribution `dist` over states 0..n-1, else
    None.  It must list (successor, probability) pairs, successors strictly
    increasing, probabilities positive Fractions whose sum, added over
    integers by cross-multiplication rather than one Fraction addition per
    term, is exactly 1."""
    if not dist:
        return "empty distribution"
    num, den, last = 0, 1, -1
    for s, p in dist:
        if not 0 <= s < n:
            return f"successor {s} out of range"
        if s <= last:
            return "successors must be sorted and unique"
        last = s
        if not isinstance(p, Fraction) or p.numerator <= 0:
            return "probabilities must be positive fractions"
        d = p.denominator
        if d == den:
            num += p.numerator
        else:
            num, den = num * d + p.numerator * den, den * d
    return None if num == den else f"distribution sums to {Fraction(num, den)}"


def _unchecked(cls, base=None, /, **values):
    """An instance of the frozen dataclass `cls` built without running its
    `__post_init__` checks.  Each field takes its value from `values`, else
    from `base` (an instance of `cls`), else its default.

    Only for values whose invariants hold by construction from inputs that
    were checked: products of a checked MDP with a checked automaton, copies
    of a checked automaton that change its meta or its acceptance reading,
    and the uniform weighting of a checked complete automaton.  A copy that
    keeps the base's `transitions` and `marked` keeps its `_tables` too.
    tests/test_source.py names the functions allowed to call it.
    """
    obj = object.__new__(cls)
    if base is not None and "_tables" in vars(base) and not values.keys() & {
        "transitions", "marked",
    }:
        obj.__dict__["_tables"] = base._tables  # the same moves and marks
    for f in fields(cls):
        if f.name in values:
            value = values.pop(f.name)
        else:
            value = f.default if base is None else getattr(base, f.name)
        if value is MISSING:
            raise TypeError(f"{cls.__name__}: no value for field {f.name!r}")
        obj.__dict__[f.name] = value
    if values:
        raise TypeError(f"{cls.__name__} has no fields {sorted(values)}")
    return obj


@dataclass(frozen=True)
class Alphabet:
    """2^atoms letters, each split into index_arity indexed copies.

    Letter ids order by (atom bitmask, index): id = mask * arity + (i - 1)
    with i in 1..arity.
    """

    atoms: AtomSet
    index_arity: int = 1

    def __post_init__(self):
        if self.index_arity < 1:
            raise AutomatonError(f"index_arity must be >= 1: {self.index_arity}")

    @property
    def size(self) -> int:
        return (1 << len(self.atoms)) * self.index_arity

    def letters(self) -> range:
        return range(self.size)

    def mask(self, letter: int) -> int:
        return letter // self.index_arity

    def index(self, letter: int) -> int:
        return letter % self.index_arity + 1

    def letter(self, mask: int, index: int = 1) -> int:
        if not 0 <= mask < (1 << len(self.atoms)):
            raise AutomatonError(f"mask {mask} out of range")
        if not 1 <= index <= self.index_arity:
            raise AutomatonError(f"index {index} out of range")
        return mask * self.index_arity + (index - 1)


@dataclass(frozen=True)
class LassoWord:
    """The ultimately periodic word prefix . cycle^omega (letter ids)."""

    prefix: tuple[int, ...]
    cycle: tuple[int, ...]

    def __post_init__(self):
        if not self.cycle:
            raise AutomatonError("lasso cycle must be nonempty")

    @property
    def total(self) -> int:
        return len(self.prefix) + len(self.cycle)

    def letter_at(self, pos: int) -> int:
        p = len(self.prefix)
        return self.prefix[pos] if pos < p else self.cycle[pos - p]

    def next_pos(self, pos: int) -> int:
        return pos + 1 if pos + 1 < self.total else len(self.prefix)


class _LetterTables(NamedTuple):
    """An automaton's moves over its letter classes: two letters share a
    class when, from every state, they have the same successors and the same
    marks, so one representative letter per class is enough."""

    letter_class: tuple[int, ...]  # the class of each letter
    members: tuple[tuple[int, ...], ...]  # the letters of each class
    succ: tuple  # succ[q][c]: the successors of q on class c
    safe: tuple  # safe[q][c]: those reached by unmarked moves
    det: tuple | None  # det[q][c]: the one successor, if deterministic and complete
    unsafe: tuple[int, ...]  # unsafe[q]: bitmask of the classes with a marked move


@dataclass(frozen=True)
class Automaton:
    alphabet: Alphabet
    kind: str
    initial: int
    # transitions[state][letter] -> sorted tuple of successor states
    transitions: tuple[tuple[tuple[int, ...], ...], ...]
    marked: frozenset[tuple[int, int, int]] = frozenset()
    final_states: frozenset[int] = frozenset()
    meta: dict | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise AutomatonError(f"unknown kind {self.kind!r}")
        n = len(self.transitions)
        if not 0 <= self.initial < n:
            raise AutomatonError(f"initial state {self.initial} out of range")
        size = self.alphabet.size
        for q, row in enumerate(self.transitions):
            if len(row) != size:
                raise AutomatonError(
                    f"state {q}: {len(row)} letter entries, alphabet has {size}"
                )
            for succs in row:
                if type(succs) is tuple and len(succs) == 1 and 0 <= succs[0] < n:
                    continue  # one successor, in range
                if tuple(sorted(set(succs))) != succs:
                    raise AutomatonError(f"state {q}: successors not sorted/unique")
                for s in succs:
                    if not 0 <= s < n:
                        raise AutomatonError(f"state {q}: successor {s} out of range")
        for (q, letter, s) in self.marked:
            if s not in self.transitions[q][letter]:
                raise AutomatonError(f"marked triple ({q},{letter},{s}) not a transition")
        if self.kind != "finite" and self.final_states:
            raise AutomatonError("final_states only apply to kind 'finite'")
        for q in self.final_states:
            if not 0 <= q < n:
                raise AutomatonError(f"final state {q} out of range")

    @property
    def n_states(self) -> int:
        return len(self.transitions)

    def states(self) -> range:
        return range(self.n_states)

    def succ(self, q: int, letter: int) -> tuple[int, ...]:
        return self.transitions[q][letter]

    @cached_property
    def _tables(self) -> _LetterTables:
        """Integer tables over the letter classes, read from `transitions`
        and `marked` once per automaton."""
        hot = [[] for _ in self.alphabet.letters()]
        for q, x, s in self.marked:
            hot[x].append((q, s))
        class_of: dict = {}
        letter_class, members, succ_cols, safe_cols = [], [], [], []
        unsafe = [0] * self.n_states
        for x, column in enumerate(zip(*self.transitions)):
            c = class_of.setdefault((column, frozenset(hot[x])), len(members))
            if c == len(members):
                members.append([])
                succ_cols.append(column)
                safe = list(column)
                for q, s in hot[x]:
                    safe[q] = tuple(t for t in safe[q] if t != s)
                    unsafe[q] |= 1 << c
                safe_cols.append(safe)
            members[c].append(x)
            letter_class.append(c)
        det = None
        if set(map(len, chain.from_iterable(succ_cols))) == {1}:
            det = tuple(zip(*([s for (s,) in col] for col in succ_cols)))
        return _LetterTables(
            tuple(letter_class),
            tuple(map(tuple, members)),
            tuple(zip(*succ_cols)),
            tuple(zip(*safe_cols)),
            det,
            tuple(unsafe),
        )

    @property
    def is_deterministic(self) -> bool:
        return all(len(t) <= 1 for row in self.transitions for t in row)

    @property
    def is_complete(self) -> bool:
        return all(len(t) >= 1 for row in self.transitions for t in row)


def build_automaton(
    alphabet: Alphabet,
    n_states: int,
    initial: int,
    kind: str,
    edges,
    finals=(),
    meta: dict | None = None,
) -> Automaton:
    """Construct from an edge list of (src, letter, dst[, marked]) tuples."""
    table: list[list[set[int]]] = [
        [set() for _ in alphabet.letters()] for _ in range(n_states)
    ]
    marked = set()
    for edge in edges:
        q, letter, s = edge[:3]
        table[q][letter].add(s)
        if len(edge) > 3 and edge[3]:
            marked.add((q, letter, s))
    trans = tuple(
        tuple(tuple(sorted(cell)) for cell in row) for row in table
    )
    return Automaton(
        alphabet, kind, initial, trans,
        frozenset(marked), frozenset(finals), meta,
    )


def complete(a: Automaton) -> Automaton:
    """Add a rejecting sink for missing (state, letter) entries; identity if
    already complete."""
    if a.is_complete:
        return a
    sink = a.n_states
    rows = []
    for q in a.states():
        rows.append(tuple(
            a.transitions[q][letter] or (sink,) for letter in a.alphabet.letters()
        ))
    rows.append(tuple((sink,) for _ in a.alphabet.letters()))
    marked = set(a.marked)
    if a.kind == "cobuchi":
        # marked self-loops keep the sink rejecting under co-Buchi acceptance
        marked.update((sink, letter, sink) for letter in a.alphabet.letters())
    return Automaton(
        a.alphabet, a.kind, a.initial, tuple(rows),
        frozenset(marked), a.final_states, a.meta,
    )


def prune_unreachable(a: Automaton) -> Automaton:
    """Drop states unreachable from the initial state (BFS renumbering).
    The search reads one cell per letter class, in the order of their first
    letters, so it numbers the states as a search over all letters would."""
    t = a._tables
    order = closure([a.initial], lambda q: chain.from_iterable(t.succ[q]))
    if order == list(a.states()):
        return a
    remap = {old: new for new, old in enumerate(order)}
    trans = []
    for old in order:
        cells = [tuple(sorted(remap[s] for s in succs)) for succs in t.succ[old]]
        trans.append(tuple(map(cells.__getitem__, t.letter_class)))
    marked = frozenset(
        (remap[q], letter, remap[s])
        for (q, letter, s) in a.marked
        if q in remap and s in remap
    )
    finals = frozenset(remap[q] for q in a.final_states if q in remap)
    return Automaton(a.alphabet, a.kind, 0, tuple(trans), marked, finals, a.meta)


# ---------------------------------------------------------- lasso checking

def _lasso_reach(a, w: LassoWord, targets) -> set:
    """Nodes (state, position) that runs of `a` (an automaton or a
    probabilistic automaton) on w reach from (initial, 0), where
    `targets(q, letter)` gives the successor states of q on letter."""
    for pos in range(w.total):
        if not 0 <= w.letter_at(pos) < a.alphabet.size:
            raise AutomatonError(f"lasso letter at {pos} outside the alphabet")

    def step(nd):
        q, pos = nd
        np = w.next_pos(pos)
        return ((s, np) for s in targets(q, w.letter_at(pos)))

    return set(closure([(a.initial, 0)], step))


def lasso_member(a: Automaton, w: LassoWord) -> bool:
    """Does the automaton accept prefix . cycle^omega?  Nondeterminism is
    resolved exactly (SCC analysis of the position-unrolled product): a run
    accepts iff it can loop through a marked edge (Buchi) or on unmarked
    edges alone (co-Buchi, whose search leaves marked edges out)."""
    if a.kind not in ("buchi", "cobuchi"):
        raise AutomatonError("lasso membership needs a buchi or cobuchi automaton")
    buchi = a.kind == "buchi"
    reach = _lasso_reach(a, w, a.succ)
    succ: dict = {}
    hot = []
    for nd in reach:
        q, pos = nd
        letter = w.letter_at(pos)
        np = w.next_pos(pos)
        out = succ[nd] = []
        for s in a.succ(q, letter):
            marked = (q, letter, s) in a.marked
            if buchi or not marked:
                out.append((s, np))
                if marked == buchi:
                    hot.append((nd, (s, np)))
    comp_of = component_of(strongly_connected_components(reach, succ.__getitem__))
    return any(comp_of[u] == comp_of[v] for u, v in hot)


# ----------------------------------------------- co-Buchi language inclusion

def _require_dcw(a: Automaton, role: str):
    if a.kind != "cobuchi":
        raise AutomatonError(f"{role} must be co-Buchi, got {a.kind}")


def _joint_moves(a1: Automaton, a2: Automaton) -> list[tuple[int, int, int]]:
    """(letter, class in a1, class in a2) for each pair of letter classes of
    two co-Buchi automata over one alphabet, with the last of its letters as
    representative."""
    _require_dcw(a1, "left automaton")
    _require_dcw(a2, "right automaton")
    if a1.alphabet != a2.alphabet:
        raise AutomatonError("alphabet mismatch")
    pairs = zip(a1._tables.letter_class, a2._tables.letter_class)
    joint = dict(zip(pairs, a1.alphabet.letters()))
    return [(x, c1, c2) for (c1, c2), x in joint.items()]


def dcw_counterexample(a1: Automaton, a2: Automaton) -> LassoWord | None:
    """A lasso in L(a1) \\ L(a2), or None if L(a1) is a subset of L(a2).

    a1 may be nondeterministic; a2 must be deterministic and complete.  The
    product reads one representative letter per class of letters that both
    automata treat alike, so the lasso is written in representative letters.
    """
    moves = _joint_moves(a1, a2)
    if a2._tables.det is None:
        raise AutomatonError("right automaton must be deterministic and complete")
    return _hot_cycle_lasso(*_pair_product(a1, a2, moves), 0)


def dcw_separating_lasso(a1: Automaton, a2: Automaton) -> LassoWord | None:
    """A lasso in exactly one of L(a1) and L(a2), or None if they are equal.

    Both automata must be deterministic and complete.  One reachable product
    serves both inclusions: the lasso is the one `dcw_counterexample(a1, a2)`
    returns, else the one `dcw_counterexample(a2, a1)` returns.
    """
    moves = _joint_moves(a1, a2)
    if a1._tables.det is None or a2._tables.det is None:
        raise AutomatonError("both automata must be deterministic and complete")
    product = _pair_product(a1, a2, moves)
    ce = _hot_cycle_lasso(*product, 0)
    return ce if ce is not None else _hot_cycle_lasso(*product, 1)


def _pair_product(a1: Automaton, a2: Automaton, moves):
    """The pairs of states of a1 and of a2 (deterministic and complete) that
    `moves` reach from the initial pair, as `_hot_cycle_lasso` reads them.
    A pair (p, q) is the integer p * n2 + q; `parent` maps it to its
    breadth-first (predecessor, letter), the start to None; `edges` maps it
    to its moves (successor, letter, marks) but those marked in both
    automata; bit 0 of marks says a move is marked in a1, bit 1 in a2; and
    `marked_in[marks]` lists the moves (pair, letter, successor) marked in
    one automaton only."""
    t1, t2 = a1._tables, a2._tables
    n2 = a2.n_states
    start = a1.initial * n2 + a2.initial
    parent: dict = {start: None}
    order = [start]
    edges: dict = {}
    marked_in: tuple = (None, [], [])
    rows1: dict = {}  # a1 state -> [(letter, a2 class, successor * n2, marked)]
    for u in order:
        p, q = divmod(u, n2)
        row = rows1.get(p)
        if row is None:
            succ1, safe1 = t1.succ[p], t1.safe[p]
            row = rows1[p] = [
                (x, c2, p2 * n2, p2 not in safe1[c1])
                for x, c1, c2 in moves
                for p2 in succ1[c1]
            ]
        succ2, unsafe2 = t2.det[q], t2.unsafe[q]
        out = edges[u] = []
        for x, c2, base, marked1 in row:
            v = base + succ2[c2]
            if v not in parent:
                parent[v] = (u, x)
                order.append(v)
            marks = marked1 | (unsafe2 >> c2 & 1) << 1
            if marks != 3:
                out.append((v, x, marks))
                if marks:
                    marked_in[marks].append((u, x, v))
    return order, parent, edges, marked_in


def _hot_cycle_lasso(order, parent, edges, marked_in, side) -> LassoWord | None:
    """A lasso of `_pair_product` in the language of its automaton `side`
    (0 for a1, 1 for a2) and not in the other's: from the start to the first
    hot move (u, letter, v) whose ends share a component of the safe moves,
    then back from v to u inside that component; None if no hot move closes
    such a cycle.  A move is safe if unmarked in automaton `side`, and hot
    if it is safe and marked in the other."""
    hot = marked_in[2 >> side]  # marked in the other automaton only
    if not hot:
        return None
    unsafe = 1 << side  # marked in automaton `side` only
    safe_edges: dict = {}  # pair -> {successor: first letter}
    for u in order:
        out = safe_edges[u] = {}
        for v, x, m in edges[u]:
            if m != unsafe and v not in out:
                out[v] = x
    comp_of = component_of(strongly_connected_components(order, safe_edges.__getitem__))
    witness = next(((u, x, v) for u, x, v in hot if comp_of[u] == comp_of[v]), None)
    if witness is None:
        return None

    u, wl, v = witness
    prefix = []
    node = u
    while parent[node] is not None:
        node, x = parent[node]
        prefix.append(x)
    prefix.reverse()

    # close the cycle v -> u inside the unmarked component
    cid = comp_of[u]
    back: dict = {v: None}
    queue = [v]
    for node in queue:
        if u in back:
            break
        for nxt, x in safe_edges[node].items():
            if nxt not in back and comp_of[nxt] == cid:
                back[nxt] = (node, x)
                queue.append(nxt)
    cycle_tail = []
    node = u
    while back[node] is not None:
        node, x = back[node]
        cycle_tail.append(x)
    cycle_tail.reverse()
    return LassoWord(tuple(prefix), (wl, *cycle_tail))


# -------------------------------------------- language classes of a DCW

def _congruence(a: Automaton) -> list[int]:
    """Block ids of the coarsest right congruence of a deterministic
    complete co-Buchi automaton that keeps states of empty, universal and
    other languages apart (Moore's partition refinement over the letter
    classes).  Equal languages share a block, since L(det(q, c)) is the
    quotient of L(q) by any letter of c."""
    t = a._tables
    states = a.states()
    succ = [set(row) for row in t.det].__getitem__
    safe = [set(chain.from_iterable(row)) for row in t.safe].__getitem__
    marked = [{s for c, s in enumerate(row) if t.unsafe[q] >> c & 1}
              for q, row in enumerate(t.det)].__getitem__
    # nonempty: reaches a cycle of unmarked moves
    nonempty = coreach(states, succ, cycle_nodes(states, safe))
    # not universal: reaches a cycle through a marked move
    partial = coreach(states, succ, cycle_nodes(states, succ, marked))
    block = [2 * (q in nonempty) + (q in partial) for q in states]
    count = len(set(block))
    while True:
        ids: dict = {}
        block = [
            ids.setdefault((block[q], *map(block.__getitem__, row)), len(ids))
            for q, row in enumerate(t.det)
        ]
        if len(ids) == count:
            return block
        count = len(ids)


@lru_cache(maxsize=64)
def _pair_relations(a: Automaton) -> tuple[tuple[int, ...], frozenset[int]]:
    """Language classes and safe non-containment of a deterministic complete
    co-Buchi automaton, read off one product of the state pairs that share a
    block of `_congruence`.

    The first result gives each state its class id (0-based, by lowest
    member state), as `lang_partition` returns it.  The second holds the
    same-block pairs (p, q), as the integers p * n + q, such that some
    finite word is safe (crosses no mark) from p but not from q; it says
    nothing of pairs in different blocks.  Each move leads a same-block pair
    to a same-block pair, so the product of those pairs alone answers both
    exactly, and a partition into singletons builds no pair at all.
    """
    _require_dcw(a, "automaton")
    t = a._tables
    if t.det is None:
        raise AutomatonError("language classes need a deterministic complete automaton")
    n, det, unsafe = a.n_states, t.det, t.unsafe
    block = _congruence(a)
    if len(set(block)) == n:
        return tuple(range(n)), frozenset()
    blocks: dict = {}
    for q, b in enumerate(block):
        blocks.setdefault(b, []).append(q)
    classes = range(len(t.members))

    # pair (p, q) is the integer p * n + q; `safe` keeps the moves unmarked
    # from p, `hot` those of them that are marked from q, and `parted` the
    # pairs that have such a move
    full, safe, hot, parted = {}, {}, [], []
    for members in blocks.values():
        for p in members:
            sp = [s * n for s in det[p]]
            free = [c for c in classes if not unsafe[p] >> c & 1]
            for q in members:
                sq = det[q]
                u = p * n + q
                full[u] = set(map(add, sp, sq))
                safe[u] = {sp[c] + sq[c] for c in free}
                if unsafe[q] & ~unsafe[p]:
                    parted.append(u)
                    hot.extend((u, sp[c] + sq[c]) for c in free if unsafe[q] >> c & 1)
    comps = strongly_connected_components(safe, safe.__getitem__)
    comp_of = component_of(comps)
    # a witness node lies in a component that holds a hot move
    witness = {comp_of[u] for u, v in hot if comp_of[u] == comp_of[v]}
    witness_nodes = [u for cid in witness for u in comps[cid]]

    # L(p) not<= L(q) iff (p,q) reaches a witness node in the full product
    bad = coreach(full, full.__getitem__, witness_nodes)

    # each state's lowest equivalent state, numbered in order of first use
    rep = list(range(n))
    for members in blocks.values():
        for i, p in enumerate(members):
            rep[p] = next((rep[q] for q in members[:i]
                           if p * n + q not in bad and q * n + p not in bad), p)
    ids: dict[int, int] = {}
    out = tuple(ids.setdefault(r, len(ids)) for r in rep)
    # safe(p) not<= safe(q) iff (p,q) reaches a parted pair along moves safe
    # from p; until it does, those moves are safe from q as well
    return out, frozenset(coreach(safe, safe.__getitem__, parted))


def lang_partition(a: Automaton) -> tuple[int, ...]:
    """Class ids (0-based, by lowest member state) of language-equivalent
    states of a deterministic complete co-Buchi automaton, from the pair
    product that also gives safe containment (`_pair_relations`)."""
    return _pair_relations(a)[0]


# --------------------------------------------------- probabilistic automata

@dataclass(frozen=True)
class ProbAutomaton:
    """Complete probabilistic Buchi automaton with the 0/1 usage contract:
    acceptance probability of a word is the measure of runs that take marked
    transitions infinitely often."""

    alphabet: Alphabet
    initial: int
    # transitions[state][letter] -> ((succ, prob), ...), successors sorted and
    # unique, probabilities positive Fractions summing to 1
    transitions: tuple[tuple[tuple[tuple[int, Fraction], ...], ...], ...]
    marked: frozenset[tuple[int, int, int]] = frozenset()
    meta: dict | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        n = len(self.transitions)
        if not 0 <= self.initial < n:
            raise AutomatonError(f"initial state {self.initial} out of range")
        size = self.alphabet.size
        for q, row in enumerate(self.transitions):
            if len(row) != size:
                raise AutomatonError(f"state {q}: wrong letter count")
            for dist in row:
                error = _distribution_error(dist, n)
                if error is not None:
                    raise AutomatonError(f"state {q}: {error}")
        for (q, letter, s) in self.marked:
            if all(t != s for t, _ in self.transitions[q][letter]):
                raise AutomatonError(f"marked triple ({q},{letter},{s}) not a transition")

    @property
    def n_states(self) -> int:
        return len(self.transitions)

    def states(self) -> range:
        return range(self.n_states)

    def dist(self, q: int, letter: int):
        return self.transitions[q][letter]


def pa_lasso_prob(pa: ProbAutomaton, w: LassoWord) -> Fraction:
    """Exact acceptance probability of a lasso word.

    The word induces a finite Markov chain on the reachable (state,
    position) nodes; runs end up in its bottom components, each of which is
    accepting iff it contains a marked transition (`exact.chain_accept`).
    """
    reach = _lasso_reach(pa, w, lambda q, letter: [s for s, _ in pa.dist(q, letter)])

    def row(nd):
        q, pos = nd
        np = w.next_pos(pos)
        return [((s, np), p) for s, p in pa.dist(q, w.letter_at(pos))]

    def hot(nd, nd2):
        return (nd[0], w.letter_at(nd[1]), nd2[0]) in pa.marked

    return chain_accept(reach, row, hot)[(pa.initial, 0)]
