"""Transition-based omega-automata and ultimately-periodic word algorithms.

States are 0..n-1, letters are dense ids over an Alphabet (an atom bitmask
plus an optional transition index used by the indexed-alphabet pipeline).
Acceptance lives on transitions: `marked` holds (state, letter, successor)
triples.  kind is "buchi" (visit marks infinitely often), "cobuchi"
(eventually avoid marks forever), or "finite" (NFA with final_states).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .exact import chain_accept
from .graph import closure, component_of, coreach, strongly_connected_components
from .ltl import AtomSet

KINDS = ("buchi", "cobuchi", "finite")


class AutomatonError(ValueError):
    pass


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

    def is_marked(self, q: int, letter: int, s: int) -> bool:
        return (q, letter, s) in self.marked

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
    """Drop states unreachable from the initial state (BFS renumbering)."""
    order = closure(
        [a.initial], lambda q: [s for cell in a.transitions[q] for s in cell]
    )
    if len(order) == a.n_states and order == list(a.states()):
        return a
    remap = {old: new for new, old in enumerate(order)}
    trans = tuple(
        tuple(
            tuple(sorted(remap[s] for s in a.succ(old, letter)))
            for letter in a.alphabet.letters()
        )
        for old in order
    )
    marked = frozenset(
        (remap[q], letter, remap[s])
        for (q, letter, s) in a.marked
        if q in remap and s in remap
    )
    finals = frozenset(remap[q] for q in a.final_states if q in remap)
    return Automaton(a.alphabet, a.kind, 0, trans, marked, finals, a.meta)


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
    resolved exactly (SCC analysis of the position-unrolled product)."""
    if a.kind not in ("buchi", "cobuchi"):
        raise AutomatonError("lasso membership needs a buchi or cobuchi automaton")
    reach = _lasso_reach(a, w, a.succ)
    p = len(w.prefix)

    if a.kind == "buchi":
        cyc = [nd for nd in reach if nd[1] >= p]
        cyc_set = set(cyc)

        def succ_full(nd):
            q, pos = nd
            np = w.next_pos(pos)
            for s in a.succ(q, w.letter_at(pos)):
                if (s, np) in cyc_set:
                    yield (s, np)

        comp_of = component_of(strongly_connected_components(cyc, succ_full))
        for (q, pos) in cyc:
            letter = w.letter_at(pos)
            np = w.next_pos(pos)
            for s in a.succ(q, letter):
                if (q, letter, s) in a.marked and comp_of.get((s, np)) == comp_of[(q, pos)]:
                    return True
        return False

    # cobuchi: accept iff some reachable node starts an infinite unmarked path,
    # i.e. the unmarked subgraph over reachable nodes has a cycle.
    def succ_unmarked(nd):
        q, pos = nd
        letter = w.letter_at(pos)
        np = w.next_pos(pos)
        for s in a.succ(q, letter):
            if (q, letter, s) not in a.marked and (s, np) in reach:
                yield (s, np)

    comp_of = component_of(strongly_connected_components(reach, succ_unmarked))
    return any(
        comp_of[nd2] == comp_of[nd] for nd in reach for nd2 in succ_unmarked(nd)
    )


# ----------------------------------------------- co-Buchi language inclusion

def _require_dcw(a: Automaton, role: str):
    if a.kind != "cobuchi":
        raise AutomatonError(f"{role} must be co-Buchi, got {a.kind}")


def dcw_counterexample(a1: Automaton, a2: Automaton) -> LassoWord | None:
    """A lasso in L(a1) \\ L(a2), or None if L(a1) is a subset of L(a2).

    a1 may be nondeterministic; a2 must be deterministic and complete.
    """
    _require_dcw(a1, "left automaton")
    _require_dcw(a2, "right automaton")
    if a1.alphabet != a2.alphabet:
        raise AutomatonError("alphabet mismatch")
    if not (a2.is_deterministic and a2.is_complete):
        raise AutomatonError("right automaton must be deterministic and complete")

    start = (a1.initial, a2.initial)
    parent: dict = {start: None}
    queue = [start]
    i = 0
    while i < len(queue):
        node = queue[i]
        i += 1
        p, q = node
        for letter in a1.alphabet.letters():
            q2 = a2.succ(q, letter)[0]
            for p2 in a1.succ(p, letter):
                nxt = (p2, q2)
                if nxt not in parent:
                    parent[nxt] = (node, letter)
                    queue.append(nxt)

    def succ_h(node):
        p, q = node
        for letter in a1.alphabet.letters():
            q2 = a2.succ(q, letter)[0]
            for p2 in a1.succ(p, letter):
                if (p, letter, p2) not in a1.marked:
                    yield (p2, q2)

    comp_of = component_of(strongly_connected_components(parent, succ_h))

    witness = None
    for node in parent:
        p, q = node
        for letter in a1.alphabet.letters():
            q2 = a2.succ(q, letter)[0]
            for p2 in a1.succ(p, letter):
                if (p, letter, p2) in a1.marked:
                    continue
                if (q, letter, q2) not in a2.marked:
                    continue
                if comp_of[(p2, q2)] == comp_of[node]:
                    witness = (node, letter, (p2, q2))
                    break
            if witness:
                break
        if witness:
            break
    if witness is None:
        return None

    u, wl, v = witness
    prefix = []
    node = u
    while parent[node] is not None:
        node, letter = parent[node]
        prefix.append(letter)
    prefix.reverse()

    # close the cycle v -> u inside the unmarked-component subgraph
    cid = comp_of[u]
    back: dict = {v: None}
    bq = [v]
    i = 0
    while v != u and i < len(bq):
        node = bq[i]
        i += 1
        p, q = node
        for letter in a1.alphabet.letters():
            q2 = a2.succ(q, letter)[0]
            for p2 in a1.succ(p, letter):
                if (p, letter, p2) in a1.marked:
                    continue
                nxt = (p2, q2)
                if comp_of.get(nxt) != cid or nxt in back:
                    continue
                back[nxt] = (node, letter)
                bq.append(nxt)
        if u in back:
            break
    cycle_tail = []
    node = u
    while back[node] is not None:
        node, letter = back[node]
        cycle_tail.append(letter)
    cycle_tail.reverse()
    return LassoWord(tuple(prefix), (wl, *cycle_tail))


# -------------------------------------------- language classes of a DCW

@lru_cache(maxsize=64)
def lang_partition(a: Automaton) -> tuple[int, ...]:
    """Class ids (0-based, by lowest member state) of language-equivalent
    states of a deterministic complete co-Buchi automaton."""
    _require_dcw(a, "automaton")
    if not (a.is_deterministic and a.is_complete):
        raise AutomatonError("language classes need a deterministic complete automaton")
    n = a.n_states
    letters = list(a.alphabet.letters())
    nodes = [(p, q) for p in range(n) for q in range(n)]

    def succ_h(node):
        p, q = node
        for letter in letters:
            p2 = a.succ(p, letter)[0]
            if (p, letter, p2) not in a.marked:
                yield (p2, a.succ(q, letter)[0])

    comps = strongly_connected_components(nodes, succ_h)
    comp_of = component_of(comps)

    witness_nodes = set()
    for cid, comp in enumerate(comps):
        hit = False
        for (p, q) in comp:
            for letter in letters:
                p2 = a.succ(p, letter)[0]
                if (p, letter, p2) in a.marked:
                    continue
                q2 = a.succ(q, letter)[0]
                if (q, letter, q2) in a.marked and comp_of[(p2, q2)] == cid:
                    hit = True
                    break
            if hit:
                break
        if hit:
            witness_nodes.update(comp)

    # L(p) not<= L(q) iff (p,q) reaches a witness node in the full product
    rows = a.transitions
    bad = coreach(
        nodes,
        lambda nd: [(rows[nd[0]][x][0], rows[nd[1]][x][0]) for x in letters],
        witness_nodes,
    )

    rep = list(range(n))
    for p in range(n):
        for q in range(p):
            if (p, q) not in bad and (q, p) not in bad:
                rep[p] = rep[q]
                break
    ids: dict[int, int] = {}
    out = []
    for p in range(n):
        r = rep[p]
        if r not in ids:
            ids[r] = len(ids)
        out.append(ids[r])
    return tuple(out)


# --------------------------------------------------- probabilistic automata

@dataclass(frozen=True)
class ProbAutomaton:
    """Complete probabilistic Buchi automaton with the 0/1 usage contract:
    acceptance probability of a word is the measure of runs that take marked
    transitions infinitely often."""

    alphabet: Alphabet
    initial: int
    # transitions[state][letter] -> ((succ, prob), ...) with probs summing to 1
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
                if not dist:
                    raise AutomatonError(f"state {q}: missing distribution")
                total = Fraction(0)
                seen = set()
                for s, p in dist:
                    if not 0 <= s < n:
                        raise AutomatonError(f"state {q}: successor {s} out of range")
                    if s in seen:
                        raise AutomatonError(f"state {q}: duplicate successor {s}")
                    seen.add(s)
                    if p <= 0:
                        raise AutomatonError(f"state {q}: probability {p} <= 0")
                    total += p
                if total != 1:
                    raise AutomatonError(f"state {q}: probabilities sum to {total}")
        for (q, letter, s) in self.marked:
            if s not in [t for t, _ in self.transitions[q][letter]]:
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
