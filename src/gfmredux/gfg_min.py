"""Polynomial state reduction of deterministic co-Buchi automata.

States are compared by language class (exact, via a product construction)
and by safe language — the finite words readable without crossing a mark.
A state whose safe language is covered by a same-class partner is a merge
candidate: its incoming edges are redirected to the partner, either keeping
their marks or conservatively marking them.  Each candidate rewrite is
committed only after an exact equivalence check against the *original*
automaton, so the result is correct by checking rather than by a fragile
transition-rule argument; a rewrite that fails the check is simply skipped.
The separating lasso of each failed check is kept, and a later rewrite whose
run on a kept lasso disagrees with the original is skipped without a check.
Everything stays deterministic, which keeps all checks polynomial.  Language
classes and safe containment come from `automata._pair_relations`: a
partition refinement first puts apart states whose languages must differ,
and one integer pair product over the pairs left in each block decides the
rest (no pair at all when every block is one state).  An equivalence check of
two deterministic automata walks one pair product for both inclusions
(`automata.dcw_separating_lasso`).  All of them read letter classes, so an
indexed alphabet costs one letter per class of letters that act alike, not
one per index; so do the breakpoint determinisation and the two determinism
predicates.
"""

from __future__ import annotations

import dataclasses
from itertools import chain

from .automata import (
    Automaton,
    AutomatonError,
    LassoWord,
    _pair_relations,
    _unchecked,
    dcw_counterexample,
    dcw_separating_lasso,
    prune_unreachable,
)
from .graph import closure, coreach, cycle_nodes, numbering


class MinimizeError(AutomatonError):
    def __init__(self, message: str, lasso: LassoWord | None = None):
        super().__init__(message)
        self.lasso = lasso


def _require_dcw_complete(d: Automaton, who: str):
    if d.kind != "cobuchi":
        raise AutomatonError(f"{who} needs a co-Buchi automaton, got {d.kind}")
    if d._tables.det is None:
        raise AutomatonError(f"{who} needs a deterministic complete automaton")


# ------------------------------------------------------------ safe structure

def alive_states(d: Automaton) -> frozenset[int]:
    """States with an infinite unmarked run, i.e. that reach an unmarked
    cycle through unmarked edges."""
    succ_u = [set(chain.from_iterable(row)) for row in d._tables.safe].__getitem__
    return frozenset(coreach(d.states(), succ_u, cycle_nodes(d.states(), succ_u)))


def normalize_safety(d: Automaton) -> Automaton:
    """Mark every unmarked edge whose target has no infinite unmarked run.

    Such an edge can never sit on an eventually-safe run tail, so the marks
    change no acceptance; they make safe languages honest before comparing.
    """
    alive = alive_states(d)
    members = d._tables.members
    extra = set()
    for q, row in enumerate(d._tables.safe):
        for c, succs in enumerate(row):
            for s in succs:
                if s not in alive:
                    extra.update((q, x, s) for x in members[c])
    if not extra:
        return d
    return dataclasses.replace(d, marked=d.marked | extra)


def safe_contained(d: Automaton, p: int, q: int) -> bool:
    """Is every finite word that is safe from p also safe from q?  A search
    from (p, q) along the moves safe from p: it fails at a pair with a move
    safe from its first state and marked from its second."""
    _require_dcw_complete(d, "safe_contained")
    det, unsafe = d._tables.det, d._tables.unsafe

    def step(pair):
        x, y = pair
        return [(s, det[y][c]) for c, s in enumerate(det[x]) if not unsafe[x] >> c & 1]

    return not any(unsafe[y] & ~unsafe[x] for x, y in closure([(p, q)], step))


# ----------------------------------------------------------- determinisation

def nca_determinize(a: Automaton, max_states: int = 200_000) -> Automaton:
    """Breakpoint determinisation of a complete nondeterministic co-Buchi
    automaton: track (reachable set S, still-safe subset O); when O dies the
    output edge is marked and O restarts from S."""
    if a.kind != "cobuchi":
        raise AutomatonError("nca_determinize needs a co-Buchi automaton")
    if not a.is_complete:
        raise AutomatonError("nca_determinize needs a complete automaton")
    t = a._tables
    order, number = numbering((frozenset({a.initial}), frozenset({a.initial})))
    rows, marked = [], set()
    for i, (s_set, o_set) in enumerate(order):
        cells = []
        for c, members in enumerate(t.members):
            s_next = frozenset(s for q in s_set for s in t.succ[q][c])
            o_next = frozenset(s for q in o_set for s in t.safe[q][c])
            j = number((s_next, o_next or s_next))  # O restarts from S
            if j >= max_states:
                raise MinimizeError(f"determinisation exceeded {max_states} states")
            cells.append((j,))
            if not o_next:
                marked.update((i, x, j) for x in members)
        rows.append(tuple(map(cells.__getitem__, t.letter_class)))
    return Automaton(a.alphabet, "cobuchi", 0, tuple(rows), frozenset(marked))


def nca_lang_equiv(a1: Automaton, a2: Automaton) -> LassoWord | None:
    """None if two complete co-Buchi automata (nondeterminism allowed)
    recognise the same language, else a separating lasso.  Two
    deterministic automata share one product for both inclusions."""
    if a1._tables.det is not None and a2._tables.det is not None:
        return dcw_separating_lasso(a1, a2)
    d2 = a2 if a2._tables.det is not None else nca_determinize(a2)
    ce = dcw_counterexample(a1, d2)
    if ce is not None:
        return ce
    d1 = a1 if a1._tables.det is not None else nca_determinize(a1)
    return dcw_counterexample(a2, d1)


# -------------------------------------------------------------- minimisation

_MAX_TARGETS = 4


def _redirect(d: Automaton, gone: int, target: int, keep_marks: bool) -> Automaton:
    """Drop state `gone`, sending its incoming edges to `target` (marked
    unless keep_marks preserves the original flag), then prune."""
    keep = [q for q in d.states() if q != gone]
    new_id = {q: i for i, q in enumerate(keep)}
    new_id[gone] = new_id[target]
    trans = tuple(
        tuple((new_id[s],) for (s,) in d.transitions[q]) for q in keep
    )
    marked = {(new_id[q], x, new_id[s]) for (q, x, s) in d.marked if q != gone}
    if not keep_marks:
        marked.update(
            (new_id[q], x, new_id[target])
            for q in keep
            for x, (s,) in enumerate(d.transitions[q])
            if s == gone
        )
    cand = Automaton(d.alphabet, "cobuchi", new_id[d.initial], trans, frozenset(marked))
    return prune_unreachable(cand)


def _run_accepts(
    d: Automaton, w: LassoWord, gone: int = -1, target: int = -1,
    keep_marks: bool = True,
) -> bool:
    """Does the deterministic complete co-Buchi automaton d accept the lasso
    w, when every move into `gone` goes to `target` instead?  That is the run
    of `_redirect(d, gone, target, keep_marks)`, read on d itself: a
    redirected move is marked unless keep_marks keeps an unmarked one.  The
    default `gone` redirects nothing."""
    t = d._tables
    det, unsafe, letter_class = t.det, t.unsafe, t.letter_class
    q = target if d.initial == gone else d.initial
    for x in w.prefix:
        q = det[q][letter_class[x]]
        if q == gone:
            q = target
    # read the cycle until a state at its start repeats; the run accepts iff
    # the loop from there on is unmarked
    start: dict = {}
    hot = []
    while q not in start:
        start[q] = len(hot)
        marked = False
        for x in w.cycle:
            c = letter_class[x]
            marked = marked or unsafe[q] >> c & 1
            q = det[q][c]
            if q == gone:
                q = target
                marked = marked or not keep_marks
        hot.append(marked)
    return not any(hot[start[q]:])


def minimize(d: Automaton) -> Automaton:
    """Reduce a deterministic complete co-Buchi automaton, preserving its
    language exactly.

    The output is deterministic and complete over the same alphabet and
    never larger than the (reachable part of the) input.  Its meta carries
    `lang_class`, the language-class id of each output state.  A final
    equivalence check against the input backs up the per-merge checks that
    guarantee correctness.
    """
    _require_dcw_complete(d, "minimize")
    original = prune_unreachable(d)
    cur = normalize_safety(original)
    # (lasso, accepted by original) for every rejected candidate: a later
    # candidate whose run on a stored lasso disagrees needs no product check
    refuters: list[tuple[LassoWord, bool]] = []

    changed = True
    while changed:
        changed = False
        if cur.n_states <= 1:
            break
        part, noncont = _pair_relations(cur)
        n = cur.n_states
        same_class: dict = {}
        for q, c in enumerate(part):
            same_class.setdefault(c, []).append(q)
        for q in cur.states():
            # same-class states whose safe language covers q's, equal first
            equal, strict = [], []
            for p in same_class[part[q]]:
                if p == q or q * n + p in noncont:
                    continue
                (equal if p * n + q not in noncont else strict).append(p)
            committed = False
            for target in (equal + strict)[:_MAX_TARGETS]:
                for keep_marks in (True, False):
                    if any(
                        _run_accepts(cur, w, q, target, keep_marks) != accepts
                        for w, accepts in refuters
                    ):
                        continue  # a stored lasso already separates it
                    cand = _redirect(cur, q, target, keep_marks)
                    ce = nca_lang_equiv(cand, original)
                    if ce is None:
                        cur = normalize_safety(cand)
                        committed = True
                        break
                    refuters.append((ce, _run_accepts(original, ce)))
                if committed:
                    break
            if committed:
                changed = True
                break

    cur = _unchecked(Automaton, cur, meta={"lang_class": _pair_relations(cur)[0]})
    ce = nca_lang_equiv(cur, original)
    if ce is not None:  # pragma: no cover - every merge was checked
        raise MinimizeError(f"minimisation changed the language: {ce}", ce)
    return cur


def safe_deterministic(a: Automaton) -> bool:
    """At most one unmarked move per (state, letter)."""
    return all(len(cell) <= 1 for row in a._tables.safe for cell in row)


def semantically_deterministic(a: Automaton, lang_class) -> bool:
    """All successors of any (state, letter) share one language class.

    `lang_class` maps states to class ids (minimize stores this in meta).
    """
    return all(len({lang_class[s] for s in cell}) <= 1
               for row in a._tables.succ for cell in row)
