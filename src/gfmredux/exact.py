"""Exact linear algebra and Markov-chain absorption over fractions.Fraction.

`solve_linear` is a sparse Gaussian elimination.  On top of it sits the
package's one exact chain solver: `chain_reach` gives the probability of
reaching a set of nodes, one strongly connected component at a time, and
`chain_accept` the probability of ending in a bottom component that holds
a hot edge.  Lasso probabilities of probabilistic automata, strategy values
and policy evaluation in `max_reach` all go through these two.
"""

from __future__ import annotations

import heapq
from fractions import Fraction

from .graph import component_of, coreach, strongly_connected_components


class SingularSystemError(ValueError):
    pass


def solve_linear(a, b: list[Fraction]) -> list[Fraction]:
    """Solve a x = b by Gaussian elimination with exact arithmetic.

    Each row of the square matrix `a` is a dict from column to nonzero
    coefficient; `a` and `b` are not modified.
    Elimination is sparse: the pivot is taken in a row with the fewest
    nonzeros, at the column of that row that occurs in the fewest rows (a
    cheap form of Markowitz's rule, Management Science 1957), which keeps
    fill-in low on the sparse systems of Markov chains.  Exact arithmetic
    needs no pivoting for stability.  Raises SingularSystemError if no
    unique solution exists.
    """
    n = len(b)
    rows = [dict(row) for row in a]
    rhs = list(b)
    rows_of: list[set[int]] = [set() for _ in range(n)]
    for r, row in enumerate(rows):
        for c in row:
            rows_of[c].add(r)
    queue = [(len(row), r) for r, row in enumerate(rows)]
    heapq.heapify(queue)
    done = [False] * n
    order = []
    while queue:
        size, r = heapq.heappop(queue)
        if done[r] or size != len(rows[r]):
            continue  # a stale entry: the row changed size after it was queued
        prow = rows[r]
        if not prow:
            raise SingularSystemError(f"singular: row {r} eliminated to zero")
        col = min(prow, key=lambda c: (len(rows_of[c]), c))
        done[r] = True
        order.append((r, col))
        for c in prow:
            rows_of[c].discard(r)
        pivot, pb = prow[col], rhs[r]
        for r2 in rows_of[col]:
            row = rows[r2]
            factor = row.pop(col) / pivot
            for c, v in prow.items():
                if c == col:
                    continue
                new = row.get(c, 0) - factor * v
                if new:
                    if c not in row:
                        rows_of[c].add(r2)
                    row[c] = new
                elif c in row:
                    del row[c]
                    rows_of[c].discard(r2)
            if pb:
                rhs[r2] -= factor * pb
            heapq.heappush(queue, (len(row), r2))
        rows_of[col].clear()
    x = [Fraction(0)] * n
    for r, col in reversed(order):
        acc = rhs[r]
        for c, v in rows[r].items():
            if c != col:
                acc -= v * x[c]
        x[col] = acc / rows[r][col]
    return x


def chain_reach(row, nodes, ones) -> dict:
    """Probability that a Markov chain reaches `ones`, exactly.

    `row(q)` lists the (successor, probability) pairs of node q; a
    successor that is neither a node nor in `ones` has value 0.  Nodes that
    cannot reach `ones` get 0.  The rest are solved one strongly connected
    component at a time in reverse topological order (Dai, Mausam, Weld &
    Goldsmith, JAIR 2011), so each component only reads values already
    known: a single state by the closed form, a larger component by one
    sparse linear solve over its own states.  Returns the values of the
    nodes and of `ones` (all 1).
    """
    rows = {q: row(q) for q in nodes}
    value = dict.fromkeys(nodes, Fraction(0))
    value.update(dict.fromkeys(ones, Fraction(1)))
    reach = coreach(
        value, lambda q: [s for s, _ in rows[q]] if q in rows else (), ones
    )
    live = [q for q in rows if q in reach]
    for comp in strongly_connected_components(
        live, lambda q: [s for s, _ in rows[q] if s in rows and s in reach]
    ):
        if len(comp) == 1:
            q = comp[0]
            loop = acc = Fraction(0)
            for s, p in rows[q]:
                if s == q:
                    loop = p
                elif value.get(s):
                    acc += p * value[s]
            value[q] = acc / (1 - loop) if loop else acc
            continue
        pos = {q: i for i, q in enumerate(comp)}
        a = [{i: Fraction(1)} for i in range(len(comp))]
        b = [Fraction(0)] * len(comp)
        for q, i in pos.items():
            for s, p in rows[q]:
                if s in pos:
                    a[i][pos[s]] = a[i].get(pos[s], 0) - p
                elif value.get(s):
                    b[i] += p * value[s]
        for q, x in zip(comp, solve_linear(a, b)):
            value[q] = x
    return value


def chain_accept(nodes, row, hot) -> dict:
    """Probability, from each node of a finite Markov chain, of ending in a
    bottom strongly connected component that holds a hot edge.

    `row(q)` lists the (successor, probability) pairs of node q, each
    successor a node and each probability positive; `hot(q, s)` tells
    whether the edge from q to s is hot.  A run ends in a bottom component
    almost surely and then takes every edge of it infinitely often, so the
    answer is the probability of reaching the hot bottom components.
    """
    rows = {q: list(row(q)) for q in nodes}
    comps = strongly_connected_components(rows, lambda q: [s for s, _ in rows[q]])
    comp_of = component_of(comps)
    winning = set()
    for ci, comp in enumerate(comps):
        edges = [(q, s) for q in comp for s, _ in rows[q]]
        if all(comp_of[s] == ci for _, s in edges) and any(hot(*e) for e in edges):
            winning.update(comp)
    return chain_reach(
        rows.__getitem__, [q for q in rows if q not in winning], winning
    )
