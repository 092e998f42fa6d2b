"""Exact linear algebra over fractions.Fraction."""

from __future__ import annotations

import heapq
from fractions import Fraction


class SingularSystemError(ValueError):
    pass


def solve_linear(a, b: list[Fraction]) -> list[Fraction]:
    """Solve a x = b by Gaussian elimination with exact arithmetic.

    Each row of the square matrix `a` is a sequence of coefficients or a
    dict from column to nonzero coefficient; `a` and `b` are not modified.
    Elimination is sparse: the pivot is taken in a row with the fewest
    nonzeros, at the column of that row that occurs in the fewest rows (a
    cheap form of Markowitz's rule, Management Science 1957), which keeps
    fill-in low on the sparse systems of Markov chains.  Exact arithmetic
    needs no pivoting for stability.  Raises SingularSystemError if no
    unique solution exists.
    """
    n = len(b)
    rows = [
        dict(row) if isinstance(row, dict)
        else {c: v for c, v in enumerate(row) if v}
        for row in a
    ]
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
