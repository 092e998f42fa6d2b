import random
from fractions import Fraction

import pytest

from gfmredux.exact import SingularSystemError, solve_linear


def _random_system(rng, n, density):
    a = [
        {c: Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 5))
         for c in range(n) if rng.random() < density}
        for _ in range(n)
    ]
    for i, row in enumerate(a):
        row[i] = row.get(i, 0) + n * 10  # diagonally dominant, so nonsingular
    b = [Fraction(rng.randint(-5, 5), rng.randint(1, 7)) for _ in range(n)]
    return a, b


@pytest.mark.parametrize("density", [0.05, 0.3, 1.0])
def test_solve_linear_dense_and_sparse_rows(density):
    rng = random.Random(7)
    for n in (1, 2, 5, 30):
        a, b = _random_system(rng, n, density)
        kept = [dict(row) for row in a]
        x = solve_linear(a, b)
        for row, rhs in zip(a, b):
            assert sum(v * x[c] for c, v in row.items()) == rhs
        assert a == kept


def test_solve_linear_singular():
    with pytest.raises(SingularSystemError):
        solve_linear([{0: Fraction(1), 1: Fraction(2)},
                      {0: Fraction(2), 1: Fraction(4)}],
                     [Fraction(1), Fraction(2)])
    with pytest.raises(SingularSystemError):
        solve_linear([{0: Fraction(1)}, {0: Fraction(3)}], [Fraction(0)] * 2)
    assert solve_linear([], []) == []
