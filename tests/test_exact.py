import random
from fractions import Fraction

import pytest

from gfmredux.exact import SingularSystemError, solve_linear


def _random_system(rng, n, density):
    a = [
        [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) if rng.random() < density
         else Fraction(0) for _ in range(n)]
        for _ in range(n)
    ]
    for i in range(n):
        a[i][i] += n * 10  # diagonally dominant, so nonsingular
    b = [Fraction(rng.randint(-5, 5), rng.randint(1, 7)) for _ in range(n)]
    return a, b


@pytest.mark.parametrize("density", [0.05, 0.3, 1.0])
def test_solve_linear_dense_and_sparse_rows(density):
    rng = random.Random(7)
    for n in (1, 2, 5, 30):
        a, b = _random_system(rng, n, density)
        x = solve_linear(a, b)
        for row, rhs in zip(a, b):
            assert sum(v * xi for v, xi in zip(row, x)) == rhs
        sparse = [{c: v for c, v in enumerate(row) if v} for row in a]
        assert solve_linear(sparse, b) == x
        assert sparse == [{c: v for c, v in enumerate(row) if v} for row in a]


def test_solve_linear_singular():
    with pytest.raises(SingularSystemError):
        solve_linear([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]],
                     [Fraction(1), Fraction(2)])
    with pytest.raises(SingularSystemError):
        solve_linear([{0: Fraction(1)}, {0: Fraction(3)}], [Fraction(0)] * 2)
    assert solve_linear([], []) == []
