"""The package's one exact eliminator (`solutions._echelon`, with
`solutions._particular_solution` for right-hand sides) against sympy's
domain matrices on seeded small systems over Q and Q(i): rank,
consistency verdict, and a particular solution that satisfies the
system.  Full-rank, rank-deficient and inconsistent systems all occur."""

import random
from fractions import Fraction as F

import pytest

from treejacobi.exactmath import GaussianRational
from treejacobi.solutions import _echelon, _particular_solution

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402


def rand_entry(rng, gaussian):
    if rng.random() < 0.4:
        re, im = F(0), F(0)
    else:
        re = F(rng.randint(-4, 4), rng.randint(1, 3))
        im = F(rng.randint(-4, 4), rng.randint(1, 3))
    return GaussianRational(re, im) if gaussian else re


def to_sympy(x):
    if isinstance(x, GaussianRational):
        return to_sympy(x.re) + sympy.I * to_sympy(x.im)
    return sympy.Rational(x.numerator, x.denominator)


def sympy_rank(rows, gaussian):
    m, n = len(rows), len(rows[0])
    dm = DomainMatrix.from_list_sympy(
        m, n, [[to_sympy(x) for x in row] for row in rows])
    return dm.convert_to(sympy.QQ_I if gaussian else sympy.QQ).rank()


def system(rng, kind, gaussian):
    """kind 0: random matrix, consistent right-hand side; 1: last row a
    combination of earlier rows, consistent; 2: the same rows, right-hand
    side shifted off the combination (inconsistent); 3: all random."""
    m, n = rng.randint(1 if kind in (0, 3) else 2, 5), rng.randint(1, 5)
    rows = [[rand_entry(rng, gaussian) for _ in range(n)] for _ in range(m)]
    x0 = [rand_entry(rng, gaussian) for _ in range(n)]
    rhs = [sum((a * x for a, x in zip(row, x0)), 0 * x0[0]) for row in rows]
    if kind in (1, 2):
        i, j = rng.randrange(m - 1), rng.randrange(m - 1)
        ci, cj = rand_entry(rng, gaussian), rand_entry(rng, gaussian)
        rows[-1] = [ci * a + cj * b for a, b in zip(rows[i], rows[j])]
        rhs[-1] = ci * rhs[i] + cj * rhs[j] + (1 if kind == 2 else 0)
    if kind == 3:
        rhs = [rand_entry(rng, gaussian) for _ in range(m)]
    return rows, rhs


@pytest.mark.parametrize("gaussian", [False, True], ids=["Q", "Q(i)"])
def test_eliminator_matches_sympy(gaussian):
    rng = random.Random(23 if gaussian else 17)
    zero = GaussianRational(F(0), F(0)) if gaussian else F(0)
    seen = {"deficient": 0, "inconsistent": 0}
    for case in range(240):
        kind = case % 4
        rows, rhs = system(rng, kind, gaussian)
        n = len(rows[0])
        aug = [row + [b] for row, b in zip(rows, rhs)]
        before = [row[:] for row in aug]
        rank = sympy_rank(rows, gaussian)
        consistent = sympy_rank(aug, gaussian) == rank
        assert len(_echelon(rows, n)[1]) == rank
        echelon, pivots = _echelon(aug, n)
        assert aug == before  # the input rows are left alone
        assert len(pivots) == rank
        sol = _particular_solution(echelon, pivots, n, zero)
        assert (sol is not None) == consistent
        if kind in (0, 1):
            assert consistent
        if kind == 2:
            assert not consistent
        seen["deficient"] += rank < min(len(rows), n)
        seen["inconsistent"] += not consistent
        if sol is not None:
            assert all(sol[col] == 0 for col in range(n) if col not in pivots)
            for row, b in zip(rows, rhs):
                assert sum((a * x for a, x in zip(row, sol)), zero) == b
    assert seen["deficient"] >= 60 and seen["inconsistent"] >= 60
