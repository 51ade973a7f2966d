import random
from fractions import Fraction as F

import pytest

from treejacobi.classical1d import (classical, even_reduction_residuals,
                                    geometric_family, kernel_vector_residuals,
                                    pq_square_sum, pq_values,
                                    recurrence_values)
from treejacobi.exactmath import GaussianRational


def test_free_values_period_four():
    j = classical(1, 0, 40)
    p, q = pq_values(j, F(0), 12)
    assert p[:8] == [F(1), F(0), F(-1), F(0), F(1), F(0), F(-1), F(0)]
    assert q[:8] == [F(0), F(1), F(0), F(-1), F(0), F(1), F(0), F(-1)]


def test_recursion_residual_is_zero():
    rng = random.Random(19)
    lam = [F(rng.randint(1, 9), rng.randint(1, 3)) for _ in range(20)]
    beta = [F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(20)]
    j = classical(lambda n: lam[n], lambda n: beta[n], 19)
    x0 = F(2, 3)
    p, q = pq_values(j, x0, 15)
    for n in range(15):
        prev = lam[n - 1] * p[n - 1] if n else F(0)
        assert lam[n] * p[n + 1] + beta[n] * p[n] + prev == x0 * p[n]


def test_pair_wronskian_constant():
    rng = random.Random(7)
    lam = [F(rng.randint(1, 9), rng.randint(1, 3)) for _ in range(16)]
    j = classical(lambda n: lam[n], F(1, 2), 15)
    p, q = pq_values(j, F(-1, 3), 12)
    for n in range(12):
        assert lam[n] * (p[n] * q[n + 1] - q[n] * p[n + 1]) == 1


def test_geometric_family_values():
    g = geometric_family(F(2), F(1), 50)
    assert [g.beta_at(n) for n in range(1, 5)] == [F(1), F(3), F(2), F(6)]
    assert [g.lam_at(n) for n in range(6)] == [F(1), F(1), F(2), F(2), F(4), F(4)]
    with pytest.raises(ValueError):
        geometric_family(F(1), F(1), 10)
    with pytest.raises(ValueError):
        geometric_family(F(2), F(0), 10)


def test_geometric_family_kernel_vector():
    g = geometric_family(F(2), F(1), 60)
    assert all(r == 0 for r in kernel_vector_residuals(g, 40))
    g3 = geometric_family(F(3), F(-2, 3), 60)
    assert all(r == 0 for r in kernel_vector_residuals(g3, 40))


def test_geometric_family_even_reduction():
    rng = random.Random(3)
    g = geometric_family(F(2), F(1), 80)
    for _ in range(50):
        s0 = F(rng.randint(-8, 8), rng.randint(1, 5))
        s1 = F(rng.randint(-8, 8), rng.randint(1, 5))
        assert all(r == 0 for r in even_reduction_residuals(g, s0, s1, 30))


def test_square_sum_trend_for_growing_weights():
    j = classical(lambda n: F(2) ** (n + 1), 0, 60)
    s20 = pq_square_sum(j, F(0), 20)
    s30 = pq_square_sum(j, F(0), 30)
    assert s20 < s30
    assert s30 - s20 < F(1, 10 ** 6)
    # reciprocal weights sum converges (Carleman-style marker of defect)
    assert sum(F(1) / j.lam_at(n) for n in range(40)) < 1


def test_square_sum_diverges_for_unit_weights():
    j = classical(1, 0, 60)
    assert pq_square_sum(j, F(0), 30) - pq_square_sum(j, F(0), 20) == 10


def test_zero_point_values_are_weight_ratio_products():
    # with zero diagonal, the first-kind values at 0 alternate through
    # even/odd weight-product ratios and the second-kind values through the
    # complementary ratios; this ties the square-sum criterion to the
    # product form exactly
    rng = random.Random(15)
    lam = [F(rng.randint(1, 8), rng.randint(1, 3)) for _ in range(42)]
    j = classical(lambda n: lam[n], 0, 41)
    p, q = pq_values(j, F(0), 31)
    for m in range(1, 15):
        even = F(1)
        odd = F(1)
        for k in range(m):
            even *= lam[2 * k]
            odd *= lam[2 * k + 1]
        assert p[2 * m] == F((-1) ** m) * even / odd
        odd_over_even = F(1)
        for k in range(m):
            odd_over_even *= lam[2 * k + 1] / lam[2 * k + 2]
        assert q[2 * m + 1] == F((-1) ** m) * odd_over_even / lam[0]
        assert p[2 * m + 1] == 0 and q[2 * m] == 0


def test_recurrence_values_complex_point():
    j = classical(lambda n: F(n + 1), F(0), 30)
    z = GaussianRational(F(0), F(2))
    vals = recurrence_values(j.lam_at, j.beta_at, z,
                             GaussianRational(F(1), F(0)),
                             GaussianRational(F(0), F(1)), 10)
    for n in range(1, 10):
        lhs = (z - j.beta_at(n)) * vals[n]
        rhs = j.lam_at(n) * vals[n + 1] + j.lam_at(n - 1) * vals[n - 1]
        assert lhs == rhs


def test_depth_cap_enforced():
    j = classical(1, 0, 5)
    with pytest.raises(ValueError):
        j.lam_at(6)
    with pytest.raises(ValueError):
        pq_values(j, F(0), 9)
