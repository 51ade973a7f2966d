"""Classical Jacobi-matrix helpers on the half-line.

A classical matrix is the degenerate tree: diagonal beta_n, off-diagonal
lambda_n coupling n and n+1.  First- and second-kind values follow the
three-term recursion

    x p_n(x) = lambda_n p_{n+1}(x) + beta_n p_n(x) + lambda_{n-1} p_{n-1}(x)

with p_{-1} = 0, p_0 = 1 and q_0 = 0, q_1 = 1/lambda_0.  Sequence rules
are closures over the index with a mandatory depth cap; nothing here
evaluates an infinite object.  This is a leaf layer: it imports no other
treejacobi module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable


@dataclass(frozen=True)
class ClassicalJacobi:
    """Coefficient rules n -> lambda_n (positive) and n -> beta_n."""

    lam: Callable[[int], Fraction]
    beta: Callable[[int], Fraction]
    depth_cap: int

    def lam_at(self, n: int) -> Fraction:
        self._check(n)
        value = Fraction(self.lam(n))
        if value <= 0:
            raise ValueError(f"lambda rule nonpositive at index {n}")
        return value

    def beta_at(self, n: int) -> Fraction:
        self._check(n)
        return Fraction(self.beta(n))

    def _check(self, n: int):
        if not 0 <= n <= self.depth_cap:
            raise ValueError(f"index {n} beyond depth cap {self.depth_cap}")


def classical(lam, beta, depth_cap: int) -> ClassicalJacobi:
    """Wrap constants or callables into a capped coefficient pair."""
    lam_r = lam if callable(lam) else (lambda n, c=Fraction(lam): c)
    beta_r = beta if callable(beta) else (lambda n, c=Fraction(beta): c)
    return ClassicalJacobi(lam_r, beta_r, depth_cap)


def recurrence_values(lam, beta, x0, seed0, seed1, count: int) -> list:
    """Values f_0 .. f_count of the solution of the three-term recursion

        x0 f_n = lam(n) f_{n+1} + beta(n) f_n + lam(n-1) f_{n-1}

    from f_0 = seed0, f_1 = seed1; `lam` and `beta` are index rules.  The
    one implementation of the recursion in the package: it works for
    Fraction and GaussianRational points, diagonals and seeds alike."""
    if count < 0:
        raise ValueError("count must be >= 0")
    out = [seed0, seed1][:count + 1]
    for n in range(1, count):
        out.append(((x0 - beta(n)) * out[n] - lam(n - 1) * out[n - 1])
                   / lam(n))
    return out


def pq_values(j: ClassicalJacobi, x0: Fraction, count: int
              ) -> tuple[list[Fraction], list[Fraction]]:
    """Exact first-kind values p_0..p_count and second-kind q_0..q_count
    at the rational point x0."""
    x0 = Fraction(x0)
    lam0 = j.lam_at(0)
    p = recurrence_values(j.lam_at, j.beta_at, x0, Fraction(1),
                          (x0 - j.beta_at(0)) / lam0, count)
    q = recurrence_values(j.lam_at, j.beta_at, x0, Fraction(0),
                          Fraction(1) / lam0, count)
    return p, q


def pq_square_sum(j: ClassicalJacobi, x0: Fraction, count: int) -> Fraction:
    """Partial sum over n <= count of p_n(x0)^2 + q_n(x0)^2, exact."""
    p, q = pq_values(j, x0, count)
    return sum((a * a + b * b for a, b in zip(p, q)), Fraction(0))


# ---------------------------------------------------------------------
# the explicit two-scale geometric coefficient family
# ---------------------------------------------------------------------


def geometric_family(ratio: Fraction, a: Fraction, depth_cap: int) -> ClassicalJacobi:
    """Weights lambda_{2m} = lambda_{2m+1} = ratio^m with diagonal
    beta_{2m+1} = a * ratio^m and beta_{2m} = (ratio^m + ratio^{m-1}) / a.

    Needs ratio > 1 and a != 0.  The significance of the family: with the
    diagonal sign-flipped it makes every solution of the three-term
    recursion at 0 square-summable, while the diagonal-free matrix with
    the same weights keeps the explicit non-summable kernel vector
    x_{2m-1} = 0, x_{2m} = (-1)^m.  beta_0, which the derivation leaves
    free, extends the even formula to m = 0.
    """
    ratio = Fraction(ratio)
    a = Fraction(a)
    if ratio <= 1:
        raise ValueError("the geometric family needs ratio > 1")
    if a == 0:
        raise ValueError("the geometric family needs a != 0")

    def lam(n: int) -> Fraction:
        return ratio ** (n // 2)

    def beta(n: int) -> Fraction:
        if n % 2 == 1:
            return a * ratio ** (n // 2)
        m = n // 2
        return (ratio ** m + ratio ** (m - 1)) / a

    return ClassicalJacobi(lam, beta, depth_cap)


def even_reduction_residuals(j: ClassicalJacobi, seed0, seed1,
                             count: int) -> list[Fraction]:
    """For any solution of 0 = lambda_n x_{n+1} - beta_n x_n
    + lambda_{n-1} x_{n-1}, the geometric family collapses the even
    subsequence to 0 = lambda_{2m} x_{2m+2} + lambda_{2m-2} x_{2m-2};
    returns those residuals (all zero exactly for family coefficients)."""
    xs = recurrence_values(j.lam_at, lambda n: -j.beta_at(n), Fraction(0),
                           Fraction(seed0), Fraction(seed1), count)
    out = []
    for m in range(1, (count - 2) // 2 + 1):
        out.append(j.lam_at(2 * m) * xs[2 * m + 2]
                   + j.lam_at(2 * m - 2) * xs[2 * m - 2])
    return out


def kernel_vector_residuals(j: ClassicalJacobi, count: int) -> list[Fraction]:
    """Residuals of the diagonal-free matrix applied to the alternating
    vector x_{2m-1} = 0, x_{2m} = (-1)^m, through index count-1."""

    def x(n: int) -> Fraction:
        return Fraction(0) if n % 2 else Fraction((-1) ** (n // 2))

    out = []
    for n in range(count):
        acc = j.lam_at(n) * x(n + 1)
        if n >= 1:
            acc += j.lam_at(n - 1) * x(n - 1)
        out.append(acc)
    return out

