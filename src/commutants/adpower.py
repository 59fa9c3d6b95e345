"""Iterated commutator (ad) operators and their kernels."""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .commutant import _ad_power, _kernel_coords, commutant_operator
from .errors import BadExponent, FieldMismatch, NotSquare, ShapeMismatch
from .matrices import Matrix, _lift, _scaled, vstack_rows
from .polys import Poly, _at_matrix
from .subspaces import SubspaceBasis, _span

DEFAULT_MAX_POWER = 16


@dataclass(frozen=True)
class AdOperator:
    """ad_A as an n^2 x n^2 matrix acting on vec(X)."""

    A: Matrix
    op_matrix: Matrix

    @classmethod
    def of(cls, A: Matrix) -> "AdOperator":
        return cls(A, commutant_operator(A, A.field.one()))

    def apply(self, X: Matrix) -> Matrix:
        return self.A * X - X * self.A


def ad_power_kernel(A: Matrix, k: int, max_power: int = DEFAULT_MAX_POWER) -> SubspaceBasis:
    """Kernel of (ad_A)^k as a subspace of n x n matrices: the unit
    matrices E_ij, as integer vecs, go through k commutator steps, and
    the kernel of their images recombines them; the kernel coordinates
    are themselves the vecs, since the E_ij are the standard basis."""
    if not isinstance(k, int) or k < 1 or k > max_power:
        raise BadExponent(f"power k={k} outside 1..{max_power}")
    if not A.is_square:
        raise NotSquare("ad-power kernel needs a square matrix")
    n, Al = A.rows, _lift(A)
    units = [[int(i == j) for j in range(Al.phi * n * n)] for i in range(n * n)]
    return _span(_kernel_coords(_scaled(A.field, n * n, _ad_power(units, Al, k))), n)


def ann_k_member(X: Matrix, B: Matrix, k: int) -> bool:
    """Whether sum_i C(k,i) (-1)^i X^(k-i) B X^i vanishes, i.e. B is
    killed by the k-th iterate of ad_X.  Computed from the expanded
    binomial form on purpose; the recursive commutator is the oracle
    the tests compare against."""
    if not X.is_square or not B.is_square:
        raise NotSquare("ann_k membership needs square matrices")
    if X.rows != B.rows:
        raise ShapeMismatch(f"sizes differ: {X.rows} vs {B.rows}")
    if X.field != B.field:
        raise FieldMismatch(f"fields differ: {X.field} vs {B.field}")
    if not isinstance(k, int) or k < 1:
        raise BadExponent(f"power k={k} must be a positive integer")
    n = X.rows
    powers = [None, X]  # X^0 = I is never multiplied in
    for _ in range(k - 1):
        powers.append(powers[-1] * X)
    acc = Matrix.zero(n, n, X.field)
    for i in range(k + 1):
        term = B if i == k else powers[k - i] * B
        if i:
            term = term * powers[i]
        coeff = comb(k, i) * (-1 if i % 2 else 1)
        acc = acc + term.scale(coeff)
    return acc.is_zero()


def ad_inclusion_check(A: Matrix, f: Poly, k: int, max_power: int = DEFAULT_MAX_POWER) -> bool:
    """Test ker (ad_A)^k <= ker (ad_f(A))^k by running the iterated
    commutator with f(A) on every kernel basis element, in integers."""
    F = _at_matrix(f, A)
    ker = ad_power_kernel(A, k, max_power=max_power)
    vecs = _lift(vstack_rows(ker.rref_rows, A.field)).ints
    return not any(any(v) for v in _ad_power(vecs, F, k))
