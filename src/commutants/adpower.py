"""Iterated commutator (ad) operators and their kernels: ker (ad_A)^k is
read by `matrices._kernel` off one reversed-column reduction of the
integer matrix of (ad_A)^k, built by the binomial formula in one product,
and its lifted kernel rows are written out by `subspaces._from_reduced`.
Whether (ad_X)^k kills given matrices is `matrices._relation_holds` with
mu = 1, one packed chain of 2k products whatever their number."""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, gcd

from .commutant import commutant_operator
from .errors import BadExponent, FieldMismatch, ShapeMismatch, _integer
from .matrices import Matrix, _abreast, _columns, _kernel, _lift, _Lifted, _mul_lifted, _realigned, _relation_holds, _scaled, _square, _square_pair, _take, _transpose, _vec
from .polys import Poly, _at_matrix
from .subspaces import SubspaceBasis, _from_reduced, _rows

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
    """Kernel of (ad_A)^k as a subspace of n x n matrices: its canonical
    basis, read off one reduction of `_ad_matrix` by `_kernel_rref` and
    written out by `_from_reduced`."""
    _integer(max_power, 1, None, BadExponent, f"max_power={max_power} must be a positive integer")
    _integer(k, 1, max_power, BadExponent, f"power k={k} outside 1..{max_power}")
    _square(A, "ad-power kernel needs a square matrix")
    n = A.rows
    return _from_reduced(*_kernel_rref(_scaled(A.field, n * n, _ad_matrix(_lift(A), k))), n)


def _ad_matrix(Al: _Lifted, k: int) -> list[list[int]]:
    """The nonzero rows, content-free, of the matrix of (ad_A)^k = sum_a
    c_a A^a kron (A^(k-a))^T, c_a = C(k,a) (-1)^(k-a), under row-major vec:
    realigned from ((i, j), (l, m)) to ((i, l), (j, m)) it is U*V, U with
    the vecs of c_a Al^a as its k + 1 columns and V with those of
    (Al^(k-a))^T as its rows, A = Al / D, realigned by
    `matrices._realigned`.  The raw integer powers of Al share the scale
    D^k, so one product builds it."""
    Al = Al.common()
    n, field = Al.rows, Al.field
    powers = [_abreast((field.one(),), n, field), Al]
    for _ in range(k - 1):
        powers.append(_mul_lifted(Al, powers[-1]))
    U = _transpose(_scaled(field, n * n, [[(-1) ** (k - a) * comb(k, a) * x for x in _vec(Y)] for a, Y in enumerate(powers)]))
    V = _scaled(field, n * n, [_vec(_transpose(Y)) for Y in reversed(powers)])
    return [[x // g for x in row] for row in _realigned(_mul_lifted(U, V), n) if (g := gcd(*row))]


def _kernel_rref(L: _Lifted) -> tuple[_Lifted, list[int]]:
    """The RREF rows of {x : Mx = 0}, M the system with L's rows, lifted
    each over its value at its pivot, and their pivots, from `_kernel` on
    M with its columns reversed: the kernel vector of each free column is
    then 1 there, 0 at the other free columns and nonzero only to its
    right, so flipped back and in increasing order these vectors are the
    kernel's RREF.  Reversed rows move only pivot ties, and for
    (ad_A)^k make the pass the column-order reduction of (ad_JAJ)^k, J
    the reversal: faster."""
    w = L.cols
    flip = lambda M: _columns(_take(M, range(M.rows - 1, -1, -1)), range(w - 1, -1, -1))
    free, K = _kernel(flip(L))
    return flip(K), [w - 1 - c for c in reversed(free)]


def ann_k_member(X: Matrix, B: Matrix, k: int) -> bool:
    """Whether (ad_X)^k B = sum_i C(k,i) (-1)^i X^(k-i) B X^i vanishes,
    i.e. B is killed by the k-th iterate of ad_X: `_relation_holds` on
    B lifted with mu = 1, k - 1 commutator steps X*Y - Y*X and the two
    sides of the k-th compared, two products each."""
    _square_pair(X, B, "ann_k membership")
    if X.field != B.field:
        raise FieldMismatch(f"fields differ: {X.field} vs {B.field}")
    _integer(k, 1, None, BadExponent, f"power k={k} must be a positive integer")
    return not X.rows or _relation_holds([_vec(_lift(B).common())], _lift(X), 1, k)


def ad_inclusion_check(A: Matrix, f: Poly, k: int, max_power: int = DEFAULT_MAX_POWER) -> bool:
    """Test ker (ad_A)^k <= ker (ad_f(A))^k: `_relation_holds` with mu =
    1 and f(A) lifted on the kernel's basis rows, all packed into one
    chain of 2k integer products, so the check costs the same products
    whatever the kernel's dimension."""
    F = _at_matrix(f, A)
    ker = ad_power_kernel(A, k, max_power=max_power)
    if not A.rows:
        raise ShapeMismatch("matrix size must be positive")
    return _relation_holds(_rows(ker).ints, F, 1, k)
