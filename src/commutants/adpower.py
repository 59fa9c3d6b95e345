"""Iterated commutator (ad) operators and their kernels: ker (ad_A)^k is
read by `matrices._kernel` off one reversed-column reduction of the
integer matrix of (ad_A)^k, built by the binomial formula in one product."""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, gcd

from .commutant import commutant_operator
from .errors import BadExponent, FieldMismatch, NotSquare, ShapeMismatch
from .matrices import Matrix, _abreast, _columns, _entries, _kernel, _lift, _Lifted, _mul_lifted, _scaled, _sides, _transpose, _vec, unvec
from .polys import Poly, _at_matrix
from .subspaces import SubspaceBasis, _rows

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
    basis, read off one reduction of `_ad_matrix` by `_kernel_rref`."""
    if not isinstance(k, int) or k < 1 or k > max_power:
        raise BadExponent(f"power k={k} outside 1..{max_power}")
    if not A.is_square:
        raise NotSquare("ad-power kernel needs a square matrix")
    n = A.rows
    rows, pivots = _kernel_rref(_scaled(A.field, n * n, _ad_matrix(_lift(A), k)))
    return SubspaceBasis(A.field, n, len(rows), tuple(unvec(row, n, A.field) for row in rows), rows, pivots)


def _ad_matrix(Al: _Lifted, k: int) -> list[list[int]]:
    """The nonzero rows, content-free, of the matrix of (ad_A)^k = sum_a
    c_a A^a kron (A^(k-a))^T, c_a = C(k,a) (-1)^(k-a), under row-major vec:
    realigned from ((i, j), (l, m)) to ((i, l), (j, m)) it is U*V, U with
    the vecs of c_a Al^a as its k + 1 columns and V with those of
    (Al^(k-a))^T as its rows, A = Al / D.  The raw integer powers of Al
    share the scale D^k, so one product builds it."""
    Al = Al.common()
    n, phi, field = Al.rows, Al.phi, Al.field
    powers = [_abreast((field.one(),), n, field), Al]
    for _ in range(k - 1):
        powers.append(_mul_lifted(Al, powers[-1]))
    U = _transpose(_scaled(field, n * n, [[(-1) ** (k - a) * comb(k, a) * x for x in _vec(Y)] for a, Y in enumerate(powers)]))
    V = _scaled(field, n * n, [_vec(_transpose(Y)) for Y in reversed(powers)])
    N = _mul_lifted(U, V).ints
    rows = ([x for f in range(phi) for r in N[i * n : (i + 1) * n] for x in r[(f * n + j) * n : (f * n + j + 1) * n]] for i in range(n) for j in range(n))
    return [[x // g for x in row] for row in rows if (g := gcd(*row))]


def _kernel_rref(L: _Lifted) -> tuple[tuple[tuple, ...], tuple[int, ...]]:
    """The RREF rows and pivots of {x : Mx = 0}, M the system with L's
    rows, from `_kernel` on M with its columns reversed: the kernel vector
    of each free column is then 1 there, 0 at the other free columns and
    nonzero only to its right, so flipped back and in increasing order
    these vectors are the kernel's RREF.  Reversed rows move only pivot
    ties, and for (ad_A)^k make the pass the column-order reduction of
    (ad_JAJ)^k, J the reversal: faster."""
    w = L.cols
    flip = lambda M: _columns(_Lifted(M.field, w, M.dens[::-1], M.ints[::-1]), range(w - 1, -1, -1))
    free, K = _kernel(flip(L))
    flat = _entries(flip(K))
    return tuple(flat[i * w : (i + 1) * w] for i in range(len(free))), tuple(w - 1 - c for c in reversed(free))


def _ad_power(vecs: list[list[int]], X: _Lifted, k: int) -> list[list[int]]:
    """Integer vecs proportional to (ad_X)^k Y_e, by the same factor for
    each e, from the integer vecs of n x n blocks Y_e and X lifted: k
    commutator steps X*Y - Y*X, each one `_sides` product pair, and none
    when there are no blocks (n = 0)."""
    for _ in range(k if vecs else 0):
        xy, yx = _sides(vecs, X, 1)
        vecs = [[a - b for a, b in zip(u, v)] for u, v in zip(xy, yx)]
    return vecs


def ann_k_member(X: Matrix, B: Matrix, k: int) -> bool:
    """Whether (ad_X)^k B = sum_i C(k,i) (-1)^i X^(k-i) B X^i vanishes,
    i.e. B is killed by the k-th iterate of ad_X: k commutator steps of
    `_ad_power` on B lifted, two products each."""
    if not X.is_square or not B.is_square:
        raise NotSquare("ann_k membership needs square matrices")
    if X.rows != B.rows:
        raise ShapeMismatch(f"sizes differ: {X.rows} vs {B.rows}")
    if X.field != B.field:
        raise FieldMismatch(f"fields differ: {X.field} vs {B.field}")
    if not isinstance(k, int) or k < 1:
        raise BadExponent(f"power k={k} must be a positive integer")
    return not X.rows or not any(_ad_power([_vec(_lift(B).common())], _lift(X), k)[0])


def ad_inclusion_check(A: Matrix, f: Poly, k: int, max_power: int = DEFAULT_MAX_POWER) -> bool:
    """Test ker (ad_A)^k <= ker (ad_f(A))^k by running the iterated
    commutator with f(A) on every kernel basis element, in integers."""
    F = _at_matrix(f, A)
    ker = ad_power_kernel(A, k, max_power=max_power)
    if not A.rows:
        raise ShapeMismatch("matrix size must be positive")
    return not any(any(v) for v in _ad_power(_rows(ker).ints, F, k))
