"""Commutant-type subspaces via vectorized kernels.

The defining relation AX = mu*XA vectorizes (row-major) to
(A kron I - mu * I kron A^T) vec(X) = 0, so the centralizer (mu = 1),
the clifforder (mu = -1) and the omega-centralizer (mu = zeta_q^k) are
one kernel computation with different scalars.  The double centralizer
stacks one such operator per centralizer basis element.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .canonical import is_balanced_matrix
from .errors import (
    FieldMismatch,
    IndexOutOfRange,
    InvalidSpec,
    NotSquare,
    ShapeMismatch,
)
from .matrices import Matrix, kernel_basis, kron, unvec
from .scalars import QQ, CycloScalar, FieldTag
from .subspaces import SubspaceBasis, subspace_from_matrices


@dataclass(frozen=True)
class OmegaSpec:
    """Designates omega = zeta_q^k, a primitive q-th root of unity."""

    q: int
    k: int = 1

    def __post_init__(self):
        if not isinstance(self.q, int) or self.q < 1:
            raise InvalidSpec("order q must be a positive integer")
        if not isinstance(self.k, int) or gcd(self.k, self.q) != 1:
            raise InvalidSpec(f"k={self.k} is not coprime to q={self.q}")

    @property
    def field(self) -> FieldTag:
        return FieldTag.cyclotomic(self.q)

    def omega(self) -> CycloScalar:
        return CycloScalar.zeta(self.q, self.k)


def commutant_operator(A: Matrix, mu) -> Matrix:
    """The n^2 x n^2 matrix of X -> AX - mu*XA under row-major vec."""
    if not A.is_square:
        raise NotSquare("commutant operator needs a square matrix")
    ident = Matrix.identity(A.rows, A.field)
    return kron(A, ident) - kron(ident, A.transpose()).scale(mu)


def _mu_commutant_basis(A: Matrix, mu) -> SubspaceBasis:
    vecs = kernel_basis(commutant_operator(A, mu))
    mats = [unvec(v, A.rows, A.field) for v in vecs]
    return subspace_from_matrices(mats, ambient_n=A.rows, field=A.field)


def centralizer_basis(A: Matrix) -> SubspaceBasis:
    """Basis of {X : AX = XA}."""
    return _mu_commutant_basis(A, A.field.one())


def clifforder_basis(A: Matrix) -> SubspaceBasis:
    """Basis of {X : AX = -XA}."""
    return _mu_commutant_basis(A, -A.field.one())


def omega_centralizer_basis(A: Matrix, w: OmegaSpec) -> SubspaceBasis:
    """Basis of {X : AX = omega*XA} over Q(zeta_q); rational input is
    promoted."""
    return _mu_commutant_basis(A.promote(w.q), w.omega())


def double_centralizer_basis(A: Matrix) -> SubspaceBasis:
    """Matrices commuting with everything that commutes with A,
    computed honestly from the centralizer basis (stacked kernels), not
    from the F[A] shortcut, so that identity stays independently
    checkable."""
    if not A.is_square:
        raise NotSquare("double centralizer needs a square matrix")
    return _double_centralizer(A, centralizer_basis(A))


def _double_centralizer(A: Matrix, cent: SubspaceBasis) -> SubspaceBasis:
    """double_centralizer_basis(A) from A's centralizer basis ``cent``."""
    n = A.rows
    rows: list[tuple] = []
    for X in cent.basis:
        op = commutant_operator(X, A.field.one())
        rows.extend(op.row(i) for i in range(op.rows))
    stacked = Matrix(A.field, len(rows), n * n, tuple(x for r in rows for x in r))
    mats = [unvec(v, n, A.field) for v in kernel_basis(stacked)]
    return subspace_from_matrices(mats, ambient_n=n, field=A.field)


def k_matrix(n: int, i: int) -> Matrix:
    """K_n^(i): alternating signs down the (i-1)-th superdiagonal, so
    the entry at (r, r+i-1) is (-1)^(r-1) with 1-based r."""
    if not 1 <= i <= n:
        raise IndexOutOfRange(f"i={i} outside 1..{n}")
    return Matrix.make(
        [
            [
                (-1) ** r if c == r + i - 1 else 0
                for c in range(n)
            ]
            for r in range(n)
        ],
        QQ,
    )


def k_combo(n: int, coeffs) -> Matrix:
    """The combination a_1*K_n^(1) + ... + a_n*K_n^(n)."""
    coeffs = list(coeffs)
    if len(coeffs) != n:
        raise ShapeMismatch(f"expected {n} coefficients, got {len(coeffs)}")
    acc = Matrix.zero(n, n, QQ)
    for idx, a in enumerate(coeffs, start=1):
        if a:
            acc = acc + k_matrix(n, idx).scale(a)
    return acc


def clifforder_has_invertible(A: Matrix) -> bool:
    """The clifforder contains an invertible X iff A is balanced: an
    invertible X with AX = -XA is exactly X^-1 A X = -A, the definition
    of balanced, so the answer is the invariant-factor test.  Acceptance
    test c04 compares it with the randomized invertibility probe."""
    if not A.is_square:
        raise NotSquare("clifforder test needs a square matrix")
    return is_balanced_matrix(A)
