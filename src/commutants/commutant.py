"""Commutant-type subspaces from the Frobenius form.

The centralizer (mu = 1), the clifforder (mu = -1) and the
omega-centralizer (mu = zeta_q^k) are the solutions of AX = mu*XA.
With A = P*F*P^-1 and F a direct sum of companion blocks, X = P*Y*P^-1
where each block of Y solves C(a)*Y = mu*Y*C(b), whose solutions are
known in closed form, so one structural routine serves all three and no
n^2 x n^2 system is eliminated.  The double centralizer is F[A], by the
double-centralizer theorem: the span of I, A, ..., A^(d-1), d = deg m_A
from the checked `min_poly`, checked to be an A-invariant d-dimensional
span containing I, with no split and no centralizer built.  Each basis
is checked exactly before it is returned.  The vectorized operator
A kron I - mu * I kron A^T is the tests' oracle for all of them and for
the ad-power kernels of `adpower`, which build the integer matrix of
(ad_A)^k by the binomial formula and read their basis off one
reversed-column reduction with `matrices._kernel`, the kernel routine
of the Frobenius split too, which runs in integers and hands P lifted.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .canonical import _frobenius, is_balanced_matrix, min_poly
from .errors import (
    IndexOutOfRange,
    InvalidSpec,
    NotSquare,
    ShapeMismatch,
    VerificationError,
)
from .matrices import (
    Matrix,
    _content_free,
    _embed,
    _inverse,
    _left,
    _lift,
    _Lifted,
    _mul_lifted,
    _right,
    _same,
    _scaled,
    _sides,
    _times,
    _vec,
    kron,
    vstack_rows,
)
from .polys import Poly, poly_gcd
from .scalars import QQ, CycloScalar, FieldTag
from .subspaces import SubspaceBasis, _span, subspace_from_matrices


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


def _split(A: Matrix) -> tuple[tuple[Poly, ...], _Lifted, _Lifted]:
    """The checked Frobenius split of A with P and P^-1 lifted: (factors,
    P, P^-1), P^-1 from one lifted solve against I."""
    factors, P = _frobenius(A)
    P_inv = _inverse(P)
    if P_inv is None:
        raise VerificationError("Frobenius change of basis is singular")
    return factors, P, P_inv


def _mu_commutant_basis(A: Matrix, mu, split=None) -> SubspaceBasis:
    """Basis of {X : AX = mu*XA} over mu's field, built block by block
    on the Frobenius form A = P*F*P^-1 and proven before it is
    returned: A*P = P*F (checked by the split) with P invertible, every
    returned X satisfies the relation, and the span has Frobenius'
    dimension sum deg gcd(f_i(x), f_j(mu^-1 x)).  A rational A is split
    over Q even when mu is cyclotomic; then A, P and P^-1 are lifted over
    Q and embedded with `_embed`, and the factors are promoted.
    `split`, private, is `_split(A)` when the caller has it.

    A and P are lifted to integers once (P^-1 comes lifted from the
    split), and each solution Y to one integer vec, so X = P*Y*P^-1
    stays in integers up to a scale per X, which the span does not see;
    only the canonical basis that is returned becomes field elements."""
    if not A.is_square:
        raise NotSquare("commutant needs a square matrix")
    field = FieldTag.cyclotomic(mu.q) if isinstance(mu, CycloScalar) else QQ
    Al = _embed(_lift(A), field)  # FieldMismatch for A over another Q(zeta_r)
    n = A.rows
    factors, P, P_inv = _split(A) if split is None else split
    Pl, P_inv = _embed(P, field), _embed(P_inv, field)
    if A.field != field:
        factors = tuple(Poly.make(f.coeffs, field) for f in factors)
    offsets = [0]
    for f in factors:
        offsets.append(offsets[-1] + f.degree)
    # each solution Y is one nonzero block (i, j) of an n x n matrix
    ys = []
    for i, a in enumerate(factors):
        for j, b in enumerate(factors):
            for cols in _block_solutions(a, b, mu):
                flat = [field.zero()] * (n * n)
                for k, col in enumerate(cols):
                    for r, x in enumerate(col):
                        flat[(offsets[i] + r) * n + offsets[j] + k] = x
                ys.append(flat)
    count = len(ys)
    if not count:
        return subspace_from_matrices([], ambient_n=n, field=field)
    X = _right(_left(Pl, _lift(vstack_rows(ys, field)).ints), P_inv)
    S = _span(_scaled(field, n * n, X), n)
    if S.dim != count:
        raise VerificationError(f"span has rank {S.dim}, Frobenius' formula gives {count}")
    AX, XmuA = _sides(_lift(vstack_rows(S.rref_rows, field)).ints, Al, _times(mu, Al))
    if AX != XmuA:
        raise VerificationError("a basis element fails AX = mu*XA")
    return S


def _block_solutions(a: Poly, b: Poly, mu) -> list[list[tuple]]:
    """Basis of {Y : C(a)*Y = mu*Y*C(b)}, each Y as its deg b columns of
    length deg a.  With columns read as F[x]/(a), where C(a) is
    multiplication by x, the solutions are p -> p(mu^-1 x)*u mod a for
    u in (a/g)*F[x]/(a), g = gcd(a(x), b(mu^-1 x)): spanned by
    u_t = x^t * (a/g), t < deg g, and column k is mu^-k x^k u_t mod a,
    so every column is a scaled x^s * (a/g) mod a, s < deg g + deg b."""
    field = a.field
    inv = field.one() / mu
    scales, c = [], field.one()
    for _ in b.coeffs:
        scales.append(c)
        c = c * inv
    g = poly_gcd(a, Poly.make([x * y for x, y in zip(b.coeffs, scales)], field))
    if not g.degree:
        return []
    zero, low = field.zero(), a.coeffs[:-1]
    w = list((a // g).coeffs) + [zero] * (g.degree - 1)
    shifts = [tuple(w)]
    for _ in range(g.degree + b.degree - 2):
        # x * w mod a: shift up, fold the top back with the monic a
        top = w[-1]
        w = [zero] + w[:-1]
        if top:
            w = [x - top * y for x, y in zip(w, low)]
        shifts.append(tuple(w))
    return [
        [shifts[t + k] if s == 1 else tuple(s * x for x in shifts[t + k]) for k, s in enumerate(scales[:-1])]
        for t in range(g.degree)
    ]


def centralizer_basis(A: Matrix) -> SubspaceBasis:
    """Basis of {X : AX = XA}."""
    return _mu_commutant_basis(A, A.field.one())


def clifforder_basis(A: Matrix) -> SubspaceBasis:
    """Basis of {X : AX = -XA}."""
    return _mu_commutant_basis(A, -A.field.one())


def omega_centralizer_basis(A: Matrix, w: OmegaSpec) -> SubspaceBasis:
    """Basis of {X : AX = omega*XA} over Q(zeta_q); rational input is
    promoted."""
    return _mu_commutant_basis(A, w.omega())


def double_centralizer_basis(A: Matrix) -> SubspaceBasis:
    """Matrices commuting with everything that commutes with A: F[A], by
    the double-centralizer theorem, derived from deg m_A (the checked
    `min_poly`, no split) with no centralizer built, and checked before
    it is returned."""
    if not A.is_square:
        raise NotSquare("double centralizer needs a square matrix")
    return _double_centralizer(A, min_poly(A).degree)


def _double_centralizer(A: Matrix, d: int) -> SubspaceBasis:
    """C(C(A)) = F[A] for d = deg m_A = dim F[A]: the canonical span R of
    the integer vecs of I, A, ..., A^(d-1), each power one lifted product
    with the content divided out.  Checked without the powers: R has d
    rows, and vec I and A*R_i for every row R_i lie in span R, each as
    its coordinates at R's pivot columns times R.  An A-invariant span
    that contains I contains every A^k, so span R contains F[A], and
    with d rows it is F[A]."""
    n, field = A.rows, A.field
    Al, ident = _lift(A).common(), _lift(Matrix.identity(n, field))
    powers = [ident]
    for _ in range(d - 1):
        powers.append(_content_free(_mul_lifted(Al, powers[-1])))
    S = _span(_scaled(field, n * n, [_vec(Y) for Y in powers[:d]]), n)
    if S.dim != d:
        raise VerificationError(f"double centralizer has dimension {S.dim}, deg m_A is {d}")
    R = _lift(Matrix(field, d, n * n, tuple(x for row in S.rref_rows for x in row)))
    V = _scaled(field, n * n, [_vec(ident)] + _left(Al, R.ints))
    coords = _scaled(field, d, [[v[f * n * n + p] for f in range(R.phi) for p in S.pivots] for v in V.ints])
    if not _same(_mul_lifted(coords, R), V):
        raise VerificationError("the span of the powers of A is not A-invariant or misses I")
    return S


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
