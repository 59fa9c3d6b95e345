"""Commutant-type subspaces from the Frobenius form.

The centralizer (mu = 1), the clifforder (mu = -1) and the
omega-centralizer (mu = zeta_q^k) are the solutions of AX = mu*XA.
With A = P*F*P^-1 and F a direct sum of companion blocks, X = P*Y*P^-1
where each block of Y solves C(a)*Y = mu*Y*C(b), whose solutions are
known in closed form, so one structural routine serves all three and no
n^2 x n^2 system is eliminated.  It takes A lifted once, as the CLI
reads it, and stays in integers up to the checked canonical basis.
The double centralizer is F[A], by the double-centralizer theorem: the
span of I, A, ..., A^(d-1), d = deg m_A from the checked `min_poly`,
checked to be an A-invariant d-dimensional span containing I, with no
split and no centralizer built.  The vectorized operator A kron I -
mu * I kron A^T is the tests' oracle for all of them and for the
ad-power kernels of `adpower`, which build the integer matrix of
(ad_A)^k by the binomial formula and read their basis off one
reversed-column reduction with `matrices._kernel`.
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
    _abreast,
    _columns,
    _content_free,
    _embed,
    _inverse,
    _left,
    _lift,
    _Lifted,
    _mul_lifted,
    _planes,
    _scaled,
    _sides,
    _times,
    _transpose,
    _vec,
    _zeta_shifts,
    kron,
)
from .polys import Poly, poly_gcd
from .scalars import QQ, CycloScalar, FieldTag, cyclo_coeffs, phi_degree
from .subspaces import SubspaceBasis, _contains, _rows, _span, subspace_from_matrices


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


def _split(Al: _Lifted) -> tuple[tuple[Poly, ...], _Lifted, _Lifted]:
    """The checked Frobenius split of A, lifted as Al, with P and P^-1
    lifted: (factors, P, P^-1), P^-1 from one lifted solve against I."""
    factors, P = _frobenius(Al)
    P_inv = _inverse(P)
    if P_inv is None:
        raise VerificationError("Frobenius change of basis is singular")
    return factors, P, P_inv


def _mu_commutant_basis(Al: _Lifted, mu, split=None) -> SubspaceBasis:
    """Basis of {X : AX = mu*XA} over mu's field, for A lifted as Al,
    built block by block on the Frobenius form A = P*F*P^-1 and proven
    before it is returned: A*P = P*F (checked by the split) with P
    invertible, every returned X satisfies the relation, and the span
    has Frobenius' dimension sum deg gcd(f_i(x), f_j(mu^-1 x)).  A
    rational A is split over Q even when mu is cyclotomic; then A, P and
    P^-1 are embedded with `_embed`, and the factors are promoted.
    `split`, private, is `_split(Al)` when the caller has it.  Each
    integer Y of `_block_solutions` fills one block (I, J), so X =
    (P[:, I]*Y)*P^-1[J, :]: one product per I, the Ys' distinct columns
    abreast, and one per J, the n x deg f_J blocks stacked.  P and P^-1
    go over one denominator each, so every X keeps the dense product's
    scale, which the span does not see but the pivot choice does."""
    if Al.rows != Al.cols:
        raise NotSquare("commutant needs a square matrix")
    field = FieldTag.cyclotomic(mu.q) if isinstance(mu, CycloScalar) else QQ
    Ae = _embed(Al, field)  # FieldMismatch for A over another Q(zeta_r)
    n, phi = Ae.cols, Ae.phi
    factors, P, P_inv = _split(Al) if split is None else split
    P, P_inv = _embed(P, field).common(), _embed(P_inv, field).common()
    if Al.field != field:
        factors = tuple(Poly.make(f.coeffs, field) for f in factors)
    offsets = [sum(f.degree for f in factors[:i]) for i in range(len(factors))]
    stacks = [[] for _ in factors]  # the rows of P[:, I]*Y for each Y in block column J
    for i, a in enumerate(factors):
        sols = [(j, Y) for j, b in enumerate(factors) for Y in _block_solutions(a, b, mu)]
        at = {col: k for k, col in enumerate(dict.fromkeys(col for _, Y in sols for col in Y))}  # Ys share columns
        if at:
            da, o, w = a.degree, offsets[i], len(at)
            left = _mul_lifted(_columns(P, range(o, o + da)), _transpose(_scaled(field, da, list(at)))).ints
            for j, Y in sols:
                stacks[j] += [[row[e * w + at[c]] for e in range(phi) for c in Y] for row in left]
    X = []
    for j, rows in enumerate(stacks):
        if rows:
            o, db = offsets[j], factors[j].degree
            XJ = _mul_lifted(_scaled(field, db, rows), _Lifted(field, n, P_inv.dens[o : o + db], P_inv.ints[o : o + db])).ints
            X += [_vec(_scaled(field, n, XJ[s : s + n])) for s in range(0, len(XJ), n)]
    if not X:
        return subspace_from_matrices([], ambient_n=n, field=field)
    S = _span(_scaled(field, n * n, X), n)
    if S.dim != len(X):
        raise VerificationError(f"span has rank {S.dim}, Frobenius' formula gives {len(X)}")
    AX, XmuA = _sides(_rows(S).ints, Ae, mu)
    if AX != XmuA:
        raise VerificationError("a basis element fails AX = mu*XA")
    return S


def _block_solutions(a: Poly, b: Poly, mu) -> list[list[tuple]]:
    """Basis of {Y : C(a)*Y = mu*Y*C(b)} for invariant factors a and b
    (one divides the other), each Y as its deg b columns in integers,
    plane-major, over one scale per Y.  With columns read as F[x]/(a),
    column k of Y_t, t < deg g, is U_(t+k), U_s = mu^-s x^s (a/g) mod a,
    g = gcd(a(x), b(mu^-1 x)): the factor of lower degree when b(mu^-1 x)
    is a multiple of b, that is when mu^(deg b - k) = 1 for every b_k !=
    0.  U_(s+1) is U_s shifted, its top entry folded back through a's low
    coefficients, times mu^-1 by `_times`."""
    field = a.field
    inv = field.one() / mu
    if mu == 1 or all(mu ** (b.degree - k) == 1 for k, x in enumerate(b.coeffs) if x):
        g = a if a.degree <= b.degree else b  # b(mu^-1 x) = mu^-deg b * b(x)
    else:
        g = poly_gcd(a, Poly.make([x * inv**k for k, x in enumerate(b.coeffs)], field))
    if not g.degree:
        return []
    q, da = field.q, a.degree
    d, low = _planes(a.coeffs[:-1], q, phi_degree(q) if q else 1)
    fold = _zeta_shifts(low, da, cyclo_coeffs(q)[:-1] if q else ())  # zeta^e * d*low
    u = Poly.one(field) if g is a else a // g
    dw, w = _planes(list(u.coeffs) + [field.zero()] * (da - u.degree - 1), q, len(fold))
    U = _Lifted(field, da, [dw], [w])
    for _ in range(g.degree + b.degree - 2):
        z = U.ints[-1]
        y = [d * z[i - 1] if i % da else 0 for i in range(len(z))]
        for t, f in zip(z[da - 1 :: da], fold):
            if t:
                y = [x - t * v for x, v in zip(y, f)]
        y = _Lifted(field, da, [U.dens[-1] * d], [y])
        y = y if inv == 1 else _times(inv, y)
        U.dens.append(y.dens[0])
        U.ints.append(y.ints[0])
    db = b.degree
    return [[tuple(col) for col in U._replace(dens=U.dens[t : t + db], ints=U.ints[t : t + db]).common().ints] for t in range(g.degree)]


def centralizer_basis(A: Matrix) -> SubspaceBasis:
    """Basis of {X : AX = XA}."""
    return _mu_commutant_basis(_lift(A), A.field.one())


def clifforder_basis(A: Matrix) -> SubspaceBasis:
    """Basis of {X : AX = -XA}."""
    return _mu_commutant_basis(_lift(A), -A.field.one())


def omega_centralizer_basis(A: Matrix, w: OmegaSpec) -> SubspaceBasis:
    """Basis of {X : AX = omega*XA} over Q(zeta_q); rational input is
    promoted."""
    return _mu_commutant_basis(_lift(A), w.omega())


def double_centralizer_basis(A: Matrix) -> SubspaceBasis:
    """Matrices commuting with everything that commutes with A: F[A], by
    the double-centralizer theorem, derived from deg m_A (the checked
    `min_poly`, no split) with no centralizer built, and checked before
    it is returned."""
    if not A.is_square:
        raise NotSquare("double centralizer needs a square matrix")
    return _double_centralizer(_lift(A), min_poly(A).degree)


def _double_centralizer(Al: _Lifted, d: int) -> SubspaceBasis:
    """C(C(A)) = F[A] for A lifted as Al and d = deg m_A = dim F[A]: the
    canonical span R of the integer vecs of I, A, ..., A^(d-1), each
    power one lifted product with the content divided out.  Checked
    without the powers: R has d rows, and vec I and A*R_i for every row
    R_i lie in span R (`_contains`).  An A-invariant span that contains
    I contains every A^k, so span R contains F[A], and with d rows it is
    F[A]."""
    n, field = Al.rows, Al.field
    Al, ident = Al.common(), _abreast((field.one(),), n, field)
    powers = [ident]
    for _ in range(d - 1):
        powers.append(_content_free(_mul_lifted(Al, powers[-1])))
    S = _span(_scaled(field, n * n, [_vec(Y) for Y in powers[:d]]), n)
    if S.dim != d:
        raise VerificationError(f"double centralizer has dimension {S.dim}, deg m_A is {d}")
    if not _contains(S, _scaled(field, n * n, [_vec(ident)] + _left(Al, _rows(S).ints))):
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
