"""Commutant-type subspaces from the Frobenius form.

The centralizer (mu = 1), the clifforder (mu = -1) and the
omega-centralizer (mu = zeta_q^k) are the solutions of AX = mu*XA.
With A = P*F*P^-1 and F a direct sum of companion blocks, X = P*Y*P^-1
where each block of Y solves C(a)*Y = mu*Y*C(b), whose solutions are
known in closed form, so one structural routine serves all three and no
n^2 x n^2 system is eliminated.  Each question is asked of one record,
`_split`'s checked split of A lifted once, as the CLI reads it: A, its
invariant factors, P and P^-1.  A caller builds it once and reads every
dimension and basis it needs off it.  The solver stays in integers
through the checked canonical basis: the relation is proven on the
reduced integer rows themselves, which the CLI spells as they are and
the public bases divide out once.
Where only the dimension is wanted, `_dimension` sums deg g over the
same block pairs on the same split and builds no block solution
and no span: once the split has proven A*P = P*F, P invertible and
f_1 | ... | f_r, Frobenius' count sum deg gcd(f_i(x), f_j(mu^-1 x)) is
a theorem.
The double centralizer is F[A], by the double-centralizer theorem: the
span of I, A, ..., A^(d-1), d = deg m_A from the checked `min_poly`,
checked on its reduced integer rows to be an A-invariant d-dimensional
span containing I, with no split and no centralizer built.  The
vectorized operator A kron I - mu * I kron A^T is the tests' oracle for
all of them and for the ad-power kernels of `adpower`, which build the
integer matrix of (ad_A)^k by the binomial formula and read their basis
off one reversed-column reduction with `matrices._kernel`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import NamedTuple

from .canonical import _frobenius, is_balanced_matrix, min_poly
from .errors import (
    IndexOutOfRange,
    InvalidSpec,
    ShapeMismatch,
    VerificationError,
    _integer,
)
from .matrices import (
    Matrix,
    _abreast,
    _below,
    _columns,
    _content_free,
    _embed,
    _inverse,
    _left,
    _lift,
    _Lifted,
    _mul_lifted,
    _reduced,
    _relation_holds,
    _scaled,
    _sizes,
    _square,
    _take,
    _times,
    _transpose,
    _vec,
    kron,
)
from .polys import Poly, poly_gcd
from .scalars import QQ, CycloScalar, FieldTag
from .subspaces import SubspaceBasis, _contains, _from_reduced


@dataclass(frozen=True)
class OmegaSpec:
    """Designates omega = zeta_q^k, a primitive q-th root of unity."""

    q: int
    k: int = 1

    def __post_init__(self):
        _integer(self.q, 1, None, InvalidSpec, "order q must be a positive integer")
        coprime = f"k={self.k} is not coprime to q={self.q}"
        _integer(self.k, None, None, InvalidSpec, coprime)
        if gcd(self.k, self.q) != 1:
            raise InvalidSpec(coprime)

    @property
    def field(self) -> FieldTag:
        return FieldTag.cyclotomic(self.q)

    def omega(self) -> CycloScalar:
        return CycloScalar.zeta(self.q, self.k)


def commutant_operator(A: Matrix, mu) -> Matrix:
    """The n^2 x n^2 matrix of X -> AX - mu*XA under row-major vec."""
    _square(A, "commutant operator needs a square matrix")
    ident = Matrix.identity(A.rows, A.field)
    return kron(A, ident) - kron(ident, A.transpose()).scale(mu)


class _Split(NamedTuple):
    """The checked Frobenius split A = P*F*P^-1 that every commutant
    question is answered on: A lifted, its nonconstant invariant factors
    f_1 | ... | f_r, whose companions make up F, and P and P^-1 lifted."""

    A: _Lifted
    factors: tuple[Poly, ...]
    P: _Lifted
    P_inv: _Lifted


def _split(Al: _Lifted) -> _Split:
    """The `_Split` of A lifted as Al: NotSquare unless A is square, then
    `_frobenius`'s checked factors and P, and P^-1 from one lifted solve
    against I, the proof that P is invertible."""
    _square(Al, "commutant needs a square matrix")
    factors, P = _frobenius(Al)
    P_inv = _inverse(P)
    if P_inv is None:
        raise VerificationError("Frobenius change of basis is singular")
    return _Split(Al, factors, P, P_inv)


def _on_split(split: _Split, mu) -> _Split:
    """The split over mu's field.  A rational A is split over Q even when
    mu is cyclotomic: its A, P and P^-1 are embedded with `_embed` and its
    factors promoted; FieldMismatch for A over another Q(zeta_r)."""
    field = FieldTag.cyclotomic(mu.q) if isinstance(mu, CycloScalar) else QQ
    if split.A.field == field:
        return split
    A, P, P_inv = (_embed(L, field) for L in (split.A, split.P, split.P_inv))
    return _Split(A, tuple(Poly.make(f.coeffs, field) for f in split.factors), P, P_inv)


def _dimension(split: _Split, mu) -> int:
    """dim {X : AX = mu*XA} for A split as `split`, by Frobenius' count
    sum deg gcd(f_i(x), f_j(mu^-1 x)) over all pairs of invariant factors,
    each g from `_block_gcd`, with no block solution and no span built.
    The count is a theorem once the split is checked: A*P = P*F and f_1
    | ... | f_r by `_frobenius`, P invertible by `_split`'s P^-1."""
    factors = _on_split(split, mu).factors
    return sum(_block_gcd(a, b, mu).degree for a in factors for b in factors)


def _mu_commutant_basis(split: _Split, mu) -> tuple[_Lifted, list[int]]:
    """The canonical basis of {X : AX = mu*XA} over mu's field, for A
    split as `split`, as `_reduced` gives it: the integer vecs of the RREF
    rows, each over its pivot value, and their pivot columns.  It is
    built block by block on the Frobenius form A = P*F*P^-1, over mu's
    field by `_on_split`, and proven on exactly these rows before they
    are returned: there are as many as Frobenius' dimension, the number
    of Ys, and every row satisfies the relation, proven for all rows at
    once by `_relation_holds` at k = 1, one product pair on the packed
    rows, whose verdict is exactly the row-by-row one.  The public bases
    write them out with `subspaces._from_reduced`, the CLI spells them as
    they are.
    Each integer Y of `_block_solutions` fills one block (I, J), so X =
    (P[:, I]*Y)*P^-1[J, :]: one product per I, the Ys' distinct columns
    abreast, and one per J, the n x deg f_J blocks stacked.  P and P^-1
    go over one denominator each, so every X keeps the dense product's
    scale, which the span does not see but the pivot choice does."""
    Ae, factors, P, P_inv = _on_split(split, mu)
    field, n = Ae.field, Ae.cols
    P, P_inv = P.common(), P_inv.common()
    offsets = [sum(f.degree for f in factors[:i]) for i in range(len(factors))]
    stacks = [[] for _ in factors]  # the rows of P[:, I]*Y for each Y in block column J
    for i, a in enumerate(factors):
        sols = [(j, Y) for j, b in enumerate(factors) for Y in _block_solutions(a, b, mu)]
        at = {col: k for k, col in enumerate(dict.fromkeys(col for _, Y in sols for col in Y))}  # Ys share columns
        if at:
            da, o = a.degree, offsets[i]
            left = _mul_lifted(_columns(P, range(o, o + da)), _transpose(_scaled(field, da, list(at))))
            for j, Y in sols:
                stacks[j] += _columns(left, [at[c] for c in Y]).ints
    X = []
    for j, rows in enumerate(stacks):
        if rows:
            o, db = offsets[j], factors[j].degree
            XJ = _mul_lifted(_scaled(field, db, rows), _take(P_inv, range(o, o + db))).ints
            X += [_vec(_scaled(field, n, XJ[s : s + n])) for s in range(0, len(XJ), n)]
    R, pivots = _reduced(_scaled(field, n * n, X))
    if R.rows != len(X):
        raise VerificationError(f"span has rank {R.rows}, Frobenius' formula gives {len(X)}")
    if not _relation_holds(R.ints, Ae, mu, 1):
        raise VerificationError("a basis element fails AX = mu*XA")
    return R, pivots


def _block_gcd(a: Poly, b: Poly, mu) -> Poly:
    """g = gcd(a(x), b(mu^-1 x)) for invariant factors a and b (one
    divides the other), so that {Y : C(a)*Y = mu*Y*C(b)} has dimension
    deg g: the factor of lower degree when b(mu^-1 x) is a multiple of
    b, that is when mu^(deg b - k) = 1 for every b_k != 0, and else one
    `poly_gcd`."""
    if mu == 1 or all(mu ** (b.degree - k) == 1 for k, x in enumerate(b.coeffs) if x):
        return a if a.degree <= b.degree else b  # b(mu^-1 x) = mu^-deg b * b(x)
    inv = a.field.one() / mu
    return poly_gcd(a, Poly.make([x * inv**k for k, x in enumerate(b.coeffs)], a.field))


def _block_solutions(a: Poly, b: Poly, mu) -> list[list[tuple]]:
    """Basis of {Y : C(a)*Y = mu*Y*C(b)} for invariant factors a and b
    (one divides the other), each Y as its deg b columns in integers,
    plane-major, over one scale per Y.  With columns read as F[x]/(a),
    column k of Y_t, t < deg g, is U_(t+k), U_s = mu^-s x^s (a/g) mod a,
    g = gcd(a(x), b(mu^-1 x)) from `_block_gcd`.  The U_s are the Krylov
    rows of a/g under S = mu^-1 * C(a)^T, each a one-row lift, one
    `_mul_lifted` per step, since a row U times C(a)^T is x*U mod a.
    C(a)^T is `_below` of the lifted identity's rows from the second on
    (`_take`) and a's negated low coefficients, laid by `_abreast` with
    no `Matrix`, and Y_t is the window U_t, ..., U_(t+deg b-1) stacked
    by `_below` over one denominator."""
    field, g = a.field, _block_gcd(a, b, mu)
    if not g.degree:
        return []
    inv = field.one() / mu
    da, db, u = a.degree, b.degree, Poly.one(field) if g is a else a // g
    ident, low = _abreast((field.one(),), da, field), _abreast([-x for x in a.coeffs[:-1]], 1, field)
    S = _below((_take(ident, range(1, da)), low))
    S = S.common() if inv == 1 else _times(inv, S)
    U = [_abreast(list(u.coeffs) + [field.zero()] * (da - u.degree - 1), 1, field)]
    for _ in range(g.degree + db - 2):
        U.append(_mul_lifted(U[-1], S))
    return [[tuple(col) for col in _below(U[t : t + db]).common().ints] for t in range(g.degree)]


def centralizer_basis(A: Matrix) -> SubspaceBasis:
    """Basis of {X : AX = XA}."""
    return _from_reduced(*_mu_commutant_basis(_split(_lift(A)), A.field.one()), A.rows)


def clifforder_basis(A: Matrix) -> SubspaceBasis:
    """Basis of {X : AX = -XA}."""
    return _from_reduced(*_mu_commutant_basis(_split(_lift(A)), -A.field.one()), A.rows)


def omega_centralizer_basis(A: Matrix, w: OmegaSpec) -> SubspaceBasis:
    """Basis of {X : AX = omega*XA} over Q(zeta_q); rational input is
    promoted."""
    return _from_reduced(*_mu_commutant_basis(_split(_lift(A)), w.omega()), A.rows)


def double_centralizer_basis(A: Matrix) -> SubspaceBasis:
    """Matrices commuting with everything that commutes with A: F[A], by
    the double-centralizer theorem, with d = deg m_A = dim F[A] from the
    checked `min_poly` (no split) and no centralizer built.  It is the
    canonical span of the integer vecs of I, A, ..., A^(d-1), each power
    one lifted product with the content divided out, as `_reduced` gives
    it, checked on exactly those rows R, without the powers: R has d
    rows, and vec I and A*R_i for every row R_i lie in span R
    (`_contains`); `_from_reduced` then writes R out.  An A-invariant
    span that contains I contains every A^k, so span R contains F[A],
    and with d rows it is F[A]."""
    _square(A, "double centralizer needs a square matrix")
    n, field, d = A.rows, A.field, min_poly(A).degree
    Al, ident = _lift(A).common(), _abreast((field.one(),), n, field)
    powers = [ident]
    for _ in range(d - 1):
        powers.append(_content_free(_mul_lifted(Al, powers[-1])))
    R, pivots = _reduced(_scaled(field, n * n, [_vec(Y) for Y in powers[:d]]))
    if R.rows != d:
        raise VerificationError(f"double centralizer has dimension {R.rows}, deg m_A is {d}")
    if not _contains(R, pivots, _scaled(field, n * n, [_vec(ident)] + _left(Al, R.ints))):
        raise VerificationError("the span of the powers of A is not A-invariant or misses I")
    return _from_reduced(R, pivots, n)


def k_matrix(n: int, i: int) -> Matrix:
    """K_n^(i): alternating signs down the (i-1)-th superdiagonal, so
    the entry at (r, r+i-1) is (-1)^(r-1) with 1-based r."""
    _sizes(n)
    _integer(i, 1, n, IndexOutOfRange, f"i={i} outside 1..{n}")
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
    _square(A, "clifforder test needs a square matrix")
    return is_balanced_matrix(A)
