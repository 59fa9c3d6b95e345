"""Similarity invariants without eigenvalue extraction.

Invariant factors come from Smith reduction of xI - A over F[x].  A
structure report computes them once and derives the rest: the
characteristic polynomial is their product and the minimal polynomial
is the last one.  The standalone characteristic polynomial
(Faddeev-LeVerrier, integer divisions only, safe in characteristic
zero) and minimal polynomial (one kernel of the Krylov matrix of
vectorized powers) reach the same answers by independent routes.
Balancedness is decided on invariant factors; the essential-part /
balanced-radical split is a coprime factor splitting of the minimal
polynomial with a Bezout projector, so no Jordan form and no algebraic
closure ever appear.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .errors import DegreeZero, NotMonic, NotSquare
from .matrices import Matrix, kernel_basis, vec
from .polys import Poly, eval_at_matrix, is_balanced_poly, poly_gcd, poly_xgcd
from .scalars import FieldTag


def char_poly(A: Matrix) -> Poly:
    """det(xI - A), monic of degree n."""
    if not A.is_square:
        raise NotSquare("characteristic polynomial needs a square matrix")
    n = A.rows
    field = A.field
    ident = Matrix.identity(n, field)
    AM = A
    coeffs = [field.one()]
    for k in range(1, n + 1):
        ck = -(AM.trace() / k)
        coeffs.append(ck)
        if k < n:
            AM = A * (AM + ident.scale(ck))
    coeffs.reverse()
    return Poly.make(coeffs, field)


def min_poly(A: Matrix) -> Poly:
    """The monic generator of {f : f(A) = 0}, read off the first kernel
    vector of the Krylov matrix [vec(I) vec(A) ... vec(A^n)]: its first
    free column is the first power dependent on the lower ones, so that
    vector holds the coefficients, monic in degree deg m_A."""
    if not A.is_square:
        raise NotSquare("minimal polynomial needs a square matrix")
    n = A.rows
    field = A.field
    power = A
    columns = [vec(Matrix.identity(n, field)), vec(A)]
    for _ in range(n - 1):
        power = power * A
        columns.append(vec(power))
    flat = tuple(col[i] for i in range(n * n) for col in columns)
    return Poly.make(kernel_basis(Matrix(field, n * n, n + 1, flat))[0], field)


def invariant_factors(A: Matrix) -> tuple[Poly, ...]:
    """Diagonal of the Smith normal form of xI - A: monic polynomials
    d_1 | d_2 | ... | d_n including the constant ones."""
    if not A.is_square:
        raise NotSquare("invariant factors need a square matrix")
    n = A.rows
    field = A.field
    S = [
        [
            Poly.make([-A.at(i, j), 1] if i == j else [-A.at(i, j)], field)
            for j in range(n)
        ]
        for i in range(n)
    ]
    for t in range(n):
        while True:
            best = None
            for i in range(t, n):
                for j in range(t, n):
                    e = S[i][j]
                    if not e.is_zero and (best is None or e.degree < best[0]):
                        best = (e.degree, i, j)
            if best is None:
                break
            _, bi, bj = best
            if bi != t:
                S[bi], S[t] = S[t], S[bi]
            if bj != t:
                for row in S:
                    row[t], row[bj] = row[bj], row[t]
            p = S[t][t]
            dirty = False
            for i in range(t + 1, n):
                if not S[i][t].is_zero:
                    q = S[i][t] // p
                    if not q.is_zero:
                        S[i] = [a - q * b for a, b in zip(S[i], S[t])]
                    if not S[i][t].is_zero:
                        dirty = True
            for j in range(t + 1, n):
                if not S[t][j].is_zero:
                    q = S[t][j] // p
                    if not q.is_zero:
                        for i in range(t, n):
                            S[i][j] = S[i][j] - q * S[i][t]
                    if not S[t][j].is_zero:
                        dirty = True
            if dirty:
                continue
            offender = None
            for i in range(t + 1, n):
                for j in range(t + 1, n):
                    if not (S[i][j] % p).is_zero:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            # pivot must divide the whole remaining block: pull the bad
            # row into row t and reduce again
            S[t] = [a + b for a, b in zip(S[t], S[offender])]
    return tuple(S[t][t].monic() for t in range(n))


def is_balanced_matrix(A: Matrix) -> bool:
    """True iff every nonconstant invariant factor is balanced."""
    return all(
        is_balanced_poly(d) for d in invariant_factors(A) if d.degree >= 1
    )


def companion(f: Poly) -> Matrix:
    """Frobenius block of a monic f: subdiagonal ones, last column the
    negated coefficients."""
    if f.is_zero or f.degree < 1:
        raise DegreeZero("companion matrix needs degree >= 1")
    if not f.is_monic:
        raise NotMonic("companion matrix needs a monic polynomial")
    n = f.degree
    field = f.field
    z = field.zero()
    o = field.one()
    grid = [[z] * n for _ in range(n)]
    for i in range(1, n):
        grid[i][i - 1] = o
    for i in range(n):
        grid[i][n - 1] = -f.coeff(i)
    return Matrix(field, n, n, tuple(x for row in grid for x in row))


def balanced_split(A: Matrix) -> tuple[Matrix, Matrix]:
    """Split A = E + Br along the balanced/unbalanced spectrum of the
    minimal polynomial.

    Write m_A = b*c with b carrying every factor shared (up to the sign
    flip x -> -x) with m_A(-x), saturated to full multiplicity, and c
    the rest; b and c are then coprime, a Bezout identity gives the
    projector P = (v*c)(A) onto the balanced summand, and E = A*P,
    Br = A*(I - P).  Zero eigenvalues count as balanced, so a nilpotent
    A returns (A, O).
    """
    if not A.is_square:
        raise NotSquare("balanced split needs a square matrix")
    field = A.field
    zero = Matrix.zero(A.rows, A.rows, field)
    m = min_poly(A)
    mt = m.reflect()
    if m.degree % 2:
        mt = -mt
    d = poly_gcd(m, mt)
    c = m
    while True:
        g = poly_gcd(c, d)
        if g.degree == 0:
            break
        c = c // g
    b = m // c
    if b.degree == 0:
        return zero, A
    if c.degree == 0:
        return A, zero
    _, _, v = poly_xgcd(b, c)
    P = eval_at_matrix(v * c, A)
    E = A * P
    return E, A - E


def double_cover(A: Matrix) -> Matrix:
    """blockdiag(A, -A), which is balanced whatever A is."""
    if not A.is_square:
        raise NotSquare("double cover needs a square matrix")
    return Matrix.block_diag([A, -A])


@dataclass(frozen=True)
class StructureReport:
    n: int
    field: FieldTag
    char_poly: Poly
    min_poly: Poly
    invariant_factors: tuple[Poly, ...]
    is_balanced: bool
    is_nilpotent: bool
    min_equals_char: bool

    @classmethod
    def of(cls, A: Matrix) -> StructureReport:
        if not A.is_square:
            raise NotSquare("structure report needs a square matrix")
        factors = invariant_factors(A)
        p = prod(factors, start=Poly.one(A.field))
        m = factors[-1]
        balanced = all(is_balanced_poly(d) for d in factors if d.degree >= 1)
        nilpotent = p == Poly.monomial(A.rows, 1, A.field)
        return cls(
            n=A.rows,
            field=A.field,
            char_poly=p,
            min_poly=m,
            invariant_factors=factors,
            is_balanced=balanced,
            is_nilpotent=nilpotent,
            min_equals_char=(m == p),
        )
