"""Similarity invariants without eigenvalue extraction.

Invariant factors come from a seeded Las Vegas cyclic-vector split:
random draws, but every accepted draw is checked exactly, so the answer
never depends on them.  The split runs in integers, its Krylov
dependencies read by `matrices._in_span` and its complements off
`matrices._kernel`; this module reads no plane of a lifted row, and
wraps the coordinates `_in_span` returns in `Poly`, which `matrices`
cannot import.  The split also yields the change of basis P, lifted,
to the Frobenius (rational canonical) form F, with A*P = P*F
and f_1 | f_2 | ... | f_r checked exactly; the commutant solvers build
their bases on F and count their dimensions off it.  Everything else
is read off the split, never recomputed: the characteristic polynomial
is the product of the factors, `Matrix.det` is (-1)^n times its
constant term, and the minimal polynomial is the split's first step,
the Krylov polynomial of a drawn vector: its dependency M^d v = c(M) v
is checked on the Krylov columns, and it is accepted only once it is
checked to annihilate the matrix.  The 0 x 0 matrix has no
factors, so all three are 1.  Balancedness is decided on invariant factors;
the essential-part / balanced-radical split is a coprime factor splitting of the minimal
polynomial with a Bezout projector, so no Jordan form and no algebraic
closure ever appear.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import count
from math import prod

from .errors import DegreeZero, NotMonic, VerificationError
from .matrices import (
    Matrix,
    _beside,
    _content_free,
    _embed,
    _horner,
    _in_span,
    _kernel,
    _lift,
    _Lifted,
    _mul_lifted,
    _rref_core,
    _same,
    _scaled,
    _square,
    _take,
    _transpose,
    _vanishes,
)
from .polys import Poly, eval_at_matrix, is_balanced_poly, poly_gcd, poly_xgcd
from .scalars import QQ, FieldTag


def char_poly(A: Matrix) -> Poly:
    """det(xI - A), monic of degree n: the product of the invariant
    factors of the checked split."""
    _square(A, "characteristic polynomial needs a square matrix")
    return prod(_frobenius(_lift(A))[0], start=Poly.one(A.field))


def min_poly(A: Matrix) -> Poly:
    """The monic generator of {f : f(A) = 0}: the split's first step,
    the first Krylov dependency of a drawn v, checked on the Krylov
    columns and accepted only once it is checked to annihilate A; a
    dependency that fails its check raises VerificationError."""
    _square(A, "minimal polynomial needs a square matrix")
    if not A.rows:
        return Poly.one(A.field)
    return _cyclic_vector(_lift(A), _Draws())[0]


def invariant_factors(A: Matrix) -> tuple[Poly, ...]:
    """Diagonal of the Smith normal form of xI - A: monic polynomials
    d_1 | d_2 | ... | d_n including the constant ones, read off the
    checked Frobenius decomposition, whose check includes that each
    nonconstant factor divides the next."""
    _square(A, "invariant factors need a square matrix")
    return _with_units(A.field, A.rows, _frobenius(_lift(A))[0])


def _with_units(field: FieldTag, n: int, factors: tuple[Poly, ...]) -> tuple[Poly, ...]:
    """The nonconstant invariant factors of an n x n matrix over `field`
    preceded by the constant ones."""
    return (Poly.one(field),) * (n - len(factors)) + factors


class _Draws:
    """Seeded random integer vectors with small entries.  The caller
    raises `height` after a rejected draw, so the next one comes from a
    wider range."""

    def __init__(self):
        self.rng = random.Random(0)
        self.height = 1

    def ints(self, m: int) -> list[int]:
        h = self.height
        return [self.rng.randint(-h, h) for _ in range(m)]


def _cyclic_vector(Ml: _Lifted, draws: _Draws) -> tuple[Poly, list[_Lifted], list]:
    """m_M, the Krylov columns v, Mv, ..., M^(d-1) v, lifted, of a
    drawn v with m_v = m_M, d = deg m_M, for M lifted as Ml, and their
    echelon, which `matrices._in_span` reads coordinates in that basis
    off.

    The first Krylov dependency M^d v = c(M) v of v is not taken on
    trust: m_v(M) v = x^d - c at M times v, the combination of the
    columns and the M^d v that `_krylov_dependency` already holds, is
    checked to vanish by `matrices._vanishes` in integers, with no
    product.  A failure is a defect, not an unlucky draw, and raises
    VerificationError.  m_v is then accepted only once `_annihilates`
    has checked m_v(M) = 0 exactly; then m_v = m_M.  A rejected draw
    retries one height up."""
    Ml = Ml.common()
    while True:
        v = _embed(_scaled(QQ, 1, [[x] for x in draws.ints(Ml.rows)]), Ml.field)
        f, krylov, echelon, y = _krylov_dependency(Ml, v)
        if not _vanishes(f.coeffs, krylov + [y]):
            raise VerificationError("Krylov dependency fails M^d v = c(M) v")
        if _annihilates(f, Ml, [c for c, _, _ in echelon]):
            return f, krylov, echelon
        draws.height += 1


def _krylov_dependency(Ml: _Lifted, y: _Lifted) -> tuple[Poly, list[_Lifted], list, _Lifted]:
    """m_v, the columns v, Mv, ..., M^(d-1) v, d = deg m_v, their
    echelon and M^d v, for M and the column v lifted, each over one
    denominator; the columns stay lifted, each over one denominator.
    Each new column M^k v goes through `matrices._in_span` against the
    echelon of the earlier ones: the first that lies in their span, M^k
    v = c(M) v, stops the iteration after deg m_v products, with m_v =
    x^k - c; any other joins the echelon, whose rows lead at the pivot
    columns of the Krylov rows' RREF.  c is `_in_span`'s read, which
    `_cyclic_vector` checks before m_v is used."""
    echelon, columns = [], []
    for k in count():
        if k:
            y = _content_free(_mul_lifted(Ml, y))
        c = _in_span(echelon, y)
        if c is not None:
            return Poly.monomial(k, 1, Ml.field) - Poly.make(c, Ml.field), columns, echelon, y
        columns.append(y)


def _annihilates(f: Poly, Ml: _Lifted, pivots: list[int]) -> bool:
    """f(M) = 0, for M lifted as Ml, a monic f with f(M) v = 0, as
    `_cyclic_vector` has checked, and `pivots` the pivot columns of
    the independent rows v, Mv, ..., M^(deg f - 1) v.  f(M) commutes
    with M, so it kills their span; the unit vectors e_j at the other
    columns complete it to a basis, and f(M) is tested on those m - deg
    f columns only, by one integer Horner pass.  A cyclic M (deg f = m)
    needs no product here: the checked f(M) v = 0 already covers the
    whole span."""
    m = Ml.rows
    if len(pivots) == m:
        return True
    # a zero v gives f = 1 and no pivots: every e_j is tested
    rest = [j for j in range(m) if j not in pivots]
    R = _horner(f.coeffs, Ml, [(j, k) for k, j in enumerate(rest)], len(rest))  # e_j sits at (j, k)
    return not any(any(row) for row in R.ints)


def _frobenius(Al: _Lifted) -> tuple[tuple[Poly, ...], _Lifted]:
    """The nonconstant invariant factors f_1 | ... | f_r of the square A
    lifted as Al, and P, lifted, with A*P = P*F, F = companion(f_1) +
    ... + companion(f_r): `_cyclic_split`'s answer, with both relations
    checked exactly.  A*P = P*F alone would pass the blocks in another
    order, P's column blocks permuted alike; the divisibility check pins
    the order, so the last factor is m_A.  P is proven invertible only
    where P^-1 is formed, in `commutant._split`."""
    if not Al.rows:
        return (), Al
    factors, P = _cyclic_split(Al)
    F = _lift(Matrix.block_diag([companion(f) for f in factors]))
    if not _same(_mul_lifted(Al, P), _mul_lifted(P, F)):
        raise VerificationError("Frobenius decomposition fails A*P = P*F")
    if any(b % a for a, b in zip(factors, factors[1:])):
        raise VerificationError("Frobenius invariant factors fail f_1 | f_2 | ... | f_r")
    return factors, P


def _cyclic_split(Al: _Lifted) -> tuple[tuple[Poly, ...], _Lifted]:
    """The invariant factors and P of `_frobenius`, for A lifted as Al,
    n >= 1, unchecked.

    Seeded Las Vegas cyclic-vector split (Giesbrecht 1995, Storjohann
    1998), in integers throughout.  The loop keeps M, the restriction of
    A to an invariant subspace, and B, whose columns span that subspace
    in A's coordinates, so A*B = B*M (B starts as I, which is never
    multiplied in).  `_cyclic_vector` draws v with m_v = m_M, and B maps
    its Krylov columns K = [v, Mv, ..., M^(d-1) v] to P's block for it.
    A random w with a nonsingular Hankel matrix W*K, W's rows w^T M^i,
    i < d = deg m_v, makes the kernel U of W an M-invariant complement;
    M restricted to U has the smaller factors, and B becomes B*U.  A
    rejected draw retries one height up."""
    field = Al.field
    draws = _Draws()
    factors, blocks = [], []
    M, B = Al.common(), None
    while True:
        m = M.rows
        f, krylov, _ = _cyclic_vector(M, draws)
        d = f.degree
        K = _beside(krylov)
        factors.append(f)
        blocks.append(K if B is None else _content_free(_mul_lifted(B, K)))
        if d == m:
            break
        while True:
            W = [_embed(_scaled(QQ, m, [draws.ints(m)]), field)]
            for _ in range(d - 1):
                W.append(_content_free(_mul_lifted(W[-1], M)))
            W = _scaled(field, m, [y.ints[0] for y in W])
            if len(_rref_core(_mul_lifted(W, K).ints, d, field.q)[1]) == d:
                break
            draws.height += 1
        # the kernel vector of free column c is 1 there and 0 at the
        # other free columns, so M|U in this basis is M*U read at them
        free, U = _kernel(W)
        U = _transpose(U)
        MU = _mul_lifted(M, U)
        M = _content_free(_take(MU, free))
        B = U if B is None else _content_free(_mul_lifted(B, U))
    return tuple(reversed(factors)), _beside(blocks[::-1])


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
    _square(A, "balanced split needs a square matrix")
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
    _square(A, "double cover needs a square matrix")
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
        """The report of A, read off its checked Frobenius split."""
        _square(A, "structure report needs a square matrix")
        return _report(A.field, A.rows, _frobenius(_lift(A))[0])


def _report(field: FieldTag, n: int, factors: tuple[Poly, ...]) -> StructureReport:
    """The report of an n x n matrix over `field` whose nonconstant
    invariant factors, from a checked split, are `factors`: what
    `StructureReport.of` returns, and what `analyze` reads off the split
    its commutant counts share, with no `Matrix` built."""
    factors = _with_units(field, n, factors)
    p = prod(factors, start=Poly.one(field))
    m = factors[-1] if factors else Poly.one(field)
    return StructureReport(
        n=n,
        field=field,
        char_poly=p,
        min_poly=m,
        invariant_factors=factors,
        is_balanced=all(is_balanced_poly(d) for d in factors if d.degree >= 1),
        is_nilpotent=p == Poly.monomial(n, 1, field),
        min_equals_char=(m == p),
    )
