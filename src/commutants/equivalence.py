"""Polynomial equivalence with explicit two-sided certificates.

Two matrices are equivalent for a congruence class of exponents when
each is a polynomial in the other using only allowed exponents.  Both
directions are solved in the quotient ring F[x]/(m_A), which
p -> p(A) embeds into the matrices, from one cyclic vector v of A
whose Krylov polynomial is checked to annihilate A (so it is m_A).
The coordinates of Bv in v's Krylov basis give f0 with deg f0 <
deg m_A, and B is a polynomial in A exactly when f0(A) = B.  Then
B^e = (f0^e mod m_A)(A), so f and g solve deg m_A-row systems over the
class exponents and no matrix power is formed.  The quotient ring is
read in integers through the lifted companion matrix C of m_A, where
p(C) e_0 is the coefficient column of p mod m_A: the class columns are
integer products with the lifted step base^q(C), and every system, the
Krylov one included, is one lifted solve (`matrices._solve_lifted`).
Free coordinates are pinned to zero, which gives the same canonical
solution as the n^2-row system of stacked powers, since the embedding
is injective.  Before a certificate is returned, f = f0 and
g(f0) = x mod m_A are checked by an integer Horner pass on the
companion, which proves f(A) = B and g(B) = A; a failure raises
VerificationError.  `None` means a genuine obstruction, not a search
giving up.  The core, `_certificate`, runs on A and B lifted once each,
as the CLI's reader gives them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .canonical import _cyclic_vector, _Draws, companion
from .errors import FieldMismatch, NotSquare, ShapeMismatch, VerificationError
from .matrices import Matrix, _abreast, _beside, _columns, _content_free, _horner, _lift, _Lifted, _mul_lifted, _power, _same, _solve_lifted
from .polys import CongruenceClass, Poly, _at_lifted, _at_matrix, poly_in_class, restrict_to_class

GENERAL = CongruenceClass.general()


@dataclass(frozen=True)
class Certificate:
    """Two-sided witness: f(A) = B and g(B) = A, both inside `cls`."""

    f: Poly
    g: Poly
    cls: CongruenceClass

    def __post_init__(self):
        # Constructor enforces class membership; evaluation is checked
        # separately by verify_certificate.
        restrict_to_class(self.f, self.cls)
        restrict_to_class(self.g, self.cls)


def class_exponents(cls: CongruenceClass, n: int) -> list[int]:
    """Exponent menu the solver may use for an n x n matrix.

    The general class stops at n-1 (higher powers reduce), while the
    congruence classes run to q*n so that e.g. x^(q(n-1)+1) stays
    available when the reduced exponent would leave the class.
    """
    if n < 1:
        raise ShapeMismatch("matrix size must be positive")
    if cls.q is None:
        return list(range(n))
    return list(range(1, cls.q * n + 1, cls.q))


def express_in_powers(B: Matrix, A: Matrix, cls: CongruenceClass = GENERAL) -> Poly | None:
    """Solve B = sum_e c_e A^e over the class exponents, or None.

    Free coordinates of the underdetermined system are pinned to zero,
    which makes the answer canonical: the solution supported on the
    earliest allowed exponents.
    """
    reduced = _reduce(_lift(B), _lift(A))
    if reduced is None:
        return None
    m, f0 = reduced
    return _class_solve(Poly.x(A.field), f0, m, cls, A.rows)


def equivalence_certificate(A: Matrix, B: Matrix, cls: CongruenceClass = GENERAL) -> Certificate | None:
    """Two-sided certificate for the given class, or None if either
    direction fails.  Both directions are solved in F[x]/(m_A): with
    B = f0(A), B^e = (f0^e mod m_A)(A)."""
    return _certificate(_lift(A), _lift(B), cls)


def _certificate(A: _Lifted, B: _Lifted, cls: CongruenceClass) -> Certificate | None:
    """`equivalence_certificate` on lifted A and B, as the CLI reads them."""
    reduced = _reduce(B, A)
    if reduced is None:
        return None
    m, f0 = reduced
    x = Poly.x(A.field)
    f = _class_solve(x, f0, m, cls, A.rows)
    if f is None:
        return None
    g = _class_solve(f0, x % m, m, cls, A.rows)
    if g is None:
        return None
    return Certificate(f=f, g=g, cls=cls)


def _reduce(B: _Lifted, A: _Lifted) -> tuple[Poly, Poly] | None:
    """(m_A, f0) with deg f0 < deg m_A and f0(A) = B, or None when B is
    not a polynomial in A, for lifted A and B.

    For a checked v with m_v = m_A, B = p(A) gives Bv = (p mod m_A)(A) v,
    so f0's coefficients solve K c = Bv for the independent Krylov
    columns K of v, lifted as `_cyclic_vector` leaves them; when
    f0(A) != B, no p exists."""
    if A.rows != A.cols or B.rows != B.cols:
        raise NotSquare("power expression needs square matrices")
    if A.rows != B.rows:
        raise ShapeMismatch(f"sizes differ: {A.rows} vs {B.rows}")
    if A.field != B.field:
        raise FieldMismatch(f"fields differ: {A.field} vs {B.field}")
    if not A.rows:
        raise ShapeMismatch("matrix size must be positive")
    m, krylov = _cyclic_vector(A, _Draws())
    coords = _solve_lifted(_beside(krylov + [_mul_lifted(B, krylov[0])]))
    if coords is None:
        return None
    f0 = Poly.make(coords, A.field)
    return (m, f0) if _same(_at_lifted(f0, A), B) else None


def _class_solve(base: Poly, target: Poly, m: Poly, cls: CongruenceClass, n: int) -> Poly | None:
    """The canonical f = sum_e c_e x^e over the class exponents for size
    n with f(base) = target mod m, or None.

    F[x]/(m) is read in integers through C = companion(m), lifted once:
    C maps e_i to e_(i+1), so p(C) e_0 is the coefficient column of
    p mod m.  One Horner pass gives Bl = base(C); the exponents step by
    q (by 1 in the general class), so after the first column, e_0 or
    Bl e_0, each is the previous one times S = Bl^q, content-free.  The
    columns and the target's coefficients go into one lifted solve with
    deg m rows.  Raises VerificationError unless f(Bl) e_0, recomputed
    by Horner, is target's coefficient column."""
    field, d = m.field, m.degree
    exps = class_exponents(cls, n)
    Bl = _at_lifted(base, _lift(companion(m)))
    S = _power(Bl, cls.q) if cls.q else Bl
    y = _columns(Bl if exps[0] else _abreast((field.one(),), d, field), [0])
    columns = [y]
    for _ in exps[1:]:
        y = _content_free(_mul_lifted(S, y))
        columns.append(y)
    t = _lift(Matrix(field, d, 1, tuple(target.coeff(i) for i in range(d))))
    sol = _solve_lifted(_beside(columns + [t]))
    if sol is None:
        return None
    dense = [field.zero()] * (exps[-1] + 1)
    for idx, e in enumerate(exps):
        dense[e] = sol[idx]
    f = Poly.make(dense, field)
    if not _same(_horner(f.coeffs, Bl, [(0, 0)], 1), t):
        raise VerificationError("certificate fails f(base) = target mod m_A")
    return f


def verify_certificate(A: Matrix, B: Matrix, cert: Certificate) -> bool:
    """Re-check a certificate from scratch: exponents in class, f(A) = B
    and g(B) = A."""
    if not A.is_square or not B.is_square:
        raise NotSquare("certificate check needs square matrices")
    if A.rows != B.rows:
        raise ShapeMismatch(f"sizes differ: {A.rows} vs {B.rows}")
    if not poly_in_class(cert.f, cert.cls) or not poly_in_class(cert.g, cert.cls):
        return False
    return _same(_at_matrix(cert.f, A), _lift(B)) and _same(_at_matrix(cert.g, B), _lift(A))
