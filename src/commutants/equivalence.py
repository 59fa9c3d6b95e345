"""Polynomial equivalence with explicit two-sided certificates.

Two matrices are equivalent for a congruence class of exponents when
each is a polynomial in the other using only allowed exponents.  Both
directions are solved in the quotient ring F[x]/(m_A), which
p -> p(A) embeds into the matrices, from one cyclic vector v of A
whose Krylov dependency is checked on its Krylov columns and whose
Krylov polynomial is checked to annihilate A (so it is m_A); a failed
dependency check raises VerificationError.
The coordinates of Bv in v's Krylov basis give f0 with deg f0 <
deg m_A, and B is a polynomial in A exactly when f0(A) = B.  Then
B^e = (f0^e mod m_A)(A), so f and g solve deg m_A-row systems over the
class exponents and no matrix power is formed.  The quotient ring is
read in integers through the lifted companion matrix C of m_A, where
p(C) e_0 is the coefficient column of p mod m_A: the class columns are
the Krylov sequence of the lifted step base^q(C).  No system is
eliminated on its own: every coordinate is read by `matrices._in_span`
off the fraction-free echelon that `canonical._krylov_dependency` built
for the Krylov columns, of v under A for f0 and of the first class
column under base^q(C) for f and g, and wrapped in `Poly` here.  A read
outside the span appends to that echelon, which is then dropped.  Those
columns are independent up
to the first dependency and every later one depends on them, so the
read is the solution with the free coordinates pinned to zero, the same
canonical one as the n^2-row system of stacked powers gives, since the
embedding is injective.  Before a certificate is returned, f = f0 and
g(f0) = x mod m_A are checked by an integer Horner pass on the
companion, which proves f(A) = B and g(B) = A; a failure raises
VerificationError.  `None` means a genuine obstruction, not a search
giving up.  The core, `_certificate`, runs on A and B lifted once each,
as the CLI's reader gives them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .canonical import _cyclic_vector, _Draws, _krylov_dependency, companion
from .errors import FieldMismatch, ShapeMismatch, VerificationError, _integer
from .matrices import Matrix, _abreast, _columns, _horner, _in_span, _lift, _Lifted, _mul_lifted, _power, _same, _square_pair
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
    available when the reduced exponent would leave the class.  The
    certificate solver takes the menu for n = deg m_A: at most that many
    exponents carry a coefficient.
    """
    _integer(n, 1, None, ShapeMismatch, "matrix size must be positive")
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
    return _class_solve(Poly.x(A.field), f0, m, cls)


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
    f = _class_solve(x, f0, m, cls)
    if f is None:
        return None
    g = _class_solve(f0, x % m, m, cls)
    if g is None:
        return None
    return Certificate(f=f, g=g, cls=cls)


def _reduce(B: _Lifted, A: _Lifted) -> tuple[Poly, Poly] | None:
    """(m_A, f0) with deg f0 < deg m_A and f0(A) = B, or None when B is
    not a polynomial in A, for lifted A and B.

    For a checked v with m_v = m_A, B = p(A) gives Bv = (p mod m_A)(A) v,
    so f0 is `_in_span`'s read of Bv on the echelon of v's independent
    Krylov columns that `_cyclic_vector` leaves; None there means Bv is
    outside their span, and when f0(A) != B, no p exists either."""
    _square_pair(A, B, "power expression")
    if A.field != B.field:
        raise FieldMismatch(f"fields differ: {A.field} vs {B.field}")
    if not A.rows:
        raise ShapeMismatch("matrix size must be positive")
    m, krylov, echelon = _cyclic_vector(A, _Draws())
    c = _in_span(echelon, _mul_lifted(B, krylov[0]).common())
    f0 = None if c is None else Poly.make(c, A.field)
    return (m, f0) if f0 is not None and _same(_at_lifted(f0, A), B) else None


def _class_solve(base: Poly, target: Poly, m: Poly, cls: CongruenceClass) -> Poly | None:
    """The canonical f = sum_e c_e x^e over the class exponents with
    f(base) = target mod m, or None.

    F[x]/(m) is read in integers through C = companion(m), lifted once:
    C maps e_i to e_(i+1), so p(C) e_0 is the coefficient column of
    p mod m.  One Horner pass gives Bl = base(C); the exponents step by
    q (by 1 in the general class), so the class columns, from e_0 or
    Bl e_0 on, are the Krylov sequence of S = Bl^q.  `_krylov_dependency`
    runs it to its first dependency, after at most deg m + 1 products
    (the dependency is not read, so it needs no check of its own), and
    `_in_span` reads the target's coefficients in the independent
    columns off its echelon, coefficient i on exponent exps[i]; at most
    deg m exponents can carry one.  Raises VerificationError unless
    f(Bl) e_0, recomputed by Horner, is target's coefficient column."""
    field, d = m.field, m.degree
    exps = class_exponents(cls, d)
    Bl = _at_lifted(base, _lift(companion(m)))
    S = _power(Bl, cls.q) if cls.q else Bl
    y = _columns(Bl if exps[0] else _abreast((field.one(),), d, field), [0])
    echelon = _krylov_dependency(S, y.common())[2]
    t = _lift(Matrix(field, d, 1, tuple(target.coeff(i) for i in range(d)))).common()
    c = _in_span(echelon, t)
    if c is None:
        return None
    at = dict(zip(exps, c))
    f = Poly.make([at.get(e, 0) for e in range(max(at, default=-1) + 1)], field)
    if not _same(_horner(f.coeffs, Bl, [(0, 0)], 1), t):
        raise VerificationError("certificate fails f(base) = target mod m_A")
    return f


def verify_certificate(A: Matrix, B: Matrix, cert: Certificate) -> bool:
    """Re-check a certificate from scratch: exponents in class, f(A) = B
    and g(B) = A."""
    _square_pair(A, B, "certificate check")
    if not poly_in_class(cert.f, cert.cls) or not poly_in_class(cert.g, cert.cls):
        return False
    return _same(_at_matrix(cert.f, A), _lift(B)) and _same(_at_matrix(cert.g, B), _lift(A))
