"""Polynomial equivalence with explicit two-sided certificates.

Two matrices are equivalent for a congruence class of exponents when
each is a polynomial in the other using only allowed exponents.  The
solver works directly in the linear span of the allowed powers, so a
returned certificate is trustworthy by construction and `None` means a
genuine obstruction, not a search giving up.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FieldMismatch, NotSquare, ShapeMismatch
from .matrices import Matrix, solve, vec
from .polys import CongruenceClass, Poly, eval_at_matrix, poly_in_class, restrict_to_class

GENERAL = CongruenceClass.general()
ODD = CongruenceClass.odd()


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
    if not A.is_square or not B.is_square:
        raise NotSquare("power expression needs square matrices")
    if A.rows != B.rows:
        raise ShapeMismatch(f"sizes differ: {A.rows} vs {B.rows}")
    if A.field != B.field:
        raise FieldMismatch(f"fields differ: {A.field} vs {B.field}")
    n = A.rows
    exps = class_exponents(cls, n)
    # the exponents step by q (by 1 in the general class), so each
    # column is the previous one times one fixed power of A
    step = A if cls.q is None else A ** cls.q
    power = A ** exps[0]
    columns = [vec(power)]
    for _ in exps[1:]:
        power = power * step
        columns.append(vec(power))
    m = n * n
    flat = tuple(col[i] for i in range(m) for col in columns)
    coeff_matrix = Matrix(A.field, m, len(exps), flat)
    sol = solve(coeff_matrix, vec(B))
    if sol is None:
        return None
    dense = [A.field.zero()] * (exps[-1] + 1)
    for idx, e in enumerate(exps):
        dense[e] = sol[idx]
    return Poly.make(dense, A.field)


def equivalence_certificate(A: Matrix, B: Matrix, cls: CongruenceClass = GENERAL) -> Certificate | None:
    """Two-sided certificate for the given class, or None if either
    direction fails."""
    f = express_in_powers(B, A, cls)
    if f is None:
        return None
    g = express_in_powers(A, B, cls)
    if g is None:
        return None
    return Certificate(f=f, g=g, cls=cls)


def verify_certificate(A: Matrix, B: Matrix, cert: Certificate) -> bool:
    """Re-check a certificate from scratch: exponents in class, f(A) = B
    and g(B) = A."""
    if not A.is_square or not B.is_square:
        raise NotSquare("certificate check needs square matrices")
    if A.rows != B.rows:
        raise ShapeMismatch(f"sizes differ: {A.rows} vs {B.rows}")
    if not poly_in_class(cert.f, cert.cls) or not poly_in_class(cert.g, cert.cls):
        return False
    return eval_at_matrix(cert.f, A) == B and eval_at_matrix(cert.g, B) == A
