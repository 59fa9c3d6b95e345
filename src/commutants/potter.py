"""Quasi-commuting pairs, the binomial-collapse identity, and the
omega-centralizer equivalence report.  The relation and the identity run
on A and B lifted over Q(zeta_q): `QuasiPair` lifts its matrices once,
and the CLI runs the same helpers on the lifts its reader gives."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .canonical import min_poly
from .commutant import OmegaSpec, omega_centralizer_basis
from .equivalence import Certificate, equivalence_certificate
from .errors import (
    BadDimensions,
    FieldMismatch,
    NotNilpotent,
    PairInvariantViolated,
    _integer,
)
from .matrices import (
    Matrix,
    _abreast,
    _below,
    _content_free,
    _embed,
    _lift,
    _Lifted,
    _mul_lifted,
    _power,
    _same,
    _square_pair,
    _times,
)
from .polys import CongruenceClass, Poly
from .subspaces import subspace_equal


def omega_commutes(A: Matrix, B: Matrix, w: OmegaSpec) -> bool:
    """Whether AB = omega * BA (inputs promoted to Q(zeta_q)): A and B
    are lifted once each and the two products compared in integers."""
    return _quasi_commutes(*_lifts(_lift(A), _lift(B), w), w)


def _lifts(A: _Lifted, B: _Lifted, w: OmegaSpec) -> tuple[_Lifted, _Lifted]:
    """Lifted A and B embedded into Q(zeta_q) (A's field is checked
    first), then checked square and of one size."""
    A, B = _embed(A, w.field), _embed(B, w.field)
    _square_pair(A, B, "quasi-commutation")
    return A, B


def _quasi_commutes(A: _Lifted, B: _Lifted, w: OmegaSpec) -> bool:
    """AB = omega * BA for A and B lifted over Q(zeta_q): omega*A is
    formed in integers as omega*I * A, and AB and B*(omega*A) are compared
    row by row over their denominators."""
    return _same(_mul_lifted(A, B), _mul_lifted(B, _times(w.omega(), A)))


@dataclass(frozen=True)
class QuasiPair:
    """A pair with AB = omega * BA.  A and B are lifted to integers over
    Q(zeta_q) once per pair; the relation is checked on those lifts on
    construction, and violations raise immediately."""

    A: Matrix
    B: Matrix
    omega: OmegaSpec

    def __post_init__(self):
        if not _quasi_commutes(*self._lifted, self.omega):
            raise PairInvariantViolated("AB != omega * BA for this pair")

    @classmethod
    def of(cls, A: Matrix, B: Matrix, w: OmegaSpec) -> "QuasiPair":
        return cls(A.promote(w.q), B.promote(w.q), w)

    @cached_property
    def _lifted(self) -> tuple[_Lifted, _Lifted]:
        """A and B over Q(zeta_q), lifted."""
        return _lifts(_lift(self.A), _lift(self.B), self.omega)

    @cached_property
    def _stacks(self) -> tuple[_Lifted, _Lifted]:
        """[A; B] and [A^q; B^q], from the pair's lifts."""
        return _power_stacks(*self._lifted, self.omega.q)


def _power_stacks(A: _Lifted, B: _Lifted, q: int) -> tuple[_Lifted, _Lifted]:
    """[A; B] and [A^q; B^q], each over one denominator."""
    return _below((A, B)).common(), _below((_power(A, q), _power(B, q))).common()


def potter_check(pair: QuasiPair, s, t) -> bool:
    """Verify (sA + tB)^q = s^q A^q + t^q B^q for the pair."""
    q, field = pair.omega.q, pair.omega.field
    s, t = field.coerce(s), field.coerce(t)
    return _collapses(pair._stacks, s, t, s ** q, t ** q, pair.omega)


def _collapses(stacks: tuple[_Lifted, _Lifted], s, t, s_q, t_q, w: OmegaSpec) -> bool:
    """(sA + tB)^q = s_q A^q + t_q B^q from `_power_stacks`, in integers,
    for s, t and s_q = s^q, t_q = t^q in Q(zeta_q): sA + tB = [sI | tI] *
    [A; B] and s_q A^q + t_q B^q = [s_q I | t_q I] * [A^q; B^q], each one
    product, compared row by row over denominators."""
    AB, powers = stacks
    n = AB.cols
    lhs = _power(_content_free(_mul_lifted(_abreast((s, t), n, w.field), AB)), w.q)
    rhs = _mul_lifted(_abreast((s_q, t_q), n, w.field), powers)
    return _same(lhs, rhs)


def weyl_pair(q: int, n: int) -> QuasiPair:
    """Block-diagonal clock/shift pair of size n (q must divide n).

    D repeats diag(1, omega, ..., omega^(q-1)); S repeats the cyclic
    left shift sending e_i to e_(i+1 mod q).  Then DS = omega * SD.
    """
    w = OmegaSpec(q, 1)
    multiple = f"size n={n} is not a positive multiple of q={q}"
    _integer(n, 1, None, BadDimensions, multiple)
    if n % q:
        raise BadDimensions(multiple)
    field = w.field
    clock = Matrix.diag([w.omega() ** i for i in range(q)], field)
    shift_rows = [[1 if (r - 1) % q == c else 0 for c in range(q)] for r in range(q)]
    shift = Matrix.make(shift_rows, field)
    copies = n // q
    D = Matrix.block_diag([clock] * copies)
    S = Matrix.block_diag([shift] * copies)
    return QuasiPair(D, S, w)


@dataclass(frozen=True)
class OmegaEquivalenceReport:
    """Outcome of comparing omega-centralizers against q-class
    polynomial equivalence for nilpotent input."""

    centralizers_equal: bool
    certificate: Certificate | None
    agree: bool


def omega_equivalence_check(A: Matrix, B: Matrix, w: OmegaSpec) -> OmegaEquivalenceReport:
    """For nilpotent A: do A and B share an omega-centralizer exactly
    when each is a q-class polynomial in the other?"""
    _square_pair(A, B, "equivalence check")
    m = min_poly(A)
    if m != Poly.monomial(m.degree, 1, A.field):
        raise NotNilpotent("first matrix must be nilpotent")
    if A.field != B.field:
        if not A.field.is_cyclotomic:
            A = A.promote(B.field.q)
        elif not B.field.is_cyclotomic:
            B = B.promote(A.field.q)
        else:
            raise FieldMismatch(f"fields differ: {A.field} vs {B.field}")
    CA = omega_centralizer_basis(A, w)
    CB = omega_centralizer_basis(B, w)
    equal = subspace_equal(CA, CB)
    cert = equivalence_certificate(A, B, CongruenceClass.q_class(w.q))
    return OmegaEquivalenceReport(
        centralizers_equal=equal,
        certificate=cert,
        agree=equal == (cert is not None),
    )
