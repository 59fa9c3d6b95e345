"""Univariate polynomials over Q or Q(zeta_q).

Coefficients are stored dense and ascending with trailing zeros trimmed;
the zero polynomial is the empty tuple and reports degree -1.  Degrees
stay small (at most a few times the matrix size), so no fast arithmetic
is attempted: products, long division and powers are the shared
`scalars._convolve`, `scalars._divmod_monic` and `scalars._binary_power`
on the coefficient tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence

from .errors import (
    BothZero,
    NotCoprime,
    NotInClass,
    ZeroPolynomial,
    _integer,
)
from .matrices import Matrix, _entries, _horner, _lift, _Lifted, _square
from .scalars import QQ, CycloScalar, FieldTag, _binary_power, _convolve, _divmod_monic, _same_field, cyclo_coeffs


@dataclass(frozen=True, eq=False)
class Poly:
    field: FieldTag
    coeffs: tuple

    @classmethod
    def make(cls, coeffs: Sequence, field: FieldTag = QQ) -> Poly:
        lifted = [field.coerce(c) for c in coeffs]
        while lifted and not lifted[-1]:
            lifted.pop()
        return cls(field, tuple(lifted))

    @classmethod
    def zero(cls, field: FieldTag = QQ) -> Poly:
        return cls(field, ())

    @classmethod
    def one(cls, field: FieldTag = QQ) -> Poly:
        return cls.make([1], field)

    @classmethod
    def x(cls, field: FieldTag = QQ) -> Poly:
        return cls.make([0, 1], field)

    @classmethod
    def constant(cls, c, field: FieldTag = QQ) -> Poly:
        return cls.make([c], field)

    @classmethod
    def monomial(cls, e: int, c, field: FieldTag = QQ) -> Poly:
        return cls.make([0] * e + [c], field)

    # ---- structure ----

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self):
        if self.is_zero:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.field.one()

    def coeff(self, i: int):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.field.zero()

    def monic(self) -> Poly:
        lead = self.leading
        one = self.field.one()
        if lead == one:
            return self
        inv = one / lead
        return Poly(self.field, tuple(c * inv for c in self.coeffs[:-1]) + (one,))

    def reflect(self) -> Poly:
        """f(-x): sign flip on odd-index coefficients."""
        return Poly(
            self.field,
            tuple(-c if i % 2 else c for i, c in enumerate(self.coeffs)),
        )

    # ---- arithmetic ----

    def _lift(self, other) -> Poly | None:
        if isinstance(other, Poly):
            _same_field(self.field, other.field)
            return other
        if isinstance(other, (int, Fraction, CycloScalar)):
            return Poly.make([other], self.field)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        n = max(len(self.coeffs), len(o.coeffs))
        out = [self.coeff(i) + o.coeff(i) for i in range(n)]
        while out and not out[-1]:
            out.pop()
        return Poly(self.field, tuple(out))

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.field, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if self.is_zero or o.is_zero:
            return Poly.zero(self.field)
        return Poly(self.field, tuple(_convolve(self.coeffs, o.coeffs, self.field.zero())))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> Poly:
        if k < 0:
            raise ValueError("negative polynomial power")
        return _binary_power(self, k, mul) if k else Poly.one(self.field)

    def __divmod__(self, other: Poly) -> tuple[Poly, Poly]:
        """A non-monic divisor and the quotient are each scaled by one
        inverse of the divisor's leading coefficient."""
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise ZeroPolynomial("division by the zero polynomial")
        one = self.field.one()
        if o.leading == one:
            quo, rem = _divmod_monic(self.coeffs, o.coeffs)
        else:
            inv = one / o.leading
            quo, rem = _divmod_monic(self.coeffs, [c * inv for c in o.coeffs[:-1]] + [one])
            quo = [c * inv for c in quo]
        while rem and not rem[-1]:
            rem.pop()
        return Poly(self.field, tuple(quo)), Poly(self.field, tuple(rem))

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.field == other.field and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            o = self._lift(other)
            return self.coeffs == o.coeffs
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __bool__(self):
        return bool(self.coeffs)

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*x")
            else:
                parts.append(f"{c}*x^{i}")
        return " + ".join(parts)

    def __repr__(self):
        return f"Poly<{self.field}: {self}>"


def cyclotomic_phi(q: int) -> Poly:
    """The q-th cyclotomic polynomial over Q."""
    return Poly.make(cyclo_coeffs(q), QQ)


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd by the Euclidean algorithm."""
    if f.is_zero and g.is_zero:
        raise BothZero("gcd(0, 0) is undefined")
    _same_field(f.field, g.field)
    a, b = f, g
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def poly_xgcd(f: Poly, g: Poly) -> tuple[Poly, Poly, Poly]:
    """(d, u, v) with d monic, d = gcd(f, g) and u*f + v*g = d."""
    if f.is_zero and g.is_zero:
        raise BothZero("gcd(0, 0) is undefined")
    _same_field(f.field, g.field)
    field = f.field
    r0, r1 = f, g
    s0, s1 = Poly.one(field), Poly.zero(field)
    t0, t1 = Poly.zero(field), Poly.one(field)
    while not r1.is_zero:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    lead = r0.leading
    inv = field.one() / lead if lead != field.one() else None
    if inv is None:
        return r0, s0, t0
    return r0.monic(), s0 * inv, t0 * inv


def poly_crt(residues: Sequence[Poly], moduli: Sequence[Poly]) -> Poly:
    """The unique h of degree < sum(deg moduli) with h = residues[i]
    mod moduli[i].  Moduli must be pairwise coprime."""
    if len(residues) != len(moduli):
        raise ValueError("residues and moduli differ in length")
    if not moduli:
        raise ValueError("need at least one congruence")
    field = moduli[0].field
    for i in range(len(moduli)):
        for j in range(i + 1, len(moduli)):
            if poly_gcd(moduli[i], moduli[j]).degree > 0:
                raise NotCoprime(i, j)
    total = Poly.one(field)
    for m in moduli:
        total = total * m
    acc = Poly.zero(field)
    for r, m in zip(residues, moduli):
        rest = total // m
        _, u, _ = poly_xgcd(rest, m)
        # u * rest = 1 mod m, and rest kills every other modulus
        acc = acc + r * u * rest
    return acc % total


def is_balanced_poly(f: Poly) -> bool:
    """True iff f(-x) = (-1)^deg(f) * f(x), after monic normalization."""
    if f.is_zero:
        raise ZeroPolynomial("the zero polynomial has no balance parity")
    f = f.monic()
    sign_flipped = f.reflect()
    if f.degree % 2:
        sign_flipped = -sign_flipped
    return sign_flipped == f


@dataclass(frozen=True)
class CongruenceClass:
    """Which exponents a certificate polynomial may use: ``q is None``
    means no restriction; otherwise exponents e >= 1 with e = 1 mod q,
    for an integer q >= 1 checked when the class is built.  Odd is
    exactly QClass(2)."""

    q: int | None = None

    def __post_init__(self):
        if self.q is not None:
            _integer(self.q, 1, None, ValueError, "congruence modulus must be a positive integer")

    @classmethod
    def general(cls) -> CongruenceClass:
        return cls(None)

    @classmethod
    def odd(cls) -> CongruenceClass:
        return cls(2)

    @classmethod
    def q_class(cls, q: int) -> CongruenceClass:
        return cls(q)

    @classmethod
    def parse(cls, text: str) -> CongruenceClass:
        text = text.strip().lower()
        if text == "general":
            return cls.general()
        if text == "odd":
            return cls.odd()
        if text.startswith("q:"):
            return cls.q_class(int(text[2:]))
        raise ValueError(f"unknown congruence class {text!r}")

    @property
    def name(self) -> str:
        if self.q is None:
            return "general"
        if self.q == 2:
            return "odd"
        return f"q:{self.q}"

    def allows(self, exponent: int) -> bool:
        if self.q is None:
            return exponent >= 0
        return exponent >= 1 and (exponent - 1) % self.q == 0

    def __str__(self):
        return self.name


def restrict_to_class(f: Poly, c: CongruenceClass) -> Poly:
    """Return f unchanged if every nonzero coefficient sits on an
    allowed exponent; otherwise raise NotInClass with the first
    offending exponent."""
    for e, coeff in enumerate(f.coeffs):
        if coeff and not c.allows(e):
            raise NotInClass(e)
    return f


def poly_in_class(f: Poly, c: CongruenceClass) -> bool:
    return all(not coeff or c.allows(e) for e, coeff in enumerate(f.coeffs))


def eval_at_matrix(f: Poly, A: Matrix) -> Matrix:
    """Horner evaluation of f at a square matrix; the constant term
    contributes c*I.  A is lifted once and the pass runs in integers,
    starting from c_top*I, so degree d costs d products, and each step
    adds its coefficient to the n diagonal entries only; the result is
    normalized once."""
    return Matrix(A.field, A.rows, A.rows, _entries(_at_matrix(f, A)))


def _at_matrix(f: Poly, A: Matrix) -> _Lifted:
    """f(A), lifted: one `_horner` pass with the diagonal as units."""
    _square(A, "polynomial evaluation needs a square matrix")
    _same_field(f.field, A.field)
    return _at_lifted(f, _lift(A))


def _at_lifted(f: Poly, Al: _Lifted) -> _Lifted:
    """f(A) for A lifted as Al, unchecked."""
    n = Al.rows
    return _horner(f.coeffs, Al, [(i, i) for i in range(n)], n)
