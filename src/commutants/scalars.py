"""Exact scalars: rationals and cyclotomic numbers.

Two fields are supported, Q (``fractions.Fraction``) and Q(zeta_q) for a
conductor q >= 1.  A cyclotomic number is stored as the unique residue of
a polynomial in zeta_q modulo the q-th cyclotomic polynomial Phi_q, so
equality is plain coefficient comparison.  Mixed-field arithmetic is
rejected (`_same_field` is the common "a vs b" refusal); only the
embedding of Q into Q(zeta_q) is applied implicitly (ints and Fractions
act as constants).  Products, powers and inverses run on integer
numerators over the lcm of the denominators, one integer fold mod Phi_q
per product, and build the result's Fractions once.  An inverse is the
product of the other Galois conjugates over the norm, an integer
(`_conjugates`, shared with the elimination core's cyclotomic pivot), so
it needs no polynomial Euclid.

The package's one convolution (`_convolve`), long division by a monic
polynomial (`_divmod_monic`) and square-and-multiply (`_binary_power`)
live here too, for any exact coefficients, and so does the residue of
every power of zeta_q that a root of unity or a product of two residues
takes (`_zeta_powers`, built once per conductor): the lifted product
folds its planes from zeta^phi up through it, and a rational multiple
of a root of unity is read off it with no product (`_scaled_zeta`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from math import gcd, lcm
from typing import Sequence, Union

from .errors import BadExponent, FieldMismatch, ZeroInverse, _integer

Scalar = Union[Fraction, "CycloScalar"]
_ZERO = Fraction(0)


def _conductor(q) -> None:
    """ValueError unless q is an int >= 1; a bool is not a conductor."""
    _integer(q, 1, None, ValueError, "conductor must be a positive integer")


@lru_cache(maxsize=None)
def cyclo_coeffs(q: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_q, ascending, computed by dividing
    x^q - 1 by the product of Phi_d over proper divisors d of q."""
    _conductor(q)
    if q == 1:
        return (-1, 1)
    rem = [0] * (q + 1)
    rem[0] = -1
    rem[q] = 1
    for d in range(1, q):
        if q % d:
            continue
        phi_d = cyclo_coeffs(d)
        rem = _divmod_monic(rem, phi_d)[0]
    return tuple(rem)


@lru_cache(maxsize=None)
def _zeta_powers(q: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """zeta_q^k mod Phi_q for 0 <= k < max(q, 2 phi - 1), phi = deg Phi_q,
    each as its nonzero (i, coefficient of zeta^i) pairs, ascending in i:
    every power a q-th root of unity takes, and every power a product of
    two residues reaches.  Each power past zeta^(phi - 1) is the one
    below it shifted up once and folded with zeta^phi = -sum_i low[i]
    zeta^i, so the table costs O(phi) per power, with no division."""
    low = cyclo_coeffs(q)[:-1]
    phi = len(low)
    out = [((k, 1),) for k in range(phi)]
    r = [0] * (phi - 1) + [1]
    for _ in range(phi, max(q, 2 * phi - 1)):
        top, r = r[-1], [0] + r[:-1]
        if top:
            r = [x - top * c for x, c in zip(r, low)]
        out.append(tuple(zip(compress(range(phi), r), filter(None, r))))
    return tuple(out)


def _divmod_monic(num: Sequence, den: Sequence) -> tuple[list, list]:
    """Quotient and remainder of ``num`` by the monic ``den``, ascending,
    for any exact coefficients; each quotient coefficient is taken from
    the running remainder, so it keeps ``num``'s type."""
    rem = list(num)
    dd = len(den) - 1
    quo = [0] * max(len(rem) - dd, 0)
    for i in range(len(rem) - 1, dd - 1, -1):
        c = quo[i - dd] = rem[i]
        if c:
            for j, p in enumerate(den, i - dd):
                rem[j] -= c * p
    return quo, rem[:dd]


def _convolve(a: Sequence, b: Sequence, zero=0) -> list:
    """a * b for nonempty ascending coefficient lists, summed from
    ``zero``, skipping a's zeros."""
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _binary_power(x, k: int, mul):
    """x^k for k >= 1 under ``mul``, from the first set bit: floor(log2 k)
    squarings and popcount(k) - 1 further products, no identity."""
    result = None
    while k:
        if k & 1:
            result = x if result is None else mul(result, x)
        k >>= 1
        if k:
            x = mul(x, x)
    return result


def phi_degree(q: int) -> int:
    """Degree of Phi_q, i.e. Euler's totient of q."""
    return len(cyclo_coeffs(q)) - 1


def _over_lcm(coeffs: Sequence[Fraction]) -> tuple[int, list[int]]:
    """The integer lift of Fractions: the lcm d of their denominators and
    the integers d * c."""
    d = lcm(*[c.denominator for c in coeffs])
    return d, [c.numerator * (d // c.denominator) for c in coeffs]


def _reduce_mod_phi(coeffs: Sequence, q: int) -> tuple[Fraction, ...]:
    # Input longer than deg Phi_q is folded on its integer lift; shorter
    # input is only converted and padded.
    phi = cyclo_coeffs(q)
    d = len(phi) - 1
    fracs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
    if len(fracs) > d:
        den, ints = _over_lcm(fracs)
        return _from_ints(q, _divmod_monic(ints, phi)[1], den).coeffs
    return tuple(fracs + [_ZERO] * (d - len(fracs)))


def _product(a: Sequence[int], b: Sequence[int], q: int) -> list[int]:
    """a * b mod Phi_q for integer coefficient lists of any length, deg
    Phi_q integers: one convolution and one fold."""
    return _divmod_monic(_convolve(a, b), cyclo_coeffs(q))[1]


def _conjugates(a: Sequence[int], q: int) -> tuple[list[int], int]:
    """(others, norm) for nonzero integer coefficients a of deg Phi_q:
    others is the product of the Galois conjugates sigma_k(a), k a unit
    mod q other than 1, in integers, and a * others = norm, a nonzero
    integer, positive when a is not rational."""
    others = [1]
    for k in range(2, q):
        if gcd(k, q) == 1:
            # sigma_k sends zeta^i to zeta^(ik mod q); k is a unit, so
            # distinct i land on distinct exponents
            image = [0] * q
            for i, c in enumerate(a):
                image[i * k % q] = c
            others = _product(image, others, q)
    return others, _product(a, others, q)[0]


def _from_ints(q: int, ints: Sequence[int], d: int) -> CycloScalar:
    """The element with coefficients ints[i] / d, for deg Phi_q integers
    already reduced mod Phi_q: the Fractions are built once and no
    reduction runs."""
    s = object.__new__(CycloScalar)
    object.__setattr__(s, "q", q)
    object.__setattr__(s, "coeffs", tuple([Fraction(x, d) if x else _ZERO for x in ints]))
    return s


def _scaled_zeta(q: int, r: Fraction, k: int) -> CycloScalar:
    """r * zeta_q^k for a rational r and 0 <= k < q, read off the residue
    of zeta^k: no product and no reduction runs."""
    ints = [0] * phi_degree(q)
    for i, c in _zeta_powers(q)[k]:
        ints[i] = r.numerator * c
    return _from_ints(q, ints, r.denominator)


@dataclass(frozen=True, eq=False)
class CycloScalar:
    """An element of Q(zeta_q), reduced mod Phi_q.

    ``coeffs[i]`` is the coefficient of zeta_q^i; the tuple always has
    length deg Phi_q.  Input of any length is reduced on construction.
    """

    q: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _reduce_mod_phi(self.coeffs, self.q))

    @classmethod
    def zeta(cls, q: int, k: int = 1) -> CycloScalar:
        """The root of unity zeta_q^k."""
        _conductor(q)
        _integer(k, None, None, ValueError, "exponent of zeta must be an integer")
        k %= q
        return cls(q, tuple([Fraction(0)] * k + [Fraction(1)]))

    @classmethod
    def from_rational(cls, q: int, value) -> CycloScalar:
        return cls(q, (Fraction(value),))

    def _lift(self, other):
        if isinstance(other, CycloScalar):
            if other.q != self.q:
                raise FieldMismatch(
                    f"cannot mix Q(zeta_{self.q}) with Q(zeta_{other.q})"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return CycloScalar.from_rational(self.q, other)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return CycloScalar(self.q, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CycloScalar(self.q, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return CycloScalar(self.q, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        da, a = _over_lcm(self.coeffs)
        db, b = _over_lcm(o.coeffs)
        return _from_ints(self.q, _product(a, b, self.q), da * db)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if not o:
            raise ZeroInverse("zero has no inverse")
        q = self.q
        da, a = _over_lcm(self.coeffs)
        db, b = _over_lcm(o.coeffs)
        others, norm = _conjugates(b, q)
        return _from_ints(q, [db * x for x in _product(a, others, q)], da * norm)

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, k: int):
        _integer(k, None, None, BadExponent, "a power needs an integer exponent")
        if k < 0:
            return self.inverse() ** (-k)
        q = self.q
        if not k:
            return CycloScalar.from_rational(q, 1)
        # (denominator, integers) pairs multiply as one integer product
        d, ints = _binary_power(_over_lcm(self.coeffs), k, lambda u, v: (u[0] * v[0], _product(u[1], v[1], q)))
        return _from_ints(q, ints, d)

    def __eq__(self, other):
        if isinstance(other, CycloScalar):
            return self.q == other.q and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        return NotImplemented

    def __hash__(self):
        return hash((self.q, self.coeffs))

    def __bool__(self):
        return any(self.coeffs)

    def inverse(self) -> CycloScalar:
        """Multiplicative inverse: the product of the other Galois
        conjugates divided by the norm, which is a nonzero rational."""
        return CycloScalar.from_rational(self.q, 1) / self

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    def __repr__(self):
        return f"CycloScalar(q={self.q}, {[str(c) for c in self.coeffs]})"


def cyclo_reduce(coeffs: Sequence, q: int) -> CycloScalar:
    """Interpret ``coeffs`` as a polynomial in zeta_q and reduce mod Phi_q.

    >>> cyclo_reduce([0, 0, 0, 1], 6).coeffs   # zeta_6^3 = -1
    (Fraction(-1, 1), Fraction(0, 1))
    """
    return CycloScalar(q, tuple(Fraction(c) for c in coeffs))


@dataclass(frozen=True)
class FieldTag:
    """Marks which field a Matrix or Poly lives over: Q when ``q`` is
    None, otherwise Q(zeta_q)."""

    q: int | None = None

    @classmethod
    def rational(cls) -> FieldTag:
        return cls(None)

    @classmethod
    def cyclotomic(cls, q: int) -> FieldTag:
        _conductor(q)
        return cls(q)

    @property
    def is_cyclotomic(self) -> bool:
        return self.q is not None

    def zero(self) -> Scalar:
        return self.coerce(0)

    def one(self) -> Scalar:
        return self.coerce(1)

    def coerce(self, value) -> Scalar:
        """Convert ``value`` into this field, rejecting cross-field input."""
        if self.q is None:
            if isinstance(value, CycloScalar):
                raise FieldMismatch("cyclotomic scalar in a rational context")
            # a Fraction is immutable, and Fraction(Fraction) is slow
            return value if type(value) is Fraction else Fraction(value)
        if isinstance(value, CycloScalar):
            if value.q != self.q:
                raise FieldMismatch(
                    f"scalar of conductor {value.q} in a Q(zeta_{self.q}) context"
                )
            return value
        if isinstance(value, (list, tuple)):
            return cyclo_reduce(value, self.q)
        return CycloScalar.from_rational(self.q, Fraction(value))

    def omega(self, k: int = 1) -> CycloScalar:
        if self.q is None:
            raise FieldMismatch("Q has no designated root of unity")
        return CycloScalar.zeta(self.q, k)

    def __str__(self):
        return "Q" if self.q is None else f"Q(zeta_{self.q})"


QQ = FieldTag.rational()


def _same_field(a: FieldTag, b: FieldTag) -> None:
    """FieldMismatch "a vs b" unless a and b are one field: every
    refusal of two operands over different fields with that message."""
    if a != b:
        raise FieldMismatch(f"{a} vs {b}")
