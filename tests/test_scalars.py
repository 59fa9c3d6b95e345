from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from commutants import CycloScalar, FieldMismatch, FieldTag, QQ, ZeroInverse, cyclo_reduce
from commutants import scalars
from commutants.scalars import cyclo_coeffs, phi_degree
from helpers import (
    reference_inverse,
    reference_mul,
    reference_pow,
    reference_reduce_mod_phi,
    repeated_power,
)


def test_cyclotomic_polynomials_match_sympy():
    x = sympy.Symbol("x")
    for q in range(1, 31):
        ours = list(cyclo_coeffs(q))
        theirs = [int(c) for c in reversed(sympy.Poly(sympy.cyclotomic_poly(q, x), x).all_coeffs())]
        assert ours == theirs, q


def test_phi_degree_matches_totient():
    for q in range(1, 31):
        assert phi_degree(q) == int(sympy.totient(q))


def test_zeta_power_reduction():
    # zeta_6^2 = zeta_6 - 1 modulo x^2 - x + 1
    z2 = CycloScalar.zeta(6, 2)
    assert z2.coeffs == (Fraction(-1), Fraction(1))
    # zeta_q^q = 1
    for q in (1, 2, 3, 4, 5, 6, 8, 12):
        assert CycloScalar.zeta(q, 1) ** q == 1


def test_zeta_power_table_equals_the_reduced_powers():
    # Phi_12 has a zero coefficient, Phi_15 zero and negative ones, Phi_105 a -2
    assert 0 in cyclo_coeffs(12) and {0, -1} <= set(cyclo_coeffs(15)) and -2 in cyclo_coeffs(105)
    for q in (1, 2, 3, 4, 5, 7, 12, 15, 105):
        table, phi = scalars._zeta_powers(q), phi_degree(q)
        assert len(table) == max(q, 2 * phi - 1)
        for k, pairs in enumerate(table):
            dense = [Fraction(0)] * phi
            for i, c in pairs:
                assert c and not dense[i]
                dense[i] = Fraction(c)
            assert [i for i, _ in pairs] == sorted(i for i, _ in pairs)
            assert tuple(dense) == CycloScalar.zeta(q, k).coeffs, (q, k)


def test_cyclo_reduce_long_vectors():
    # 0 + 0 z + 1 z^2 over q = 6, given with extra length
    got = cyclo_reduce([0, 0, 1], 6)
    assert got == CycloScalar.zeta(6, 2)
    assert cyclo_reduce([0, 0, 0, 1], 6) == CycloScalar.zeta(6, 3)


def test_primitive_root_sum():
    # 1 + z + ... + z^(q-1) = 0 for prime q
    for q in (2, 3, 5, 7):
        total = CycloScalar.from_rational(q, 0)
        for k in range(q):
            total = total + CycloScalar.zeta(q, k)
        assert total == 0


def test_arithmetic_against_sympy():
    q = 5
    zs = sympy.exp(2 * sympy.pi * sympy.I / q)
    a = CycloScalar.zeta(q, 1) * 2 + CycloScalar.from_rational(q, Fraction(1, 3))
    b = CycloScalar.zeta(q, 3) - 1
    sa = 2 * zs + sympy.Rational(1, 3)
    sb = zs ** 3 - 1

    def to_sympy(c):
        return sum(sympy.Rational(x) * zs ** e for e, x in enumerate(c.coeffs))

    for ours, theirs in [(a * b, sa * sb), (a + b, sa + sb), (a - b, sa - sb)]:
        # simplify() chokes on mixed exp/power forms; 60-digit numeric
        # evaluation of the difference is the robust zero test
        diff = (to_sympy(ours) - theirs).evalf(60)
        assert abs(complex(diff)) < 1e-45


@settings(max_examples=60)
@given(
    st.integers(min_value=1, max_value=12),
    st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=12),
)
def test_inverse_property(q, coeffs):
    s = cyclo_reduce(coeffs, q)
    if not s:
        with pytest.raises(ZeroInverse):
            s.inverse()
    else:
        assert s * s.inverse() == 1


@settings(max_examples=40)
@given(
    st.integers(min_value=1, max_value=10),
    st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=10),
    st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=10),
)
def test_ring_laws(q, u, v):
    a = cyclo_reduce(u, q)
    b = cyclo_reduce(v, q)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + 1) == a * b + a
    assert (a - b) + b == a


def test_rational_embedding():
    s = CycloScalar.from_rational(8, Fraction(3, 4))
    assert s.is_rational()
    assert s.as_fraction() == Fraction(3, 4)
    assert s + Fraction(1, 4) == 1
    t = CycloScalar.zeta(8, 1)
    assert not t.is_rational()


def test_mixed_conductor_rejected():
    with pytest.raises(FieldMismatch):
        CycloScalar.zeta(3, 1) + CycloScalar.zeta(4, 1)
    # but equality across conductors is just False, never an error
    assert (CycloScalar.zeta(3, 1) == CycloScalar.zeta(4, 1)) is False


def test_field_tag_coerce():
    assert QQ.coerce(3) == Fraction(3)
    # a Fraction comes back as itself; anything else as a plain Fraction
    half = Fraction(1, 2)
    assert QQ.coerce(half) is half

    class Sub(Fraction):
        pass

    for value, expected in [(3, Fraction(3)), (True, Fraction(1)), (Sub(2, 3), Fraction(2, 3))]:
        got = QQ.coerce(value)
        assert type(got) is Fraction and got == expected
    f6 = FieldTag.cyclotomic(6)
    assert f6.coerce([0, 0, 1]) == CycloScalar.zeta(6, 2)
    assert f6.omega(1) == CycloScalar.zeta(6, 1)
    with pytest.raises(FieldMismatch):
        QQ.coerce(CycloScalar.zeta(6, 1))
    with pytest.raises(FieldMismatch):
        FieldTag.cyclotomic(4).coerce(CycloScalar.zeta(6, 1))


def test_only_cyclotomic_fields_have_a_root_of_unity():
    with pytest.raises(FieldMismatch, match="Q has no designated root of unity"):
        QQ.omega()
    with pytest.raises(FieldMismatch):
        QQ.omega(2)
    # zeta_5^7 = zeta_5^2: coefficient 1 at the square
    assert FieldTag.cyclotomic(5).omega(7).coeffs == (0, 0, 1, 0)


def test_degenerate_conductors():
    # Q(zeta_1) and Q(zeta_2) are Q in disguise
    assert CycloScalar.zeta(1, 0) == 1
    assert CycloScalar.zeta(2, 1) == -1
    assert phi_degree(1) == 1 and phi_degree(2) == 1


def test_pow_negative_and_zero():
    z = CycloScalar.zeta(5, 1)
    assert z ** 0 == 1
    assert z ** -1 == z.inverse()
    assert z ** -3 == (z ** 3).inverse()


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from((3, 4, 5, 6)),
    st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=4), min_size=1, max_size=6),
)
def test_pow_equals_repeated_multiplication(q, coeffs):
    x = cyclo_reduce(coeffs, q)
    for k in range(-3, 10):
        if k < 0 and not x:
            with pytest.raises(ZeroInverse):
                x ** k
            continue
        assert x ** k == repeated_power(x, k), k


def test_pow_multiplies_neither_by_one_nor_past_the_last_bit(monkeypatch):
    # square-and-multiply from the first set bit: floor(log2 k) squarings
    # and popcount(k) - 1 further products, each one integer product
    x = cyclo_reduce([1, 2, -1], 5)
    count = [0]
    plain = scalars._product

    def counting(a, b, q):
        count[0] += 1
        return plain(a, b, q)

    monkeypatch.setattr(scalars, "_product", counting)
    for k in range(1, 18):
        count[0] = 0
        x ** k
        assert count[0] == k.bit_length() - 1 + bin(k).count("1") - 1, k
    count[0] = 0
    assert x ** 0 == 1 and count[0] == 0


# conductors with phi = 1, 2, 4, 6 and 4, Phi_12 = x^4 - x^2 + 1 having a
# zero coefficient; coefficients with denominators, vectors past phi
CONDUCTORS = (1, 2, 3, 4, 5, 7, 8, 9, 12)
coefficient = st.one_of(
    st.integers(min_value=-9, max_value=9).map(Fraction),
    st.builds(Fraction, st.integers(min_value=-40, max_value=40), st.integers(min_value=1, max_value=12)),
)


@st.composite
def cyclo_vector(draw, q):
    """Coefficients of a polynomial in zeta_q: zero, a pure rational, or
    up to 2q coefficients, so often longer than deg Phi_q."""
    kind = draw(st.sampled_from(("zero", "rational", "general")))
    if kind == "zero":
        return [0] * draw(st.integers(min_value=0, max_value=q + 1))
    if kind == "rational":
        return [draw(coefficient)]
    return draw(st.lists(coefficient, min_size=1, max_size=2 * q))


def assert_reduced(x: CycloScalar, q: int):
    assert x.q == q and len(x.coeffs) == phi_degree(q)
    for c in x.coeffs:
        assert type(c) is Fraction and c.denominator > 0 and gcd(c.numerator, c.denominator) == 1


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(CONDUCTORS).flatmap(
        lambda q: st.tuples(st.just(q), cyclo_vector(q), cyclo_vector(q), coefficient)
    ),
    st.integers(min_value=-4, max_value=9),
)
def test_integer_arithmetic_matches_the_fraction_reference(case, k):
    q, u, v, r = case
    x, y = CycloScalar(q, tuple(u)), cyclo_reduce(v, q)
    # long-vector construction folds like long division in Fractions
    assert x.coeffs == reference_reduce_mod_phi(u, q)
    assert y.coeffs == reference_reduce_mod_phi(v, q)
    results = [x * y, x * r, r * x, x ** max(k, 0)]
    assert results[0] == reference_mul(x, y)
    assert results[1] == results[2] == reference_mul(x, CycloScalar.from_rational(q, r))
    assert results[3] == reference_pow(x, max(k, 0))
    for z, w in ((x, y), (y, x)):
        if not w:
            for call in (w.inverse, lambda: z / w, lambda: r / w, lambda: w ** -1):
                with pytest.raises(ZeroInverse):
                    call()
            continue
        results += [w.inverse(), z / w, w ** min(k, -1)]
        assert results[-3] == reference_inverse(w)
        assert results[-2] == reference_mul(z, reference_inverse(w))
        assert results[-1] == reference_pow(w, min(k, -1))
        if r:
            assert r / w == reference_mul(CycloScalar.from_rational(q, r), reference_inverse(w))
            assert w / r == reference_mul(w, CycloScalar.from_rational(q, 1 / r))
    for z in results:
        assert_reduced(z, q)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(-9, 9), max_size=7),
    st.lists(st.integers(-9, 9), max_size=4),
    st.lists(st.integers(-9, 9), min_size=1, max_size=4),
)
def test_long_division_and_convolution_invert_each_other(num, low, other):
    # num = quo * den + rem with deg rem < deg den, for monic den of any
    # degree, constant included, and num shorter than den as well
    den = low + [1]
    quo, rem = scalars._divmod_monic(num, den)
    assert len(rem) == min(len(num), len(den) - 1)
    back = scalars._convolve(quo, den) if quo else []
    back = back + [0] * (len(num) - len(back))
    assert [b + (rem[i] if i < len(rem) else 0) for i, b in enumerate(back)] == num
    # the convolution is the schoolbook product, whichever operand has zeros
    for a, b in ((num or [0], other), (other, num or [0])):
        want = [sum(a[i] * b[j - i] for i in range(len(a)) if 0 <= j - i < len(b)) for j in range(len(a) + len(b) - 1)]
        assert scalars._convolve(a, b) == want


def test_binary_power_multiplies_from_the_first_set_bit():
    # concatenation as the product: floor(log2 k) squarings and
    # popcount(k) - 1 further products, none with an identity
    calls = []

    def concat(u, v):
        calls.append((u, v))
        return u + v

    for k in range(1, 10):
        calls.clear()
        assert scalars._binary_power("ab", k, concat) == "ab" * k
        assert len(calls) == k.bit_length() - 1 + bin(k).count("1") - 1, k
