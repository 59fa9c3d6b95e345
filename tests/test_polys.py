from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from commutants import (
    BothZero,
    CongruenceClass,
    FieldTag,
    Matrix,
    NotCoprime,
    NotInClass,
    Poly,
    QQ,
    ZeroPolynomial,
    cyclotomic_phi,
    eval_at_matrix,
    is_balanced_poly,
    poly_crt,
    poly_gcd,
    poly_in_class,
    poly_xgcd,
    restrict_to_class,
)
from helpers import (
    count_products,
    from_one_pow,
    one_inverse_divmod,
    reference_divmod,
    reference_monic,
    mat,
    poly,
    reference_power,
    reference_product,
    schoolbook_mul,
    sympy_poly_coeffs,
)

x = sympy.Symbol("x")

small_polys = st.lists(
    st.fractions(min_value=-5, max_value=5, max_denominator=6), min_size=0, max_size=6
).map(lambda cs: poly(cs))


def test_basic_shape():
    f = poly([1, 0, 2])
    assert f.degree == 2
    assert f.coeff(1) == 0 and f.coeff(5) == 0
    assert poly([]).is_zero
    assert poly([0, 0]).is_zero
    assert Poly.x(QQ) == poly([0, 1])
    assert not poly([2]).is_monic and poly([2, 1]).is_monic


def test_sum_power_and_hash_of_fixed_polys():
    """What the property tests reach only through their draws: a sum
    whose top terms cancel, the zeroth and a positive power, and equal
    polynomials hashing alike."""
    f = poly([1, 2, 3])
    assert f + poly([0, -2, -3]) == poly([1]) and (f - f).is_zero
    assert f**0 == Poly.one(QQ) and f**2 == poly([1, 4, 10, 12, 9])
    assert hash(f) == hash(poly([1, 2, 3])) and len({f, poly([1, 2, 3])}) == 1


@settings(max_examples=80)
@given(small_polys, small_polys)
def test_divmod_matches_sympy(f, g):
    if g.is_zero:
        with pytest.raises(ZeroPolynomial):
            divmod(f, g)
        return
    q, r = divmod(f, g)
    assert q * g + r == f
    assert r.is_zero or r.degree < g.degree
    sq, sr = sympy.div(sympy_poly_coeffs(f), sympy_poly_coeffs(g), x)
    assert sympy_poly_coeffs(q).as_expr().equals(sq.as_expr()) or (q.is_zero and sq == 0)


@settings(max_examples=60)
@given(small_polys, small_polys)
def test_gcd_matches_sympy(f, g):
    if f.is_zero and g.is_zero:
        with pytest.raises(BothZero):
            poly_gcd(f, g)
        return
    d = poly_gcd(f, g)
    assert d.is_monic
    sd = sympy.gcd(sympy_poly_coeffs(f), sympy_poly_coeffs(g))
    assert sympy_poly_coeffs(d).as_expr().equals(sympy.Poly(sd, x).monic().as_expr())


@settings(max_examples=60)
@given(small_polys, small_polys)
def test_xgcd_bezout(f, g):
    if f.is_zero and g.is_zero:
        return
    d, u, v = poly_xgcd(f, g)
    assert u * f + v * g == d
    assert d.is_monic
    assert (f % d).is_zero and (g % d).is_zero


def test_poly_crt_reconstruction():
    # x mod (x - 1) is 1, mod (x - 2) is 2: the interpolant is x itself
    m1, m2 = poly([-1, 1]), poly([-2, 1])
    r = poly_crt([poly([1]), poly([2])], [m1, m2])
    assert r == poly([0, 1])
    # against sympy's crt over polynomials via explicit check
    big = poly([3, 1, 1, 2])
    mods = [poly([-1, 1]), poly([1, 1]), poly([0, 0, 1])]
    res = [big % m for m in mods]
    rec = poly_crt(res, mods)
    for m, wanted in zip(mods, res):
        assert rec % m == wanted
    assert rec.degree < sum(m.degree for m in mods)


def test_poly_crt_not_coprime():
    with pytest.raises(NotCoprime) as ei:
        poly_crt([poly([1]), poly([2])], [poly([-1, 1]), poly([1, -2, 1])])
    assert (ei.value.i, ei.value.j) == (0, 1)


def test_cyclotomic_phi_matches_sympy():
    for q in (1, 2, 3, 4, 6, 8, 12, 15):
        ours = cyclotomic_phi(q)
        theirs = sympy.Poly(sympy.cyclotomic_poly(q, x), x)
        assert sympy_poly_coeffs(ours).as_expr().equals(theirs.as_expr())


def test_balanced_examples():
    assert is_balanced_poly(poly([0, 0, 1]))          # x^2
    assert is_balanced_poly(poly([-2, 0, 1]))         # x^2 - 2
    assert is_balanced_poly(poly([0, -1, 0, 1]))      # x^3 - x
    assert is_balanced_poly(poly([0, 1]))             # x
    assert not is_balanced_poly(poly([-1, 1]))        # x - 1
    assert not is_balanced_poly(poly([1, 1, 1]))      # x^2 + x + 1
    # non-monic input is normalized first
    assert is_balanced_poly(poly([0, 0, 3]))


@settings(max_examples=50)
@given(small_polys)
def test_balanced_iff_even_odd_split(f):
    # monic f is balanced iff it has only even-degree terms (even deg f)
    # or only odd-degree terms (odd deg f)
    if f.is_zero:
        return
    g = f.monic()
    expect = all(c == 0 for e, c in enumerate(g.coeffs) if (e - g.degree) % 2)
    assert is_balanced_poly(f) == expect


def test_congruence_classes():
    gen = CongruenceClass.general()
    odd = CongruenceClass.odd()
    q3 = CongruenceClass.q_class(3)
    assert gen.allows(0) and gen.allows(7)
    assert odd.allows(1) and odd.allows(5) and not odd.allows(0) and not odd.allows(4)
    assert q3.allows(1) and q3.allows(4) and not q3.allows(2) and not q3.allows(0)
    assert CongruenceClass.parse("general") == gen
    assert CongruenceClass.parse("odd") == odd
    assert CongruenceClass.parse("q:3") == q3
    assert odd == CongruenceClass.q_class(2)


def test_restrict_to_class():
    odd = CongruenceClass.odd()
    f = poly([0, 2, 0, 5])
    assert restrict_to_class(f, odd) == f
    assert poly_in_class(f, odd)
    bad = poly([1, 2])
    with pytest.raises(NotInClass) as ei:
        restrict_to_class(bad, odd)
    assert ei.value.exponent == 0
    assert not poly_in_class(bad, odd)
    # zero polynomial belongs to every class
    assert poly_in_class(poly([]), odd)


def test_reflect():
    f = poly([1, 2, 3, 4])
    g = f.reflect()
    assert g == poly([1, -2, 3, -4])
    M = mat([[Fraction(-3)]])
    assert eval_at_matrix(g, M) == eval_at_matrix(f, M.scale(-1))


@settings(max_examples=40)
@given(small_polys, st.integers(0, 5))
def test_power_matches_sympy(f, k):
    # k = 0 gives 1, for the zero polynomial too
    assert sympy_poly_coeffs(f ** k) == sympy_poly_coeffs(f) ** k


def test_negative_power_is_refused():
    with pytest.raises(ValueError, match="negative polynomial power"):
        poly([1, 1]) ** -1


@settings(max_examples=40)
@given(small_polys, st.one_of(st.integers(-5, 5), st.fractions(min_value=-5, max_value=5, max_denominator=6)))
def test_scalar_minus_poly_matches_sympy(f, c):
    g = c - f
    assert g.field == QQ
    assert sympy_poly_coeffs(g) == sympy.Poly(sympy.Rational(c) - sympy_poly_coeffs(f).as_expr(), x, domain="QQ")


def test_cyclotomic_scalar_minus_poly():
    f3 = FieldTag.cyclotomic(3)
    z = f3.omega(1)
    assert z - poly([0, 1], f3) == poly([z, -1], f3)
    assert 1 - poly([z, 1], f3) == poly([1 - z, -1], f3)


def test_poly_equals_its_constant():
    assert poly([5]) == 5 and 5 == poly([5])
    assert poly([]) == 0 and poly([0, 0]) == 0
    assert poly([Fraction(1, 2)]) == Fraction(1, 2)
    assert Fraction(-3, 4) == poly([Fraction(-3, 4)])
    assert poly([2], FieldTag.cyclotomic(3)) == 2
    assert poly([1, 1]) != 1 and poly([Fraction(1, 2)]) != 0 and poly([1]) != Fraction(1, 2)
    assert poly([1]) != "1"


def test_poly_str_and_repr():
    f = poly([1, 0, -2, Fraction(1, 2)])
    assert str(f) == "1 + -2*x^2 + 1/2*x^3"
    assert repr(f) == "Poly<Q: 1 + -2*x^2 + 1/2*x^3>"
    assert str(poly([])) == "0" and repr(poly([])) == "Poly<Q: 0>"
    assert str(poly([0, 3])) == "3*x"
    f3 = FieldTag.cyclotomic(3)
    z = f3.omega(1)
    assert repr(poly([z, 0, 1], f3)) == f"Poly<Q(zeta_3): {z} + {f3.one()}*x^2>"


def test_congruence_class_names_round_trip():
    for cls, name in (
        (CongruenceClass.general(), "general"),
        (CongruenceClass.odd(), "odd"),
        (CongruenceClass.q_class(2), "odd"),
        (CongruenceClass.q_class(1), "q:1"),
        (CongruenceClass.q_class(3), "q:3"),
    ):
        assert cls.name == name and str(cls) == name
        assert CongruenceClass.parse(str(cls)) == cls
    assert CongruenceClass.parse(" Q:5 ") == CongruenceClass.q_class(5)
    for bad in ("even", "q:0", "q:x"):
        with pytest.raises(ValueError):
            CongruenceClass.parse(bad)


def test_eval_at_matrix_golden():
    A = Matrix.jordan(2, 0, QQ)
    f = poly([1, 1])  # 1 + x
    assert eval_at_matrix(f, A) == mat([[1, 1], [0, 1]])
    # Horner on a cyclotomic matrix
    f6 = FieldTag.cyclotomic(6)
    B = Matrix.diag([f6.omega(1)], f6)
    g = Poly.make([0, 0, 1], f6)
    assert eval_at_matrix(g, B) == Matrix.diag([f6.omega(2)], f6)


@settings(max_examples=40)
@given(small_polys, small_polys)
def test_eval_is_ring_hom(f, g):
    A = mat([[1, 2], [0, 3]])
    lhs = eval_at_matrix(f * g, A)
    rhs = eval_at_matrix(f, A) * eval_at_matrix(g, A)
    assert lhs == rhs
    assert eval_at_matrix(f + g, A) == eval_at_matrix(f, A) + eval_at_matrix(g, A)


def test_eval_at_matrix_costs_one_product_per_degree(monkeypatch):
    A = mat([[1, 2], [Fraction(1, 2), -1]])
    powers = [reference_power(A, e) for e in range(5)]
    products = count_products(monkeypatch)
    for coeffs in ([5], [1, 2], [0, 0, 3], [1, -1, 0, 2], [0, 0, 0, 0, Fraction(1, 7)]):
        f = poly(coeffs)
        expected = Matrix.zero(2, 2, QQ)
        for e, c in enumerate(f.coeffs):
            expected = expected + powers[e].scale(c)
        products[0] = 0
        assert eval_at_matrix(f, A) == expected
        assert products[0] == f.degree
    products[0] = 0
    assert eval_at_matrix(Poly.zero(QQ), A) == Matrix.zero(2, 2, QQ)
    assert products[0] == 0


def _reference_horner(f, A):
    """Plain Horner: result <- result * A + c * I, with the textbook
    product and an entrywise identity term."""
    n = A.rows
    result = Matrix.zero(n, n, A.field)
    for c in reversed(f.coeffs):
        result = reference_product(result, A)
        result = Matrix(A.field, n, n, tuple(
            x + c if i % (n + 1) == 0 else x for i, x in enumerate(result.entries)))
    return result


def test_eval_at_matrix_matches_reference_horner():
    f5 = FieldTag.cyclotomic(5)
    z = f5.omega()
    cases = [
        (mat([[1, 2, 0], [Fraction(1, 2), -1, 3], [0, 4, Fraction(-2, 3)]]),
         [[], [7], [0], [Fraction(-3, 4), 0, 2], [1, -2, 0, 0, Fraction(1, 5)]]),
        (Matrix.make([[z, 1, 0], [0, z * z, -z], [2, 0, 1]], f5),
         [[], [z], [0, 0, 1], [1, z, 0, z ** 3], [Fraction(1, 2), 0, z + 1]]),
    ]
    for A, coeff_lists in cases:
        for coeffs in coeff_lists:
            f = Poly.make(coeffs, A.field)
            assert eval_at_matrix(f, A) == _reference_horner(f, A), coeffs


def test_eval_at_matrix_adds_constants_on_the_diagonal(monkeypatch):
    # each Horner step touches n diagonal entries, never a full n x n
    # scaled identity or matrix sum
    calls = []

    def counting(name):
        plain = getattr(Matrix, name)

        def wrapper(self, other):
            calls.append(name)
            return plain(self, other)

        return wrapper

    for name in ("scale", "__add__"):
        monkeypatch.setattr(Matrix, name, counting(name))
    A = mat([[1, 2], [3, 4]])
    for coeffs in ([5], [1, 2], [3, 0, -1, 2]):
        eval_at_matrix(poly(coeffs), A)
    eval_at_matrix(Poly.make([1, 1], FieldTag.cyclotomic(5)), A.promote(5))
    assert calls == []


@st.composite
def non_monic_pairs(draw):
    """(f, g) over Q or Q(zeta_5) with g's leading coefficient not 1."""
    field = draw(st.sampled_from((QQ, FieldTag.cyclotomic(5))))
    fractions = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    coefficient = fractions if field is QQ else st.lists(fractions, min_size=1, max_size=4).map(field.coerce)
    f = Poly.make(draw(st.lists(coefficient, max_size=7)), field)
    g = Poly.make(draw(st.lists(coefficient, min_size=1, max_size=4)), field)
    if g.is_zero or g.is_monic:
        lead = field.coerce(2) if field is QQ else field.coerce([1, -1, 0, 3])
        g = Poly.make(list(g.coeffs) + [lead], field)
    return f, g


@settings(max_examples=60, deadline=None)
@given(non_monic_pairs())
def test_divmod_and_monic_equal_per_coefficient_division(case):
    f, g = case
    q, r = divmod(f, g)
    assert (q, r) == reference_divmod(f, g)
    assert q * g + r == f
    assert g.monic() == reference_monic(g) and g.monic().is_monic
    if not f.is_zero:
        assert f.monic() == reference_monic(f)


def test_divmod_and_monic_invert_the_leading_coefficient_once(monkeypatch):
    # every inverse or division in Q(zeta_q) forms the conjugate product once
    from commutants import scalars
    field = FieldTag.cyclotomic(5)
    g = Poly.make([1, [0, 1], [2, 0, -1], [1, 1]], field)
    f = g * Poly.make([[3, 1], 0, [1, 0, 0, 2], 5], field) + Poly.make([[1, 2], 7], field)
    count = [0]
    plain = scalars._conjugates

    def counting(a, q):
        count[0] += 1
        return plain(a, q)

    monkeypatch.setattr(scalars, "_conjugates", counting)
    for call in (lambda: divmod(f, g), g.monic):
        count[0] = 0
        call()
        assert count[0] == 1
    h = g.monic()
    count[0] = 0
    divmod(f, h)  # a monic divisor needs no inverse
    assert count[0] == 0


# Q and conductors with phi = 2, 4 and 4, Phi_12 = x^4 - x^2 + 1 having a
# zero coefficient
SHARED_FIELDS = (QQ, FieldTag.cyclotomic(3), FieldTag.cyclotomic(5), FieldTag.cyclotomic(12))


@st.composite
def poly_triples(draw):
    """(f, g, h) over one field: f and g any, zero included, and h a
    nonzero divisor, often constant or non-monic, often longer than f."""
    field = draw(st.sampled_from(SHARED_FIELDS))
    fractions = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    coefficient = fractions if field is QQ else st.one_of(fractions, st.lists(fractions, min_size=1, max_size=5))
    f, g = (Poly.make(draw(st.lists(coefficient, max_size=5)), field) for _ in "fg")
    h = draw(st.lists(coefficient, max_size=4))
    leads = (1, 2, Fraction(-1, 3)) if field is QQ else (1, 2, [0, 1], [Fraction(1, 2), 0, -1])
    h = Poly.make(h + [draw(st.sampled_from(leads))], field)
    return f, g, h


@settings(max_examples=120, deadline=None)
@given(poly_triples())
def test_shared_routines_equal_the_references(case):
    # products on `_convolve`, division on `_divmod_monic` and powers on
    # `_binary_power` equal the loop references, coefficient types too
    f, g, h = case
    kind = type(f.field.one())
    for a, b in ((f, g), (g, f), (f, h), (f, f)):
        got = a * b
        assert got == schoolbook_mul(a, b)
        assert all(type(c) is kind for c in got.coeffs)
    for a in (f, g, f * h):
        quo, rem = divmod(a, h)
        assert (quo, rem) == one_inverse_divmod(a, h)
        assert quo * h + rem == a and rem.degree < h.degree
        assert all(type(c) is kind for c in quo.coeffs + rem.coeffs)
    base = Poly.make(f.coeffs[:3], f.field)
    for k in range(10):
        got = base ** k
        assert got == from_one_pow(base, k), k
        assert all(type(c) is kind for c in got.coeffs)
