from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commutants import (
    BadDimensions,
    CycloScalar,
    FieldMismatch,
    FieldTag,
    Matrix,
    NotNilpotent,
    OmegaSpec,
    PairInvariantViolated,
    QQ,
    QuasiPair,
    ShapeMismatch,
    eval_at_matrix,
    omega_centralizer_basis,
    omega_commutes,
    omega_equivalence_check,
    potter_check,
    random_invertible_probe,
    subspace_equal,
    verify_certificate,
    weyl_pair,
)
from commutants.matrices import _entries
from helpers import (
    conjugated,
    mat,
    poly,
    random_rational_matrix,
    reference_commutant_basis,
    reference_omega_commutes,
)


def clock_shift_3():
    w = OmegaSpec(3, 1)
    z = w.omega()
    D = Matrix.diag([z ** 0, z, z ** 2], w.field)
    S = Matrix.make([[0, 0, 1], [1, 0, 0], [0, 1, 0]], w.field)
    return D, S, w


def test_omega_commutes_goldens():
    D, S, w = clock_shift_3()
    assert omega_commutes(D, S, w)
    # anti-commuting swap
    A = Matrix.diag([1, -1], QQ)
    B = mat([[0, 1], [1, 0]])
    assert omega_commutes(A, B, OmegaSpec(2, 1))
    # identity pair only omega-commutes for omega = 1
    I2 = Matrix.identity(2, QQ)
    assert omega_commutes(I2, I2, OmegaSpec(1, 0))
    assert not omega_commutes(I2, I2, OmegaSpec(3, 1))


def test_quasi_pair_invariant():
    D, S, w = clock_shift_3()
    pair = QuasiPair.of(D, S, w)
    assert pair.A == D.promote(3)
    with pytest.raises(PairInvariantViolated):
        QuasiPair.of(D, D, w)


def test_potter_check_goldens():
    D, S, w = clock_shift_3()
    pair = QuasiPair.of(D, S, w)
    one = Fraction(1)
    assert potter_check(pair, one, one)
    # (D + S)^3 = D^3 + S^3 = 2I exactly
    T = pair.A + pair.B
    assert T ** 3 == Matrix.identity(3, w.field).scale(2)
    # degenerate scalings
    assert potter_check(pair, Fraction(0), Fraction(7))
    assert potter_check(pair, Fraction(5, 3), Fraction(0))
    # cyclotomic scalars allowed
    assert potter_check(pair, w.omega(), w.omega() ** 2 - 1)


def test_potter_q2_swap():
    A = Matrix.diag([1, -1], QQ).promote(2)
    B = mat([[0, 1], [1, 0]]).promote(2)
    pair = QuasiPair(A, B, OmegaSpec(2, 1))
    assert (A + B) ** 2 == Matrix.identity(2, A.field).scale(2)
    assert potter_check(pair, Fraction(3), Fraction(-2))


def test_potter_fails_for_commuting_pair_with_wrong_omega():
    # a pair that plainly violates AB = omega BA is rejected on
    # construction, so potter_check is unreachable for it
    with pytest.raises(PairInvariantViolated):
        QuasiPair(Matrix.identity(2, QQ).promote(3),
                  Matrix.identity(2, QQ).promote(3),
                  OmegaSpec(3, 1))


def test_weyl_pair_shapes_and_identity():
    for q in (1, 2, 3, 4, 5, 7, 8, 9, 12):
        pair = weyl_pair(q, q)
        assert pair.A.rows == q
        assert omega_commutes(pair.A, pair.B, pair.omega)
        assert potter_check(pair, Fraction(2), Fraction(-3))
    big = weyl_pair(3, 9)
    assert big.A.rows == 9
    assert potter_check(big, Fraction(1, 2), Fraction(5))
    with pytest.raises(BadDimensions):
        weyl_pair(3, 7)
    with pytest.raises(BadDimensions):
        weyl_pair(2, 0)


def test_weyl_q4_clock():
    pair = weyl_pair(4, 4)
    z = pair.omega.omega()
    assert pair.A == Matrix.diag([1, z, z ** 2, z ** 3], pair.omega.field)
    assert (pair.A * pair.B) == (pair.B * pair.A).scale(z)


def test_omega_equivalence_positive():
    A = Matrix.jordan(5, 0, QQ)
    w = OmegaSpec(3, 1)
    B = eval_at_matrix(poly([0, 4, 0, 0, -3]), A)  # 4A - 3A^4
    rep = omega_equivalence_check(A, B, w)
    assert rep.centralizers_equal
    assert rep.certificate is not None
    assert rep.agree
    assert rep.certificate.cls.q == 3


def test_omega_equivalence_negative():
    A = Matrix.jordan(5, 0, QQ)
    w = OmegaSpec(3, 1)
    B = A * A
    rep = omega_equivalence_check(A, B, w)
    assert not rep.centralizers_equal
    assert rep.certificate is None
    assert rep.agree


def test_omega_equivalence_requires_nilpotent():
    w = OmegaSpec(3, 1)
    with pytest.raises(NotNilpotent):
        omega_equivalence_check(Matrix.identity(2, QQ), Matrix.identity(2, QQ), w)


def test_omega_equivalence_promotes_the_rational_side():
    # Q meets Q(zeta_3) either way round; the oracle is the Kronecker
    # kernel on the promoted pair, and c * J_5(0), c != 0, is the
    # certificate class's x times c
    w = OmegaSpec(3, 1)
    z = w.omega()
    J = Matrix.jordan(5, 0, QQ)
    for A, B, equivalent in (
        (J, J.promote(3).scale(z + 2), True),
        (J, (J * J).promote(3), False),
        (J.promote(3).scale(z + 2), J, True),
        (J.promote(3), J * J, False),
    ):
        rep = omega_equivalence_check(A, B, w)
        A3, B3 = (M if M.field == w.field else M.promote(3) for M in (A, B))
        oracle = subspace_equal(reference_commutant_basis(A3, z), reference_commutant_basis(B3, z))
        assert rep.centralizers_equal == oracle == equivalent
        assert (rep.certificate is not None) == equivalent and rep.agree
        if equivalent:
            assert verify_certificate(A3, B3, rep.certificate)


def test_omega_equivalence_refuses_two_cyclotomic_fields_and_unequal_sizes():
    w = OmegaSpec(3, 1)
    J = Matrix.jordan(3, 0, QQ)
    with pytest.raises(FieldMismatch, match=r"fields differ: Q\(zeta_3\) vs Q\(zeta_5\)"):
        omega_equivalence_check(J.promote(3), J.promote(5), w)
    with pytest.raises(ShapeMismatch, match="sizes differ: 3 vs 2"):
        omega_equivalence_check(J, Matrix.jordan(2, 0, QQ), w)


def test_nilpotency_is_read_off_min_poly_without_a_split(monkeypatch):
    # m_A = x^(deg m_A) decides nilpotency; a non-nilpotent A is refused
    # before any Frobenius split runs, even when x divides m_A
    from commutants import canonical, commutant

    def forbidden(*args):
        raise AssertionError("Frobenius split run for the nilpotency test")

    w = OmegaSpec(3, 1)
    z3 = w.field
    # built before the spy: `conjugated` tests its P with det, which
    # reads the split
    inputs = (
        Matrix.diag([0, 0, 1], QQ),
        Matrix.block_diag([Matrix.jordan(2, 0, QQ), mat([[Fraction(1, 2)]])]),
        conjugated(Matrix.block_diag([Matrix.jordan(3, 0, QQ), Matrix.jordan(1, 2, QQ)]), 7),
        Matrix.jordan(2, CycloScalar.zeta(3), z3),
    )
    for module in (canonical, commutant):
        monkeypatch.setattr(module, "_frobenius", forbidden)
    for A in inputs:
        with pytest.raises(NotNilpotent):
            omega_equivalence_check(A, A, w)


def test_small_jordan_certificate_is_monomial():
    # n <= q: equality of omega-centralizers forces B = cA, and the
    # certificate the solver returns is exactly the monomial c x
    w = OmegaSpec(3, 1)
    for n in (2, 3):
        A = Matrix.jordan(n, 0, QQ)
        B = A.scale(Fraction(5, 7))
        rep = omega_equivalence_check(A, B, w)
        assert rep.centralizers_equal and rep.certificate is not None
        f = rep.certificate.f
        assert f.degree == 1 and f.coeff(1) == Fraction(5, 7) and f.coeff(0) == 0


def test_nine_by_nine_probe_positive_and_broken():
    # blocks J_3(1), J_3(w), J_3(w^2): multiplying the spectrum by w
    # permutes equal-size blocks, so the w-centralizer has an invertible
    # element and the probe finds it
    w = OmegaSpec(3, 1)
    z = w.omega()
    field = w.field
    good = Matrix.block_diag([
        Matrix.jordan(3, field.one(), field),
        Matrix.jordan(3, z, field),
        Matrix.jordan(3, z * z, field),
    ])
    S = omega_centralizer_basis(good, w)
    witness = random_invertible_probe(S, trials=64, seed=0)
    assert witness is not None
    assert witness.det() != 0
    assert good * witness == (witness * good).scale(z)
    # one block size changed: sizes (4, 3, 2) break the permutation
    broken = Matrix.block_diag([
        Matrix.jordan(4, field.one(), field),
        Matrix.jordan(3, z, field),
        Matrix.jordan(2, z * z, field),
    ])
    Sb = omega_centralizer_basis(broken, w)
    assert random_invertible_probe(Sb, trials=200, seed=0) is None


def test_omega_centralizer_is_subspace():
    D, S, w = clock_shift_3()
    sub = omega_centralizer_basis(S, w)
    if sub.dim >= 2:
        X, Y = sub.basis[0], sub.basis[1]
        Z = X.scale(w.omega()) + Y.scale(3)
        assert S.promote(3) * Z == (Z * S.promote(3)).scale(w.omega())


def test_potter_check_powers_each_factor_once(monkeypatch):
    import commutants.potter as potter
    pair = weyl_pair(3, 12)
    bases = []
    plain = potter._power

    def spy(L, k):
        bases.append(Matrix(L.field, L.rows, L.cols, _entries(L)))
        return plain(L, k)

    monkeypatch.setattr(potter, "_power", spy)
    for s in range(1, 5):
        for t in range(1, 6):
            assert potter_check(pair, s, t)
    assert sum(M == pair.A for M in bases) == 1
    assert sum(M == pair.B for M in bases) == 1
    assert len(bases) == 20 + 2


def test_potter_check_false_branch():
    # J_2(0) and I do not satisfy AB = omega BA at q = 2, so the pair is
    # built past its invariant check: (J + I)^2 = 2J + I, but J^2 + I^2 = I
    pair = object.__new__(QuasiPair)
    for name, value in (("A", Matrix.jordan(2, 0, QQ)), ("B", Matrix.identity(2, QQ)), ("omega", OmegaSpec(2, 1))):
        object.__setattr__(pair, name, value)
    assert potter_check(pair, 1, 1) is False


def test_potter_check_rejects_a_corrupted_power():
    pair = weyl_pair(3, 6)
    AB, powers = pair._stacks
    ints = [row[:] for row in powers.ints]
    ints[0][0] += powers.dens[0]  # entry (0, 0) of A^q gains 1
    pair.__dict__["_stacks"] = (AB, powers._replace(ints=ints))
    assert potter_check(pair, 1, 1) is False
    assert potter_check(pair, Fraction(2, 3), w := CycloScalar.zeta(3)) is False
    # with s = 0 the corrupted A^q is scaled away
    assert potter_check(pair, 0, w) is True


def clock_shift(q: int, k: int, copies: int):
    """copies of diag(1, zeta^k, ..., zeta^(k(q-1))) and the cyclic shift
    e_i -> e_(i+1): DS = zeta^k * SD."""
    field, z = FieldTag.cyclotomic(q), CycloScalar.zeta(q, k)
    clock = Matrix.diag([z ** i for i in range(q)], field)
    shift = Matrix.make([[1 if (r - 1) % q == c else 0 for c in range(q)] for r in range(q)], field)
    return Matrix.block_diag([clock] * copies), Matrix.block_diag([shift] * copies)


def units(q: int) -> list[int]:
    return [k for k in range(q) if gcd(k, q) == 1]


def test_omega_commutes_on_every_root_of_unity():
    # each clock/shift pair holds for its own zeta^k only, and (for
    # q > 1, where the clock is not I) a perturbed shift breaks it
    for q in range(1, 7):
        for k in units(q):
            D, S = clock_shift(q, k, 2)
            for k2 in units(q):
                assert omega_commutes(D, S, OmegaSpec(q, k2)) == (k2 == k) == reference_omega_commutes(D, S, OmegaSpec(q, k2))
            if q == 1:
                continue
            bumped = Matrix(S.field, S.rows, S.cols, (S.entries[0] + 1,) + S.entries[1:])
            assert not omega_commutes(D, bumped, OmegaSpec(q, k))
            assert not reference_omega_commutes(D, bumped, OmegaSpec(q, k))


@st.composite
def quasi_inputs(draw):
    """(A, B, omega): a clock/shift pair for zeta^k' (k' = k or not),
    conjugated and scaled, possibly with one entry of B changed; or two
    random rational matrices; or a rational anticommuting pair."""
    q = draw(st.integers(1, 6))
    w = OmegaSpec(q, draw(st.sampled_from(units(q))))
    kind = draw(st.sampled_from(("pair", "perturbed", "rational", "anticommuting")))
    seed = draw(st.integers(0, 10 ** 6))
    if kind == "rational":
        n = draw(st.integers(1, 4))
        return random_rational_matrix(seed, n, 2), random_rational_matrix(seed + 1, n, 2), w
    if kind == "anticommuting":
        return Matrix.diag([1, -1], QQ), mat([[0, 1], [1, 0]]), w
    D, S = clock_shift(q, draw(st.sampled_from(units(q))), draw(st.integers(1, 2)))
    a, b = (w.field.coerce(draw(st.lists(st.integers(-3, 3), min_size=1, max_size=q))) for _ in range(2))
    A, B = conjugated(D, seed).scale(a), conjugated(S, seed).scale(b)
    if kind == "perturbed":
        i = draw(st.integers(0, len(B.entries) - 1))
        B = Matrix(B.field, B.rows, B.cols, B.entries[:i] + (B.entries[i] + w.omega(),) + B.entries[i + 1 :])
    return A, B, w


@settings(max_examples=120, deadline=None)
@given(quasi_inputs())
def test_omega_commutes_equals_the_matrix_oracle(case):
    A, B, w = case
    holds = reference_omega_commutes(A, B, w)
    assert omega_commutes(A, B, w) == holds
    # the pair's construction check decides the same relation
    if holds:
        QuasiPair.of(A, B, w)
    else:
        with pytest.raises(PairInvariantViolated):
            QuasiPair.of(A, B, w)
