import random
from fractions import Fraction
from math import prod
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commutants import (
    CycloScalar,
    DegreeZero,
    FieldTag,
    Matrix,
    NotMonic,
    Poly,
    QQ,
    StructureReport,
    balanced_split,
    char_poly,
    companion,
    double_cover,
    invariant_factors,
    is_balanced_matrix,
    min_poly,
    eval_at_matrix,
    poly_gcd,
)
from helpers import (
    conjugated,
    count_products,
    mat,
    minors_gcd_invariant_factors,
    poly,
    random_jordan_matrix,
    random_rational_matrix,
    reference_char_poly,
    reference_min_poly,
    seeds,
    sympy_charpoly,
    sympy_invariant_factors,
)


def test_char_poly_matches_sympy():
    for seed in range(25):
        n = 1 + seed % 5
        A = random_rational_matrix(seed, n)
        assert char_poly(A) == sympy_charpoly(A) == reference_char_poly(A), seed


def test_char_poly_cyclotomic():
    A = Matrix.jordan(2, 0, QQ).promote(3)
    f = char_poly(A)
    assert f == Poly.monomial(2, 1, A.field) == reference_char_poly(A)
    assert min_poly(A) == reference_min_poly(A)


def test_min_poly_properties():
    for seed in range(20):
        n = 1 + seed % 5
        A = random_jordan_matrix(seed, n)
        m = min_poly(A)
        c = char_poly(A)
        assert m == reference_min_poly(A), seed
        assert c == reference_char_poly(A) == sympy_charpoly(A), seed
        assert m.is_monic
        assert eval_at_matrix(m, A).is_zero()
        assert (c % m).is_zero
        # minimality: no maximal proper divisor annihilates
        last = invariant_factors(A)[-1]
        assert m == last


def test_min_poly_goldens():
    goldens = [
        (Matrix.identity(3, QQ), poly([-1, 1])),
        (Matrix.jordan(4, 0, QQ), poly([0, 0, 0, 0, 1])),
        # (x-1)^2 (x+1)
        (Matrix.block_diag([Matrix.jordan(2, 1, QQ), Matrix.diag([-1, -1], QQ)]), poly([1, -1, -1, 1])),
    ]
    for A, m in goldens:
        assert min_poly(A) == reference_min_poly(A) == m


def test_char_poly_multiplies_no_identity(monkeypatch):
    # read off the split: Krylov steps and Horner passes on fewer than n
    # columns, the seeded draws' rejections included, and the two n x n
    # products of the A*P = P*F check, which has no identity factor
    A = random_jordan_matrix(4, 5)
    expected = sympy_charpoly(A)
    shapes = []
    products = count_products(monkeypatch, shapes)
    assert char_poly(A) == expected
    assert products[0] <= 5 * A.rows
    assert sum(cols == A.rows for _, _, cols in shapes) == 2


def test_min_poly_multiplies_no_identity(monkeypatch):
    # the split's first step alone: no n x n product at all
    A = random_jordan_matrix(4, 5)
    expected = reference_min_poly(A)
    shapes = []
    products = count_products(monkeypatch, shapes)
    assert min_poly(A) == expected
    assert products[0] <= 5 * A.rows
    assert all(cols < A.rows for _, _, cols in shapes)


def test_invariant_factors_match_sympy_snf():
    for seed in range(18):
        n = 1 + seed % 5
        A = random_jordan_matrix(1000 + seed, n)
        ours = invariant_factors(A)
        oracle = sympy_invariant_factors(A)
        assert list(ours) == oracle, seed
    # a few dense random (usually cyclic) matrices too
    for seed in range(8):
        A = random_rational_matrix(2000 + seed, 1 + seed % 4)
        assert list(invariant_factors(A)) == sympy_invariant_factors(A)


def test_invariant_factors_match_minors_gcd():
    cases = [
        Matrix.jordan(3, 0, QQ),
        Matrix.block_diag([Matrix.jordan(2, 1, QQ), Matrix.jordan(2, 1, QQ)]),
        Matrix.diag([1, 1, 2], QQ),
        mat([[0, -1], [1, 0]]),
    ]
    for A in cases:
        assert list(invariant_factors(A)) == minors_gcd_invariant_factors(A)


def _divisibility_chain_inputs():
    for seed in range(12):
        yield random_jordan_matrix(3000 + seed, 1 + seed % 6)
    # n = 13 and 16: random, and the derogatory B + B (+ 1)
    for n in (13, 16):
        B = random_rational_matrix(6100, n // 2, 3)
        yield random_rational_matrix(6000, n, 3)
        yield random_rational_matrix(6001, n, 3)
        yield Matrix.block_diag([B, B] + [Matrix.identity(n % 2, QQ)] * (n % 2))


def test_invariant_factors_divisibility_chain():
    for A in _divisibility_chain_inputs():
        fs = invariant_factors(A)
        assert len(fs) == A.rows and all(f.is_monic for f in fs)
        for prev, nxt in zip(fs, fs[1:]):
            assert (nxt % prev).is_zero, A
        assert prod(fs, start=Poly.one(QQ)) == char_poly(A) == reference_char_poly(A)
        assert fs[-1] == min_poly(A) == reference_min_poly(A)


def test_invariant_factors_survive_rejected_draws(monkeypatch):
    # A = P^-1 D P with D = J_2(1) + (1) + (2), so m_A = (x-1)^2 (x-2).
    # In D's coordinates the scripted draws are: v = e0 + e3, whose
    # Krylov polynomial (x-1)(x-2) is a proper divisor of m_A; then
    # v = e1 + e3; then w = e2, orthogonal to the whole Krylov space of
    # v (a zero Hankel matrix); then w = (1, 1, 1, 1).
    import commutants.canonical as canonical
    D = Matrix.block_diag([Matrix.jordan(2, 1, QQ), Matrix.diag([1, 2], QQ)])
    P = mat([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [0, 0, 0, 1]])
    Pinv = P.inverse()
    A = Pinv * D * P
    # v is drawn as P^-1 v_D; w, a column too, as (w_D^T P)^T = P^T w_D
    v_draws = [Pinv * mat([[x] for x in v]) for v in ([1, 0, 0, 1], [0, 1, 0, 1])]
    w_draws = [P.transpose() * mat([[x] for x in w]) for w in ([0, 0, 1, 0], [1, 1, 1, 1])]
    script = [int(x) for M in v_draws + w_draws for x in M.entries]

    class ScriptedRandom(random.Random):
        def randint(self, a, b):
            return script.pop(0) if script else super().randint(a, b)

    annihilates, hankel_ranks, shapes = [], [], []
    plain_check, plain_rref = canonical._annihilates, canonical._rref_core

    def check_spy(f, M, krylov):
        out = plain_check(f, M, krylov)
        annihilates.append(out)
        return out

    def rref_spy(ints, width, q):
        out = plain_rref(ints, width, q)
        shapes.append((len(ints), width))
        # the Hankel matrices are the square ones
        if len(ints) == width:
            hankel_ranks.append((len(out[1]), width))
        return out

    monkeypatch.setattr(canonical, "random", SimpleNamespace(Random=ScriptedRandom))
    monkeypatch.setattr(canonical, "_annihilates", check_spy)
    monkeypatch.setattr(canonical, "_rref_core", rref_spy)
    got = invariant_factors(A)
    assert not script
    assert annihilates[:2] == [False, True]
    assert hankel_ranks[0][0] < hankel_ranks[0][1] == 3 == hankel_ranks[1][0]
    # the annihilation check reads the Krylov pivots off the dependency
    # search and the complement's kernel goes through matrices._kernel,
    # so the Hankel tests are the split's only direct eliminations
    assert len(shapes) == len(hankel_ranks) == 2
    assert got == (Poly.one(QQ), Poly.one(QQ), poly([-1, 1]), poly([-2, 5, -4, 1]))
    assert list(got) == sympy_invariant_factors(A)


@st.composite
def derogatory_jordan_sum(draw):
    """(R, A): R a conjugated direct sum of rational Jordan blocks in
    which the first eigenvalue has two blocks, so the split reaches the
    Hankel complement, and A either R or R over Q(zeta_3) conjugated
    again by a unit upper triangular S with zeta_3 entries; A has R's
    invariant factors."""
    eigen = draw(st.lists(st.integers(-2, 2), min_size=1, max_size=3))
    sizes = draw(st.lists(st.integers(1, 3), min_size=len(eigen) + 1, max_size=len(eigen) + 1))
    R = conjugated(Matrix.block_diag([Matrix.jordan(k, lam, QQ) for k, lam in zip(sizes, eigen + eigen[:1])]), draw(seeds))
    if draw(st.booleans()):
        return R, R
    field, z, n = FieldTag.cyclotomic(3), CycloScalar.zeta(3), R.rows
    upper = draw(st.lists(st.integers(-2, 2), min_size=n * n, max_size=n * n))
    S = Matrix(field, n, n, tuple(field.one() if i == j else upper[i * n + j] * z if j > i else field.zero() for i in range(n) for j in range(n)))
    return R, S.inverse() * R.promote(3) * S


@settings(max_examples=30, deadline=None)
@given(derogatory_jordan_sum())
def test_frobenius_split_matches_sympy_and_its_P_is_checked_in_field_arithmetic(case):
    import commutants.canonical as canonical
    from commutants.matrices import _entries, _lift
    R, A = case
    factors, Pl = canonical._frobenius(_lift(A))
    assert list(factors) == [Poly.make(f.coeffs, A.field) for f in sympy_invariant_factors(R) if f.degree >= 1]
    assert len(factors) >= 2
    P = Matrix(A.field, A.rows, A.rows, _entries(Pl))
    F = Matrix.block_diag([companion(f) for f in factors])
    assert A * P == P * F
    assert P.det() != 0


def test_cyclic_vector_stops_at_the_first_krylov_dependency(monkeypatch):
    # conjugated J_3(0) + J_3(0) + J_2(0), m = 8, m_A = x^3: each draw
    # costs deg m_v Krylov products, not the m that m + 1 columns took
    import commutants.canonical as canonical
    N = Matrix.block_diag([Matrix.jordan(3, 0, QQ), Matrix.jordan(3, 0, QQ), Matrix.jordan(2, 0, QQ)])
    A = conjugated(N, 5)
    products = count_products(monkeypatch)
    plain = canonical._annihilates
    draws = []

    def spy(f, M, krylov):
        draws.append((f.degree, products[0]))
        out = plain(f, M, krylov)
        draws.append((None, products[0]))
        return out

    monkeypatch.setattr(canonical, "_annihilates", spy)
    f, krylov, echelon = canonical._cyclic_vector(canonical._lift(A), canonical._Draws())
    assert f == poly([0, 0, 0, 1]) and len(krylov) == len(echelon) == 3
    steps = [(deg, after - before) for (_, before), (deg, after) in zip([(None, 0)] + draws[1::2], draws[0::2])]
    assert steps and all(cost == deg for deg, cost in steps)
    assert steps[-1] == (3, 3)


def test_cyclic_input_check_makes_no_product(monkeypatch):
    # m_v(C) = 0 is tested only off the Krylov span of v, which is the
    # whole space for an accepted v of a companion matrix
    import commutants.canonical as canonical
    f = poly([2, -3, 0, 1, 5, -1, 1])
    products = count_products(monkeypatch)
    plain = canonical._annihilates
    checks = []

    def spy(g, M, krylov):
        before = products[0]
        out = plain(g, M, krylov)
        checks.append((g.degree, out, products[0] - before))
        return out

    monkeypatch.setattr(canonical, "_annihilates", spy)
    assert invariant_factors(companion(f))[-1] == f
    assert checks[-1] == (6, True, 0)


_small = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3]))


@st.composite
def krylov_inputs(draw):
    """(M, v, c, t) over Q, Q(zeta_3) or Q(zeta_5): M n x n, n <= 4 (1 x 1
    drawn often), random with some zero rows and columns, scalar, or a
    conjugated nilpotent; v an n x 1 column, often zero; c coefficients
    for a target c(M) v; t a random n x 1 column.  Cyclotomic entries mix
    powers of zeta, so the echelon pivots are rarely rational."""
    q = draw(st.sampled_from((None, 3, 5)))
    field = QQ if q is None else FieldTag.cyclotomic(q)
    entry = _small if q is None else st.one_of(_small, st.lists(_small, min_size=2, max_size=q - 1))
    n = draw(st.sampled_from((1, 1, 2, 3, 4)))
    kind = draw(st.sampled_from(("random", "scalar", "nilpotent")))
    if kind == "random":
        zero = draw(st.sets(st.integers(0, n - 1)))
        M = Matrix.make([[0 if i in zero else draw(entry) for j in range(n)] for i in range(n)], field)
    elif kind == "scalar":
        M = Matrix.identity(n, field).scale(field.coerce(draw(_small)))
    else:
        M = conjugated(Matrix.jordan(n, 0, field), draw(seeds))
    v = Matrix.make([[0 if draw(st.booleans()) and draw(st.booleans()) else draw(entry)] for _ in range(n)], field)
    c = [field.coerce(draw(_small)) for _ in range(n)]
    t = Matrix.make([[draw(entry)] for _ in range(n)], field)
    return M, v, c, t


@settings(max_examples=120, deadline=None)
@given(krylov_inputs())
def test_in_span_reads_the_rref_oracles_krylov_coordinates(case):
    # u = c(M) v for deg c < k gives c back exactly; any other target is
    # read against the oracle's RREF of [v, Mv, ..., M^(k-1) v | t]: None
    # when t is a pivot column, else the coordinates at the pivots.  A
    # read outside the span appends to the echelon, so each reads a copy
    import commutants.canonical as canonical
    from commutants.matrices import _in_span, _lift
    from helpers import hstack, reference_rref
    M, v, c, t = case
    field, n = M.field, M.rows
    f, krylov, echelon, _ = canonical._krylov_dependency(_lift(M), _lift(v).common())
    k = len(echelon)
    assert k == len(krylov) == f.degree
    powers = [v]
    for _ in range(k):
        powers.append(M * powers[-1])
    K = Matrix(field, n, k, tuple(x for i in range(n) for x in (P.at(i, 0) for P in powers[:k])))
    assert reference_rref(K)[1] == tuple(range(k))

    def read(u):
        c = _in_span(list(echelon), _lift(u).common())
        return None if c is None else Poly.make(c, field)

    target = Matrix.zero(n, 1, field)
    for ci, P in zip(c[:k], powers):
        target = target + P.scale(ci)
    assert read(target) == Poly.make(c[:k], field)
    units = [Matrix(field, n, 1, tuple(field.one() if i == j else field.zero() for i in range(n))) for j in range(n)]
    outside = 0
    for u in [t, powers[k]] + units:
        reduced, pivots = reference_rref(hstack(K, u))
        if k in pivots:
            expected, outside = None, outside + 1
        else:
            expected = Poly.make([reduced.at(i, k) for i in range(k)], field)
        assert read(u) == expected
    assert outside >= n - k


def test_annihilates_rejects_a_proper_divisor_of_the_minimal_polynomial():
    # M = J_3(0) + J_1(0), m_M = x^3.  v = e_1 has m_v = x^2 with Krylov
    # rows e_1, e_0 (pivots 0, 1), but x^2 does not kill e_2: M^2 e_2 = e_0
    import commutants.canonical as canonical
    from commutants.matrices import _lift
    for field in (QQ, FieldTag.cyclotomic(3)):
        M = Matrix.block_diag([Matrix.jordan(3, 0, field), Matrix.jordan(1, 0, field)])
        Ml = _lift(M).common()
        assert canonical._annihilates(Poly.monomial(2, 1, field), Ml, [0, 1]) is False
        # v = e_2 gives x^3 with pivots 0, 1, 2, and x^3 kills e_3 too
        assert canonical._annihilates(Poly.monomial(3, 1, field), Ml, [0, 1, 2]) is True
        # conjugated, the same divisor is still rejected on every unit vector
        C = conjugated(M, 3)
        assert canonical._annihilates(Poly.monomial(2, 1, field), _lift(C).common(), []) is False
        assert canonical._annihilates(Poly.monomial(3, 1, field), _lift(C).common(), []) is True


def test_companion_goldens():
    assert companion(poly([1, 0, 1])) == mat([[0, -1], [1, 0]])
    f = poly([2, -3, 0, 1])
    C = companion(f)
    assert char_poly(C) == reference_char_poly(C) == f
    assert min_poly(C) == reference_min_poly(C) == f
    with pytest.raises(NotMonic):
        companion(poly([1, 2]))
    with pytest.raises(DegreeZero):
        companion(poly([5]))


def test_balanced_matrix_examples():
    assert is_balanced_matrix(Matrix.jordan(4, 0, QQ))
    assert is_balanced_matrix(Matrix.diag([1, -1], QQ))
    assert is_balanced_matrix(mat([[0, 2], [3, 0]]))
    assert not is_balanced_matrix(Matrix.identity(2, QQ))
    # J_3(a) + (-J_4(a)) with a != 0: spectra are paired but block sizes
    # break the symmetry
    a = Fraction(2)
    A = Matrix.block_diag([Matrix.jordan(3, a, QQ), Matrix.jordan(4, -a, QQ).scale(1)])
    assert not is_balanced_matrix(A)
    B = Matrix.block_diag([Matrix.jordan(3, a, QQ), Matrix.jordan(3, -a, QQ)])
    assert is_balanced_matrix(B)


def test_balanced_iff_similar_to_negative():
    # invariant-factor criterion agrees with the similarity criterion
    for seed in range(15):
        A = random_jordan_matrix(4000 + seed, 1 + seed % 5)
        same = invariant_factors(A) == invariant_factors(A.scale(-1))
        assert is_balanced_matrix(A) == same, seed


def test_balanced_split_golden():
    D = Matrix.diag([1, -1, 2], QQ)
    E, R = balanced_split(D)
    assert E == Matrix.diag([1, -1, 0], QQ)
    assert R == Matrix.diag([0, 0, 2], QQ)
    assert E + R == D


def test_balanced_split_edge_cases():
    # fully balanced input: everything is essential
    A = Matrix.jordan(3, 0, QQ)
    E, R = balanced_split(A)
    assert E == A and R.is_zero()
    B = Matrix.diag([1, -1], QQ)
    E, R = balanced_split(B)
    assert E == B and R.is_zero()
    # no balanced part at all
    C = Matrix.diag([1, 2], QQ)
    E, R = balanced_split(C)
    assert E.is_zero() and R == C


def test_balanced_split_properties():
    for seed in range(12):
        A = random_jordan_matrix(5000 + seed, 1 + seed % 5)
        E, R = balanced_split(A)
        assert E + R == A
        assert E * R == R * E  # both are polynomials in A
        # the essential part is all essential: re-splitting moves nothing
        E2, R2 = balanced_split(E)
        assert E2 == E and R2.is_zero()
        # the remainder's only paired spectrum is the 0 from its padding:
        # gcd(m_R(x), m_R(-x)) is 1 or x
        mR = min_poly(R)
        d = poly_gcd(mR, mR.reflect())
        assert d.degree <= 1
        if d.degree == 1:
            assert d == Poly.x(QQ)


def test_double_cover_always_balanced():
    for seed in range(10):
        A = random_rational_matrix(seed, 1 + seed % 4)
        assert is_balanced_matrix(double_cover(A))


def _assert_report_matches_routines(A):
    rep = StructureReport.of(A)
    p = char_poly(A)
    m = min_poly(A)
    assert p == reference_char_poly(A) and m == reference_min_poly(A)
    assert rep.n == A.rows and rep.field == A.field
    assert rep.char_poly == p
    assert rep.min_poly == m
    assert rep.invariant_factors == invariant_factors(A)
    assert rep.is_balanced == is_balanced_matrix(A)
    assert rep.is_nilpotent == (p == Poly.monomial(A.rows, 1, A.field))
    assert rep.min_equals_char == (m == p)


def test_structure_report():
    A = Matrix.jordan(3, 0, QQ)
    rep = StructureReport.of(A)
    assert rep.n == 3
    assert rep.is_nilpotent and rep.is_balanced and rep.min_equals_char
    B = Matrix.identity(2, QQ)
    repb = StructureReport.of(B)
    assert not repb.is_nilpotent and not repb.min_equals_char
    # every derived field agrees with the standalone routine
    for seed in range(12):
        _assert_report_matches_routines(random_rational_matrix(seed, 1 + seed % 6))
        _assert_report_matches_routines(random_jordan_matrix(seed, 1 + seed % 6))
    F = FieldTag.cyclotomic(3)
    z = CycloScalar.zeta(3)
    C = Matrix.make([[z, 1, 0], [0, z, 0], [0, 0, -z]], F)
    _assert_report_matches_routines(C)
    _assert_report_matches_routines(C * C - C.scale(z))


def test_every_public_function_takes_the_0x0_matrix():
    # the split of a 0 x 0 matrix has no factors: the empty answers hold,
    # and an answer with no meaning at n = 0 is a ShapeMismatch
    from commutants import (
        CongruenceClass,
        OmegaSpec,
        ShapeMismatch,
        ad_inclusion_check,
        ad_power_kernel,
        ann_k_member,
        centralizer_basis,
        clifforder_basis,
        clifforder_has_invertible,
        commutant_operator,
        double_centralizer_basis,
        equivalence_certificate,
        express_in_powers,
        omega_centralizer_basis,
        omega_commutes,
        omega_equivalence_check,
    )

    w, one = OmegaSpec(3), Poly.one(QQ)
    for Z in (Matrix.identity(0, QQ), Matrix.zero(0, 0, QQ)):
        assert char_poly(Z) == min_poly(Z) == reference_char_poly(Z) == reference_min_poly(Z) == one
        assert invariant_factors(Z) == ()
        assert is_balanced_matrix(Z) and clifforder_has_invertible(Z)
        assert StructureReport.of(Z) == StructureReport(0, QQ, one, one, (), True, True, True)
        for S in (
            centralizer_basis(Z),
            clifforder_basis(Z),
            omega_centralizer_basis(Z, w),
            double_centralizer_basis(Z),
            ad_power_kernel(Z, 2),
        ):
            assert (S.ambient_n, S.dim, S.rref_rows) == (0, 0, ())
        assert balanced_split(Z) == (Z, Z) and double_cover(Z) == Z
        assert commutant_operator(Z, 1) == Z and eval_at_matrix(poly([1, 1]), Z) == Z
        assert ann_k_member(Z, Z, 1) and omega_commutes(Z, Z, w)
        for call in (
            lambda: express_in_powers(Z, Z),
            lambda: equivalence_certificate(Z, Z, CongruenceClass.odd()),
            lambda: omega_equivalence_check(Z, Z, w),
            lambda: ad_inclusion_check(Z, poly([0, 1]), 1),
        ):
            with pytest.raises(ShapeMismatch, match="^matrix size must be positive$"):
                call()
