from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commutants import adpower
from commutants import (
    AdOperator,
    BadExponent,
    CycloScalar,
    FieldTag,
    Matrix,
    NotSquare,
    Poly,
    QQ,
    ShapeMismatch,
    ad_inclusion_check,
    ad_power_kernel,
    ann_k_member,
    centralizer_basis,
    eval_at_matrix,
    kron,
    kernel_basis,
    subspace_equal,
    subspace_from_matrices,
    subspace_leq,
)
from helpers import (
    FORBIDDEN,
    binomial_ann_k_member,
    count_products,
    cyclo3_jordan,
    double_inputs,
    mat,
    nilpotent,
    partitions,
    poly,
    random_jordan_matrix,
    random_rational_matrix,
    reference_ad_power_kernel,
    rows_test,
    seeds,
)


def iterated_commutator(A, B, k):
    for _ in range(k):
        B = A * B - B * A
    return B


def test_operator_matches_commutator():
    A = random_rational_matrix(3, 3)
    op = AdOperator.of(A)
    X = random_rational_matrix(4, 3)
    got = op.op_matrix * Matrix(QQ, 9, 1, X.entries)
    assert tuple(got.entries) == (A * X - X * A).entries
    assert op.apply(X) == A * X - X * A


def test_kernel_k1_is_centralizer():
    for seed in range(6):
        A = random_jordan_matrix(seed, 2 + seed % 3)
        assert subspace_equal(ad_power_kernel(A, 1), centralizer_basis(A))


def test_j2_kernel_dims():
    J = Matrix.jordan(2, 0, QQ)
    assert ad_power_kernel(J, 1).dim == 2
    assert ad_power_kernel(J, 2).dim == 3
    assert ad_power_kernel(J, 3).dim == 4


def test_kernel_monotone_and_stabilizes():
    for seed in range(6):
        n = 2 + seed % 3
        A = random_jordan_matrix(40 + seed, n)
        dims = [ad_power_kernel(A, k).dim for k in range(1, n * n + 1)]
        assert dims == sorted(dims)
        for small, big in zip(range(1, 4), range(2, 5)):
            assert subspace_leq(ad_power_kernel(A, small), ad_power_kernel(A, big))
        # stabilized at n^2 at the latest
        assert dims[-1] == ad_power_kernel(A, n * n, max_power=n * n + 1).dim


def test_bad_exponent():
    J = Matrix.jordan(2, 0, QQ)
    with pytest.raises(BadExponent):
        ad_power_kernel(J, 0)
    with pytest.raises(BadExponent):
        ad_power_kernel(J, 17)
    assert ad_power_kernel(J, 17, max_power=20).dim == 4


def test_ann_k_member_against_recursion():
    for seed in range(8):
        n = 2 + seed % 2
        X = random_rational_matrix(70 + seed, n)
        B = random_rational_matrix(90 + seed, n)
        for k in (1, 2, 3):
            want = iterated_commutator(X, B, k).is_zero()
            assert ann_k_member(X, B, k) == want


def test_ann_k_goldens():
    # diagonal X and diagonal B always annihilate
    X = Matrix.diag([1, 2, 3], QQ)
    assert ann_k_member(X, Matrix.diag([5, -1, 7], QQ), 1)
    assert ann_k_member(X, Matrix.diag([5, -1, 7], QQ), 4)
    # K = diag(1..n) against A = J_n(0): AK - KA = A, so K is in Ker Ad_A^2
    for n in (2, 3, 4):
        A = Matrix.jordan(n, 0, QQ)
        K = Matrix.diag(list(range(1, n + 1)), QQ)
        assert A * K - K * A == A
        assert ann_k_member(A, K, 2)
        assert iterated_commutator(A, K, 2).is_zero()
    # off-diagonal entry survives: b_12 (1-2)^2 != 0
    X2 = Matrix.diag([1, 2], QQ)
    B2 = mat([[0, 1], [0, 0]])
    assert not ann_k_member(X2, B2, 2)


def test_ann_k_member_multiplies_no_identity(monkeypatch):
    # one packed chain: k - 1 commutator steps and the last two sides,
    # each a pair X*Y and Y*X, so 2k products
    X = random_rational_matrix(71, 3)
    B = random_rational_matrix(91, 3)
    expected = {k: iterated_commutator(X, B, k).is_zero() for k in (1, 2, 3, 4)}
    products = count_products(monkeypatch)
    for k in (1, 2, 3, 4):
        products[0] = 0
        assert ann_k_member(X, B, k) == expected[k]
        assert products[0] == 2 * k, k


def test_ann_k_member_of_the_empty_matrix():
    Z = Matrix.zero(0, 0, QQ)
    for k in (1, 2, 5):
        assert ann_k_member(Z, Z, k)
        assert ann_k_member(Z.promote(5), Z.promote(5), k)


@st.composite
def ann_k_cases(draw):
    """(X, B) over Q, Q(zeta_3), Q(zeta_5) or Q(zeta_12), n = 1..3: B
    arbitrary, a polynomial in X (killed for every k), or, for X = J_n(l),
    B = X + diag(0, c, 2c, ...), whose commutator with X is c*(X - l*I),
    killed from k = 2 on."""
    field = draw(st.sampled_from((QQ, FieldTag.cyclotomic(3), FieldTag.cyclotomic(5), FieldTag.cyclotomic(12))))
    n = draw(st.integers(1, 3))
    small = st.integers(-2, 2)
    entry = small if field is QQ else st.one_of(small, st.lists(small, min_size=1, max_size=4))
    square = lambda: Matrix.make([[draw(entry) for _ in range(n)] for _ in range(n)], field)
    kind = draw(st.sampled_from(("any", "polynomial", "jordan")))
    if kind == "jordan":
        X = Matrix.jordan(n, draw(entry), field)
        return X, Matrix.diag([draw(small) * i for i in range(n)], field) + X
    X = square()
    if kind == "polynomial":
        return X, eval_at_matrix(Poly.make([draw(entry) for _ in range(3)], field), X)
    return X, square()


@settings(max_examples=80, deadline=None)
@given(ann_k_cases())
def test_ann_k_member_equals_the_binomial_sum(case):
    X, B = case
    for k in range(1, 5):
        want = binomial_ann_k_member(X, B, k)
        assert want == iterated_commutator(X, B, k).is_zero()
        assert ann_k_member(X, B, k) == want, k


def test_ann_k_shape_errors():
    with pytest.raises(ShapeMismatch):
        ann_k_member(Matrix.identity(2, QQ), Matrix.identity(3, QQ), 1)
    with pytest.raises(BadExponent):
        ann_k_member(Matrix.identity(2, QQ), Matrix.identity(2, QQ), 0)


def test_ad_inclusion_trivial_and_derived():
    A = Matrix.jordan(3, 0, QQ)
    assert ad_inclusion_check(A, poly([0, 1]), 2)           # f = x
    assert ad_inclusion_check(A, poly([0, 1, 1]), 2)        # f = x + x^2
    D = Matrix.diag([1, 2], QQ)
    assert ad_inclusion_check(D, poly([4, -2, 5]), 1)


def test_ad_inclusion_holds_for_many_samples():
    for seed in range(10):
        A = random_jordan_matrix(600 + seed, 2 + seed % 3)
        f = poly([seed % 3, 1, (seed + 1) % 4, seed % 2])
        for k in (1, 2, 3):
            assert ad_inclusion_check(A, f, k), (seed, k)


def test_forcing_diagonal_annihilates_jordan():
    # D = diag(1, -2, 3, ...) satisfies the signless binomial identity
    # sum_i C(k,i) A^(k-i) D A^i = O for A = J_n(0), k >= 2
    from math import comb

    for n in range(2, 6):
        A = Matrix.jordan(n, 0, QQ)
        D = Matrix.diag([(-1) ** s * (s + 1) for s in range(n)], QQ)
        for k in (2, 3):
            acc = Matrix.zero(n, n, QQ)
            for i in range(k + 1):
                acc = acc + ((A ** (k - i)) * D * (A ** i)).scale(comb(k, i))
            assert acc.is_zero(), (n, k)


def test_forcing_kernel_is_trivial():
    # with the same D, the signless operator (L_D + R_D)^k kills only O,
    # because (d_s + d_t)^k is never zero
    for n in range(2, 6):
        D = Matrix.diag([(-1) ** s * (s + 1) for s in range(n)], QQ)
        ident = Matrix.identity(n, QQ)
        plus_op = kron(D, ident) + kron(ident, D.transpose())
        for k in (2, 3):
            assert not kernel_basis(plus_op ** k)
        # the entrywise factor: applying the operator to E_st scales it
        # by (d_s + d_t)^k
        for s in range(n):
            for t in range(n):
                E = Matrix.elem(n, s, t, QQ)
                out = D * E + E * D
                factor = D.at(s, s) + D.at(t, t)
                assert out == E.scale(factor)
                assert factor != 0


def test_equivalent_matrices_share_ad_kernels():
    # B = f(A) with f invertible on A's structure: kernels agree k = 1..4
    A = Matrix.jordan(3, 0, QQ)
    B = eval_at_matrix(poly([0, 2, 5]), A)  # 2A + 5A^2
    for k in range(1, 5):
        assert subspace_equal(ad_power_kernel(A, k), ad_power_kernel(B, k))


def test_diagonalizable_members_annihilate():
    # distinct eigenvalues, B = f(A) injective on spectrum: every kernel
    # basis element of Ad_A^k is an Ann_k(B) member
    A = Matrix.diag([1, 2, 5], QQ)
    B = eval_at_matrix(poly([1, 3]), A)  # injective affine map
    for k in (1, 2, 3):
        for X in ad_power_kernel(A, k).basis:
            assert ann_k_member(X, B, k), k


# ---------------------------------------- ad-power kernels vs the Kronecker oracle

def _same_kernel(A, k):
    ours, ref = ad_power_kernel(A, k), reference_ad_power_kernel(A, k)
    assert ours.field == ref.field
    assert ours.rref_rows == ref.rref_rows
    assert ours.pivots == ref.pivots


@settings(max_examples=40, deadline=None)
@given(double_inputs, st.integers(1, 4))
def test_ad_power_kernel_equals_kronecker_oracle(A, k):
    _same_kernel(A, k)


def test_ad_power_kernel_equals_kronecker_oracle_on_fixed_inputs():
    z3 = FieldTag.cyclotomic(3)
    fixed = [
        mat([[0]]),
        mat([[Fraction(7, 3)]]),
        Matrix.zero(3, 3, QQ),
        Matrix.identity(4, QQ),
        mat([[Fraction(1, 2), Fraction(-5, 3)], [Fraction(7, 4), 0]]),
        Matrix.jordan(3, CycloScalar.zeta(3), z3),
        cyclo3_jordan(2, (2, 1, 1)),
    ]
    for A in fixed:
        for k in (1, 2, 3, 4):
            _same_kernel(A, k)


def clebsch_gordan_dim(sizes, k):
    """dim ker (ad_N)^k for N nilpotent with Jordan blocks of the given
    sizes: J_a kron I - I kron J_b^T has Jordan blocks of sizes a+b-1-2t,
    t < min(a, b), and each contributes min(k, size) to the kernel."""
    return sum(min(k, a + b - 1 - 2 * t) for a in sizes for b in sizes for t in range(min(a, b)))


def test_clebsch_gordan_goldens():
    assert clebsch_gordan_dim((6, 6), 2) == 44
    assert clebsch_gordan_dim((6, 6), 3) == 64
    # k = 1 is the centralizer: sum over block pairs of min(a, b)
    assert clebsch_gordan_dim((3, 2, 1), 1) == 3 + 2 * 2 + 2 * 1 + 2 + 2 * 1 + 1
    J66 = Matrix.block_diag([Matrix.jordan(6, 0, QQ)] * 2)
    assert [ad_power_kernel(J66, k).dim for k in (2, 3)] == [44, 64]


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6).flatmap(partitions), seeds, st.integers(1, 4))
def test_nilpotent_kernel_dims_follow_clebsch_gordan(sizes, seed, k):
    assert ad_power_kernel(nilpotent(sizes, seed), k).dim == clebsch_gordan_dim(sizes, k)


test_ad_power_kernels_build_no_kronecker_operator = rows_test(FORBIDDEN, ["no Kronecker operator"])


def test_ad_power_kernel_at_max_power_equals_kronecker_oracle():
    A = mat([[Fraction(1, 2), Fraction(-5, 3)], [Fraction(7, 4), 0]])
    for M in (Matrix.jordan(3, 0, QQ), A):
        _same_kernel(M, adpower.DEFAULT_MAX_POWER)


test_ad_power_kernel_is_one_elimination = rows_test(FORBIDDEN, ["one elimination"])


def test_non_square_input_raises_not_square():
    M = mat([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(NotSquare):
        ad_power_kernel(M, 2)
    with pytest.raises(NotSquare):
        ad_inclusion_check(M, poly([0, 1]), 2)
    with pytest.raises(BadExponent):
        ad_power_kernel(M, 0)


def test_inclusion_check_sees_a_noncommuting_element(monkeypatch):
    # with ker (ad_A)^k replaced by all of M_3, the commutator steps with
    # f(A) = A must find an element they do not kill
    A = Matrix.jordan(3, 0, QQ)
    everything = subspace_from_matrices([Matrix.elem(3, i, j, QQ) for i in range(3) for j in range(3)])
    monkeypatch.setattr(adpower, "ad_power_kernel", lambda *args, **kwargs: everything)
    assert not ad_inclusion_check(A, poly([0, 1]), 1)
    assert not ad_inclusion_check(A, poly([0, 1]), 2)
    # (ad_A)^5 kills all of M_3, as A^3 = 0
    assert ad_inclusion_check(A, poly([0, 1]), 5)


@pytest.mark.parametrize("q", [None, 5])
def test_inclusion_check_sees_a_row_that_survives_two_steps(monkeypatch, q):
    # with ker (ad_A)^k replaced by a span of C(A), which ad_F kills at
    # once, and K = diag(0, 1, 2), which ad_F takes to a polynomial in A
    # and so kills at the second step, the check holds at k = 2 but not at
    # k = 1; with E_31, which survives both steps, added, it fails at k = 2
    A, K, E31 = Matrix.jordan(3, 0, QQ), Matrix.diag([0, 1, 2], QQ), Matrix.elem(3, 2, 0, QQ)
    f = poly([0, 1])
    if q is not None:
        A, K, E31 = A.promote(q), K.promote(q), E31.promote(q)
        f = Poly.make([0, CycloScalar.zeta(q), CycloScalar.zeta(q, 2)], A.field)
    F = eval_at_matrix(f, A)
    assert not iterated_commutator(F, K, 1).is_zero() and iterated_commutator(F, K, 2).is_zero()
    assert not iterated_commutator(F, E31, 2).is_zero()
    centralizer = list(centralizer_basis(A).basis)
    planted = {}
    monkeypatch.setattr(adpower, "ad_power_kernel", lambda A, k, max_power: planted[k])
    planted[1] = planted[2] = subspace_from_matrices(centralizer + [K])
    assert not ad_inclusion_check(A, f, 1)
    assert ad_inclusion_check(A, f, 2)
    planted[2] = subspace_from_matrices(centralizer + [K, E31])
    assert not ad_inclusion_check(A, f, 2)


def test_inclusion_check_makes_2k_products_whatever_the_kernel_dimension(monkeypatch):
    # every kernel row rides in one packed chain: k - 1 commutator steps
    # and the last two sides, two products each
    products = count_products(monkeypatch)
    plain, made = adpower._relation_holds, []

    def counting(*args):
        before = products[0]
        out = plain(*args)
        made.append(products[0] - before)
        return out

    monkeypatch.setattr(adpower, "_relation_holds", counting)
    dims = set()
    for A in (Matrix.diag([1, 2, 5], QQ), Matrix.jordan(3, 0, QQ), Matrix.zero(3, 3, QQ), cyclo3_jordan(1, (2, 2))):
        for k in (1, 2, 3):
            made.clear()
            assert ad_inclusion_check(A, poly([0, 1, 1], A.field), k)
            assert made == [2 * k], (A, k)
            dims.add(ad_power_kernel(A, k).dim)
    assert dims == {3, 4, 5, 6, 7, 8, 9}
