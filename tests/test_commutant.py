import json
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from commutants import canonical, cli, commutant, subspaces

from commutants import (
    CycloScalar,
    FieldMismatch,
    FieldTag,
    IndexOutOfRange,
    InvalidSpec,
    Matrix,
    NotSquare,
    OmegaSpec,
    Poly,
    QQ,
    ShapeMismatch,
    centralizer_basis,
    clifforder_basis,
    clifforder_has_invertible,
    commutant_operator,
    double_centralizer_basis,
    invariant_factors,
    k_combo,
    k_matrix,
    min_poly,
    omega_centralizer_basis,
    poly_gcd,
    subspace_contains,
    subspace_equal,
    subspace_from_matrices,
    subspace_leq,
)
from commutants.matrices import _lift, rref
from helpers import (
    CYCLO3,
    FAULTS,
    FORBIDDEN,
    NILPOTENT,
    SHRUNK,
    W5,
    conjugated,
    cyclo3_jordan,
    double_inputs,
    hand_fold_block_solutions,
    mat,
    nilpotent,
    partitions,
    poly,
    random_jordan_matrix,
    random_rational_matrix,
    reference_block_solutions,
    reference_commutant_basis,
    reference_double_centralizer,
    relation_kernel_oracle,
    rows_test,
    seeds,
)


def test_omega_spec_validation():
    w = OmegaSpec(6, 5)
    assert w.omega() ** 6 == 1
    assert w.field.q == 6
    with pytest.raises(InvalidSpec):
        OmegaSpec(6, 2)  # gcd 2
    with pytest.raises(InvalidSpec):
        OmegaSpec(0, 1)


def test_commutant_operator_action():
    # operator times vec(X) must equal vec(AX - mu XA)
    A = mat([[1, 2], [3, 4]])
    X = mat([[0, 1], [5, 2]])
    for mu in (Fraction(1), Fraction(-1), Fraction(3, 2)):
        op = commutant_operator(A, mu)
        want = A * X - (X * A).scale(mu)
        got = op * Matrix(QQ, 4, 1, X.entries)
        assert tuple(got.entries) == want.entries


def test_centralizer_contains_polynomials():
    A = random_jordan_matrix(11, 4)
    C = centralizer_basis(A)
    assert subspace_contains(C, Matrix.identity(4, QQ))
    assert subspace_contains(C, A * A - A.scale(3))
    for X in C.basis:
        assert A * X == X * A


def test_centralizer_dimension_formula():
    # direct sum of nilpotent Jordan blocks n_1 >= n_2 >= ...:
    # dim C(A) = sum_{i,j} min(n_i, n_j)
    for sizes in [(2,), (2, 2), (3, 1), (3, 2, 1), (4, 2)]:
        A = Matrix.block_diag([Matrix.jordan(s, 0, QQ) for s in sizes])
        want = sum(min(a, b) for a in sizes for b in sizes)
        assert centralizer_basis(A).dim == want, sizes


def _frobenius_dims(A):
    """Frobenius' formula on the invariant factors d_i of A:
    sum deg gcd(d_i(x), d_j(x)) and sum deg gcd(d_i(x), d_j(-x))."""
    fs = [f for f in invariant_factors(A) if f.degree >= 1]
    cent = sum(poly_gcd(a, b).degree for a in fs for b in fs)
    cliff = sum(poly_gcd(a, b.reflect()).degree for a in fs for b in fs)
    return cent, cliff


def _frobenius_inputs():
    for seed in range(8):
        yield random_jordan_matrix(700 + seed, 2 + seed % 6)
        yield random_rational_matrix(800 + seed, 2 + seed % 6, 2)
    for seed in range(4):
        # derogatory and balanced: B + (-B), and B + B + (1)
        B = random_jordan_matrix(900 + seed, 2 + seed % 2)
        yield Matrix.block_diag([B, -B])
        yield Matrix.block_diag([B, B, mat([[1]])])
    yield Matrix.block_diag([Matrix.jordan(3, 0, QQ), Matrix.jordan(2, 0, QQ), mat([[1]])])
    F = FieldTag.cyclotomic(3)
    z = CycloScalar.zeta(3)
    D = Matrix.block_diag([Matrix.jordan(2, z, F), Matrix.diag([z, -z, 1], F)])
    P = Matrix.make([[1, 1, 0, 0, 0], [0, 1, z, 0, 0], [0, 0, 1, -1, 0],
                     [0, 0, 0, 1, 2], [1, 0, 0, 0, 1]], F)
    yield P.inverse() * D * P


def test_commutant_dims_match_frobenius_formula():
    # the Kronecker kernel and the invariant factors are independent routes
    for A in _frobenius_inputs():
        cent, cliff = _frobenius_dims(A)
        assert centralizer_basis(A).dim == cent, A
        assert clifforder_basis(A).dim == cliff, A


def test_centralizer_dim_against_oracle():
    for seed in range(10):
        A = random_rational_matrix(seed, 2 + seed % 3)
        assert centralizer_basis(A).dim == relation_kernel_oracle(A, 1)


def test_clifforder_dim_against_oracle():
    for seed in range(10):
        A = random_rational_matrix(100 + seed, 2 + seed % 3)
        assert clifforder_basis(A).dim == relation_kernel_oracle(A, -1)


def test_clifforder_relation():
    A = random_jordan_matrix(7, 3)
    for X in clifforder_basis(A).basis:
        assert A * X == (X * A).scale(-1)


def test_clifforder_of_identity_is_zero():
    assert clifforder_basis(Matrix.identity(3, QQ)).dim == 0


def test_k_matrix_goldens():
    assert k_matrix(3, 1) == Matrix.diag([1, -1, 1], QQ)
    assert k_matrix(3, 2) == mat([[0, 1, 0], [0, 0, -1], [0, 0, 0]])
    assert k_matrix(3, 3) == mat([[0, 0, 1], [0, 0, 0], [0, 0, 0]])
    with pytest.raises(IndexOutOfRange):
        k_matrix(3, 0)
    with pytest.raises(IndexOutOfRange):
        k_matrix(3, 4)


def test_k_combo():
    got = k_combo(2, [2, Fraction(1, 3)])
    assert got == mat([[2, Fraction(1, 3)], [0, -2]])
    with pytest.raises(ShapeMismatch):
        k_combo(2, [1])


def test_clifforder_of_nilpotent_jordan_is_span_k():
    for n in range(1, 6):
        J = Matrix.jordan(n, 0, QQ)
        cl = clifforder_basis(J)
        ks = subspace_from_matrices([k_matrix(n, i) for i in range(1, n + 1)])
        assert cl.dim == n
        assert subspace_equal(cl, ks)


def test_omega_centralizer_golden():
    # diag(w^2, w^3) over Q(zeta_6): C_w is spanned by E_21
    f6 = OmegaSpec(6, 1)
    w = f6.omega()
    A = Matrix.diag([w ** 2, w ** 3], f6.field)
    S = omega_centralizer_basis(A, f6)
    assert S.dim == 1
    E21 = Matrix.make([[0, 0], [1, 0]], f6.field)
    assert subspace_contains(S, E21)
    # and the relation holds: A E21 = w E21 A
    assert A * E21 == (E21 * A).scale(w)


def test_omega_centralizer_promotes_rational():
    A = Matrix.jordan(2, 0, QQ)
    S = omega_centralizer_basis(A, OmegaSpec(3, 1))
    assert S.field.q == 3
    assert S.dim == 2
    with pytest.raises(FieldMismatch):
        omega_centralizer_basis(A.promote(4), OmegaSpec(3, 1))


def test_omega_centralizer_against_sympy_oracle():
    w = OmegaSpec(3, 1)
    zs = sympy.exp(2 * sympy.pi * sympy.I / 3)
    for seed in range(5):
        A = random_rational_matrix(200 + seed, 2 + seed % 2)
        ours = omega_centralizer_basis(A, w).dim
        theirs = relation_kernel_oracle(A, zs)
        assert ours == theirs, seed


def test_double_centralizer_is_polynomial_algebra():
    for seed in range(8):
        A = random_jordan_matrix(300 + seed, 2 + seed % 3)
        dc = double_centralizer_basis(A)
        d = min_poly(A).degree
        powers = []
        P = Matrix.identity(A.rows, QQ)
        for _ in range(d):
            powers.append(P)
            P = P * A
        span_a = subspace_from_matrices(powers)
        assert dc.dim == d
        assert subspace_equal(dc, span_a), seed


def test_double_centralizer_sits_inside_centralizer():
    A = random_jordan_matrix(55, 4)
    assert subspace_leq(double_centralizer_basis(A), centralizer_basis(A))


def test_clifforder_has_invertible_matches_balancedness():
    assert clifforder_has_invertible(Matrix.jordan(3, 0, QQ))
    assert clifforder_has_invertible(Matrix.diag([2, -2], QQ))
    assert not clifforder_has_invertible(Matrix.identity(2, QQ))
    assert not clifforder_has_invertible(Matrix.diag([1, 2], QQ))


def test_not_square_rejected():
    R = Matrix.make([[1, 2, 3], [4, 5, 6]], QQ)
    with pytest.raises(NotSquare):
        centralizer_basis(R)
    with pytest.raises(NotSquare):
        commutant_operator(R, 1)


# ------------------------------------- structural bases vs the Kronecker oracle

_Z3 = FieldTag.cyclotomic(3)
_z3 = CycloScalar.zeta(3)


def _balanced(seed, n):
    B = random_jordan_matrix(seed, n)
    return Matrix.block_diag([B, -B])


rational_inputs = st.one_of(
    st.builds(random_rational_matrix, seeds, st.integers(1, 5), st.integers(1, 3)),
    st.builds(random_jordan_matrix, seeds, st.integers(2, 6)),
    # scalar matrices, the zero matrix among them
    st.builds(lambda n, c: Matrix.identity(n, QQ).scale(c), st.integers(1, 4), st.integers(-3, 3)),
    st.builds(_balanced, seeds, st.integers(1, 3)),
    st.builds(nilpotent, st.integers(1, 6).flatmap(partitions), seeds),
)
# mu as (q, k): q = None for mu = 1 (k = 0) and mu = -1 (k = 1)
mus = st.sampled_from(
    [(None, 0), (None, 1)] + [(q, k) for q in (3, 4, 5, 6) for k in range(1, q) if gcd(k, q) == 1]
)


def _same_span(A, q, k):
    if q is None:
        mu = A.field.coerce(-1 if k else 1)
        ours = clifforder_basis(A) if k else centralizer_basis(A)
        ref = reference_commutant_basis(A, mu)
    else:
        w = OmegaSpec(q, k)
        mu = w.omega()
        ours = omega_centralizer_basis(A, w)
        ref = reference_commutant_basis(A.promote(q), mu)
    assert commutant._dimension(commutant._split(_lift(A)), mu) == ours.dim
    assert ours.field == ref.field
    assert ours.rref_rows == ref.rref_rows
    assert ours.pivots == ref.pivots


@settings(max_examples=60, deadline=None)
@given(rational_inputs, mus)
def test_structural_bases_equal_kronecker_oracle(A, mu):
    _same_span(A, *mu)


def test_structural_bases_equal_kronecker_oracle_on_fixed_inputs():
    fixed = [Matrix.zero(3, 3, QQ), mat([[0]]), mat([[Fraction(-5, 2)]]), Matrix.identity(4, QQ)]
    for A in fixed:
        for q, k in [(None, 0), (None, 1), (3, 2), (4, 1), (5, 3), (6, 5)]:
            _same_span(A, q, k)
    for q, k in [(None, 0), (None, 1), (3, 1), (3, 2)]:
        _same_span(CYCLO3, q, k)


# ------------------------------- Frobenius' count against the built bases

@st.composite
def count_cases(draw):
    """(A, mu): A a conjugated direct sum of Jordan and companion blocks,
    n <= 5, 1 x 1 and scalar matrices among them, over Q, Q(zeta_3) or
    Q(zeta_5); mu in {1, -1, zeta_q^k}, with q = 3 or 5 drawn for a
    rational A.  Eigenvalues such as 1 and zeta_q, whose negatives are
    not eigenvalues, make the clifforder's `_block_solutions` take its
    poly_gcd branch, as the identity does in the fixed inputs above."""
    q = draw(st.sampled_from([None, 3, 5]))
    field = QQ if q is None else FieldTag.cyclotomic(q)
    z = field.one() if q is None else CycloScalar.zeta(q)
    eigen = st.sampled_from([0, 1, -1, 2, Fraction(1, 2)] + ([] if q is None else [z, -z, z * z]))
    if draw(st.booleans()):
        A = Matrix.identity(draw(st.integers(1, 4)), field).scale(field.coerce(draw(eigen)))
    else:
        blocks, n = [], draw(st.integers(1, 5))
        while n:
            k = draw(st.integers(1, n))
            if draw(st.booleans()):
                blocks.append(Matrix.jordan(k, field.coerce(draw(eigen)), field))
            else:
                low = [field.coerce(draw(st.integers(-2, 2))) for _ in range(k)]
                blocks.append(canonical.companion(Poly.make(low + [field.one()], field)))
            n -= k
        A = conjugated(Matrix.block_diag(blocks), draw(seeds))
    rq = q or draw(st.sampled_from([3, 5]))
    mus = [field.one(), -field.one()] + [CycloScalar.zeta(rq, k) for k in range(1, rq)]
    return A, draw(st.sampled_from(mus))


def _same_count(A, mu):
    split = commutant._split(_lift(A))
    field = FieldTag.cyclotomic(mu.q) if isinstance(mu, CycloScalar) else A.field
    dim = commutant._dimension(split, mu)
    assert dim == commutant._mu_commutant_basis(split, mu)[0].rows
    assert dim == reference_commutant_basis(A if A.field == field else A.promote(field.q), mu).dim


@settings(max_examples=60, deadline=None)
@given(count_cases())
def test_frobenius_count_equals_the_built_bases_and_the_kronecker_oracle(case):
    _same_count(*case)


def test_frobenius_count_equals_the_built_bases_on_fixed_inputs():
    for A in SHRUNK:
        for mu in (A.field.one(), -A.field.one(), W5.omega() if A.field == QQ else CycloScalar.zeta(3)):
            _same_count(A, mu)


# ------------------------- integer block solutions against field arithmetic

@st.composite
def block_pairs(draw, qs=(None, 3, 5)):
    """(a, b, mu) with a | b or b | a, as for two invariant factors, over
    Q (non-integer coefficients) or Q(zeta_q) for q in ``qs``, mu in {1,
    -1, zeta_q^k}: the larger of a and b carries m and the smaller a
    factor m(mu^-1 x), so gcd(a(x), b(mu^-1 x)) is not 1 when deg m > 0;
    the cofactors are sometimes powers of x, for which b(mu^-1 x) is a
    multiple of b."""
    q = draw(st.sampled_from(qs))
    field = QQ if q is None else FieldTag.cyclotomic(q)
    mus = [field.one(), -field.one()] + ([] if q is None else [CycloScalar.zeta(q, k) for k in range(1, q)])
    mu = draw(st.sampled_from(mus))
    ratio = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    scalar = ratio if q is None else st.lists(ratio, min_size=1, max_size=q - 1).map(lambda c: CycloScalar(q, tuple(c)))

    def monic(low: int, high: int) -> Poly:
        degree = draw(st.integers(low, high))
        if draw(st.booleans()):
            return Poly.monomial(degree, 1, field)
        return Poly.make([draw(scalar) for _ in range(degree)] + [1], field)

    m = monic(0, 2)
    inv = field.one() / mu
    m_mu = Poly.make([c * inv ** k for k, c in enumerate(m.coeffs)], field).monic()
    small = m_mu * monic(1 if m.degree == 0 else 0, 2)
    big = small * m * monic(0, 1)
    a, b = draw(st.sampled_from([(small, big), (big, small), (small, small), (big, big)]))
    return a, b, mu


def _entry(col, r, field, da):
    """Row r of a column of Y, given as field elements or as the integer
    plane-major column of `_block_solutions`."""
    if not isinstance(col[0], int):
        return col[r]
    if field.q is None:
        return Fraction(col[r])
    return CycloScalar(field.q, tuple(Fraction(x) for x in col[r::da]))


def _solution_rref(sols, a, b):
    """The RREF of the vec'd Ys, read from field elements or from the
    integer plane-major columns of `_block_solutions`."""
    field, da = a.field, a.degree
    rows = [[_entry(Y[k], r, field, da) for r in range(da) for k in range(b.degree)] for Y in sols]
    return rref(Matrix(field, len(rows), da * b.degree, tuple(x for row in rows for x in row))).rref


@settings(max_examples=80, deadline=None)
@given(block_pairs())
def test_integer_block_solutions_span_the_field_solutions(case):
    a, b, mu = case
    ours, ref = commutant._block_solutions(a, b, mu), reference_block_solutions(a, b, mu)
    assert len(ours) == len(ref)
    assert all(len(Y) == b.degree and all(type(x) is int for col in Y for x in col) for Y in ours)
    if ref:
        assert _solution_rref(ours, a, b) == _solution_rref(ref, a, b)


def _scaled_hand_fold(a, b, mu):
    """Each Y of `_block_solutions` is the hand fold's Y times one positive
    rational, and C(a)*Y = mu*Y*C(b) holds for it by `Matrix` products."""
    field, da = a.field, a.degree
    ours, ref = commutant._block_solutions(a, b, mu), hand_fold_block_solutions(a, b, mu)
    assert len(ours) == len(ref)
    for Y, R in zip(ours, ref):
        flat, rflat = [x for col in Y for x in col], [x for col in R for x in col]
        scale = next(Fraction(x, r) for x, r in zip(flat, rflat) if r)
        assert scale > 0 and flat == [scale * r for r in rflat]
        M = Matrix(field, da, b.degree, tuple(_entry(Y[k], r, field, da) for r in range(da) for k in range(b.degree)))
        assert not M.is_zero()
        assert canonical.companion(a) * M == M.scale(mu) * canonical.companion(b)
    return ours


@settings(max_examples=80, deadline=None)
@given(block_pairs((None, 3, 5, 12)))
def test_block_solutions_are_the_hand_fold_to_scale(case):
    _scaled_hand_fold(*case)


def test_block_solutions_of_an_unbalanced_b_at_mu_minus_one_are_the_hand_fold_to_scale():
    # b has the root 2 but not -2, so b(-x) is no multiple of b and g comes
    # from poly_gcd: for a = x + c and b = a * (x - c) * (x - 2), b(-x) =
    # -(x + c)(x - c)(x + 2) shares x + c with a, and with a and b swapped
    # b(-x) = c - x divides a
    for q in (None, 3, 5, 12):
        field = QQ if q is None else FieldTag.cyclotomic(q)
        roots = [field.one()] if q is None else [field.one(), CycloScalar.zeta(q)]
        for c in roots:
            small = Poly.make([c, 1], field)
            big = small * Poly.make([-c, 1], field) * Poly.make([-2, 1], field)
            for a, b in [(small, big), (big, small)]:
                assert len(_scaled_hand_fold(a, b, -field.one())) == 1


# ------------------------------------ planted faults and forbidden calls
# each runs every consumer of the helpers.FAULTS or FORBIDDEN rows it names

test_dimension_builds_no_block_solution = rows_test(FORBIDDEN, ["no block solution for a dimension"])
test_perturbed_frobenius_P_is_never_returned = rows_test(FAULTS, ["relation: P perturbed after the split"])
test_split_checks_its_own_decomposition = rows_test(FAULTS, ["A*P = P*F: identity companion blocks"])
test_singular_frobenius_P_is_never_used = rows_test(FAULTS, ["P invertible: P's last column zeroed after the split"])
test_corrupted_split_never_yields_a_number = rows_test(FAULTS, ["f_1 | ... | f_r: blocks reordered"], ["A*P = P*F: P's last column zeroed"], ids=["reordered", "singular"])
test_perturbed_block_solution_is_never_returned = rows_test(FAULTS, ["relation: every block solution perturbed"])
test_dropped_basis_element_is_never_returned = rows_test(FAULTS, ["span rank = Frobenius' count: last reduced row dropped"])
test_corrupted_reduced_row_is_never_returned = rows_test(FAULTS, ["relation: last reduced row grown"])
test_entry_changed_after_normalization_is_never_returned = rows_test(FAULTS, ["relation: an integer of the first reduced row changed", "A-invariance: an integer of the first reduced row changed"])
test_commutant_solvers_build_no_kronecker_operator = rows_test(FORBIDDEN, ["no Kronecker operator"])
test_double_centralizer_builds_no_centralizer = rows_test(FORBIDDEN, ["the double centralizer builds no centralizer and runs no split"])
test_double_centralizer_runs_no_split_and_one_cyclic_vector_step = rows_test(FORBIDDEN, ["the double centralizer builds no centralizer and runs no split"])
test_corrupted_power_is_never_returned = rows_test(FAULTS, ["A-invariance: power 0 bumped", "A-invariance: power 1 bumped", "A-invariance: power 2 bumped"], ["double centralizer dimension: last power dropped"], ids=["bumped-power", "dropped-power"])
test_wrong_degree_is_never_returned = rows_test(FAULTS, ["double centralizer dimension: deg m_A one too high", "A-invariance: deg m_A one too low"])


def test_rational_input_is_split_over_q(monkeypatch):
    split = commutant._frobenius
    fields = []

    def spy(A):
        fields.append(A.field)
        return split(A)

    monkeypatch.setattr(commutant, "_frobenius", spy)
    omega_centralizer_basis(NILPOTENT, W5)
    omega_centralizer_basis(NILPOTENT.promote(5), W5)
    assert fields == [QQ, W5.field]


# ------------------------------------ double centralizer vs the stacked oracle

def _same_double(A):
    ours, ref = double_centralizer_basis(A), reference_double_centralizer(A)
    assert ours.field == ref.field
    assert ours.rref_rows == ref.rref_rows
    assert ours.pivots == ref.pivots


@settings(max_examples=40, deadline=None)
@given(double_inputs)
def test_double_centralizer_equals_stacked_oracle(A):
    _same_double(A)


def test_double_centralizer_equals_stacked_oracle_on_fixed_inputs():
    for A in (mat([[0]]), mat([[Fraction(7, 3)]]), Matrix.zero(4, 4, QQ), Matrix.identity(5, QQ), *SHRUNK):
        _same_double(A)


def test_nonderogatory_double_centralizer_is_the_centralizer(monkeypatch, tmp_path, capsys):
    # dim C(A) = deg m_A gives C(A) = F[A] = C(C(A)): the derived span is
    # the centralizer, and analyze prints its dimension, deg m_A, with no
    # basis and no span built
    def forbidden(*args):
        raise AssertionError("a span built for a dimension analyze reads off the split")

    companion = canonical.companion(poly([3, -1, 2, 0, -2, 1]))
    for i, A in enumerate((conjugated(companion, 7), companion, cyclo3_jordan(0, (2, 1)), mat([[Fraction(5, 2)]]))):
        cent = centralizer_basis(A)
        assert cent.dim == min_poly(A).degree
        assert double_centralizer_basis(A).rref_rows == cent.rref_rows
        _same_double(A)
        path = tmp_path / f"{i}.json"
        path.write_text(json.dumps(cli.matrix_json(A)))
        with monkeypatch.context() as m:
            m.setattr(cli, "_mu_commutant_basis", forbidden)
            m.setattr(commutant, "_reduced", forbidden)
            assert cli.main(["analyze", str(path)]) == 0
        dims = json.loads(capsys.readouterr().out)["dims"]
        assert dims["double_centralizer"] == dims["centralizer"] == cent.dim


def test_double_centralizer_lifts_no_row_it_returns(monkeypatch):
    # the rank and closure checks read `_reduced`'s integer rows, which
    # `_from_reduced` then writes out: A is the only matrix lifted, and
    # no returned row is lifted back for the checks
    lifted = []

    def spy(M):
        lifted.append(M)
        return _lift(M)

    for module in (commutant, subspaces):
        monkeypatch.setattr(module, "_lift", spy)
    for A in SHRUNK + (Matrix.jordan(4, 1, QQ), Matrix.zero(0, 0, QQ)):
        lifted.clear()
        S = double_centralizer_basis(A)
        assert S.dim == min_poly(A).degree and lifted == [A], A


