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
    StructureReport,
    centralizer_basis,
    char_poly,
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
from commutants.errors import VerificationError
from commutants.matrices import _columns, _lift, _mul_lifted, _same, rref
from helpers import (
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
# conjugated J_2(zeta_3) + diag(zeta_3, -zeta_3), over Q(zeta_3)
_CYCLO3_INPUT = conjugated(Matrix.block_diag([Matrix.jordan(2, _z3, _Z3), Matrix.diag([_z3, -_z3], _Z3)]), 0)


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
        _same_span(_CYCLO3_INPUT, q, k)


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


def test_dimension_builds_no_block_solution(monkeypatch):
    # Frobenius' count is deg g per pair of invariant factors: `_dimension`
    # reads g off `_block_gcd` and builds no Y, on the poly_gcd branch
    # (the clifforder of an unbalanced input) as on the others
    cases = [(A, mu) for A in _SHRUNK for mu in (A.field.one(), -A.field.one(), _W5.omega() if A.field == QQ else CycloScalar.zeta(3))]
    want = [commutant._mu_commutant_basis(commutant._split(_lift(A)), mu)[0].rows for A, mu in cases]

    def forbidden(*args):
        raise AssertionError("a block solution built only to be counted")

    monkeypatch.setattr(commutant, "_block_solutions", forbidden)
    monkeypatch.setattr(commutant, "_mul_lifted", forbidden)
    assert [commutant._dimension(commutant._split(_lift(A)), mu) for A, mu in cases] == want


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


# ---------------------------------------- a corrupted result is never returned

# conjugated J_2(1) + (1) + (-1) and J_3(0) + J_1(0): derogatory, nonzero
# centralizer and omega-centralizer respectively
_DEROGATORY = conjugated(Matrix.block_diag([Matrix.jordan(2, 1, QQ), Matrix.diag([1, -1], QQ)]), 7)
_NILPOTENT = conjugated(Matrix.block_diag([Matrix.jordan(3, 0, QQ), mat([[0]])]), 7)
_W5 = OmegaSpec(5, 2)
# derogatory inputs whose centralizer is larger than F[A], so the double
# centralizer is derived from the powers of A, not read off C(A)
_SHRUNK = (_DEROGATORY, _NILPOTENT, Matrix.identity(3, QQ).scale(2), _CYCLO3_INPUT)


def _corrupted_calls():
    return [lambda: centralizer_basis(_DEROGATORY), lambda: omega_centralizer_basis(_NILPOTENT, _W5)]


def test_perturbed_frobenius_P_is_never_returned(monkeypatch):
    split = commutant._frobenius

    def perturbed(A):
        # P comes lifted: entry (0, 0) grows by 1 when its integer grows
        # by its row's denominator
        factors, P = split(A)
        ints = [list(row) for row in P.ints]
        ints[0][0] += P.dens[0]
        return factors, P._replace(ints=ints)

    monkeypatch.setattr(commutant, "_frobenius", perturbed)
    for call in _corrupted_calls():
        with pytest.raises(VerificationError):
            call()


def test_split_checks_its_own_decomposition(monkeypatch):
    # a wrong F must fail A*P = P*F inside the split
    monkeypatch.setattr(canonical, "companion", lambda f: Matrix.identity(f.degree, f.field))
    with pytest.raises(VerificationError):
        invariant_factors(_DEROGATORY)
    with pytest.raises(VerificationError):
        centralizer_basis(_DEROGATORY)


def _reordered(factors, P):
    """The split with its blocks in reverse order, P's column blocks
    permuted alike, so that A*P = P*F still holds."""
    offsets = [sum(f.degree for f in factors[:i]) for i in range(len(factors))]
    cols = [c for o, f in reversed(list(zip(offsets, factors))) for c in range(o, o + f.degree)]
    return factors[::-1], _columns(P, cols)


def _singular(factors, P):
    """The split with P's last column zeroed; P comes lifted,
    plane-major: index k is column k % n."""
    n = P.cols
    return factors, P._replace(ints=[[0 if k % n == n - 1 else x for k, x in enumerate(row)] for row in P.ints])


def test_singular_frobenius_P_is_never_used(monkeypatch):
    # P with its last column zeroed has no inverse: the split's lifted
    # solve against I must reject it before any basis or count is built
    split = commutant._frobenius
    want = reference_double_centralizer(_DEROGATORY)
    monkeypatch.setattr(commutant, "_frobenius", lambda A: _singular(*split(A)))
    for call in _corrupted_calls() + [lambda: commutant._dimension(commutant._split(_lift(_DEROGATORY)), QQ.one())]:
        with pytest.raises(VerificationError, match="singular"):
            call()
    # the double centralizer reads only deg m_A off the split, never P
    assert double_centralizer_basis(_DEROGATORY).rref_rows == want.rref_rows


@pytest.mark.parametrize("corrupt", [_reordered, _singular], ids=["reordered", "singular"])
def test_corrupted_split_never_yields_a_number(monkeypatch, tmp_path, capsys, corrupt):
    # the unchecked split returns a corrupted (factors, P): the checked
    # split rejects it, so no invariant factor, report, characteristic
    # polynomial or dimension is read off it, and no command prints one
    plain = canonical._cyclic_split
    inputs = (_DEROGATORY, _NILPOTENT, _CYCLO3_INPUT)
    if corrupt is _reordered:
        # A*P = P*F alone would pass the reordered split, with the wrong m_A last
        for A in inputs:
            factors, P = corrupt(*plain(_lift(A)))
            F = _lift(Matrix.block_diag([canonical.companion(f) for f in factors]))
            assert _same(_mul_lifted(_lift(A), P), _mul_lifted(P, F))
            assert factors[-1] != min_poly(A)
    monkeypatch.setattr(canonical, "_cyclic_split", lambda Al: corrupt(*plain(Al)))
    for i, A in enumerate(inputs):
        mus = [A.field.one(), -A.field.one(), _W5.omega() if A.field == QQ else _z3]
        calls = [lambda: invariant_factors(A), lambda: StructureReport.of(A), lambda: char_poly(A)]
        calls += [lambda mu=mu: commutant._dimension(commutant._split(_lift(A)), mu) for mu in mus]
        for call in calls:
            with pytest.raises(VerificationError, match="f_1 [|] f_2" if corrupt is _reordered else "A[*]P = P[*]F"):
                call()
        path = tmp_path / f"{i}.json"
        path.write_text(json.dumps(cli.matrix_json(A)))
        q = str(_W5.q if A.field == QQ else 3)
        for argv in (["analyze"], ["centralizer"], ["clifforder"], ["omega", "--q", q]):
            assert cli.main([argv[0], str(path), *argv[1:]]) == 3, argv
            cap = capsys.readouterr()
            assert cap.out == "" and json.loads(cap.err)["error"] == "VerificationError", argv


def test_perturbed_block_solution_is_never_returned(monkeypatch):
    solve_block = commutant._block_solutions

    def perturbed(a, b, mu):
        sols = solve_block(a, b, mu)
        if sols:
            first = sols[0][0]
            sols[0][0] = (first[0] + 1,) + first[1:]
        return sols

    monkeypatch.setattr(commutant, "_block_solutions", perturbed)
    for call in _corrupted_calls():
        with pytest.raises(VerificationError):
            call()


def test_dropped_basis_element_is_never_returned(monkeypatch):
    # the solutions reach the elimination as integer rows, and the
    # reduced rows lose their last one on the way out of `_reduced`
    reduced = commutant._reduced

    def dropped(L):
        R, pivots = reduced(L)
        return R._replace(dens=R.dens[:-1], ints=R.ints[:-1]), pivots[:-1]

    monkeypatch.setattr(commutant, "_reduced", dropped)
    for call in _corrupted_calls():
        with pytest.raises(VerificationError):
            call()


def test_corrupted_reduced_row_is_never_returned(monkeypatch, tmp_path, capsys):
    # entry (0, 0) of the last reduced row grows by 1 (its integer by the
    # row's denominator) on the way out of `_reduced`: the row count
    # still matches, so only the relation proof on the returned rows can
    # see it, and the CLI prints nothing
    reduced = commutant._reduced

    def grown(L):
        R, pivots = reduced(L)
        ints = [list(row) for row in R.ints]
        ints[-1][0] += R.dens[-1]
        return R._replace(ints=ints), pivots

    monkeypatch.setattr(commutant, "_reduced", grown)
    calls = [lambda: centralizer_basis(_DEROGATORY), lambda: clifforder_basis(_DEROGATORY), lambda: omega_centralizer_basis(_NILPOTENT, _W5)]
    for call in calls:
        with pytest.raises(VerificationError, match="fails AX = mu[*]XA"):
            call()
    for i, (A, argv) in enumerate(((_DEROGATORY, ["centralizer"]), (_NILPOTENT, ["omega", "--q", "5", "--k", "2"]))):
        path = tmp_path / f"{i}.json"
        path.write_text(json.dumps(cli.matrix_json(A)))
        assert cli.main([argv[0], str(path), *argv[1:], "--basis"]) == 3, argv
        cap = capsys.readouterr()
        assert cap.out == "" and json.loads(cap.err)["error"] == "VerificationError", argv


def test_entry_changed_after_normalization_is_never_returned(monkeypatch, tmp_path, capsys):
    # the last reduction of each call gets one integer changed in the
    # rows it hands on, the rows that are printed or written out as the
    # basis; the relation (or commutation) check reads those rows, so it
    # must see it, and the CLI prints nothing
    reduced = {module: module._reduced for module in (commutant, subspaces)}

    def bumped(R, pivots):
        ints = [list(row) for row in R.ints]
        ints[0][-1] += 1
        return R._replace(ints=ints), pivots

    path = tmp_path / "a.json"
    path.write_text(json.dumps(cli.matrix_json(_DEROGATORY)))
    calls = _corrupted_calls() + [lambda: clifforder_basis(_DEROGATORY)] + [lambda: double_centralizer_basis(A) for A in _SHRUNK]
    commands = [lambda argv=argv: cli.main([argv, str(path), "--basis"]) for argv in ("centralizer", "clifforder")]
    for call in calls + commands:
        seen = []
        with monkeypatch.context() as m:
            for module, plain in reduced.items():
                m.setattr(module, "_reduced", lambda L, plain=plain: seen.append(L) or plain(L))
            call()
        last = len(seen)
        capsys.readouterr()

        def corrupted(L, plain):
            seen.append(L)
            return bumped(*plain(L)) if len(seen) == 2 * last else plain(L)

        with monkeypatch.context() as m:
            for module, plain in reduced.items():
                m.setattr(module, "_reduced", lambda L, plain=plain: corrupted(L, plain))
            if call in commands:
                assert call() == 3
                cap = capsys.readouterr()
                assert cap.out == "" and json.loads(cap.err)["error"] == "VerificationError"
            else:
                with pytest.raises(VerificationError):
                    call()


def test_rational_input_is_split_over_q(monkeypatch):
    split = commutant._frobenius
    fields = []

    def spy(A):
        fields.append(A.field)
        return split(A)

    monkeypatch.setattr(commutant, "_frobenius", spy)
    omega_centralizer_basis(_NILPOTENT, _W5)
    omega_centralizer_basis(_NILPOTENT.promote(5), _W5)
    assert fields == [QQ, _W5.field]


def test_commutant_solvers_build_no_kronecker_operator(monkeypatch):
    def forbidden(*args):
        raise AssertionError("Kronecker operator built")

    monkeypatch.setattr(commutant, "commutant_operator", forbidden)
    monkeypatch.setattr(commutant, "kron", forbidden)
    for A in (_DEROGATORY, _NILPOTENT, _CYCLO3_INPUT):
        centralizer_basis(A)
        clifforder_basis(A)
    omega_centralizer_basis(_NILPOTENT, _W5)
    omega_centralizer_basis(_CYCLO3_INPUT, OmegaSpec(3, 2))
    for A in _SHRUNK:
        double_centralizer_basis(A)


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
    for A in (mat([[0]]), mat([[Fraction(7, 3)]]), Matrix.zero(4, 4, QQ), Matrix.identity(5, QQ), *_SHRUNK):
        _same_double(A)


def test_double_centralizer_builds_no_centralizer(monkeypatch):
    def forbidden(*args):
        raise AssertionError("centralizer or kernel built for the double centralizer")

    monkeypatch.setattr(commutant, "_mu_commutant_basis", forbidden)
    monkeypatch.setattr(canonical, "_kernel", forbidden)
    for A in _SHRUNK:
        assert double_centralizer_basis(A).dim == min_poly(A).degree


def test_double_centralizer_runs_no_split_and_one_cyclic_vector_step(monkeypatch):
    # deg m_A is read off min_poly's one checked cyclic-vector step; the
    # Frobenius split never runs
    def forbidden(*args):
        raise AssertionError("Frobenius split run for the double centralizer")

    plain = canonical._cyclic_vector
    steps = [0]

    def counting(*args):
        steps[0] += 1
        return plain(*args)

    for module in (canonical, commutant):
        monkeypatch.setattr(module, "_frobenius", forbidden)
    monkeypatch.setattr(canonical, "_cyclic_vector", counting)
    for A in _SHRUNK + (Matrix.jordan(4, 1, QQ),):
        steps[0] = 0
        double_centralizer_basis(A)
        assert steps[0] == 1, A


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


def _bump_entry(k):
    """L with entry 0 of its row k raised by 1."""
    def corrupt(L):
        ints = [list(row) for row in L.ints]
        ints[k][0] += 1
        return L._replace(ints=ints)
    return corrupt


def _drop_last(L):
    return L._replace(dens=L.dens[:-1], ints=L.ints[:-1])


@pytest.mark.parametrize("corruptions", [
    lambda d: [_bump_entry(k) for k in range(d)],
    lambda d: [_drop_last],
], ids=["bumped-power", "dropped-power"])
def test_corrupted_power_is_never_returned(monkeypatch, corruptions):
    # each power in turn with one entry bumped, or the last power
    # dropped, on its way into the reduction
    reduced = commutant._reduced
    for A in _SHRUNK:
        for corrupt in corruptions(min_poly(A).degree):
            with monkeypatch.context() as m:
                m.setattr(commutant, "_reduced", lambda L: reduced(corrupt(L)))
                with pytest.raises(VerificationError):
                    double_centralizer_basis(A)


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
    for A in _SHRUNK + (Matrix.jordan(4, 1, QQ), Matrix.zero(0, 0, QQ)):
        lifted.clear()
        S = double_centralizer_basis(A)
        assert S.dim == min_poly(A).degree and lifted == [A], A


def test_wrong_degree_is_never_returned(monkeypatch):
    # a scripted m_A of degree d + 1 spans F[A] with fewer than d + 1
    # rows; one of degree d - 1 spans a subspace that A*R_i leaves
    for A in _SHRUNK:
        d = min_poly(A).degree
        for wrong, message in ((d + 1, "double centralizer has dimension"), (d - 1, "not A-invariant or misses I")):
            with monkeypatch.context() as m:
                m.setattr(commutant, "min_poly", lambda A, e=wrong: Poly.monomial(e, 1, A.field))
                with pytest.raises(VerificationError, match=message):
                    double_centralizer_basis(A)
