from fractions import Fraction

import pytest
import sympy

from commutants import (
    CycloScalar,
    FieldMismatch,
    FieldTag,
    IndexOutOfRange,
    InvalidSpec,
    Matrix,
    NotSquare,
    OmegaSpec,
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
from helpers import (
    mat,
    random_jordan_matrix,
    random_rational_matrix,
    relation_kernel_oracle,
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
