from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commutants import equivalence
from commutants import (
    Certificate,
    CongruenceClass,
    CycloScalar,
    FieldTag,
    FieldMismatch,
    Matrix,
    NotInClass,
    NotSquare,
    Poly,
    QQ,
    ShapeMismatch,
    centralizer_basis,
    char_poly,
    class_exponents,
    clifforder_basis,
    equivalence_certificate,
    eval_at_matrix,
    express_in_powers,
    poly_crt,
    subspace_equal,
    verify_certificate,
)
from helpers import (
    COUNTER_A,
    COUNTER_B,
    PAIR5_A,
    PAIR5_B,
    PAIR5_A_FROM_B,
    PAIR5_B_FROM_A,
    ODD4_A,
    ODD4_A_FROM_B,
    ODD4_A_FROM_B_GENERAL,
    ODD4_B,
    ODD4_B_FROM_A,
    ODD4_B_FROM_A_GENERAL,
    DIAG2_A,
    DIAG2_A_FROM_B,
    DIAG2_B,
    DIAG2_B_FROM_A,
    TRI4_A,
    TRI4_A_FROM_B,
    TRI4_B,
    TRI4_B_FROM_A,
    conjugated,
    count_products,
    mat,
    perturb_first_coordinate,
    poly,
    random_jordan_matrix,
    random_rational_matrix,
    reference_express_in_powers,
)
from commutants.errors import VerificationError

GENERAL = CongruenceClass.general()
ODD = CongruenceClass.odd()


def test_class_exponents():
    assert class_exponents(GENERAL, 4) == [0, 1, 2, 3]
    assert class_exponents(ODD, 4) == [1, 3, 5, 7]
    assert class_exponents(CongruenceClass.q_class(3), 5) == [1, 4, 7, 10, 13]
    assert class_exponents(GENERAL, 1) == [0]


def test_express_trivial():
    A = random_jordan_matrix(1, 3)
    assert express_in_powers(A, A) == Poly.x(QQ)
    I3 = Matrix.identity(3, QQ)
    assert express_in_powers(I3, A) == Poly.one(QQ)


def test_express_no_solution():
    A = Matrix.diag([1, 1], QQ)
    B = Matrix.diag([2, 3], QQ)
    assert express_in_powers(B, A) is None
    # the other direction works: f(2) = 1, f(3) = 1 solvable
    assert express_in_powers(A, B) is not None


def test_express_example8():
    f = express_in_powers(PAIR5_A, PAIR5_B)
    assert f == PAIR5_A_FROM_B
    g = express_in_powers(PAIR5_B, PAIR5_A)
    assert g == PAIR5_B_FROM_A


def test_equivalence_certificate_example8():
    cert = equivalence_certificate(PAIR5_A, PAIR5_B, GENERAL)
    assert cert is not None
    assert cert.f == PAIR5_B_FROM_A
    assert cert.g == PAIR5_A_FROM_B
    assert verify_certificate(PAIR5_A, PAIR5_B, cert)
    # the same pair packaged by hand also verifies
    packaged = Certificate(f=PAIR5_B_FROM_A, g=PAIR5_A_FROM_B, cls=GENERAL)
    assert verify_certificate(PAIR5_A, PAIR5_B, packaged)


def test_verify_rejects_perturbation():
    bad_f = Poly.make(
        [PAIR5_B_FROM_A.coeff(0) + 1] + [PAIR5_B_FROM_A.coeff(i) for i in range(1, 5)], QQ
    )
    cert = Certificate(f=bad_f, g=PAIR5_A_FROM_B, cls=GENERAL)
    assert not verify_certificate(PAIR5_A, PAIR5_B, cert)


def test_verify_rejects_a_polynomial_outside_the_class():
    # the constructor refuses such a certificate, so the swap goes round it
    cert = equivalence_certificate(ODD4_A, ODD4_B, ODD)
    assert verify_certificate(ODD4_A, ODD4_B, cert)
    object.__setattr__(cert, "f", ODD4_B_FROM_A_GENERAL)
    assert not verify_certificate(ODD4_A, ODD4_B, cert)


def test_certificate_degree_bound_general():
    for seed in range(6):
        A = random_jordan_matrix(700 + seed, 2 + seed % 4)
        cert = equivalence_certificate(A, A.scale(2) + Matrix.identity(A.rows, QQ), GENERAL)
        assert cert is not None
        assert cert.f.degree <= A.rows - 1
        assert cert.g.degree <= A.rows - 1


def test_certificate_class_enforced():
    with pytest.raises(NotInClass):
        Certificate(f=poly([1, 1]), g=poly([0, 1]), cls=ODD)


def test_odd_golden_4x4():
    cert = equivalence_certificate(ODD4_A, ODD4_B, ODD)
    assert cert is not None
    assert cert.f == ODD4_B_FROM_A
    assert cert.g == ODD4_A_FROM_B
    assert verify_certificate(ODD4_A, ODD4_B, cert)
    assert eval_at_matrix(ODD4_A_FROM_B, ODD4_B) == ODD4_A
    assert eval_at_matrix(ODD4_B_FROM_A, ODD4_A) == ODD4_B
    # the general-class certificates for the same pair
    gcert = equivalence_certificate(ODD4_A, ODD4_B, GENERAL)
    assert gcert.f == ODD4_B_FROM_A_GENERAL
    assert gcert.g == ODD4_A_FROM_B_GENERAL


def test_odd_golden_unbalanced_invertible_pair():
    cert = equivalence_certificate(TRI4_A, TRI4_B, ODD)
    assert cert is not None
    assert cert.f == TRI4_B_FROM_A
    assert cert.g == TRI4_A_FROM_B
    assert verify_certificate(TRI4_A, TRI4_B, cert)


def test_odd_golden_remark_diagonal():
    cert = equivalence_certificate(DIAG2_A, DIAG2_B, ODD)
    assert cert is not None
    assert cert.f == DIAG2_B_FROM_A
    assert cert.g == DIAG2_A_FROM_B


def test_counterexample_equal_clifforders_not_equivalent():
    ca = clifforder_basis(COUNTER_A)
    cb = clifforder_basis(COUNTER_B)
    assert ca.dim == 0 and cb.dim == 0
    assert subspace_equal(ca, cb)
    assert equivalence_certificate(COUNTER_A, COUNTER_B, GENERAL) is None
    assert equivalence_certificate(COUNTER_A, COUNTER_B, ODD) is None


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=10 ** 6),
    st.fractions(min_value=Fraction(-4), max_value=Fraction(4), max_denominator=4),
    st.fractions(min_value=Fraction(-4), max_value=Fraction(4), max_denominator=4),
)
def test_scalar_affine_closure(seed, a, b):
    if a == 0:
        a = Fraction(1, 2)
    A = random_jordan_matrix(seed, 2 + seed % 3)
    B = A.scale(a) + Matrix.identity(A.rows, QQ).scale(b)
    cert = equivalence_certificate(A, B, GENERAL)
    assert cert is not None
    assert verify_certificate(A, B, cert)


def test_centralizer_biconditional_small():
    # Theorem-level equivalence on a couple of hand instances
    A = Matrix.jordan(3, 0, QQ)
    B = eval_at_matrix(poly([0, 2, 1]), A)  # a_1 != 0
    assert subspace_equal(centralizer_basis(A), centralizer_basis(B))
    assert equivalence_certificate(A, B, GENERAL) is not None
    C = eval_at_matrix(poly([0, 0, 1]), A)  # a_1 = 0: A not a polynomial of C
    assert not subspace_equal(centralizer_basis(A), centralizer_basis(C))
    assert equivalence_certificate(A, C, GENERAL) is None


def test_nilpotent_odd_biconditional():
    # Theorem 4.2 shape: nilpotent A, B an odd polynomial of A with a_1 != 0
    for seed, n in [(1, 3), (2, 4), (3, 5)]:
        A = Matrix.jordan(n, 0, QQ)
        B = eval_at_matrix(poly([0, 2, 0, -1]), A)
        assert subspace_equal(clifforder_basis(A), clifforder_basis(B))
        cert = equivalence_certificate(A, B, ODD)
        assert cert is not None and verify_certificate(A, B, cert)
        # odd polynomial with a_1 = 0 breaks both sides
        C = eval_at_matrix(poly([0, 0, 0, 1]), A)
        assert equivalence_certificate(A, C, ODD) is None
        if n >= 3:
            assert not subspace_equal(clifforder_basis(A), clifforder_basis(C))


def test_crt_gluing():
    # blockwise certificates glue across coprime characteristic
    # polynomials, and the direct solver finds the glued certificate
    A1, B1 = Matrix.jordan(2, 1, QQ), Matrix.jordan(2, 2, QQ)
    A2, B2 = Matrix.diag([-3], QQ), Matrix.diag([-5], QQ)
    f1 = express_in_powers(B1, A1)
    f2 = express_in_powers(B2, A2)
    assert f1 is not None and f2 is not None
    m1, m2 = char_poly(A1), char_poly(A2)
    glued = poly_crt([f1, f2], [m1, m2])
    A = Matrix.block_diag([A1, A2])
    B = Matrix.block_diag([B1, B2])
    assert eval_at_matrix(glued, A) == B
    direct = express_in_powers(B, A)
    assert direct is not None
    # both are degree < 3 solutions of the same full-rank system
    assert direct == glued % (m1 * m2) or eval_at_matrix(direct, A) == B


def test_shape_and_field_errors():
    with pytest.raises(ShapeMismatch):
        express_in_powers(Matrix.identity(2, QQ), Matrix.identity(3, QQ))
    with pytest.raises(FieldMismatch):
        express_in_powers(Matrix.identity(2, QQ), Matrix.identity(2, QQ).promote(3))


def test_verify_certificate_checks_shapes_before_the_polynomials():
    # f = g = x holds for any pair A = B; shapes are refused first
    x = Certificate(f=poly([0, 1]), g=poly([0, 1]), cls=GENERAL)
    I2, I3, wide = Matrix.identity(2, QQ), Matrix.identity(3, QQ), mat([[1, 2, 3], [4, 5, 6]])
    assert verify_certificate(I2, I2, x)
    for A, B in ((wide, I2), (I2, wide), (wide, wide)):
        with pytest.raises(NotSquare, match="certificate check needs square matrices"):
            verify_certificate(A, B, x)
    with pytest.raises(ShapeMismatch, match="sizes differ: 2 vs 3"):
        verify_certificate(I2, I3, x)


def test_express_steps_by_the_class_power(monkeypatch):
    # The class powers A^1, A^(1+q), ..., A^(1+5q) are read as x^e mod m_A
    # in F[x]/(m_A), so no n x n power is taken per class exponent: only
    # the step S = x^q(C), C the 6 x 6 companion of m_A, is a power, and
    # its square-and-multiply costs grow with log q.  Products are
    # counted at the integer kernel, split by the right factor: square
    # (6 x 6) or narrow (at most two columns).
    # _reduce, as for every class: the seeded first draw v has a degree-4
    # Krylov polynomial, so the Krylov iteration stops at M^4 v after four
    # narrow steps, and four Horner steps on the two unit vectors outside
    # its span (narrow) reject it; the second draw is cyclic (this A is):
    # six narrow steps to M^6 v and no check product; one narrow product
    # B*v, and four square Horner steps check f0(A) = B with f0 = x + 2x^4.
    # _class_solve: one square product for x(C) = C, the power S = C^q
    # (q = 3, 5, 9: 2, 3, 4 square products), five narrow S*y for the
    # columns after C e_0, and deg f narrow Horner steps for the check,
    # f = x + 2x^4 for q = 3; for q = 5 and 9 the 6 x 6 system is
    # nonsingular and f reaches the last exponent 1 + 5q.
    A = mat([[i + 1 if j == i else 1 if j > i else 0 for j in range(6)] for i in range(6)])
    B = A + (A ** 4).scale(2)
    shapes = []
    count_products(monkeypatch, shapes)
    counts = []
    for q in (3, 5, 9):
        shapes.clear()
        f = express_in_powers(B, A, CongruenceClass.q_class(q))
        square = sum(cols == inner for _, inner, cols in shapes)
        counts.append((square, len(shapes) - square))
        if q == 3:
            assert f == poly([0, 1, 0, 0, 2])
        else:
            assert f.degree == 1 + 5 * q
    reduce_square, reduce_narrow = 4, 4 + 4 + 6 + 1
    assert counts == [(reduce_square + 1 + 2, reduce_narrow + 5 + 4),
                      (reduce_square + 1 + 3, reduce_narrow + 5 + 26),
                      (reduce_square + 1 + 4, reduce_narrow + 5 + 46)]


def test_certificates_take_no_matrix_power(monkeypatch):
    def forbidden(self, k):
        raise AssertionError("matrix power taken")

    monkeypatch.setattr(Matrix, "__pow__", forbidden)
    Q3 = CongruenceClass.q_class(3)
    for A, B, cls in [(PAIR5_A, PAIR5_B, GENERAL), (ODD4_A, ODD4_B, ODD), (TRI4_A, TRI4_B, ODD),
                      (COUNTER_A, COUNTER_B, GENERAL), (PAIR5_A, PAIR5_B, Q3)]:
        equivalence_certificate(A, B, cls)
        equivalence_certificate(B, A, cls)


# ------------------------------------- certificates vs the stacked-powers oracle

_Z3 = FieldTag.cyclotomic(3)
_z3 = CycloScalar.zeta(3)
CLASSES = [GENERAL, ODD, CongruenceClass.q_class(3), CongruenceClass.q_class(4)]
_PARTITIONS = [(1,), (2,), (1, 1), (3,), (2, 1), (4,), (2, 2), (3, 1), (2, 1, 1), (5,), (3, 2), (4, 1)]
seeds = st.integers(0, 10 ** 6)


def _nilpotent(sizes, seed):
    return conjugated(Matrix.block_diag([Matrix.jordan(k, 0, QQ) for k in sizes]), seed)


base_inputs = st.one_of(
    st.builds(random_jordan_matrix, seeds, st.integers(2, 5)),
    st.builds(random_rational_matrix, seeds, st.integers(1, 4), st.integers(1, 2)),
    st.builds(_nilpotent, st.sampled_from(_PARTITIONS), seeds),
    # scalar matrices, the zero matrix and 1x1 matrices among them
    st.builds(lambda n, c: Matrix.identity(n, QQ).scale(c), st.integers(1, 3), st.integers(-2, 2)),
)


@st.composite
def certificate_inputs(draw):
    """(A, B, cls) over Q or Q(zeta_3).  B is a polynomial in A (any
    exponents, or class exponents only), or a random matrix, which is
    almost never in F[A]."""
    A = draw(base_inputs)
    cls = draw(st.sampled_from(CLASSES))
    cyclo = draw(st.booleans())
    n = A.rows
    field = _Z3 if cyclo else QQ
    if cyclo:
        A = A.promote(3)
    kind = draw(st.sampled_from(["poly", "class", "outside"]))
    if kind == "outside":
        B = random_rational_matrix(draw(seeds), n, 2)
        if cyclo:
            B = B.promote(3) + A.scale(_z3)
        return A, B, cls
    # denominators 2 and 3 give f0, the columns and the target denominators
    coeffs = draw(st.lists(st.builds(Fraction, st.integers(-2, 2), st.sampled_from([1, 2, 3])),
                           min_size=n + 2, max_size=n + 2))
    if kind == "class":
        coeffs = [c if cls.allows(e) else 0 for e, c in enumerate(coeffs)]
    lifted = [field.coerce(c) * (_z3 if cyclo and e % 2 else 1) for e, c in enumerate(coeffs)]
    return A, eval_at_matrix(Poly.make(lifted, field), A), cls


@settings(max_examples=80, deadline=None)
@given(certificate_inputs())
def test_certificates_equal_stacked_powers_oracle(case):
    A, B, cls = case
    f = reference_express_in_powers(B, A, cls)
    assert express_in_powers(B, A, cls) == f
    g = reference_express_in_powers(A, B, cls) if f is not None else None
    cert = equivalence_certificate(A, B, cls)
    if f is None or g is None:
        assert cert is None
    else:
        assert (cert.f, cert.g) == (f, g)


def test_certificates_equal_oracle_on_fixed_inputs():
    J = Matrix.jordan(3, 0, QQ)
    for A, B in [(Matrix.zero(3, 3, QQ), Matrix.zero(3, 3, QQ)), (mat([[0]]), mat([[0]])),
                 (mat([[Fraction(-5, 2)]]), mat([[3]])), (Matrix.identity(4, QQ), Matrix.identity(4, QQ)),
                 (J, J * J), (J * J, J), (PAIR5_A, PAIR5_B), (ODD4_A, ODD4_B), (COUNTER_A, COUNTER_B)]:
        for cls in CLASSES:
            for X, Y in [(A, B), (A.promote(3), B.promote(3))]:
                f = reference_express_in_powers(Y, X, cls)
                g = reference_express_in_powers(X, Y, cls)
                assert express_in_powers(Y, X, cls) == f
                cert = equivalence_certificate(X, Y, cls)
                assert (cert.f, cert.g) == (f, g) if f is not None and g is not None else cert is None


# ---------------------------------------- a corrupted certificate is never returned

# the lifted solves run in this order: 1 the Krylov coordinates of B*v, 2 the f
# system, 3 the g system
@pytest.mark.parametrize("which", [2, 3])
def test_perturbed_certificate_is_never_returned(monkeypatch, which):
    for A, B, cls in [(PAIR5_A, PAIR5_B, GENERAL), (ODD4_A, ODD4_B, ODD), (TRI4_A, TRI4_B, ODD)]:
        calls = perturb_first_coordinate(monkeypatch, equivalence, "_solve_lifted", which)
        with pytest.raises(VerificationError):
            equivalence_certificate(A, B, cls)
        assert calls[0] == which
    if which == 2:
        perturb_first_coordinate(monkeypatch, equivalence, "_solve_lifted", which)
        with pytest.raises(VerificationError):
            express_in_powers(PAIR5_B, PAIR5_A)
