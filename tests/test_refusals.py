"""Public refusals: each call below must raise exactly the given error
type, so that a caller (and the CLI's exit code 2) can tell bad input
from a failed check, and where a row gives one, with that message."""

from fractions import Fraction

import pytest

from commutants import (
    BadDimensions,
    BadExponent,
    BlockDiag,
    BothZero,
    Certificate,
    CongruenceClass,
    ConjugateBy,
    CycloScalar,
    FieldMismatch,
    FieldTag,
    GenSpec,
    IndexOutOfRange,
    InvalidSpec,
    Matrix,
    NilpotentBlocks,
    NotSquare,
    OmegaSpec,
    Poly,
    QQ,
    ShapeMismatch,
    StructureReport,
    ZeroInverse,
    ZeroPolynomial,
    ad_power_kernel,
    ann_k_member,
    balanced_split,
    centralizer_basis,
    char_poly,
    class_exponents,
    clifforder_basis,
    clifforder_has_invertible,
    commutant_operator,
    double_centralizer_basis,
    double_cover,
    eval_at_matrix,
    express_in_powers,
    generate,
    invariant_factors,
    is_balanced_matrix,
    is_balanced_poly,
    k_matrix,
    kron,
    min_poly,
    omega_centralizer_basis,
    omega_commutes,
    omega_equivalence_check,
    poly_crt,
    poly_gcd,
    poly_xgcd,
    random_odd_poly,
    solve,
    subspace_contains,
    subspace_from_matrices,
    unvec,
    verify_certificate,
    weyl_pair,
)
from commutants.cli import main
from commutants.matrices import vstack_rows
from commutants.scalars import cyclo_coeffs
from helpers import mat, poly

Q3 = FieldTag.cyclotomic(3)
WIDE = mat([[1, 2, 3], [4, 5, 6]])
SQUARE = mat([[1, 2], [3, 4]])
SQUARE3 = SQUARE.promote(3)
F = poly([1, 1])
F3 = Poly.make([1, 1], Q3)
NILPOTENT_SPEC = GenSpec(NilpotentBlocks((2,)))

REFUSALS = [
    # NotSquare: every entry point that needs a square matrix, with the
    # message of the single-matrix guard
    ("char_poly", lambda: char_poly(WIDE), NotSquare, "^characteristic polynomial needs a square matrix$"),
    ("min_poly", lambda: min_poly(WIDE), NotSquare, "^minimal polynomial needs a square matrix$"),
    ("invariant_factors", lambda: invariant_factors(WIDE), NotSquare, "^invariant factors need a square matrix$"),
    ("is_balanced_matrix", lambda: is_balanced_matrix(WIDE), NotSquare, "^invariant factors need a square matrix$"),
    ("StructureReport.of", lambda: StructureReport.of(WIDE), NotSquare, "^structure report needs a square matrix$"),
    ("balanced_split", lambda: balanced_split(WIDE), NotSquare, "^balanced split needs a square matrix$"),
    ("double_cover", lambda: double_cover(WIDE), NotSquare, "^double cover needs a square matrix$"),
    ("centralizer_basis", lambda: centralizer_basis(WIDE), NotSquare, "^commutant needs a square matrix$"),
    ("clifforder_basis", lambda: clifforder_basis(WIDE), NotSquare, "^commutant needs a square matrix$"),
    ("omega_centralizer_basis", lambda: omega_centralizer_basis(WIDE, OmegaSpec(3)), NotSquare, "^commutant needs a square matrix$"),
    ("double_centralizer_basis", lambda: double_centralizer_basis(WIDE), NotSquare, "^double centralizer needs a square matrix$"),
    ("clifforder_has_invertible", lambda: clifforder_has_invertible(WIDE), NotSquare, "^clifforder test needs a square matrix$"),
    ("commutant_operator", lambda: commutant_operator(WIDE, 1), NotSquare, "^commutant operator needs a square matrix$"),
    ("ad_power_kernel", lambda: ad_power_kernel(WIDE, 1), NotSquare, "^ad-power kernel needs a square matrix$"),
    ("eval_at_matrix wide", lambda: eval_at_matrix(F, WIDE), NotSquare, "^polynomial evaluation needs a square matrix$"),
    # the pair guard's callers, with its message
    ("omega_equivalence_check", lambda: omega_equivalence_check(WIDE, WIDE, OmegaSpec(3)), NotSquare, "^equivalence check needs square matrices$"),
    ("ann_k_member", lambda: ann_k_member(WIDE, SQUARE, 1), NotSquare, "^ann_k membership needs square matrices$"),
    ("express_in_powers", lambda: express_in_powers(SQUARE, WIDE), NotSquare, "^power expression needs square matrices$"),
    ("verify_certificate", lambda: verify_certificate(SQUARE, WIDE, Certificate(F, F, CongruenceClass.general())), NotSquare, "^certificate check needs square matrices$"),
    ("omega_commutes", lambda: omega_commutes(WIDE, SQUARE, OmegaSpec(3)), NotSquare, "^quasi-commutation needs square matrices$"),
    ("Matrix.__pow__", lambda: WIDE ** 2, NotSquare, "^powers need a square matrix$"),
    ("Matrix.trace", lambda: WIDE.trace(), NotSquare, "^trace needs a square matrix$"),
    ("Matrix.det", lambda: WIDE.det(), NotSquare, "^determinant needs a square matrix$"),
    ("Matrix.inverse", lambda: WIDE.inverse(), NotSquare, "^inverse needs a square matrix$"),
    # FieldMismatch: Q against Q(zeta_3)
    ("ann_k_member fields", lambda: ann_k_member(SQUARE, SQUARE3, 1), FieldMismatch),
    ("kron", lambda: kron(SQUARE, SQUARE3), FieldMismatch),
    ("poly_gcd", lambda: poly_gcd(F, F3), FieldMismatch),
    ("poly_xgcd", lambda: poly_xgcd(F, F3), FieldMismatch),
    ("eval_at_matrix", lambda: eval_at_matrix(F, SQUARE3), FieldMismatch),
    ("subspace_contains", lambda: subspace_contains(subspace_from_matrices([SQUARE]), SQUARE3), FieldMismatch),
    ("Matrix.block_diag fields", lambda: Matrix.block_diag([SQUARE, SQUARE3]), FieldMismatch),
    ("Poly.constant", lambda: Poly.constant(CycloScalar.zeta(3), QQ), FieldMismatch),
    # ShapeMismatch
    ("solve", lambda: solve(SQUARE, [1, 2, 3]), ShapeMismatch),
    ("unvec", lambda: unvec([1, 2, 3], 2, QQ), ShapeMismatch),
    ("Matrix.make([])", lambda: Matrix.make([]), ShapeMismatch),
    ("Matrix.block_diag([])", lambda: Matrix.block_diag([]), ShapeMismatch),
    ("A + B", lambda: SQUARE + mat([[1]]), ShapeMismatch),
    ("class_exponents", lambda: class_exponents(CongruenceClass.general(), 0), ShapeMismatch),
    ("subspace_from_matrices empty", lambda: subspace_from_matrices([]), ShapeMismatch),
    ("subspace_from_matrices wide", lambda: subspace_from_matrices([WIDE]), NotSquare, "^subspace members must be square$"),
    ("subspace_from_matrices sizes", lambda: subspace_from_matrices([SQUARE, mat([[1]])]), ShapeMismatch),
    ("subspace_from_matrices ambient", lambda: subspace_from_matrices([SQUARE], ambient_n=3), ShapeMismatch),
    ("subspace_from_matrices fields", lambda: subspace_from_matrices([SQUARE, SQUARE3]), FieldMismatch),
    ("vstack_rows([])", lambda: vstack_rows([], QQ), ShapeMismatch),
    # polynomials
    ("random_odd_poly", lambda: random_odd_poly(0, 0), InvalidSpec),
    ("poly_xgcd zeros", lambda: poly_xgcd(Poly.zero(), Poly.zero()), BothZero),
    ("poly_gcd zeros", lambda: poly_gcd(Poly.zero(), Poly.zero()), BothZero),
    ("divmod(Poly, 0)", lambda: divmod(F, Poly.zero()), ZeroPolynomial),
    ("poly_crt lengths", lambda: poly_crt([F], [F, poly([0, 1])]), ValueError),
    ("poly_crt empty", lambda: poly_crt([], []), ValueError),
    ("is_balanced_poly", lambda: is_balanced_poly(Poly.zero()), ZeroPolynomial),
    ("Poly.leading", lambda: Poly.zero().leading, ZeroPolynomial),
    ("Poly + Poly fields", lambda: F + F3, FieldMismatch),
    ("Poly * Poly fields", lambda: F * F3, FieldMismatch),
    # scalars and fields
    ("CycloScalar.as_fraction", lambda: CycloScalar.zeta(3).as_fraction(), ValueError),
    ("CycloScalar / 0", lambda: CycloScalar.zeta(3) / 0, ZeroInverse),
    ("cyclo_coeffs", lambda: cyclo_coeffs(0), ValueError, "^conductor must be a positive integer$"),
    ("FieldTag.cyclotomic", lambda: FieldTag.cyclotomic(0), ValueError),
    # booleans are not integers, though True would pass for 1
    ("FieldTag.cyclotomic(True)", lambda: FieldTag.cyclotomic(True), ValueError, "^conductor must be a positive integer$"),
    ("OmegaSpec(True)", lambda: OmegaSpec(True), InvalidSpec, "^order q must be a positive integer$"),
    ("OmegaSpec(5, True)", lambda: OmegaSpec(5, True), InvalidSpec, "^k=True is not coprime to q=5$"),
    ("CongruenceClass.q_class(True)", lambda: CongruenceClass.q_class(True), ValueError, "^congruence modulus must be a positive integer$"),
    ("ad_power_kernel(A, True)", lambda: ad_power_kernel(SQUARE, True), BadExponent, r"^power k=True outside 1\.\.16$"),
    ("ann_k_member(X, B, True)", lambda: ann_k_member(SQUARE, SQUARE, True), BadExponent, "^power k=True must be a positive integer$"),
    ("class_exponents(cls, True)", lambda: class_exponents(CongruenceClass.general(), True), ShapeMismatch, "^matrix size must be positive$"),
    ("ad_power_kernel(max_power=True)", lambda: ad_power_kernel(SQUARE, 1, max_power=True), BadExponent, "^max_power=True must be a positive integer$"),
    ("cyclo_coeffs(True)", lambda: cyclo_coeffs(True), ValueError, "^conductor must be a positive integer$"),
    ("CycloScalar.zeta(True)", lambda: CycloScalar.zeta(True), ValueError, "^conductor must be a positive integer$"),
    ("CycloScalar.zeta(3, True)", lambda: CycloScalar.zeta(3, True), ValueError, "^exponent of zeta must be an integer$"),
    ("Matrix.identity(True)", lambda: Matrix.identity(True), BadDimensions, "^matrix size True is not a non-negative integer$"),
    ("Matrix.jordan(True, 0)", lambda: Matrix.jordan(True, 0, QQ), BadDimensions, "^matrix size True is not a non-negative integer$"),
    ("Matrix.zero(2, True)", lambda: Matrix.zero(2, True), BadDimensions, "^matrix size True is not a non-negative integer$"),
    # sizes below zero, and conductor 0
    ("Matrix.identity(-1)", lambda: Matrix.identity(-1), BadDimensions, "^matrix size -1 is not a non-negative integer$"),
    ("Matrix.zero(-1)", lambda: Matrix.zero(-1), BadDimensions, "^matrix size -1 is not a non-negative integer$"),
    ("Matrix.jordan(-1, 0)", lambda: Matrix.jordan(-1, 0, QQ), BadDimensions, "^matrix size -1 is not a non-negative integer$"),
    ("CycloScalar.zeta(0)", lambda: CycloScalar.zeta(0), ValueError, "^conductor must be a positive integer$"),
    # matrix units and K_n^(i): sizes through the size guard, indices
    # that are bools or out of range refused
    ("Matrix.elem(-1, 0, 0)", lambda: Matrix.elem(-1, 0, 0), BadDimensions, "^matrix size -1 is not a non-negative integer$"),
    ("Matrix.elem(True, 0, 0)", lambda: Matrix.elem(True, 0, 0), BadDimensions, "^matrix size True is not a non-negative integer$"),
    ("Matrix.elem(2, 5, 5)", lambda: Matrix.elem(2, 5, 5), IndexOutOfRange, r"^index 5 outside range\(2\)$"),
    ("Matrix.elem(2, 0, -1)", lambda: Matrix.elem(2, 0, -1), IndexOutOfRange, r"^index -1 outside range\(2\)$"),
    ("Matrix.elem(2, True, 0)", lambda: Matrix.elem(2, True, 0), IndexOutOfRange, r"^index True outside range\(2\)$"),
    ("Matrix.elem(0, 0, 0)", lambda: Matrix.elem(0, 0, 0), IndexOutOfRange, r"^index 0 outside range\(0\)$"),
    ("k_matrix(True, 1)", lambda: k_matrix(True, 1), BadDimensions, "^matrix size True is not a non-negative integer$"),
    ("k_matrix(3, True)", lambda: k_matrix(3, True), IndexOutOfRange, r"^i=True outside 1\.\.3$"),
    # a congruence class checks its modulus when it is built: below 1
    # the certificate solver would raise the step base to a negative
    # power, and square-and-multiply never ends; the row is the class
    # itself, so that no regression can reach that loop
    *[(f"CongruenceClass({q!r})", lambda q=q: CongruenceClass(q), ValueError, "^congruence modulus must be a positive integer$") for q in (0, -2, True, 2.0, "3")],
    # sizes of generated pairs and polynomials
    ("weyl_pair(1, True)", lambda: weyl_pair(1, True), BadDimensions, "^size n=True is not a positive multiple of q=1$"),
    ("weyl_pair(2, 2.0)", lambda: weyl_pair(2, 2.0), BadDimensions, r"^size n=2\.0 is not a positive multiple of q=2$"),
    ("random_odd_poly(0, True)", lambda: random_odd_poly(0, True), InvalidSpec, "^matrix size must be positive$"),
    ("unvec([1], -1)", lambda: unvec([1], -1, QQ), BadDimensions, "^matrix size -1 is not a non-negative integer$"),
    ("unvec([1], True)", lambda: unvec([1], True, QQ), BadDimensions, "^matrix size True is not a non-negative integer$"),
    ("subspace_from_matrices([], ambient_n=-1)", lambda: subspace_from_matrices([], ambient_n=-1, field=QQ), BadDimensions, "^matrix size -1 is not a non-negative integer$"),
    ("subspace_from_matrices([], ambient_n=True)", lambda: subspace_from_matrices([], ambient_n=True, field=QQ), BadDimensions, "^matrix size True is not a non-negative integer$"),
    # powers take an int exponent, not a bool or a float, and refuse it
    # before square-and-multiply runs
    ("Matrix ** True", lambda: SQUARE ** True, BadExponent, "^a power needs an integer exponent$"),
    ("Matrix ** 2.0", lambda: SQUARE ** 2.0, BadExponent, "^a power needs an integer exponent$"),
    ("Poly ** True", lambda: F ** True, BadExponent, "^a power needs an integer exponent$"),
    ("Poly ** 2.0", lambda: F ** 2.0, BadExponent, "^a power needs an integer exponent$"),
    ("CycloScalar ** True", lambda: CycloScalar.zeta(3) ** True, BadExponent, "^a power needs an integer exponent$"),
    ("CycloScalar ** 2.0", lambda: CycloScalar.zeta(3) ** 2.0, BadExponent, "^a power needs an integer exponent$"),
    # a spec checks its size and seed when it is built
    ("GenSpec(size=True)", lambda: GenSpec(NilpotentBlocks((1,)), size=True), InvalidSpec, "^size must be an integer$"),
    ("GenSpec(seed=True)", lambda: GenSpec(NilpotentBlocks((1,)), seed=True), InvalidSpec, "^seed must be an integer$"),
    ("GenSpec(seed=1.0)", lambda: GenSpec(NilpotentBlocks((1,)), seed=1.0), InvalidSpec, "^seed must be an integer$"),
    # generator profiles of the wrong type
    ("BlockDiag part", lambda: generate(GenSpec(BlockDiag([NilpotentBlocks((2,))]))), InvalidSpec),
    ("ConjugateBy inner", lambda: generate(GenSpec(ConjugateBy(NilpotentBlocks((2,))))), InvalidSpec),
    ("unknown profile", lambda: generate(GenSpec(NILPOTENT_SPEC)), InvalidSpec),
    # operands of no known type
    ("Matrix + int", lambda: SQUARE + 2, TypeError),
    ("int - Matrix", lambda: 2 - SQUARE, TypeError),
    ("Matrix - int", lambda: SQUARE - 2, TypeError),
    ("Matrix * list", lambda: SQUARE * [1], TypeError),
    ("Poly + str", lambda: F + "x", TypeError),
    ("Poly * str", lambda: F * "x", TypeError),
    ("Poly - str", lambda: F - "x", TypeError),
    ("str - Poly", lambda: "x" - F, TypeError),
    ("divmod(Poly, str)", lambda: divmod(F, "x"), TypeError),
    ("CycloScalar * str", lambda: CycloScalar.zeta(3) * "x", TypeError),
    ("str / CycloScalar", lambda: "x" / CycloScalar.zeta(3), TypeError),
    ("CycloScalar + str", lambda: CycloScalar.zeta(3) + "x", TypeError),
    ("str - CycloScalar", lambda: "x" - CycloScalar.zeta(3), TypeError),
    ("CycloScalar / str", lambda: CycloScalar.zeta(3) / "x", TypeError),
]


@pytest.mark.parametrize("call, error, message", [(case[1], case[2], case[3] if len(case) > 3 else None) for case in REFUSALS], ids=[case[0] for case in REFUSALS])
def test_refusal(call, error, message):
    with pytest.raises(error, match=message) as info:
        call()
    assert info.type is error


def test_scalar_operands_are_accepted():
    # the accepting side of the table's operator rows
    assert SQUARE * 2 == 2 * SQUARE == SQUARE.scale(2) == mat([[2, 4], [6, 8]])
    assert SQUARE3 * Fraction(1, 2) == SQUARE3.scale(Fraction(1, 2))
    assert Poly.constant(3) == poly([3]) and Poly.constant(0).is_zero
    assert Poly.constant(CycloScalar.zeta(3), Q3) == Poly.make([[0, 1]], Q3)


def test_zero_poly_is_falsy_and_a_scalar_is_unequal_to_a_string():
    assert not Poly.zero()
    assert (CycloScalar.zeta(3) == "x") is False


def test_gen_spec_neither_json_nor_a_file(capsys, tmp_path):
    missing = str(tmp_path / "no-such-spec.json")
    assert main(["gen", "--spec", missing]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert '"error": "InvalidSpec"' in cap.err
