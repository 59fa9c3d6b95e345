"""Public refusals: each call below must raise exactly the given error
type, so that a caller (and the CLI's exit code 2) can tell bad input
from a failed check."""

from fractions import Fraction

import pytest

from commutants import (
    BlockDiag,
    BothZero,
    CongruenceClass,
    ConjugateBy,
    CycloScalar,
    FieldMismatch,
    FieldTag,
    GenSpec,
    InvalidSpec,
    Matrix,
    NilpotentBlocks,
    NotSquare,
    OmegaSpec,
    Poly,
    QQ,
    ShapeMismatch,
    ZeroInverse,
    ZeroPolynomial,
    ann_k_member,
    balanced_split,
    char_poly,
    class_exponents,
    clifforder_has_invertible,
    double_centralizer_basis,
    double_cover,
    eval_at_matrix,
    generate,
    invariant_factors,
    is_balanced_poly,
    kron,
    min_poly,
    omega_equivalence_check,
    poly_crt,
    poly_gcd,
    poly_xgcd,
    random_odd_poly,
    solve,
    subspace_contains,
    subspace_from_matrices,
    unvec,
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
    # NotSquare: every entry point that needs a square matrix
    ("char_poly", lambda: char_poly(WIDE), NotSquare),
    ("min_poly", lambda: min_poly(WIDE), NotSquare),
    ("invariant_factors", lambda: invariant_factors(WIDE), NotSquare),
    ("balanced_split", lambda: balanced_split(WIDE), NotSquare),
    ("double_cover", lambda: double_cover(WIDE), NotSquare),
    ("double_centralizer_basis", lambda: double_centralizer_basis(WIDE), NotSquare),
    ("clifforder_has_invertible", lambda: clifforder_has_invertible(WIDE), NotSquare),
    ("omega_equivalence_check", lambda: omega_equivalence_check(WIDE, WIDE, OmegaSpec(3)), NotSquare),
    ("ann_k_member", lambda: ann_k_member(WIDE, SQUARE, 1), NotSquare),
    ("Matrix.trace", lambda: WIDE.trace(), NotSquare),
    ("Matrix.inverse", lambda: WIDE.inverse(), NotSquare),
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
    ("subspace_from_matrices wide", lambda: subspace_from_matrices([WIDE]), NotSquare),
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
    ("cyclo_coeffs", lambda: cyclo_coeffs(0), ValueError),
    ("FieldTag.cyclotomic", lambda: FieldTag.cyclotomic(0), ValueError),
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


@pytest.mark.parametrize("call, error", [case[1:] for case in REFUSALS], ids=[case[0] for case in REFUSALS])
def test_refusal(call, error):
    with pytest.raises(error) as info:
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
