"""The public API is fixed: the names `commutants.__all__` exports and the
signatures of its functions, checked against a recorded table.  A
failure here is a change of the API."""

import inspect

import commutants

PUBLIC_NAMES = [
    "AdOperator", "AlgebraError", "AmbientMismatch", "BadDimensions",
    "BadExponent", "BlockDiag", "BothZero", "Certificate", "Companion",
    "CongruenceClass", "ConjugateBy", "CycloScalar", "DEFAULT_MAX_POWER",
    "DegreeZero", "DiagRational", "FieldError", "FieldMismatch", "FieldTag",
    "GenSpec", "IndexOutOfRange", "InvalidSpec", "Matrix", "NilpotentBlocks",
    "NotCoprime", "NotInClass", "NotMonic", "NotNilpotent", "NotSquare",
    "OmegaEquivalenceReport", "OmegaSpec", "PairInvariantViolated",
    "ParseError", "Poly", "QQ", "QuasiPair", "RaggedRows", "ShapeMismatch",
    "StructureReport", "SubspaceBasis", "ZeroInverse", "ZeroPolynomial",
    "ad_inclusion_check", "ad_power_kernel", "ann_k_member", "balanced_split",
    "centralizer_basis", "char_poly", "class_exponents", "clifforder_basis",
    "clifforder_has_invertible", "commutant_operator", "companion",
    "cyclo_reduce", "cyclotomic_phi", "double_centralizer_basis",
    "double_cover", "equivalence_certificate", "eval_at_matrix",
    "express_in_powers", "generate", "invariant_factors", "is_balanced_matrix",
    "is_balanced_poly", "k_combo", "k_matrix", "kernel_basis", "kron",
    "min_poly", "omega_centralizer_basis", "omega_commutes",
    "omega_equivalence_check", "poly_crt", "poly_gcd", "poly_in_class",
    "poly_xgcd", "potter_check", "random_invertible_probe", "random_odd_poly",
    "restrict_to_class", "solve", "subspace_contains", "subspace_equal",
    "subspace_from_matrices", "subspace_leq", "unvec", "vec",
    "verify_certificate", "weyl_pair",
]

SIGNATURES = {
    "ad_inclusion_check": "(A: 'Matrix', f: 'Poly', k: 'int', max_power: 'int' = 16) -> 'bool'",
    "ad_power_kernel": "(A: 'Matrix', k: 'int', max_power: 'int' = 16) -> 'SubspaceBasis'",
    "ann_k_member": "(X: 'Matrix', B: 'Matrix', k: 'int') -> 'bool'",
    "balanced_split": "(A: 'Matrix') -> 'tuple[Matrix, Matrix]'",
    "centralizer_basis": "(A: 'Matrix') -> 'SubspaceBasis'",
    "char_poly": "(A: 'Matrix') -> 'Poly'",
    "class_exponents": "(cls: 'CongruenceClass', n: 'int') -> 'list[int]'",
    "clifforder_basis": "(A: 'Matrix') -> 'SubspaceBasis'",
    "clifforder_has_invertible": "(A: 'Matrix') -> 'bool'",
    "commutant_operator": "(A: 'Matrix', mu) -> 'Matrix'",
    "companion": "(f: 'Poly') -> 'Matrix'",
    "cyclo_reduce": "(coeffs: 'Sequence', q: 'int') -> 'CycloScalar'",
    "cyclotomic_phi": "(q: 'int') -> 'Poly'",
    "double_centralizer_basis": "(A: 'Matrix') -> 'SubspaceBasis'",
    "double_cover": "(A: 'Matrix') -> 'Matrix'",
    "equivalence_certificate": "(A: 'Matrix', B: 'Matrix', cls: 'CongruenceClass' = CongruenceClass(q=None)) -> 'Certificate | None'",
    "eval_at_matrix": "(f: 'Poly', A: 'Matrix') -> 'Matrix'",
    "express_in_powers": "(B: 'Matrix', A: 'Matrix', cls: 'CongruenceClass' = CongruenceClass(q=None)) -> 'Poly | None'",
    "generate": "(spec: 'GenSpec') -> 'Matrix'",
    "invariant_factors": "(A: 'Matrix') -> 'tuple[Poly, ...]'",
    "is_balanced_matrix": "(A: 'Matrix') -> 'bool'",
    "is_balanced_poly": "(f: 'Poly') -> 'bool'",
    "k_combo": "(n: 'int', coeffs) -> 'Matrix'",
    "k_matrix": "(n: 'int', i: 'int') -> 'Matrix'",
    "kernel_basis": "(M: 'Matrix') -> 'list[tuple]'",
    "kron": "(A: 'Matrix', B: 'Matrix') -> 'Matrix'",
    "min_poly": "(A: 'Matrix') -> 'Poly'",
    "omega_centralizer_basis": "(A: 'Matrix', w: 'OmegaSpec') -> 'SubspaceBasis'",
    "omega_commutes": "(A: 'Matrix', B: 'Matrix', w: 'OmegaSpec') -> 'bool'",
    "omega_equivalence_check": "(A: 'Matrix', B: 'Matrix', w: 'OmegaSpec') -> 'OmegaEquivalenceReport'",
    "poly_crt": "(residues: 'Sequence[Poly]', moduli: 'Sequence[Poly]') -> 'Poly'",
    "poly_gcd": "(f: 'Poly', g: 'Poly') -> 'Poly'",
    "poly_in_class": "(f: 'Poly', c: 'CongruenceClass') -> 'bool'",
    "poly_xgcd": "(f: 'Poly', g: 'Poly') -> 'tuple[Poly, Poly, Poly]'",
    "potter_check": "(pair: 'QuasiPair', s, t) -> 'bool'",
    "random_invertible_probe": "(S: 'SubspaceBasis', trials: 'int' = 64, seed: 'int' = 0) -> 'Matrix | None'",
    "random_odd_poly": "(seed: 'int', n: 'int', cls: 'CongruenceClass | None' = None) -> 'Poly'",
    "restrict_to_class": "(f: 'Poly', c: 'CongruenceClass') -> 'Poly'",
    "solve": "(M: 'Matrix', b: 'Sequence')",
    "subspace_contains": "(S: 'SubspaceBasis', X: 'Matrix') -> 'bool'",
    "subspace_equal": "(S: 'SubspaceBasis', T: 'SubspaceBasis') -> 'bool'",
    "subspace_from_matrices": "(mats: 'Sequence[Matrix]', ambient_n: 'int | None' = None, field: 'FieldTag | None' = None) -> 'SubspaceBasis'",
    "subspace_leq": "(S: 'SubspaceBasis', T: 'SubspaceBasis') -> 'bool'",
    "unvec": "(v: 'Sequence', n: 'int', field: 'FieldTag') -> 'Matrix'",
    "vec": "(M: 'Matrix') -> 'tuple'",
    "verify_certificate": "(A: 'Matrix', B: 'Matrix', cert: 'Certificate') -> 'bool'",
    "weyl_pair": "(q: 'int', n: 'int') -> 'QuasiPair'",
}


def test_structure_report_of_takes_the_matrix_alone():
    # a caller's split reaches the report through a private routine, not
    # through a private parameter of the public classmethod
    assert str(inspect.signature(commutants.StructureReport.of)) == "(A: 'Matrix') -> 'StructureReport'"


def test_public_names_are_fixed():
    assert sorted(commutants.__all__) == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 88


def test_public_function_signatures_are_fixed():
    functions = [n for n in commutants.__all__ if inspect.isfunction(getattr(commutants, n))]
    assert sorted(functions) == sorted(SIGNATURES)
    assert len(SIGNATURES) == 47
    for name in functions:
        assert str(inspect.signature(getattr(commutants, name))) == SIGNATURES[name], name
