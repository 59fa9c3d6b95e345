from fractions import Fraction

import pytest

from commutants import (
    BlockDiag,
    Companion,
    CongruenceClass,
    ConjugateBy,
    DiagRational,
    GenSpec,
    InvalidSpec,
    Matrix,
    NilpotentBlocks,
    QQ,
    centralizer_basis,
    char_poly,
    generate,
    invariant_factors,
    is_balanced_matrix,
    min_poly,
    random_odd_poly,
)
from helpers import mat, poly


def test_nilpotent_blocks_golden():
    A = generate(GenSpec(NilpotentBlocks((2, 3))))
    want = Matrix.block_diag([Matrix.jordan(2, 0, QQ), Matrix.jordan(3, 0, QQ)])
    assert A == want
    assert A.rows == 5


def test_companion_golden():
    A = generate(GenSpec(Companion(poly([1, 0, 1]))))  # x^2 + 1
    assert A == mat([[0, -1], [1, 0]])
    assert char_poly(A) == poly([1, 0, 1])
    assert min_poly(A) == poly([1, 0, 1])


def test_diag_rational_golden():
    A = generate(GenSpec(DiagRational((Fraction(1), Fraction(2, 3), Fraction(1, 2)))))
    assert A == Matrix.diag([Fraction(1), Fraction(2, 3), Fraction(1, 2)], QQ)


def test_block_diag_profile():
    prof = BlockDiag((GenSpec(NilpotentBlocks((2,))),
                      GenSpec(DiagRational((Fraction(3),)))))
    A = generate(GenSpec(prof))
    assert A == mat([[0, 1, 0], [0, 0, 0], [0, 0, 3]])
    assert prof.size() == 3


def test_conjugate_by_preserves_similarity_invariants(monkeypatch):
    inverted = []
    plain_inverse = Matrix.inverse

    def recording_inverse(self):
        inv = plain_inverse(self)
        inverted.append(self)
        return inv

    monkeypatch.setattr(Matrix, "inverse", recording_inverse)
    inner = GenSpec(NilpotentBlocks((3, 2, 2)))
    base = generate(inner)
    for seed in range(6):
        A = generate(GenSpec(ConjugateBy(inner), seed=seed))
        P = inverted[-1]  # the conjugator: A = P^-1 * base * P
        assert P.det() != 0
        assert P * A == base * P
        assert char_poly(A) == char_poly(base)
        assert min_poly(A) == min_poly(base)
        assert invariant_factors(A) == invariant_factors(base)
        assert is_balanced_matrix(A) == is_balanced_matrix(base)
        assert centralizer_basis(A).dim == centralizer_basis(base).dim


def test_conjugate_by_actually_moves():
    inner = GenSpec(DiagRational((Fraction(1), Fraction(2), Fraction(3))))
    seen = set()
    for seed in range(5):
        A = generate(GenSpec(ConjugateBy(inner), seed=seed))
        seen.add(str(A.entries))
    assert len(seen) > 1


def test_determinism():
    spec = GenSpec(ConjugateBy(GenSpec(NilpotentBlocks((2, 2)))), seed=41)
    assert generate(spec) == generate(spec)
    other = GenSpec(ConjugateBy(GenSpec(NilpotentBlocks((2, 2)))), seed=42)
    assert generate(other) != generate(spec)


def test_random_odd_poly_defaults_to_odd():
    for seed in range(10):
        f = random_odd_poly(seed, 4)
        assert f.coeff(1) != 0
        for e in range(f.degree + 1):
            if f.coeff(e) != 0:
                assert e % 2 == 1


def test_random_odd_poly_q_class():
    cls = CongruenceClass.q_class(3)
    for seed in range(10):
        f = random_odd_poly(seed, 5, cls)
        assert f.coeff(1) != 0
        for e in range(f.degree + 1):
            if f.coeff(e) != 0:
                assert e % 3 == 1


def test_random_odd_poly_general_linear_term():
    for seed in range(10):
        f = random_odd_poly(seed, 3, CongruenceClass.general())
        assert f.coeff(1) != 0


def test_invalid_specs():
    with pytest.raises(InvalidSpec):
        generate(GenSpec(NilpotentBlocks(())))
    with pytest.raises(InvalidSpec):
        generate(GenSpec(NilpotentBlocks((0, 2))))
    with pytest.raises(InvalidSpec):
        generate(GenSpec(Companion(poly([5]))))
    with pytest.raises(InvalidSpec):
        generate(GenSpec(Companion(poly([1, 2]))))
    with pytest.raises(InvalidSpec):
        generate(GenSpec(DiagRational(())))
    with pytest.raises(InvalidSpec):
        generate(GenSpec(BlockDiag(())))
    with pytest.raises(InvalidSpec):
        generate(GenSpec(NilpotentBlocks((2,)), size=5))


def test_size_override_matches():
    A = generate(GenSpec(NilpotentBlocks((2, 2)), size=4))
    assert A.rows == 4
