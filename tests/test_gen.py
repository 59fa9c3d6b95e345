import hashlib
import json
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from commutants import (
    BlockDiag,
    Companion,
    CongruenceClass,
    ConjugateBy,
    CycloScalar,
    DiagRational,
    FieldTag,
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
from commutants.cli import main
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


def _replayed_conjugator(n: int, seed: int, height: int = 3) -> Matrix:
    """The P that ConjugateBy draws: the first n x n matrix of
    random.Random(seed) integers in [-height, height] with nonzero det."""
    rng = random.Random(seed)
    while True:
        P = mat([[rng.randint(-height, height) for _ in range(n)] for _ in range(n)])
        if P.det():
            return P


def test_conjugate_by_preserves_similarity_invariants():
    inner = GenSpec(NilpotentBlocks((3, 2, 2)))
    base = generate(inner)
    for seed in range(6):
        A = generate(GenSpec(ConjugateBy(inner), seed=seed))
        P = _replayed_conjugator(base.rows, seed)  # A = P^-1 * base * P
        assert P.det() != 0
        assert P * A == base * P
        assert char_poly(A) == char_poly(base)
        assert min_poly(A) == min_poly(base)
        assert invariant_factors(A) == invariant_factors(base)
        assert is_balanced_matrix(A) == is_balanced_matrix(base)
        assert centralizer_basis(A).dim == centralizer_basis(base).dim


def test_conjugate_by_over_a_cyclotomic_companion():
    # the rational conjugator enters Q(zeta_q) with its zero planes
    for q in (3, 4, 5):
        field = FieldTag.cyclotomic(q)
        z = CycloScalar.zeta(q)
        for coeffs in ([z, 1], [1, z, 0, 1], [z * z, -z, 1, 1]):
            inner = GenSpec(Companion(poly(coeffs, field)))
            base = generate(inner)
            for seed in range(3):
                A = generate(GenSpec(ConjugateBy(inner), seed=seed))
                P = _replayed_conjugator(base.rows, seed).promote(q)
                assert A.field == field
                assert P * A == base * P
                assert A == P.inverse() * base * P


# sha256 of `gen --spec SPEC` stdout, pinned from the Fraction-inverse
# generator; the first spec's first draw is singular, so a retry runs
GEN_DIGESTS = [
    ({"profile": {"conjugate_by": {"inner": {"profile": {"nilpotent_blocks": [2, 1]}}, "height": 1}}, "seed": 0},
     "3bd04166dd608b6195eeb53cde2b12a5d7b39f15c6522cbffb3d37c25675383f"),
    ({"profile": {"conjugate_by": {"inner": {"profile": {"nilpotent_blocks": [3, 2, 2]}}}}, "seed": 7},
     "449eff34064201c83fc82c30742ca355fafeadd10258dcb23da656b18ca9d5e9"),
    ({"profile": {"conjugate_by": {"inner": {"profile": {"companion": [3, "1/2", 0, -1, 1]}}, "height": 2}}, "seed": 3},
     "b96fa011c84ff05f8816c6c3533f6560ec7162d2d849f7c9dfaad8431e58e2a8"),
    ({"profile": {"conjugate_by": {"inner": {"profile": {"diag_rational": ["1/2", "-2/3", 5]}}}}, "seed": 11},
     "221805efec1866fc75d982b12661891e379ab63e1a9a05e04901af52a1cce67b"),
    ({"profile": {"conjugate_by": {"inner": {"profile": {"block_diag": [{"profile": {"nilpotent_blocks": [2]}},
                                                                          {"profile": {"companion": [1, 0, 1]}}]}},
                                   "height": 3}}, "seed": 5},
     "cc00871853189b4814d829cbcfe4e02527db4cccaf14d6f4a59bb722ae1cc64e"),
]


@pytest.mark.parametrize("spec, digest", GEN_DIGESTS)
def test_gen_conjugate_by_stdout_is_pinned(spec, digest, capsys):
    assert main(["gen", "--spec", json.dumps(spec)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_first_draw_of_the_pinned_retry_spec_is_singular():
    rng = random.Random(0)
    first = mat([[rng.randint(-1, 1) for _ in range(3)] for _ in range(3)])
    assert first.det() == 0


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
    # bool is a subclass of int, but True is no block size or height
    with pytest.raises(InvalidSpec):
        generate(GenSpec(NilpotentBlocks((True, 2))))
    with pytest.raises(InvalidSpec):
        generate(GenSpec(ConjugateBy(GenSpec(NilpotentBlocks([2])), height=True)))


def test_size_override_matches():
    A = generate(GenSpec(NilpotentBlocks((2, 2)), size=4))
    assert A.rows == 4


def test_conjugate_by_refuses_after_every_draw_is_singular(monkeypatch):
    # every entry of every drawn conjugator is 0: all 64 draws singular
    import commutants.gen as gen

    draws = []

    class ScriptedRandom(random.Random):
        def randint(self, a, b):
            draws.append((a, b))
            return 0

    monkeypatch.setattr(gen, "random", SimpleNamespace(Random=ScriptedRandom))
    with pytest.raises(InvalidSpec, match="64 draws"):
        generate(GenSpec(ConjugateBy(GenSpec(NilpotentBlocks((2, 1))), height=2)))
    assert draws == [(-2, 2)] * (64 * 9)
