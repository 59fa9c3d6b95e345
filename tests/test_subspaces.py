import random
from fractions import Fraction

import pytest

from commutants import (
    AmbientMismatch,
    CycloScalar,
    FieldTag,
    Matrix,
    QQ,
    ShapeMismatch,
    clifforder_basis,
    random_invertible_probe,
    subspace_contains,
    subspace_equal,
    subspace_from_matrices,
    subspace_leq,
)
from commutants.scalars import phi_degree
from helpers import (
    mat,
    nilpotent,
    reference_commutant_basis,
    reference_contains,
    reference_invertible_probe,
    reference_leq,
)


def span(*mats, n=None):
    ms = [m for m in mats]
    return subspace_from_matrices(ms, ambient_n=n, field=QQ if n is not None else None)


def test_canonical_rref_representation():
    # two different spanning sets of the same plane
    a = span(mat([[1, 0], [0, 0]]), mat([[0, 0], [0, 1]]))
    b = span(mat([[1, 0], [0, 1]]), mat([[2, 0], [0, -1]]))
    assert a.dim == b.dim == 2
    assert subspace_equal(a, b)
    assert a.rref_rows == b.rref_rows


def test_dependent_spanning_set_collapses():
    m = mat([[1, 2], [3, 4]])
    s = span(m, m.scale(3), m - m)
    assert s.dim == 1
    assert subspace_contains(s, m.scale(Fraction(-7, 2)))
    assert not subspace_contains(s, Matrix.identity(2, QQ))


def test_empty_subspace_needs_explicit_ambient():
    s = subspace_from_matrices([], ambient_n=3, field=QQ)
    assert s.dim == 0
    assert subspace_contains(s, Matrix.zero(3, 3, QQ))
    with pytest.raises(ShapeMismatch):
        subspace_from_matrices([])


def test_leq_antisymmetry():
    e11, e12 = Matrix.elem(2, 0, 0, QQ), Matrix.elem(2, 0, 1, QQ)
    small = span(e11)
    big = span(e11, e12)
    assert subspace_leq(small, big)
    assert not subspace_leq(big, small)
    assert subspace_equal(big, big)
    assert not subspace_equal(small, big)


def test_ambient_mismatch():
    a = span(Matrix.identity(2, QQ))
    b = span(Matrix.identity(3, QQ))
    with pytest.raises(AmbientMismatch):
        subspace_equal(a, b)
    with pytest.raises(AmbientMismatch):
        subspace_contains(a, Matrix.identity(3, QQ))


def test_probe_finds_invertible_in_full_space():
    full = span(*[Matrix.elem(2, i, j, QQ) for i in range(2) for j in range(2)])
    w = random_invertible_probe(full, trials=32, seed=5)
    assert w is not None
    assert w.det() != 0
    assert subspace_contains(full, w)


def test_probe_none_on_singular_span():
    # every element has a zero first column, so none is invertible
    s = span(Matrix.elem(3, 0, 1, QQ), Matrix.elem(3, 0, 2, QQ))
    assert random_invertible_probe(s, trials=200, seed=0) is None


def test_probe_none_on_zero_dimensional_span():
    # the clifforder of I is {X : 2X = 0} = 0, by the Kronecker oracle
    # too; a zero-dimensional span holds no invertible matrix
    for s in (span(Matrix.zero(3, 3, QQ), n=3), clifforder_basis(Matrix.identity(2, QQ))):
        assert s.dim == 0
        assert random_invertible_probe(s, trials=200, seed=0) is None
    assert reference_commutant_basis(Matrix.identity(2, QQ), -1).dim == 0


def test_probe_deterministic():
    full = span(*[Matrix.elem(2, i, j, QQ) for i in range(2) for j in range(2)])
    w1 = random_invertible_probe(full, trials=16, seed=9)
    w2 = random_invertible_probe(full, trials=16, seed=9)
    assert w1 == w2


FIELDS = (QQ, FieldTag.cyclotomic(3), FieldTag.cyclotomic(5))


def _sample(rng, n, field):
    """A random n x n matrix over field, about 40% zero entries, the rest
    with small fractional (zeta-)coefficients."""
    def scalar():
        if rng.random() < 0.4:
            return field.zero()
        c = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(phi_degree(field.q) if field.q else 1)]
        return CycloScalar(field.q, tuple(c)) if field.q else c[0]

    return Matrix(field, n, n, tuple(scalar() for _ in range(n * n)))


def _chain(rng, n, field):
    """Nested spans of every dimension 0, 1, ..., n^2, each one random
    matrix more than the last, and the matrices added."""
    spans, mats = [subspace_from_matrices([], ambient_n=n, field=field)], []
    while spans[-1].dim < n * n:
        X = _sample(rng, n, field)
        S = subspace_from_matrices(mats + [X])
        if S.dim > spans[-1].dim:
            spans.append(S)
            mats.append(X)
    return spans, mats


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_contains_matches_the_field_reduction(field):
    # members, non-members, zero and a member with one entry changed,
    # against spans of every dimension, 0 and full included
    seen = set()
    for n in range(5):
        rng = random.Random(n)
        spans, mats = _chain(rng, n, field)
        assert [S.dim for S in spans] == list(range(n * n + 1))
        for k, S in enumerate(spans):
            member = Matrix.zero(n, n, field)
            for b in S.basis:
                member = member + b.scale(_sample(rng, 1, field).entries[0])
            candidates = [Matrix.zero(n, n, field), member, _sample(rng, n, field)]
            if k < len(mats):
                candidates.append(mats[k])  # the next span's new direction
            if n:
                i = rng.randrange(n * n)
                candidates.append(Matrix(field, n, n, member.entries[:i] + (member.entries[i] + 1,) + member.entries[i + 1 :]))
            for X in candidates:
                got = subspace_contains(S, X)
                assert got == reference_contains(S, X), (n, k, X)
                seen.add(got)
            assert subspace_contains(S, member)
            if k < len(mats):
                assert not subspace_contains(S, mats[k])
    assert seen == {True, False}


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_leq_matches_the_field_reduction(field):
    # two independent chains: within one, S_i <= S_j iff i <= j; across
    # them the oracle decides, against the empty span, the span of the
    # same dimension and the full space
    for n in range(5):
        rng = random.Random(100 + n)
        first, _ = _chain(rng, n, field)
        second, _ = _chain(rng, n, field)
        for i, S in enumerate(first):
            for j, T in enumerate(first):
                assert subspace_leq(S, T) == reference_leq(S, T) == (i <= j), (n, i, j)
            for j in {0, i, n * n}:  # empty, the same dimension, full
                T = second[j]
                assert subspace_leq(S, T) == reference_leq(S, T), (n, i, j)
                assert subspace_leq(T, S) == reference_leq(T, S), (n, i, j)


def test_leq_with_an_empty_side():
    for field in FIELDS:
        for n in (0, 1, 3):
            empty = subspace_from_matrices([], ambient_n=n, field=field)
            assert subspace_leq(empty, empty)
            if n:
                S = subspace_from_matrices([Matrix.identity(n, field)])
                assert subspace_leq(empty, S)
                assert not subspace_leq(S, empty)
                assert reference_leq(empty, S) and not reference_leq(S, empty)


def test_probe_matches_the_field_arithmetic_oracle():
    # the same seeded draws give the identical witness, or None, as the
    # Fraction combination tested by det; spans where some draws are
    # singular make the trial at which a witness appears matter
    e = lambda n, i, j, field=QQ: Matrix.elem(n, i, j, field)
    F3, F5 = FieldTag.cyclotomic(3), FieldTag.cyclotomic(5)
    spans = [
        span(*[e(2, i, j) for i in range(2) for j in range(2)]),
        span(e(2, 0, 0), e(2, 1, 1), e(2, 0, 1)),  # invertible iff c11 * c22 != 0
        span(e(3, 0, 1), e(3, 0, 2)),  # no invertible element
        clifforder_basis(nilpotent((2, 2), 3)),
        subspace_from_matrices([e(2, 0, 0, F3), e(2, 1, 1, F3), Matrix.identity(2, F3).scale(CycloScalar.zeta(3))]),
        subspace_from_matrices([e(3, 0, 0, F5) + e(3, 1, 1, F5).scale(CycloScalar.zeta(5)), e(3, 2, 2, F5), e(3, 1, 2, F5)]),
    ]
    found = set()
    for S in spans:
        for seed in (0, 1, 7):
            for trials in (1, 3, 16):
                w = random_invertible_probe(S, trials=trials, seed=seed)
                assert w == reference_invertible_probe(S, trials=trials, seed=seed), (S.dim, seed, trials)
                found.add(w is None)
    assert found == {True, False}
