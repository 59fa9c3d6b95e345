from fractions import Fraction

import pytest

from commutants import (
    AmbientMismatch,
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
from helpers import mat, reference_commutant_basis


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
