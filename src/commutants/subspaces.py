"""Subspaces of M_n as canonical RREF row spans.

A subspace is stored by the unique RREF of the vectorized spanning set,
which makes equality a plain tuple comparison.  Membership, containment
and the invertibility probe run on the returned rows lifted to integers
(`_rows`): a row lies in the span exactly when it is its own entries at
the pivot columns times those rows, one integer product (`_contains`).
The probe is randomized but seeded, so every run is replayable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from .errors import AmbientMismatch, FieldMismatch, NotSquare, ShapeMismatch
from .matrices import Matrix, _columns, _embed, _entries, _inverse, _lift, _Lifted, _mul_lifted, _rref_lifted, _same, unvec, vstack_rows
from .scalars import QQ, FieldTag


@dataclass(frozen=True)
class SubspaceBasis:
    field: FieldTag
    ambient_n: int
    dim: int
    basis: tuple[Matrix, ...]
    rref_rows: tuple[tuple, ...]
    pivots: tuple[int, ...]


def subspace_from_matrices(
    mats: Sequence[Matrix],
    ambient_n: int | None = None,
    field: FieldTag | None = None,
) -> SubspaceBasis:
    """Span of the given matrices, canonicalized by row reduction.

    ``ambient_n`` and ``field`` are only needed for an empty list."""
    mats = list(mats)
    if not mats:
        if ambient_n is None or field is None:
            raise ShapeMismatch("empty span needs explicit ambient_n and field")
        return SubspaceBasis(field, ambient_n, 0, (), (), ())
    first = mats[0]
    if not first.is_square:
        raise NotSquare("subspace members must be square")
    n = first.rows
    f = first.field
    for m in mats:
        if m.shape != (n, n):
            raise ShapeMismatch(f"expected {n}x{n}, got {m.shape}")
        if m.field != f:
            raise FieldMismatch(f"{m.field} vs {f}")
    if ambient_n is not None and ambient_n != n:
        raise ShapeMismatch(f"ambient_n={ambient_n} but matrices are {n}x{n}")
    return _span(_lift(vstack_rows([m.entries for m in mats], f)), n)


def _span(L: _Lifted, n: int) -> SubspaceBasis:
    """The canonical basis of the span of L's rows, the vecs of n x n
    matrices in lifted form: scaling a row does not change the span, so
    integer rows from any stage feed the elimination core directly, and
    only the returned entries become field elements."""
    r = _rref_lifted(L)
    rows = tuple(r.rref.row(i) for i in range(r.rank))
    basis = tuple(unvec(row, n, L.field) for row in rows)
    return SubspaceBasis(L.field, n, r.rank, basis, rows, r.pivots)


def _check_same_ambient(S: SubspaceBasis, T: SubspaceBasis):
    if S.ambient_n != T.ambient_n or S.field != T.field:
        raise AmbientMismatch(
            f"M_{S.ambient_n} over {S.field} vs M_{T.ambient_n} over {T.field}"
        )


def subspace_equal(S: SubspaceBasis, T: SubspaceBasis) -> bool:
    """Exact equality of spans, via their canonical RREF rows."""
    _check_same_ambient(S, T)
    return S.rref_rows == T.rref_rows


def _rows(S: SubspaceBasis) -> _Lifted:
    """S's returned RREF rows, lifted: every check on S reads these, so it
    sees exactly the rows a caller gets."""
    return _lift(Matrix(S.field, S.dim, S.ambient_n**2, tuple(x for row in S.rref_rows for x in row)))


def _contains(S: SubspaceBasis, V: _Lifted) -> bool:
    """Whether every row of V, lifted n^2-vectors over S's field, lies in
    S: a row does exactly when it equals its entries at S's pivot columns
    (in every plane) times `_rows(S)`, which are 1 at their own pivot and
    0 at the others."""
    return _same(_mul_lifted(_columns(V, S.pivots), _rows(S)), V)


def subspace_contains(S: SubspaceBasis, X: Matrix) -> bool:
    """True iff vec(X) lies in the span of the stored RREF rows."""
    if X.shape != (S.ambient_n, S.ambient_n):
        raise AmbientMismatch(f"expected {S.ambient_n}x{S.ambient_n}, got {X.shape}")
    if X.field != S.field:
        raise FieldMismatch(f"{X.field} vs {S.field}")
    return _contains(S, _lift(Matrix(X.field, 1, X.rows * X.cols, X.entries)))


def subspace_leq(S: SubspaceBasis, T: SubspaceBasis) -> bool:
    """True iff S is contained in T."""
    _check_same_ambient(S, T)
    return _contains(T, _rows(S))


def random_invertible_probe(
    S: SubspaceBasis, trials: int = 64, seed: int = 0
) -> Matrix | None:
    """Search for an invertible element of S by sampling random integer
    combinations of the basis, with coefficient height growing per trial:
    each one integer product with `_rows(S)`, invertible when `_inverse`
    of it exists.  Returns None when nothing invertible was found; that
    is evidence, not proof, so callers needing certainty use the balanced
    criterion.
    """
    if S.dim == 0:
        return None
    rng = random.Random(seed)
    R, n = _rows(S), S.ambient_n
    for t in range(trials):
        h = 1 + t
        coeffs = [rng.randint(-h, h) for _ in range(S.dim)]
        if not any(coeffs):
            continue
        c = _embed(_Lifted(QQ, S.dim, [1], [coeffs]), S.field)
        X = Matrix(S.field, n, n, _entries(_mul_lifted(c, R)))
        if _inverse(_lift(X)) is not None:
            return X
    return None
