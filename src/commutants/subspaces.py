"""Subspaces of M_n as canonical RREF row spans.

A subspace is stored by the unique RREF of the vectorized spanning set,
which makes equality a plain tuple comparison.  Every `SubspaceBasis`
is written out by `_from_reduced`, from lifted rows each over its value
at its pivot column: `_reduced`'s rows for a span of given matrices,
for the commutant bases and for the double centralizer, and the kernel
rows of the ad-power kernels.  The commutant bases and the double
centralizer are checked on the integer rows they hand to
`_from_reduced`, so a check has seen exactly the rows returned.
Membership and containment read rows and their pivots (`_contains`): a
row lies in the span exactly when it is its own entries at the pivot
columns times those rows, one integer product.  A `SubspaceBasis`
argument's returned rows are lifted back to integers for that, and for
the invertibility probe, by `_rows`.  The probe is randomized but
seeded, so every run is replayable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from .errors import AmbientMismatch, ShapeMismatch
from .matrices import Matrix, _columns, _embed, _entries, _inverse, _lift, _Lifted, _mul_lifted, _reduced, _same, _scaled, _sizes, _square, unvec, vstack_rows
from .scalars import QQ, FieldTag, _same_field


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
        _sizes(ambient_n)
        return _from_reduced(_scaled(field, ambient_n * ambient_n, []), (), ambient_n)
    first = mats[0]
    _square(first, "subspace members must be square")
    n = first.rows
    f = first.field
    for m in mats:
        if m.shape != (n, n):
            raise ShapeMismatch(f"expected {n}x{n}, got {m.shape}")
        _same_field(m.field, f)
    if ambient_n is not None and ambient_n != n:
        raise ShapeMismatch(f"ambient_n={ambient_n} but matrices are {n}x{n}")
    return _from_reduced(*_reduced(_lift(vstack_rows([m.entries for m in mats], f))), n)


def _from_reduced(R: _Lifted, pivots: Sequence[int], n: int) -> SubspaceBasis:
    """The subspace of M_n whose canonical basis is R, RREF rows of vecs
    lifted each over its value at its pivot column, with those pivot
    columns: each entry is divided by its row's pivot once, so a check
    run on R has seen exactly the rows returned.  The one constructor
    of `SubspaceBasis`."""
    m = n * n
    flat = _entries(R)
    rows = tuple(flat[i * m : (i + 1) * m] for i in range(R.rows))
    return SubspaceBasis(R.field, n, R.rows, tuple(unvec(row, n, R.field) for row in rows), rows, tuple(pivots))


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
    """The returned RREF rows of a `SubspaceBasis` argument, lifted:
    membership, containment, the probe and the ad-power inclusion check
    read these, so they see exactly the rows a caller got.  A basis
    being built is checked on its integer rows before `_from_reduced`
    and is never lifted back."""
    return _lift(Matrix(S.field, S.dim, S.ambient_n**2, tuple(x for row in S.rref_rows for x in row)))


def _contains(R: _Lifted, pivots: Sequence[int], V: _Lifted) -> bool:
    """Whether every row of V lies in the span of R, lifted RREF rows
    with their pivot columns: a row does exactly when it equals its
    entries at the pivot columns (in every plane) times R, whose rows
    are 1 at their own pivot and 0 at the others."""
    return _same(_mul_lifted(_columns(V, pivots), R), V)


def subspace_contains(S: SubspaceBasis, X: Matrix) -> bool:
    """True iff vec(X) lies in the span of the stored RREF rows."""
    if X.shape != (S.ambient_n, S.ambient_n):
        raise AmbientMismatch(f"expected {S.ambient_n}x{S.ambient_n}, got {X.shape}")
    _same_field(X.field, S.field)
    return _contains(_rows(S), S.pivots, _lift(Matrix(X.field, 1, X.rows * X.cols, X.entries)))


def subspace_leq(S: SubspaceBasis, T: SubspaceBasis) -> bool:
    """True iff S is contained in T."""
    _check_same_ambient(S, T)
    return _contains(_rows(T), T.pivots, _rows(S))


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
        c = _embed(_scaled(QQ, S.dim, [coeffs]), S.field)
        X = Matrix(S.field, n, n, _entries(_mul_lifted(c, R)))
        if _inverse(_lift(X)) is not None:
            return X
    return None
