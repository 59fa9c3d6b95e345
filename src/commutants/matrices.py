"""Dense exact matrices, elimination, kernels, Kronecker products.

Entries are stored row-major in a flat tuple, so ``vec`` (row-major
vectorization) is the identity on storage.  Everything is immutable and
deterministic: RREF is the unique reduced echelon form, kernel vectors
come out in the free-column order the pivots induce.

Elimination over Q runs fraction-free on scaled integer rows with gcd
normalization, which is roughly an order of magnitude faster than naive
Fraction pivoting at the n^2 x n^2 sizes the commutant solvers produce.
Cyclotomic matrices take the generic division path.  One determinant
routine, plain pivoting with division, serves both fields.

Products lift each row of the left factor and each column of the right
factor to integers over the lcm of its own denominators (over Q(zeta_q),
of all its zeta-coefficients), accumulate integer row axpys over the
nonzero entries of the left row and nonzero rows of the right factor,
and normalize each output entry once: one Fraction over Q, one
reduction mod Phi_q over Q(zeta_q).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, NamedTuple, Sequence

from .errors import FieldMismatch, NotSquare, ShapeMismatch, ZeroInverse
from .scalars import QQ, CycloScalar, FieldTag, Scalar, phi_degree


@dataclass(frozen=True)
class Matrix:
    field: FieldTag
    rows: int
    cols: int
    entries: tuple

    # ---- constructors ----

    @classmethod
    def make(cls, data: Sequence[Sequence], field: FieldTag = QQ) -> Matrix:
        data = [list(r) for r in data]
        if not data:
            raise ShapeMismatch("matrix needs at least one row")
        width = len(data[0])
        if any(len(r) != width for r in data):
            raise ShapeMismatch("rows of unequal length")
        flat = tuple(field.coerce(x) for row in data for x in row)
        return cls(field, len(data), width, flat)

    @classmethod
    def zero(cls, rows: int, cols: int | None = None, field: FieldTag = QQ) -> Matrix:
        cols = rows if cols is None else cols
        z = field.zero()
        return cls(field, rows, cols, (z,) * (rows * cols))

    @classmethod
    def identity(cls, n: int, field: FieldTag = QQ) -> Matrix:
        z, o = field.zero(), field.one()
        flat = tuple(o if i == j else z for i in range(n) for j in range(n))
        return cls(field, n, n, flat)

    @classmethod
    def diag(cls, values: Sequence, field: FieldTag = QQ) -> Matrix:
        vals = [field.coerce(v) for v in values]
        n = len(vals)
        z = field.zero()
        flat = tuple(vals[i] if i == j else z for i in range(n) for j in range(n))
        return cls(field, n, n, flat)

    @classmethod
    def jordan(cls, n: int, lam, field: FieldTag = QQ) -> Matrix:
        """Jordan block: lam on the diagonal, 1 on the superdiagonal."""
        lam = field.coerce(lam)
        z, o = field.zero(), field.one()
        flat = []
        for i in range(n):
            for j in range(n):
                flat.append(lam if i == j else o if j == i + 1 else z)
        return cls(field, n, n, tuple(flat))

    @classmethod
    def elem(cls, n: int, i: int, j: int, field: FieldTag = QQ) -> Matrix:
        """The matrix unit E_ij (0-indexed)."""
        z, o = field.zero(), field.one()
        flat = tuple(
            o if (r, c) == (i, j) else z for r in range(n) for c in range(n)
        )
        return cls(field, n, n, flat)

    @classmethod
    def block_diag(cls, blocks: Sequence[Matrix]) -> Matrix:
        if not blocks:
            raise ShapeMismatch("need at least one block")
        field = blocks[0].field
        if any(b.field != field for b in blocks):
            raise FieldMismatch("blocks over different fields")
        n = sum(b.rows for b in blocks)
        m = sum(b.cols for b in blocks)
        z = field.zero()
        grid = [[z] * m for _ in range(n)]
        r0 = c0 = 0
        for b in blocks:
            for i in range(b.rows):
                for j in range(b.cols):
                    grid[r0 + i][c0 + j] = b.at(i, j)
            r0 += b.rows
            c0 += b.cols
        return cls(field, n, m, tuple(x for row in grid for x in row))

    # ---- access ----

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def at(self, i: int, j: int):
        return self.entries[i * self.cols + j]

    def __getitem__(self, ij):
        return self.at(*ij)

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list]:
        return [list(self.row(i)) for i in range(self.rows)]

    def is_zero(self) -> bool:
        return not any(self.entries)

    # ---- arithmetic ----

    def _check_same_shape(self, other: Matrix):
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")
        if self.shape != other.shape:
            raise ShapeMismatch(f"{self.shape} vs {other.shape}")

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check_same_shape(other)
        flat = tuple(a + b for a, b in zip(self.entries, other.entries))
        return Matrix(self.field, self.rows, self.cols, flat)

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check_same_shape(other)
        flat = tuple(a - b for a, b in zip(self.entries, other.entries))
        return Matrix(self.field, self.rows, self.cols, flat)

    def __neg__(self):
        return Matrix(self.field, self.rows, self.cols, tuple(-a for a in self.entries))

    def scale(self, c) -> Matrix:
        c = self.field.coerce(c)
        return Matrix(self.field, self.rows, self.cols, tuple(c * a for a in self.entries))

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.field != other.field:
                raise FieldMismatch(f"{self.field} vs {other.field}")
            if self.cols != other.rows:
                raise ShapeMismatch(f"{self.shape} @ {other.shape}")
            return Matrix(self.field, self.rows, other.cols, _product(self, other))
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __pow__(self, k: int) -> Matrix:
        if not self.is_square:
            raise NotSquare("powers need a square matrix")
        if k < 0:
            return self.inverse() ** (-k)
        result = None  # stands for I, which is never multiplied in
        base = self
        while k:
            if k & 1:
                result = base if result is None else result * base
            base = base * base if k > 1 else base
            k >>= 1
        return Matrix.identity(self.rows, self.field) if result is None else result

    def transpose(self) -> Matrix:
        flat = tuple(
            self.entries[j * self.cols + i]
            for i in range(self.cols)
            for j in range(self.rows)
        )
        return Matrix(self.field, self.cols, self.rows, flat)

    def trace(self):
        if not self.is_square:
            raise NotSquare("trace needs a square matrix")
        acc = self.field.zero()
        for i in range(self.rows):
            acc = acc + self.at(i, i)
        return acc

    def promote(self, q: int) -> Matrix:
        """Embed a rational matrix into Q(zeta_q)."""
        if self.field.is_cyclotomic:
            if self.field.q == q:
                return self
            raise FieldMismatch(f"cannot promote {self.field} to Q(zeta_{q})")
        target = FieldTag.cyclotomic(q)
        return Matrix(
            target, self.rows, self.cols, tuple(target.coerce(x) for x in self.entries)
        )

    def det(self):
        if not self.is_square:
            raise NotSquare("determinant needs a square matrix")
        n = self.rows
        rows = [list(self.row(i)) for i in range(n)]
        det = self.field.one()
        for k in range(n):
            pivot_row = None
            for i in range(k, n):
                if rows[i][k]:
                    pivot_row = i
                    break
            if pivot_row is None:
                return self.field.zero()
            if pivot_row != k:
                rows[k], rows[pivot_row] = rows[pivot_row], rows[k]
                det = -det
            pv = rows[k][k]
            det = det * pv
            inv = 1 / pv
            rows[k] = [x * inv for x in rows[k]]
            for i in range(k + 1, n):
                v = rows[i][k]
                if v:
                    rows[i] = [x - v * y for x, y in zip(rows[i], rows[k])]
        return det

    def inverse(self) -> Matrix:
        if not self.is_square:
            raise NotSquare("inverse needs a square matrix")
        n = self.rows
        aug = hstack(self, Matrix.identity(n, self.field))
        r = rref(aug)
        if r.rank < n or any(p >= n for p in r.pivots):
            raise ZeroInverse("matrix is singular")
        flat = tuple(
            r.rref.entries[i * 2 * n + n + j] for i in range(n) for j in range(n)
        )
        return Matrix(self.field, n, n, flat)

    def __repr__(self):
        body = "; ".join(
            " ".join(str(x) for x in self.row(i)) for i in range(self.rows)
        )
        return f"Matrix<{self.field}, {self.rows}x{self.cols}: {body}>"


# ---- products ----


def _lift(values: Sequence) -> tuple[int, list[int]]:
    """The lcm d of the denominators of rational ``values`` and the
    integers d * x."""
    d = lcm(*(x.denominator for x in values))
    return d, [x.numerator * (d // x.denominator) for x in values]


def _product(A: Matrix, B: Matrix) -> tuple:
    # Over Q(zeta_q) an entry is its coefficient vector in powers of
    # zeta below phi = deg Phi_q; over Q, phi = 1.  Row i of A and column
    # j of B are lifted to integer coefficient planes over the lcms da_i
    # and db_j.  Entry (i, j) is then an integer polynomial over
    # da_i * db_j, accumulated unreduced in 2 phi - 1 planes by row axpys
    # over the nonzero entries of A and nonzero rows of B.
    q = A.field.q
    phi = phi_degree(q) if q else 1
    k, m = A.cols, B.cols

    def lift(values):
        d, ints = _lift([c for x in values for c in x.coeffs] if q else values)
        return d, [ints[e::phi] for e in range(phi)]

    b_cols = [lift(B.entries[j::m]) for j in range(m)]
    b_rows = [
        [row if any(row) else None for row in zip(*(col[f] for _, col in b_cols))]
        for f in range(phi)
    ]
    zero = A.field.zero()
    flat = []
    for i in range(A.rows):
        da, a_planes = lift(A.entries[i * k : (i + 1) * k])
        acc = [[0] * m for _ in range(2 * phi - 1)]
        for e, arow in enumerate(a_planes):
            for f, brows in enumerate(b_rows):
                s = acc[e + f]
                for x, brow in zip(arow, brows):
                    if x and brow:
                        s = [u + x * y for u, y in zip(s, brow)]
                acc[e + f] = s
        if q is None:
            flat.extend(Fraction(s, da * db) if s else zero for s, (db, _) in zip(acc[0], b_cols))
            continue
        # the constructor reduces mod Phi_q, in integers when den is 1
        for (db, _), *s in zip(b_cols, *acc):
            den = da * db
            s = tuple(s) if den == 1 else tuple(Fraction(c, den) for c in s)
            flat.append(CycloScalar(q, s) if any(s) else zero)
    return tuple(flat)


# ---- vectorization and Kronecker products ----


def vec(M: Matrix) -> tuple:
    """Row-major vectorization; the storage order, so this is free."""
    return M.entries


def unvec(v: Sequence, n: int, field: FieldTag) -> Matrix:
    if len(v) != n * n:
        raise ShapeMismatch(f"vector of length {len(v)} is not n^2 for n={n}")
    return Matrix(field, n, n, tuple(v))


def kron(A: Matrix, B: Matrix) -> Matrix:
    """Kronecker product: the (i,j) block is a_ij * B."""
    if A.field != B.field:
        raise FieldMismatch(f"{A.field} vs {B.field}")
    rows, cols = A.rows * B.rows, A.cols * B.cols
    flat = []
    for i1 in range(A.rows):
        for i2 in range(B.rows):
            for j1 in range(A.cols):
                a = A.at(i1, j1)
                brow = B.row(i2)
                for j2 in range(B.cols):
                    flat.append(a * brow[j2])
    return Matrix(A.field, rows, cols, tuple(flat))


def hstack(A: Matrix, B: Matrix) -> Matrix:
    if A.field != B.field:
        raise FieldMismatch(f"{A.field} vs {B.field}")
    if A.rows != B.rows:
        raise ShapeMismatch("row counts differ")
    flat = []
    for i in range(A.rows):
        flat.extend(A.row(i))
        flat.extend(B.row(i))
    return Matrix(A.field, A.rows, A.cols + B.cols, tuple(flat))


def vstack_rows(rows: Iterable[Sequence], field: FieldTag) -> Matrix:
    rows = [tuple(r) for r in rows]
    if not rows:
        raise ShapeMismatch("need at least one row")
    return Matrix(field, len(rows), len(rows[0]), tuple(x for r in rows for x in r))


# ---- elimination ----


class RrefResult(NamedTuple):
    rref: Matrix
    pivots: tuple[int, ...]
    rank: int


def rref(M: Matrix) -> RrefResult:
    """The unique reduced row-echelon form of M, with pivot columns."""
    if M.field.is_cyclotomic:
        return _rref_generic(M)
    return _rref_rational(M)


def _rref_generic(M: Matrix) -> RrefResult:
    rows = [list(M.row(i)) for i in range(M.rows)]
    pivots = []
    r = 0
    for c in range(M.cols):
        pivot_row = None
        for i in range(r, M.rows):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(M.rows):
            if i != r and rows[i][c]:
                v = rows[i][c]
                rows[i] = [x - v * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == M.rows:
            break
    flat = tuple(x for row in rows for x in row)
    return RrefResult(Matrix(M.field, M.rows, M.cols, flat), tuple(pivots), len(pivots))


def _rref_rational(M: Matrix) -> RrefResult:
    # Clear denominators per row, then run integer cross-multiplication
    # elimination with gcd normalization; divide by the pivot only at the end.
    work = [_lift(M.row(i))[1] for i in range(M.rows)]
    ncols = M.cols
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(work)):
            if work[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        pv_row = work[r]
        pv = pv_row[c]
        for i in range(len(work)):
            if i == r or not work[i][c]:
                continue
            v = work[i][c]
            row = [x * pv - v * y for x, y in zip(work[i], pv_row)]
            g = 0
            for x in row:
                if x:
                    g = gcd(g, x)
                    if g == 1:
                        break
            if g > 1:
                row = [x // g for x in row]
            work[i] = row
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    flat: list[Fraction] = []
    for i, row in enumerate(work):
        if i < len(pivots):
            pv = Fraction(row[pivots[i]])
            flat.extend(Fraction(x) / pv for x in row)
        else:
            flat.extend(Fraction(0) for _ in row)
    return RrefResult(Matrix(QQ, M.rows, M.cols, tuple(flat)), tuple(pivots), len(pivots))


def kernel_basis(M: Matrix) -> list[tuple]:
    """Basis vectors of {x : Mx = 0}, one per free column, in the
    deterministic order the RREF pivots induce."""
    r = rref(M)
    pivot_set = set(r.pivots)
    z, o = M.field.zero(), M.field.one()
    out = []
    for fc in range(M.cols):
        if fc in pivot_set:
            continue
        v = [z] * M.cols
        v[fc] = o
        for row_idx, pc in enumerate(r.pivots):
            coeff = r.rref.at(row_idx, fc)
            if coeff:
                v[pc] = -coeff
        out.append(tuple(v))
    return out


def solve(M: Matrix, b: Sequence):
    """Canonical solution of Mx = b with free variables set to zero, or
    None when the system is inconsistent."""
    if len(b) != M.rows:
        raise ShapeMismatch("right-hand side length mismatch")
    bcol = Matrix(M.field, M.rows, 1, tuple(M.field.coerce(x) for x in b))
    r = rref(hstack(M, bcol))
    if any(p == M.cols for p in r.pivots):
        return None
    x = [M.field.zero()] * M.cols
    for row_idx, pc in enumerate(r.pivots):
        x[pc] = r.rref.at(row_idx, M.cols)
    return tuple(x)
