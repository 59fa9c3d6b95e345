"""Dense exact matrices, elimination, kernels, Kronecker products.

Entries are stored row-major in a flat tuple, so ``vec`` (row-major
vectorization) is the identity on storage.  Everything is immutable and
deterministic: RREF is the unique reduced echelon form, kernel vectors
come out in the free-column order the pivots induce.

One elimination routine serves Q and Q(zeta_q).  Each row is lifted to
integers, one coefficient plane per power of zeta below phi = deg Phi_q
(phi = 1 over Q), and eliminated fraction-free by cross-multiplication
with gcd normalization, which is roughly an order of magnitude faster
than Fraction pivoting at the n^2 x n^2 sizes the commutant solvers
produce.  A pivot p that is not rational is made rational once, by
multiplying its row by d * p^-1 with d the lcm of the denominators of
p^-1, so every cross-multiplier is an integer; each output entry is
divided by its row's pivot once.  One determinant routine, plain
pivoting with division, serves both fields.

Products lift each row of the left factor and each column of the right
factor to integers over the lcm of its own denominators (over Q(zeta_q),
of all its zeta-coefficients), accumulate integer row axpys over the
nonzero entries of the left row and nonzero rows of the right factor,
and normalize each output entry once: one Fraction over Q; over
Q(zeta_q), one reduction mod Phi_q in integers, then one division per
coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, NamedTuple, Sequence

from .errors import FieldMismatch, NotSquare, ShapeMismatch, ZeroInverse
from .scalars import QQ, CycloScalar, FieldTag, _divmod_monic, cyclo_coeffs, phi_degree


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
        flat = tuple((a + b if a else b) if b else a for a, b in zip(self.entries, other.entries))
        return Matrix(self.field, self.rows, self.cols, flat)

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check_same_shape(other)
        flat = tuple((a - b if a else -b) if b else a for a, b in zip(self.entries, other.entries))
        return Matrix(self.field, self.rows, self.cols, flat)

    def __neg__(self):
        return Matrix(self.field, self.rows, self.cols, tuple(-a for a in self.entries))

    def scale(self, c) -> Matrix:
        c = self.field.coerce(c)
        return Matrix(self.field, self.rows, self.cols, tuple(c * a if a else a for a in self.entries))

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


def _planes(values: Sequence, q: int | None, phi: int) -> tuple[int, list[int]]:
    """The lcm d of the denominators of ``values`` (over Q(zeta_q), of all
    their zeta-coefficients) and the integers d * x, plane-major:
    coefficient e of entry j sits at e * len(values) + j.  Over Q, phi = 1."""
    if q:
        values = [x.coeffs[e] for e in range(phi) for x in values]
    d = lcm(*(x.denominator for x in values))
    return d, [x.numerator * (d // x.denominator) for x in values]


def _cyclo_entry(q: int, ints: Sequence[int], den: int, zero):
    """sum_e ints[e] zeta_q^e / den: reduced mod Phi_q in integers, then
    each coefficient divided by den once."""
    rem = _divmod_monic(ints, cyclo_coeffs(q))[1] if any(ints) else ()
    if not any(rem):
        return zero
    return CycloScalar(q, tuple(rem) if den == 1 else tuple(Fraction(c, den) for c in rem))


def _product(A: Matrix, B: Matrix) -> tuple:
    # Entry (i, j) is an integer polynomial in zeta over da_i * db_j,
    # accumulated unreduced in 2 phi - 1 planes by row axpys over the
    # nonzero entries of A and nonzero rows of B.
    q = A.field.q
    phi = phi_degree(q) if q else 1
    k, m = A.cols, B.cols
    b_cols = [_planes(B.entries[j::m], q, phi) for j in range(m)]
    b_rows = [
        [row if any(row) else None for row in zip(*(col[f * k : (f + 1) * k] for _, col in b_cols))]
        for f in range(phi)
    ]
    zero = A.field.zero()
    flat = []
    for i in range(A.rows):
        da, a = _planes(A.entries[i * k : (i + 1) * k], q, phi)
        acc = [[0] * m for _ in range(2 * phi - 1)]
        for e in range(phi):
            arow = a[e * k : (e + 1) * k]
            for f, brows in enumerate(b_rows):
                s = acc[e + f]
                for x, brow in zip(arow, brows):
                    if x and brow:
                        s = [u + x * y for u, y in zip(s, brow)]
                acc[e + f] = s
        if q is None:
            flat.extend(Fraction(s, da * db) if s else zero for s, (db, _) in zip(acc[0], b_cols))
        else:
            flat.extend(_cyclo_entry(q, s, da * db, zero) for (db, _), *s in zip(b_cols, *acc))
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
    # Rows are plane-major integer lists as in _planes.  The update is
    # row_i <- pv * row_i - v * pivot_row for the rational pivot pv, with
    # v = entry (i, c) applied as sum_e v_e * (zeta^e * pivot_row).
    q = M.field.q
    phi = phi_degree(q) if q else 1
    low = cyclo_coeffs(q)[:-1] if q else ()
    n = M.cols
    work = [_planes(M.row(i), q, phi)[1] for i in range(M.rows)]

    def zeta_shifts(row):
        # row, zeta * row, ..., zeta^(phi - 1) * row: shift the planes up
        # and fold the top one back with zeta^phi = -sum_k low[k] zeta^k
        out = [row]
        for _ in range(phi - 1):
            top = out[-1][-n:]
            nxt = [0] * n + out[-1][:-n]
            for k, ck in enumerate(low):
                if ck:
                    plane = slice(k * n, (k + 1) * n)
                    nxt[plane] = [x - ck * t for x, t in zip(nxt[plane], top)]
            out.append(nxt)
        return out

    def combine(pv, row, v, shifts):
        # pv * row - sum_e v[e] * shifts[e], gcd-normalized
        for ve, s in zip(v, shifts):
            if ve:
                row = [pv * x - ve * y for x, y in zip(row, s)]
                pv = 1
        g = 0
        for x in row:
            if x:
                g = gcd(g, x)
                if g == 1:
                    return row
        return [x // g for x in row] if g > 1 else row

    pivots = []
    r = 0
    for c in range(n):
        pivot_row = next((i for i in range(r, len(work)) if any(work[i][c::n])), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        shifts = zeta_shifts(work[r])
        p = work[r][c::n]
        if any(p[1:]):
            # the row times m = d * p^-1 is 0 * row - (-m) * row
            _, m = _planes((CycloScalar(q, tuple(p)).inverse(),), q, phi)
            work[r] = combine(0, work[r], [-x for x in m], shifts)
            shifts = zeta_shifts(work[r])
        pv = work[r][c]
        for i, row in enumerate(work):
            v = row[c::n]
            if i != r and any(v):
                work[i] = combine(pv, row, v, shifts)
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    zero = M.field.zero()
    flat = []
    for row, c in zip(work, pivots):
        pv = row[c]
        if q is None:
            flat.extend(Fraction(x, pv) if x else zero for x in row)
        else:
            flat.extend(_cyclo_entry(q, row[j::n], pv, zero) for j in range(n))
    flat.extend([zero] * (n * (M.rows - r)))
    return RrefResult(Matrix(M.field, M.rows, M.cols, tuple(flat)), tuple(pivots), r)


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
