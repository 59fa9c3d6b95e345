"""Dense exact matrices, elimination, kernels, Kronecker products.

Entries are stored row-major in a flat tuple, so ``vec`` (row-major
vectorization) is the identity on storage.  Everything is immutable and
deterministic: RREF is the unique reduced echelon form, kernel vectors
come out in the free-column order the pivots induce.

Products and elimination share one private lifted form, `_Lifted`:
integer coefficient planes, one per power of zeta below phi = deg Phi_q
(phi = 1 over Q), plane-major, over a denominator per row.  Over
Q(zeta_q) lifting reads only the nonzero coefficients of nonzero
entries.  Each algorithm is "lift, integer core, one normalization",
with one body for Q and Q(zeta_q):

- `_mul_lifted` multiplies in integers with no division: the right
  factor goes over one denominator.  Over Q it is transposed once and
  each output entry is one dot product, an all-zero left row giving a
  zero row for free; over Q(zeta_q) it is one scatter pass, adding each
  nonzero product of coefficients into one flat row of 2 phi - 1 planes
  and folding the top planes' nonzero entries back mod Phi_q in
  integers, so cost follows the nonzero products.
- `_rref_core` is fraction-free Gauss-Jordan by cross-multiplication
  with gcd normalization, stopped before the final division by each
  pivot.  The pivot row is the candidate with the fewest bits, the
  earliest on ties, which keeps the intermediates small; the RREF is
  unique, so the choice does not change the result.  A pivot p that is
  not rational is made rational once, by multiplying its row by the
  integer product of p's other Galois conjugates (`scalars._conjugates`),
  which turns p into its norm, so every cross-multiplier is an integer.
- `_kernel` reads the kernel's RREF basis off one `_rref_core` pass,
  one vector per free column, lifted: `kernel_basis`, the ad-power
  kernels (columns reversed) and the Frobenius split's complement.
- `_solve_lifted` solves a lifted augmented system [M | b] with
  `_rref_core` and divides each pivot row's last entry by its pivot
  once.  `_beside` lays lifted blocks side by side: `solve`'s [M | b],
  the certificate systems' columns and `_solve_square`'s [L | R].
- `_solve_square` is L^-1 * R, lifted, from one `_rref_core` pass on
  [L | R]: `_inverse` (R = I, behind `Matrix.inverse` and the split's
  P^-1) and `gen`'s P^-1 * M * P (solving P*X = M*P) are each one
  such solve.  `_embed` pads a rational lift with the zero planes of
  Q(zeta_q), so a rational P or A joins cyclotomic work unpromoted.
- `_entries` normalizes: one Fraction per entry over Q, one division per
  coefficient over Q(zeta_q), through `scalars._from_ints`, which skips
  the reduction mod Phi_q.

`Matrix.__mul__` and `rref` normalize at once.  Callers that feed a
result into more integer work keep it lifted instead, and lift each
matrix once.  Other modules pick columns with `_columns` (in every
plane, row denominators kept) and transpose with `_transpose` (over the
common denominator) rather than by plane offsets.  `_abreast` builds
[c_1*I | c_2*I | ...] straight from the scalars' coefficient planes: it
is the one lifted identity (c = 1) and the c*I block a scalar enters
as, and `_times` is c*L, one product c*I * L, so mu*A and omega*A
never become field elements.  The batched product layer takes integer vecs of n x n
matrices Y_e and lifted operands: `_left` gives L*Y_e for every e from
one product, the Y_e laid abreast, `_right` gives Y_e*R with the Y_e
stacked, and `_sides` gives L*Y_e against mu*Y_e*L, both over L's
denominator.  The commutants' relation checks L*Y = mu*Y*L and the
commutator steps (mu = 1) of `ann_k_member` and the ad-power inclusion
check go through it; the commutants form X = P*Y*P^-1 on Y's block
alone.  The Frobenius split takes A lifted and returns P lifted.  The
ad-power kernels build the integer matrix of (ad_A)^k by the binomial
formula in one `_mul_lifted` product.  The chains of products stay
lifted too, content-free after each product: `_power`
(`scalars._binary_power`, behind `Matrix.__pow__`, the Potter check and
the certificates' class step),
`_horner` (f(M)*E for a 0/1 matrix E, behind `eval_at_matrix`, the
annihilation check of the split and the certificates on the companion
of m_A), and `_same`, which compares two lifted matrices row by row over
cross-multiplied denominators (the Potter identity, AB = omega*BA, the
certificates, the split's A*P = P*F as two plain products, and subspace
membership).
Wherever only a span or a homogeneous relation matters, row denominators
are dropped, since a scaled row spans the same line.  `Matrix.det` runs
no elimination of its own: it is (-1)^n chi_A(0), read off the checked
Frobenius split.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress
from math import gcd, lcm, prod
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from .errors import FieldMismatch, NotSquare, ShapeMismatch, ZeroInverse
from .scalars import QQ, FieldTag, _binary_power, _conjugates, _from_ints, _over_lcm, cyclo_coeffs, phi_degree


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
            return Matrix(self.field, self.rows, other.cols, _entries(_mul_lifted(_lift(self), _lift(other))))
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __pow__(self, k: int) -> Matrix:
        if not self.is_square:
            raise NotSquare("powers need a square matrix")
        if k < 0:
            return self.inverse() ** (-k)
        if k == 0:
            return Matrix.identity(self.rows, self.field)
        return Matrix(self.field, self.rows, self.cols, _entries(_power(_lift(self), k)))

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
        """(-1)^n chi_A(0): (-1)^n times the product of f(0) over the
        nonconstant invariant factors f of the checked Frobenius split,
        whose product is chi_A.  The 0 x 0 matrix has det 1."""
        if not self.is_square:
            raise NotSquare("determinant needs a square matrix")
        from .canonical import _frobenius  # canonical imports this module

        d = prod((f.coeff(0) for f in _frobenius(_lift(self))[0]), start=self.field.one())
        return -d if self.rows % 2 else d

    def inverse(self) -> Matrix:
        if not self.is_square:
            raise NotSquare("inverse needs a square matrix")
        X = _inverse(_lift(self))
        if X is None:
            raise ZeroInverse("matrix is singular")
        return Matrix(self.field, self.rows, self.rows, _entries(X))

    def __repr__(self):
        body = "; ".join(
            " ".join(str(x) for x in self.row(i)) for i in range(self.rows)
        )
        return f"Matrix<{self.field}, {self.rows}x{self.cols}: {body}>"


# ---- the lifted form: integer planes over denominators ----


class _Lifted(NamedTuple):
    """A matrix over Q or Q(zeta_q) in integers: row i is ints[i] / dens[i],
    and ints[i] is plane-major as in `_planes` (coefficient e of column j
    at e * cols + j).  Wherever only the span of the rows matters, the
    denominators are dropped (set to 1): each row is then a scaled copy.
    Modules other than this one read columns through `_columns`."""

    field: FieldTag
    cols: int
    dens: list[int]
    ints: list[list[int]]

    @property
    def rows(self) -> int:
        return len(self.ints)

    @property
    def phi(self) -> int:
        """Planes per row: deg Phi_q, or 1 over Q."""
        return phi_degree(self.field.q) if self.field.q else 1

    def common(self) -> _Lifted:
        """The same matrix with every row over the lcm of the denominators."""
        d = lcm(*self.dens)
        if all(e == d for e in self.dens):
            return self
        ints = [row if e == d else [x * (d // e) for x in row] for e, row in zip(self.dens, self.ints)]
        return _Lifted(self.field, self.cols, [d] * len(ints), ints)


def _planes(values: Sequence, q: int | None, phi: int) -> tuple[int, list[int]]:
    """The lcm d of the denominators of ``values`` (over Q(zeta_q), of all
    their zeta-coefficients) and the integers d * x, plane-major:
    coefficient e of entry j sits at e * len(values) + j.  Over Q, phi = 1.
    Over Q(zeta_q) only the nonzero coefficients of nonzero entries are read."""
    if not q:
        return _over_lcm(values)
    m = len(values)
    nonzero = [(e * m + j, c) for j, x in enumerate(values) if x for e, c in enumerate(x.coeffs) if c]
    d = lcm(*(c.denominator for _, c in nonzero))
    out = [0] * (phi * m)
    for i, c in nonzero:
        out[i] = c.numerator * (d // c.denominator)
    return d, out


def _lift(M: Matrix) -> _Lifted:
    """M's rows, each over the lcm of its own denominators."""
    q = M.field.q
    phi = phi_degree(q) if q else 1
    rows = [_planes(M.row(i), q, phi) for i in range(M.rows)]
    return _Lifted(M.field, M.cols, [d for d, _ in rows], [row for _, row in rows])


def _entries(L: _Lifted) -> tuple:
    """The entries of L, row-major: the one normalization per entry, a
    Fraction over Q, over Q(zeta_q) one division per coefficient."""
    q, n, zero = L.field.q, L.cols, L.field.zero()
    flat = []
    for d, row in zip(L.dens, L.ints):
        if q is None:
            flat.extend((Fraction(x, d) if d != 1 else Fraction(x)) if x else zero for x in row)
        else:
            for j in range(n):
                c = row[j::n]
                flat.append(_from_ints(q, c, d) if any(c) else zero)
    return tuple(flat)


def _mul_lifted(A: _Lifted, B: _Lifted) -> _Lifted:
    """A * B with no division: row i is over A.dens[i] * d, with B put
    over one denominator d.  Over Q each entry is one dot product of A's
    row with a column of B, transposed once per call, and an all-zero
    row of A gives a zero row with no work.  Over Q(zeta_q) the nonzero
    (plane-major position, value) pairs of each row of B are listed once;
    each nonzero coefficient x of A's row at plane e, column j, times
    each pair (t, y) of B's row j is added at e * m + t of one flat,
    unreduced row of 2 phi - 1 planes, and the nonzero entries of the
    planes from phi up are folded back, top plane first, with
    zeta^phi = -sum_k low[k] zeta^k, in integers.  Cost follows the
    nonzero products.  Over Q the dot products stay: sent through the
    scatter body, dense rational products made the structure_q benchmark
    about 20% slower."""
    B = B.common()
    q = A.field.q
    m = B.cols
    d = B.dens[0] if B.dens else 1
    dens = [da * d for da in A.dens]
    if q is None:
        cols = list(zip(*B.ints))
        ints = [[sum(map(mul, arow, col)) for col in cols] if any(arow) else [0] * m for arow in A.ints]
        return _Lifted(A.field, m, dens, ints)
    low = cyclo_coeffs(q)[:-1]
    phi, n = len(low), A.cols
    fold = [((k - phi) * m, ck) for k, ck in enumerate(low) if ck]
    b_nonzero = [list(zip(compress(range(len(row)), row), filter(None, row))) for row in B.ints]
    ints = []
    for arow in A.ints:
        acc = [0] * ((2 * phi - 1) * m)
        for i, x in compress(enumerate(arow), arow):
            e, j = divmod(i, n)
            base = e * m
            for t, y in b_nonzero[j]:
                acc[base + t] += x * y
        for e in range(2 * phi - 2, phi - 1, -1):
            plane = acc[e * m : (e + 1) * m]
            for t, v in compress(enumerate(plane, e * m), plane):
                for shift, ck in fold:
                    acc[t + shift] -= ck * v
        ints.append(acc[: phi * m])
    return _Lifted(A.field, m, dens, ints)


def _scaled(field: FieldTag, cols: int, ints: list[list[int]]) -> _Lifted:
    """Integer rows as a lifted matrix over denominator 1: each is a
    scaled copy of the row it came from, for uses that see only spans or
    homogeneous relations."""
    return _Lifted(field, cols, [1] * len(ints), ints)


def _columns(L: _Lifted, cols: Sequence[int]) -> _Lifted:
    """L's columns ``cols``, in that order, in every plane, each row over
    its own denominator."""
    at = [e * L.cols + c for e in range(L.phi) for c in cols]
    return _Lifted(L.field, len(cols), L.dens, [[row[i] for i in at] for row in L.ints])


def _transpose(L: _Lifted) -> _Lifted:
    """L^T, every row over L's common denominator."""
    L = L.common()
    at = [[e * L.cols + j for e in range(L.phi)] for j in range(L.cols)]
    return _Lifted(L.field, L.rows, [lcm(*L.dens)] * L.cols, [[row[i] for i in planes for row in L.ints] for planes in at])


def _left(L: _Lifted, vecs: list[list[int]]) -> list[list[int]]:
    """The integer vecs of d * L*Y_e, d the common denominator of L, from
    the integer vecs of Y_e: one product L * [Y_1 | Y_2 | ...]."""
    L = L.common()
    n, phi, count = L.rows, L.phi, len(vecs)
    nn, w = n * n, n * count
    abreast = [[x for f in range(phi) for v in vecs for x in v[f * nn + r * n : f * nn + (r + 1) * n]] for r in range(n)]
    rows = _mul_lifted(L, _scaled(L.field, w, abreast)).ints
    return [[x for f in range(phi) for r in range(n) for x in rows[r][f * w + e * n : f * w + (e + 1) * n]] for e in range(count)]


def _right(vecs: list[list[int]], R: _Lifted) -> list[list[int]]:
    """The integer vecs of d * Y_e*R, d the common denominator of R, from
    the integer vecs of Y_e: one product [Y_1; Y_2; ...] * R."""
    n, phi = R.cols, R.phi
    nn = n * n
    stacked = [[x for f in range(phi) for x in v[f * nn + r * n : f * nn + (r + 1) * n]] for v in vecs for r in range(n)]
    rows = _mul_lifted(_scaled(R.field, n, stacked), R).ints
    return [[x for f in range(phi) for r in range(n) for x in rows[e * n + r][f * n : (f + 1) * n]] for e in range(len(vecs))]


def _sides(vecs: list[list[int]], L: _Lifted, mu) -> tuple[list, list]:
    """The integer vecs of d * L*Y_e and d * mu*Y_e*L, d the common
    denominator of L, from the integer vecs of n x n blocks Y_e: equal
    exactly when L*Y_e = mu*Y_e*L, and their difference is d times
    mu*Y_e*L - L*Y_e.  mu is 1, -1 or a power of zeta, which lifts over
    denominator 1, so mu*L (`_times`) keeps L's denominator."""
    L = L.common()
    return _left(L, vecs), _right(vecs, L if mu == 1 else _times(mu, L))


def _abreast(scalars: Sequence, n: int, field: FieldTag) -> _Lifted:
    """[c_1*I | c_2*I | ...], n x (count * n), lifted straight from the
    scalars' coefficient planes: one nonzero entry per row and block."""
    phi = phi_degree(field.q) if field.q else 1
    count = len(scalars)
    d, c = _planes(scalars, field.q, phi)
    w = count * n
    ints = [[0] * (phi * w) for _ in range(n)]
    for i, row in enumerate(ints):
        for e in range(phi):
            for b in range(count):
                row[e * w + b * n + i] = c[e * count + b]
    return _Lifted(field, w, [d] * n, ints)


def _times(c, L: _Lifted) -> _Lifted:
    """c*L for a scalar c of L's field: one product c*I * L."""
    return _mul_lifted(_abreast((c,), L.rows, L.field), L)


def _content_free(L: _Lifted) -> _Lifted:
    """L over one denominator, with the gcd of that denominator and all
    the integers divided out, so repeated products do not swell."""
    L = L.common()
    g = gcd(L.dens[0], *chain.from_iterable(L.ints)) if L.dens else 1
    if g == 1:
        return L
    return _Lifted(L.field, L.cols, [d // g for d in L.dens], [[x // g for x in row] for row in L.ints])


def _power(L: _Lifted, k: int) -> _Lifted:
    """L^k for k >= 1 by `_binary_power` in integers, each product made
    content-free."""
    return _binary_power(L, k, lambda a, b: _content_free(_mul_lifted(a, b)))


def _horner(coeffs: Sequence, Ml: _Lifted, units: Iterable[tuple[int, int]], cols: int) -> _Lifted:
    """f(M)*E by Horner in integers, for f with ascending ``coeffs``, M
    lifted as Ml and E the m x cols 0/1 matrix with ones at the (row,
    column) positions ``units``.  f's denominators are cleared once, so
    the pass runs on D*f with integer coefficients, each added at the
    units scaled by its row's running denominator; D goes back into the
    denominators at the end.  Degree d costs d products."""
    field, m, phi, top = Ml.field, Ml.rows, Ml.phi, len(coeffs) - 1
    D, c = _planes(coeffs, field.q, phi)
    R = _Lifted(field, cols, [1] * m, [[0] * (phi * cols) for _ in range(m)])
    for k in range(top, -1, -1):
        if k < top:
            R = _content_free(_mul_lifted(Ml, R))
        ck = c[k :: top + 1]
        if any(ck):
            for i, j in units:
                row, d = R.ints[i], R.dens[i]
                for e, x in enumerate(ck):
                    row[e * cols + j] += x * d
    return _Lifted(field, cols, [d * D for d in R.dens], R.ints)


def _same(L: _Lifted, M: _Lifted) -> bool:
    """Whether L and M hold the same matrix: the same field and shape,
    and each row's integers equal after cross-multiplying by the other's
    denominator, both divided by their gcd g first."""
    return (
        L.field == M.field
        and L.cols == M.cols
        and L.rows == M.rows
        and all(a == b if d == e else [x * (e // g) for x in a] == [y * (d // g) for y in b] for d, a, e, b, g in zip(L.dens, L.ints, M.dens, M.ints, map(gcd, L.dens, M.dens)))
    )


# ---- vectorization and Kronecker products ----


def vec(M: Matrix) -> tuple:
    """Row-major vectorization; the storage order, so this is free."""
    return M.entries


def _vec(Y: _Lifted) -> list[int]:
    """The integer vec of an n x n lifted Y over one denominator."""
    n = Y.cols
    return [x for f in range(Y.phi) for row in Y.ints for x in row[f * n : (f + 1) * n]]


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
    return _rref_lifted(_lift(M))


def _rref_lifted(L: _Lifted) -> RrefResult:
    """rref of the matrix whose rows span the rows of L (the denominators
    do not matter): `_rref_core`, then each entry divided by its row's
    pivot once."""
    rows, pivots = _rref_core(L.ints, L.cols, L.field.q)
    flat = _entries(_Lifted(L.field, L.cols, [row[c] for row, c in zip(rows, pivots)], rows))
    flat += (L.field.zero(),) * (L.cols * (L.rows - len(pivots)))
    return RrefResult(Matrix(L.field, L.rows, L.cols, flat), tuple(pivots), len(pivots))


def _rref_core(ints: list[list[int]], width: int, q: int | None) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan on plane-major integer rows of `width`
    columns, stopped before the final division: the nonzero reduced rows,
    each a multiple pv = row[c] (rational, in plane 0) of its RREF row,
    and their pivot columns c.  Of the rows from r on that are nonzero
    in column c (in any plane), the one with the fewest bits is the
    pivot, the earliest on ties.  The update is row_i <- pv * row_i -
    v * pivot_row, with v = entry (i, c) applied as sum_e v_e * (zeta^e *
    pivot_row)."""
    work = list(ints)
    pivots = []
    r = 0
    for c in range(width):
        candidates = [i for i in range(r, len(work)) if any(work[i][c::width])]
        if not candidates:
            continue
        pivot_row = min(candidates, key=lambda i: sum(map(int.bit_length, work[i])))
        work[r], work[pivot_row] = work[pivot_row], work[r]
        pv, work[r], shifts = _pivot(work[r], c, width, q)
        for i, row in enumerate(work):
            v = row[c::width]
            if i != r and any(v):
                work[i] = _combine(pv, row, v, shifts)
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work[:r], pivots


def _zeta_shifts(row: list[int], width: int, low: Sequence[int]) -> list[list[int]]:
    """row, zeta * row, ..., zeta^(phi - 1) * row: shift the planes up and
    fold the top one back with zeta^phi = -sum_k low[k] zeta^k."""
    out = [row]
    for _ in range(len(low) - 1):
        top = out[-1][-width:]
        nxt = [0] * width + out[-1][:-width]
        for k, ck in enumerate(low):
            if ck:
                plane = slice(k * width, (k + 1) * width)
                nxt[plane] = [x - ck * t for x, t in zip(nxt[plane], top)]
        out.append(nxt)
    return out


def _combine(pv: int, row: list[int], v: Sequence[int], shifts: list[list[int]]) -> list[int]:
    """pv * row - sum_e v[e] * shifts[e], gcd-normalized.  Over Q(zeta_q)
    the nonzero v[e] are applied two at a time, one pass over the row per
    pair, and an odd one left over in a pass of its own."""
    terms = zip(v, shifts)
    if len(v) > 1:
        terms = [(ve, s) for ve, s in terms if ve]
        while len(terms) > 1:
            (a, s), (b, t) = terms.pop(), terms.pop()
            row = [pv * x - a * y - b * z for x, y, z in zip(row, s, t)]
            pv = 1
    for ve, s in terms:
        if ve:
            row = [pv * x - ve * y for x, y in zip(row, s)]
            pv = 1
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _pivot(row: list[int], c: int, width: int, q: int | None) -> tuple[int, list[int], list[list[int]]]:
    """(pv, row, zeta shifts of row) with row's entry at column c made
    rational, pv: a pivot p that is not is multiplied by the integer
    product m of its other Galois conjugates (p * m is p's norm, a
    positive integer), as 0 * row - (-m) * row, content-free.  No field
    element is built."""
    low = cyclo_coeffs(q)[:-1] if q else ()
    shifts = _zeta_shifts(row, width, low)
    p = row[c::width]
    if any(p[1:]):
        m = _conjugates(p, q)[0]
        row = _combine(0, row, [-x for x in m], shifts)
        shifts = _zeta_shifts(row, width, low)
    return row[c], row, shifts


def kernel_basis(M: Matrix) -> list[tuple]:
    """Basis vectors of {x : Mx = 0}, one per free column, in the
    deterministic order the RREF pivots induce."""
    free, K = _kernel(_lift(M))
    flat = _entries(K)
    return [flat[i * M.cols : (i + 1) * M.cols] for i in range(len(free))]


def _kernel(L: _Lifted) -> tuple[list[int], _Lifted]:
    """The free columns, increasing, of the system with L's rows (its
    scales do not matter) and its kernel's RREF basis, lifted, from one
    `_rref_core` pass: the vector of free column c is 1 at c, 0 at the
    other free columns and -row/pv at each pivot, over the lcm of the
    pivots pv whose rows are nonzero at c."""
    w, phi = L.cols, L.phi
    rows, pivots = _rref_core(L.ints, w, L.field.q)
    at = dict(zip(pivots, rows))
    free = [c for c in range(w) if c not in at]
    dens = [lcm(*(row[p] for p, row in at.items() if any(row[c::w]))) for c in free]
    ints = [[d if e * w + t == c else -(d // at[t][t]) * at[t][e * w + c] if t in at else 0 for e in range(phi) for t in range(w)] for c, d in zip(free, dens)]
    return free, _Lifted(L.field, w, dens, ints)


def solve(M: Matrix, b: Sequence):
    """Canonical solution of Mx = b with free variables set to zero, or
    None when the system is inconsistent."""
    if len(b) != M.rows:
        raise ShapeMismatch("right-hand side length mismatch")
    bcol = Matrix(M.field, M.rows, 1, tuple(M.field.coerce(x) for x in b))
    return _solve_lifted(_beside((_lift(M), _lift(bcol))))


def _solve_lifted(L: _Lifted) -> tuple | None:
    """`solve` on the augmented matrix [M | b], lifted: the rows' scales
    do not matter, so `_rref_core` runs on the integers as they are, and
    each pivot row's last entry is divided by its pivot once.  Free
    coordinates are zero; None when b is not in the column span."""
    w = L.cols - 1
    rows, pivots = _rref_core(L.ints, L.cols, L.field.q)
    if pivots and pivots[-1] == w:
        return None
    x = [L.field.zero()] * w
    values = _entries(_columns(_Lifted(L.field, L.cols, [row[c] for row, c in zip(rows, pivots)], rows), [w]))
    for c, v in zip(pivots, values):
        x[c] = v
    return tuple(x)


def _solve_square(L: _Lifted, R: _Lifted) -> _Lifted | None:
    """L^-1 * R, lifted, for a square L and an R with as many rows, from
    one `_rref_core` pass on [L | R]: row i of the answer is the right
    part of core row i over its pivot.  None when L is singular, that is
    unless the first n pivots are 0, ..., n - 1: a singular L can still
    give [L | R] full rank through R's columns."""
    n, w = L.rows, L.cols + R.cols
    rows, pivots = _rref_core(_beside((L, R)).ints, w, L.field.q)
    if pivots[:n] != list(range(n)):
        return None
    return _columns(_Lifted(L.field, w, [row[i] for i, row in enumerate(rows)], rows), range(n, w))


def _inverse(L: _Lifted) -> _Lifted | None:
    """L^-1, lifted, the solve against I, or None when L is singular."""
    return _solve_square(L, _abreast((L.field.one(),), L.rows, L.field))


def _embed(L: _Lifted, field: FieldTag) -> _Lifted:
    """L over `field`: a rational lift gains Q(zeta_q)'s zero planes, as
    `_lift(M.promote(q))` would, and a lift over `field` is kept."""
    if L.field == field:
        return L
    if L.field.is_cyclotomic:
        raise FieldMismatch(f"cannot promote {L.field} to Q(zeta_{field.q})")
    pad = [0] * ((phi_degree(field.q) - 1) * L.cols)
    return _Lifted(field, L.cols, L.dens, [row + pad for row in L.ints])


def _beside(blocks: Sequence[_Lifted]) -> _Lifted:
    """The matrix [B_1 | B_2 | ...] of lifted blocks with as many rows,
    each row over the lcm of its blocks' row denominators."""
    phi = blocks[0].phi
    dens = [lcm(*ds) for ds in zip(*(b.dens for b in blocks))]
    ints = [[x * (d // b.dens[i]) for e in range(phi) for b in blocks for x in b.ints[i][e * b.cols : (e + 1) * b.cols]] for i, d in enumerate(dens)]
    return _Lifted(blocks[0].field, sum(b.cols for b in blocks), dens, ints)
