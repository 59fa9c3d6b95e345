"""Dense exact matrices, elimination, kernels, Kronecker products.

Entries are stored row-major in a flat tuple, so ``vec`` (row-major
vectorization) is the identity on storage.  Everything is immutable and
deterministic: RREF is the unique reduced echelon form, kernel vectors
come out in the free-column order the pivots induce.

Products and elimination share one private lifted form, `_Lifted`:
integer coefficient planes, one per power of zeta below phi = deg Phi_q
(phi = 1 over Q), plane-major, over a denominator per row.  The layout
is this module's decision alone, and so is the record itself: no other
module indexes a lifted row by plane offset, builds a `_Lifted` or reads
its denominators (the CI checks both), and they call these primitives
instead:

- build: `_lift` (a `Matrix`), `_from_cells` (the CLI's integer JSON
  cells, over Q(zeta_q) only those not spelled as `_zero_cell`),
  `_scaled` (integer rows over denominator 1), `_abreast`
  ([c_1*I | c_2*I | ...] from the scalars' coefficient planes, the one
  lifted identity, and with n = 1 a row of scalars) and `_embed` (a
  rational lift padded with the zero planes of Q(zeta_q));
- reshape: `_columns` (in every plane, row denominators kept), `_take`
  (rows in any order, each over its own denominator), `_transpose`
  (over the common denominator), `_beside` and `_below` (blocks side by
  side and stacked), `_vec` and `_realigned` (row (i, l), column (j, m)
  to row (i, j), column (l, m));
- multiply: `_mul_lifted`, `_times` (c*L), `_left`, `_relation_holds`,
  `_power`, `_horner` and `_content_free`;
- test a combination: `_vanishes` (sum_i c_i * column_i = 0);
- eliminate: `_rref_core`, `_reduced`, `_kernel`, `_solve_square`,
  `_inverse` and `_in_span`;
- compare and normalize: `_same`, `_cells` and `_entries`;
- guard: `_square`, the square check of one matrix, and `_square_pair`,
  the square-and-same-size check of a pair, for a `Matrix` or a
  `_Lifted` alike; no other routine raises NotSquare (the CI checks it).
  `_sizes` refuses a size that is a bool or below zero in the
  constructors `zero`, `identity`, `jordan` and `elem`.

Over Q(zeta_q) lifting reads only the nonzero coefficients of nonzero
entries.  Each algorithm is "lift, integer core, one normalization",
with one body for Q and Q(zeta_q):

- `_mul_lifted` multiplies in integers with no division: the right
  factor goes over one denominator.  Over Q it is transposed once and
  each output entry is one dot product, an all-zero left row giving a
  zero row for free; over Q(zeta_q) it is one scatter pass, adding each
  nonzero product of coefficients into one flat row of 2 phi - 1 planes,
  and one fold of each nonzero entry at zeta^phi or above through the
  conductor's table of zeta^k mod Phi_q (`scalars._zeta_powers`), so
  cost follows the nonzero products.
- `_rref_core` is fraction-free Gauss-Jordan by cross-multiplication
  with gcd normalization, stopped before the final division by each
  pivot.  The pivot row is the candidate with the fewest bits, the
  earliest on ties, which keeps the intermediates small; the RREF is
  unique, so the choice does not change the result.  A pivot p that is
  not rational is made rational once, by multiplying its row by the
  integer product of p's other Galois conjugates (`scalars._conjugates`),
  which turns p into its norm, so every cross-multiplier is an integer.
  Pivots are taken two at a time, as in Bareiss' two-step elimination
  (Math. Comp. 22, 1968): the second pivot column is the first one to
  the right where a row below stays nonzero once the first column is
  cleared, the two pivot rows are reduced against each other, and every
  other row loses both columns in one three-term pass and one content
  division.  Every row update is one `_combine`, which divides the
  multipliers by their gcd before it touches the row.
- `_in_span` is the same elimination one row at a time: it reduces a
  column against the echelon of earlier ones and returns its
  coordinates in them, or pivots it and appends it to the echelon.  The
  split's cyclic vectors and every certificate coordinate are read
  through it, so the certificates run no system of their own.
- `_reduced` writes `_rref_core`'s rows over their pivots once: `rref`,
  `solve` (the last column of [M | b] at its pivots), `_solve_square`
  and the spans that `subspaces._from_reduced` writes out read their
  answers off it.  `_kernel` reads the kernel's RREF basis off one
  `_rref_core` pass, one vector per free column, lifted:
  `kernel_basis`, the ad-power kernels (columns reversed) and the
  Frobenius split's complement.
- `_solve_square` is L^-1 * R, lifted, from one reduction of [L | R]:
  `_inverse` (R = I, behind `Matrix.inverse` and the split's P^-1) and
  `gen`'s P^-1 * M * P (solving P*X = M*P) are each one such solve.
- `_entries` normalizes: one Fraction per entry over Q, one division per
  coefficient over Q(zeta_q), through `scalars._from_ints`, which skips
  the reduction mod Phi_q.

`Matrix.__mul__` and `rref` normalize at once.  Callers that feed a
result into more integer work keep it lifted instead, and lift each
matrix once.  `_times` is c*L, one product c*I * L, so mu*A and omega*A
never become field elements.  `_left` takes the integer vecs of n x n
matrices Y_e and gives L*Y_e for every e from one product, the Y_e laid
abreast.  Every commutator question, whether (ad^mu_L)^k Y_e = 0 for
every e with ad^mu_L(Y) = L*Y - mu*Y*L, is `_relation_holds`: the Y_e
packed into one matrix of big integers, slot e at bit w*e with w wider
than any entry the chain reaches (Kronecker substitution), then k - 1
difference steps L*Y - Y*(mu*L) and one comparison of the last two
sides, two products a step, whose verdict is exactly the row-by-row
one.  The commutants ask it at k = 1, `ann_k_member` and the ad-power
inclusion check with mu = 1; this packed slot layout is this module's
alone too.  The commutants form X = P*Y*P^-1 on Y's block alone.  The
Frobenius split takes A lifted and returns P lifted.
The ad-power kernels build the integer matrix of (ad_A)^k by the
binomial formula in one `_mul_lifted` product, realigned.  The chains
of products stay lifted too, content-free after each product: `_power`
(`scalars._binary_power`, behind `Matrix.__pow__`, the Potter check and
the certificates' class step), `_horner` (f(M)*E for a 0/1 matrix E,
behind `eval_at_matrix`, the annihilation check of the split and the
certificates on the companion of m_A), and `_same`, which compares two
lifted matrices row by row over cross-multiplied denominators (the
Potter identity, AB = omega*BA, the certificates, the split's A*P = P*F
as two plain products, and subspace membership).  Wherever only a span
or a homogeneous relation matters, row denominators are dropped, since
a scaled row spans the same line.  `Matrix.det` runs no elimination of
its own: it is (-1)^n chi_A(0), read off the checked Frobenius split.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress
from math import gcd, lcm, prod
from operator import add, lshift, mul, sub
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import BadDimensions, BadExponent, FieldMismatch, IndexOutOfRange, NotSquare, ShapeMismatch, ZeroInverse, _integer
from .scalars import QQ, FieldTag, _binary_power, _conjugates, _from_ints, _over_lcm, _same_field, _zeta_powers, cyclo_coeffs, phi_degree


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
        _sizes(rows, cols)
        z = field.zero()
        return cls(field, rows, cols, (z,) * (rows * cols))

    @classmethod
    def identity(cls, n: int, field: FieldTag = QQ) -> Matrix:
        _sizes(n)
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
        _sizes(n)
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
        _sizes(n)
        for x in (i, j):
            _integer(x, 0, n - 1, IndexOutOfRange, f"index {x!r} outside range({n})")
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
        _same_field(self.field, other.field)
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
            _same_field(self.field, other.field)
            if self.cols != other.rows:
                raise ShapeMismatch(f"{self.shape} @ {other.shape}")
            return Matrix(self.field, self.rows, other.cols, _entries(_mul_lifted(_lift(self), _lift(other))))
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __pow__(self, k: int) -> Matrix:
        _integer(k, None, None, BadExponent, "a power needs an integer exponent")
        _square(self, "powers need a square matrix")
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
        _square(self, "trace needs a square matrix")
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
        _square(self, "determinant needs a square matrix")
        from .canonical import _frobenius  # canonical imports this module

        d = prod((f.coeff(0) for f in _frobenius(_lift(self))[0]), start=self.field.one())
        return -d if self.rows % 2 else d

    def inverse(self) -> Matrix:
        _square(self, "inverse needs a square matrix")
        X = _inverse(_lift(self))
        if X is None:
            raise ZeroInverse("matrix is singular")
        return Matrix(self.field, self.rows, self.rows, _entries(X))

    def __repr__(self):
        body = "; ".join(
            " ".join(str(x) for x in self.row(i)) for i in range(self.rows)
        )
        return f"Matrix<{self.field}, {self.rows}x{self.cols}: {body}>"


def _sizes(*sizes) -> None:
    """BadDimensions unless every size is an int >= 0; a bool is not a
    size."""
    for s in sizes:
        _integer(s, 0, None, BadDimensions, f"matrix size {s!r} is not a non-negative integer")


def _square(A, message: str) -> None:
    """NotSquare(message) unless A, a `Matrix` or a `_Lifted`, is square."""
    if A.rows != A.cols:
        raise NotSquare(message)


def _square_pair(A, B, what: str) -> None:
    """NotSquare unless A and B, each a `Matrix` or a `_Lifted`, are
    square, then ShapeMismatch unless they have one size."""
    if A.rows != A.cols or B.rows != B.cols:
        raise NotSquare(f"{what} needs square matrices")
    if A.rows != B.rows:
        raise ShapeMismatch(f"sizes differ: {A.rows} vs {B.rows}")


# ---- the lifted form: integer planes over denominators ----


class _Lifted(NamedTuple):
    """A matrix over Q or Q(zeta_q) in integers: row i is ints[i] / dens[i],
    and ints[i] is plane-major as in `_planes` (coefficient e of column j
    at e * cols + j).  Wherever only the span of the rows matters, the
    denominators are dropped (set to 1): each row is then a scaled copy.
    Only this module indexes the planes, builds the record and reads
    `dens` and `phi`; every other module builds, reshapes and reads
    lifted matrices through the primitives the module docstring lists,
    and may use `ints` rows whole (the CI checks it)."""

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
        if self.dens.count(d) == len(self.dens):
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


def _from_cells(field: FieldTag, cols: int, rows: Iterable[Sequence[tuple]]) -> _Lifted:
    """Rows of integer cells, lifted as `_lift` lifts the matrix they
    spell: each row over the lcm of its cells' denominators, its gcd with
    the row's integers divided out.  Over Q a row is its cells (num,
    den), one per column.  Over Q(zeta_q) a row lists (j, coefficients,
    den) for the cells read in column j, at most phi coefficients
    ascending in zeta, the missing top ones zero, and every cell it does
    not list is zero: a zero entry adds nothing to the lcm or the gcd,
    so only the listed cells' denominators make the lcm, their nonzero
    coefficients are written into a zero row, and a row over 1 needs no
    gcd.  The rows are those of the dense read, integer for integer."""
    q = field.q
    phi = phi_degree(q) if q else 1
    dens, ints = [], []
    for cells in rows:
        if q is None:
            d = lcm(*[e for _, e in cells])
            out = [n * (d // e) for n, e in cells]
            g = gcd(d, *out)  # 1 unless an unreduced spelling such as "2/4" left a factor
        else:
            d = lcm(*[e for _, _, e in cells])
            out = [0] * (phi * cols)
            for j, c, e in cells:
                m = d // e
                for k, x in enumerate(c):
                    if x:
                        out[k * cols + j] = x * m
            g = gcd(d, *out) if d != 1 else 1
        dens.append(d // g)
        ints.append([x // g for x in out] if g != 1 else out)
    return _Lifted(field, cols, dens, ints)


def _zero_cell(q: int) -> list[str]:
    """A zero entry of Q(zeta_q) as the CLI writes it, phi strings "0":
    the cell that `_from_cells` takes as read when a row does not list it."""
    return ["0"] * phi_degree(q)


def _cells(L: _Lifted) -> Iterator[tuple[int, Iterable]]:
    """Each row of L as its denominator and its entries' integers, column
    by column: over Q one integer per entry, over Q(zeta_q) the tuple of
    its phi coefficients, ascending in zeta.  `_entries` normalizes
    them, and the CLI spells them with no field element built."""
    n = L.cols
    for d, row in zip(L.dens, L.ints):
        yield d, row if L.field.q is None else zip(*(row[e * n : (e + 1) * n] for e in range(L.phi)))


def _entries(L: _Lifted) -> tuple:
    """The entries of L, row-major: the one normalization per entry, a
    Fraction over Q, over Q(zeta_q) one division per coefficient."""
    q, zero = L.field.q, L.field.zero()
    flat = []
    for d, cells in _cells(L):
        if q is None:
            flat.extend((Fraction(x, d) if d != 1 else Fraction(x)) if x else zero for x in cells)
        else:
            flat.extend(_from_ints(q, c, d) if any(c) else zero for c in cells)
    return tuple(flat)


def _mul_lifted(A: _Lifted, B: _Lifted) -> _Lifted:
    """A * B with no division: row i is over A.dens[i] * d, with B put
    over one denominator d.  Over Q each entry is one dot product of A's
    row with a column of B, transposed once per call, and an all-zero
    row of A gives a zero row with no work.  Over Q(zeta_q) the nonzero
    (plane-major position, value) pairs of each row of B are listed once;
    each nonzero coefficient x of A's row at plane e, column j, times
    each pair (t, y) of B's row j is added at e * m + t of one flat,
    unreduced row of 2 phi - 1 planes.  Each nonzero entry v of plane
    e >= phi is then folded once: v times the residue of zeta^e mod
    Phi_q, read from the conductor's table, is added to the planes below
    phi, in integers.  A row of A with no nonzero above plane 0 reaches
    no plane from phi up and is not folded; reading B's highest plane
    as well, to skip more rows, made the potter products 5% slower.
    Cost follows the nonzero products, but listing B's nonzeros scans
    all of B's integers, and each folded row scans its top phi - 1
    planes.  Folding each partial product through the table as it is
    made, with no accumulator, made dense products several times slower
    at phi = 4 to 48.  Over Q the dot products stay: sent through the
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
    phi, n = phi_degree(q), A.cols
    top = phi * m
    fold = _zeta_powers(q)[phi : 2 * phi - 1]
    b_nonzero = [list(zip(compress(range(len(row)), row), filter(None, row))) for row in B.ints]
    ints = []
    for arow in A.ints:
        acc = [0] * ((2 * phi - 1) * m)
        e = 0  # ends as the highest plane of the row's nonzeros
        for i, x in compress(enumerate(arow), arow):
            e, j = divmod(i, n)
            base = e * m
            for t, y in b_nonzero[j]:
                acc[base + t] += x * y
        if e:
            high = acc[top:]
            for t, v in compress(enumerate(high), high):
                h, c = divmod(t, m)
                for k, ck in fold[h]:
                    acc[k * m + c] += ck * v
        del acc[top:]
        ints.append(acc)
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


def _take(L: _Lifted, rows: Sequence[int]) -> _Lifted:
    """L's rows ``rows``, in that order, each over its own denominator."""
    return _Lifted(L.field, L.cols, [L.dens[i] for i in rows], [L.ints[i] for i in rows])


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


def _relation_holds(vecs: list[list[int]], L: _Lifted, mu, k: int) -> bool:
    """Whether (ad^mu_L)^k Y_e = 0 for every e, ad^mu_L(Y) = L*Y - mu*Y*L,
    from the integer vecs of n x n blocks Y_e, by one chain of products
    on one packed matrix (Kronecker substitution): Z = sum_e 2^(w e) *
    Y_e holds Y_e in slot e, k - 1 difference steps Y <- L*Y - Y*(mu*L)
    run on it, and the two sides L*Y and Y*(mu*L) of the k-th are
    compared.  mu is 1, -1 or a power of zeta, which lifts over
    denominator 1, so mu*L (`_times`) keeps L's common denominator d and
    each step scales every slot by d alike.  The products, the fold mod
    Phi_q and the subtraction are integer-linear, so after step j the
    packed matrix is sum_e 2^(w e) * Y_e^(j) exactly, Y_e^(j) the j-th
    step on Y_e alone, with no bound needed along the way.
    The verdict is the row-by-row one, exactly, not a probable one.  Let
    S = n * phi * M_L * (1 + sum |c|), with M_L the largest integer of L
    and of mu*L over d and c the coefficients of the fold rows zeta^phi
    .. zeta^(2 phi - 2) mod Phi_q (none over Q): before the fold an
    entry of a product is a sum of at most n * phi products, and the
    fold adds c*v from the high planes into each low one, so a side of Y
    with entries at most B has entries at most S * B.  The entries of
    Y_e^(j) are then at most B_j <= 2 S * B_(j-1), B_0 = M_Y the largest
    integer of the vecs, and each entry u_e, v_e of the last two sides
    at most S * B_(k-1) <= S * (2 S)^(k-1) * M_Y.  With w that bound's
    bit length plus 2, every u_e and v_e lies below 2^(w - 1) in
    absolute value.  If they differ, let e be the lowest slot where they
    do: the packed sides differ by 2^(w e) * (u_e - v_e) mod 2^(w (e +
    1)), with 0 < |u_e - v_e| < 2^w, so they are not equal.  At k = 1
    this is one product pair.  With no vecs the relation holds
    vacuously."""
    if not vecs:
        return True
    L = L.common()
    muL = L if mu == 1 else _times(mu, L)
    n, phi, nn = L.rows, L.phi, L.rows * L.rows
    folds = _zeta_powers(L.field.q)[phi : 2 * phi - 1] if L.field.q else ()
    m_L = max(map(abs, chain(chain.from_iterable(L.ints), chain.from_iterable(muL.ints))))
    m_Y = max(map(abs, chain.from_iterable(vecs)))
    s = n * phi * m_L * (1 + sum(abs(c) for row in folds for _, c in row))
    w = (s * (2 * s) ** (k - 1) * m_Y).bit_length() + 2
    Z = [sum(map(lshift, slots, range(0, w * len(vecs), w))) for slots in zip(*vecs)]
    Y = _scaled(L.field, n, [[x for f in range(phi) for x in Z[f * nn + r * n : f * nn + (r + 1) * n]] for r in range(n)])
    for _ in range(k - 1):
        Y = _scaled(L.field, n, [list(map(sub, a, b)) for a, b in zip(_mul_lifted(L, Y).ints, _mul_lifted(Y, muL).ints)])
    return _mul_lifted(L, Y).ints == _mul_lifted(Y, muL).ints


def _realigned(L: _Lifted, n: int) -> Iterator[list[int]]:
    """The integer rows of the n^2 x n^2 lifted L with the entry at row
    (i, l), column (j, m) moved to row (i, j), column (l, m), in every
    plane, the denominators dropped: Van Loan and Pitsianis' (1993)
    rearrangement, which takes sum_a vec(A_a) vec(B_a)^T to sum_a A_a
    kron B_a."""
    N, phi = L.ints, L.phi
    return ([x for f in range(phi) for r in N[i * n : (i + 1) * n] for x in r[(f * n + j) * n : (f * n + j + 1) * n]] for i in range(n) for j in range(n))


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


def _vanishes(coeffs: Sequence, columns: Sequence[_Lifted]) -> bool:
    """Whether sum_i coeffs[i] * columns[i] = 0, for scalars of the
    columns' field and m x 1 lifted columns, each over one denominator
    d_i, in integers with no product of matrices.  With D * coeffs in
    integer planes from `_planes`, d the lcm of the d_i and w_(i,e) the
    coefficient of zeta^e in D * coeffs[i] times d / d_i, the sum is
    D * d * sum_e zeta^e * B_e, B_e = sum_i w_(i,e) * (column i's
    integers, plane-major): one dot product per integer of B_e, and
    zeta^e from `_zeta_shifts`."""
    phi, m, n = columns[0].phi, columns[0].rows, len(coeffs)
    low = cyclo_coeffs(columns[0].field.q)[:-1] if phi > 1 else ()
    d = lcm(*(col.dens[0] for col in columns))
    _, c = _planes(coeffs, columns[0].field.q, phi)
    at = list(zip(*(chain.from_iterable(zip(*col.ints)) for col in columns)))
    acc = [0] * (phi * m)
    for e, w in enumerate(zip(*([x * (d // col.dens[0]) for x in c[i::n]] for i, col in enumerate(columns)))):
        if any(w):
            acc = list(map(add, acc, _zeta_shifts([sum(map(mul, w, t)) for t in at], m, low)[e]))
    return not any(acc)


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
    _sizes(n)
    if len(v) != n * n:
        raise ShapeMismatch(f"vector of length {len(v)} is not n^2 for n={n}")
    return Matrix(field, n, n, tuple(v))


def kron(A: Matrix, B: Matrix) -> Matrix:
    """Kronecker product: the (i,j) block is a_ij * B."""
    _same_field(A.field, B.field)
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
    """The unique reduced row-echelon form of M, with pivot columns:
    `_reduced` on M lifted, then each entry divided by its row's pivot
    once."""
    R, pivots = _reduced(_lift(M))
    flat = _entries(R) + (M.field.zero(),) * (M.cols * (M.rows - len(pivots)))
    return RrefResult(Matrix(M.field, M.rows, M.cols, flat), tuple(pivots), len(pivots))


def _reduced(L: _Lifted) -> tuple[_Lifted, list[int]]:
    """The nonzero RREF rows of the system with L's rows (its scales do
    not matter), lifted: `_rref_core`'s rows, each over its pivot, and
    their pivot columns."""
    rows, pivots = _rref_core(L.ints, L.cols, L.field.q)
    return _Lifted(L.field, L.cols, [row[c] for row, c in zip(rows, pivots)], rows), pivots


def _rref_core(ints: list[list[int]], width: int, q: int | None) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan on plane-major integer rows of `width`
    columns, stopped before the final division: the nonzero reduced rows,
    each a multiple pv = row[c] (rational, in plane 0) of its RREF row,
    and their pivot columns c.  Of the rows from r on that are nonzero
    in column c (in any plane), the one with the fewest bits is the
    pivot p1, the earliest on ties, and pa its pivot value.

    Pivots are taken two at a time (Bareiss' two-step elimination,
    Math. Comp. 22, 1968).  The second pivot column c2 is the first
    column right of c where some row below p1 is nonzero once its
    column c is cleared against p1: pa * row[c2] != u * p1[c2] for
    u = row[c], in some plane over Q(zeta_q).  Of those rows the one
    with the fewest bits, the earliest on ties, is p2.  p2's column c
    is cleared against p1, p2 is made rational at c2 (pivot value pb),
    and p1's column c2 is cleared against p2.  Every other row with u
    in column c or v in column c2 then becomes pa * pb * row -
    (u * pb) * p1 - (v * pa) * p2 in one `_combine`, u applied plane
    by plane as sum_e u_e * (zeta^e * p1), and v likewise.  Over Q, u
    and v are read as entries, not as one-plane slices: on rows of a
    few dozen integers that read costs as much as the arithmetic.  With no second
    pivot every row below p1 is zero once its column c is cleared, so
    only the rows above p1 are updated and p1 is the last pivot."""
    work = list(ints)
    pivots = []
    r, c = 0, 0
    while r < len(work) and c < width:
        candidates = [i for i in range(r, len(work)) if any(work[i][c::width])]
        if not candidates:
            c += 1
            continue
        size = {i: sum(map(int.bit_length, work[i])) for i in range(r, len(work))}  # bits, for both pivot choices
        first = min(candidates, key=size.__getitem__)
        work[r], work[first] = work[first], work[r]
        size[r], size[first] = size[first], size[r]
        pa, p1, sh1 = _pivot(work[r], c, width, q)
        work[r] = p1
        below = [(i, work[i], work[i][c::width]) for i in range(r + 1, len(work))]
        seconds = []
        for c2 in range(c + 1, width):
            if q is None:
                y = p1[c2]
                seconds = [i for i, row, (u,) in below if pa * row[c2] != u * y]
            else:
                p1c2 = list(zip(*(s[c2::width] for s in sh1)))  # zeta^e * p1 at c2, per plane
                seconds = [i for i, row, u in below if any(pa * x != sum(map(mul, u, ys)) for x, ys in zip(row[c2::width], p1c2))]
            if seconds:
                break
        if not seconds:
            for i in range(r):
                v = work[i][c::width]
                if any(v):
                    work[i] = _combine(pa, work[i], v, sh1)
            pivots.append(c)
            return work[: r + 1], pivots
        second = min(seconds, key=size.__getitem__)
        work[r + 1], work[second] = work[second], work[r + 1]
        p2 = work[r + 1]
        pb, p2, sh2 = _pivot(_combine(pa, p2, p2[c::width], sh1), c2, width, q)
        v = p1[c2::width]
        if any(v):
            pa, p1, sh1 = _pivot(_combine(pb, p1, v, sh2), c, width, q)
        work[r], work[r + 1] = p1, p2
        pab, shifts = pa * pb, sh1 + sh2
        for i in chain(range(r), range(r + 2, len(work))):
            row = work[i]
            m = [row[c] * pb, row[c2] * pa] if q is None else [x * pb for x in row[c::width]] + [x * pa for x in row[c2::width]]
            if any(m):
                work[i] = _combine(pab, row, m, shifts)
        pivots += (c, c2)
        r, c = r + 2, c2 + 1
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
    """pv * row - sum_e v[e] * shifts[e], gcd-normalized: every row update
    of the elimination goes through here.  pv and the v[e] are divided
    by their gcd first; the nonzero v[e] are applied two at a time, one
    pass over the row per pair, and an odd one left over in a pass of
    its own.  With every v[e] zero the row is only made content-free."""
    g = gcd(pv, *v)
    if g > 1:
        pv, v = pv // g, [x // g for x in v]
    terms = [(a, s) for a, s in zip(v, shifts) if a]
    while len(terms) > 1:
        (a, s), (b, t) = terms.pop(), terms.pop()
        row = [pv * x - a * y - b * z for x, y, z in zip(row, s, t)]
        pv = 1
    for a, s in terms:
        row = [pv * x - a * y for x, y in zip(row, s)]
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


def _in_span(echelon: list, y: _Lifted) -> tuple | None:
    """The coordinates c_0, ..., c_(k-1) of the column u = y / D, y
    lifted over one denominator D, in the k columns whose reduced rows
    `echelon` holds, when u lies in their span; else None, and u's
    reduced row joins `echelon`, pivoted at its leading column: the
    elimination of `_rref_core`, one row at a time.  An empty list starts
    a span; each item is (leading column, pivot value, zeta shifts), its
    row zero at the leading columns of the items before it.

    u enters as the row [y | D * e_k], 2m + 1 wide for m = y.rows, and
    is reduced fraction-free against the echelon, so its right part
    keeps the coefficients of the earlier columns and u that make up its
    left part.  Echelon rows are zero at slot k in every plane and the
    reduction scales the new row by rational pivots only, so right[k]
    stays rational; a zero left part gives c = -right[0..k-1] / right[k]."""
    q, m, k = y.field.q, y.rows, len(echelon)
    w = 2 * m + 1
    row = [0] * (y.phi * w)
    for i, planes in enumerate(y.ints):
        row[i::w] = planes
    row[m + k] = y.dens[0]
    for c, pv, shifts in echelon:
        v = row[c::w]
        if any(v):
            row = _combine(pv, row, v, shifts)
    lead = next((c for c in range(m) if any(row[c::w])), None)
    if lead is None:
        return _entries(_columns(_Lifted(y.field, w, [-row[m + k]], [row]), range(m, m + k)))
    pv, _, shifts = _pivot(row, lead, w, q)
    echelon.append((lead, pv, shifts))
    return None


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
    None when the system is inconsistent: the last column of the RREF of
    [M | b], lifted, at its pivots."""
    if len(b) != M.rows:
        raise ShapeMismatch("right-hand side length mismatch")
    bcol = Matrix(M.field, M.rows, 1, tuple(M.field.coerce(x) for x in b))
    R, pivots = _reduced(_beside((_lift(M), _lift(bcol))))
    if pivots and pivots[-1] == M.cols:
        return None
    x = [M.field.zero()] * M.cols
    for c, v in zip(pivots, _entries(_columns(R, [M.cols]))):
        x[c] = v
    return tuple(x)


def _solve_square(L: _Lifted, R: _Lifted) -> _Lifted | None:
    """L^-1 * R, lifted, for a square L and an R with as many rows, from
    one `_reduced` pass on [L | R]: the right part of its rows.  None
    when L is singular, that is unless the first n pivots are 0, ...,
    n - 1: a singular L can still give [L | R] full rank through R's
    columns."""
    n, w = L.rows, L.cols + R.cols
    reduced, pivots = _reduced(_beside((L, R)))
    if pivots[:n] != list(range(n)):
        return None
    return _columns(reduced, range(n, w))


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


def _below(blocks: Sequence[_Lifted]) -> _Lifted:
    """The matrix [B_1; B_2; ...] of lifted blocks with as many columns,
    each row over its own denominator."""
    return _Lifted(blocks[0].field, blocks[0].cols, [d for b in blocks for d in b.dens], [row for b in blocks for row in b.ints])
