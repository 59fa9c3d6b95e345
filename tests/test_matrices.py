import hashlib
import random
import time
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import lcm

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from commutants import (
    ConjugateBy,
    CycloScalar,
    FieldMismatch,
    FieldTag,
    GenSpec,
    Matrix,
    NilpotentBlocks,
    NotSquare,
    OmegaSpec,
    QQ,
    ShapeMismatch,
    Poly,
    ZeroInverse,
    commutant_operator,
    eval_at_matrix,
    generate,
    kernel_basis,
    kron,
    omega_centralizer_basis,
    solve,
    subspace_from_matrices,
    unvec,
    vec,
    weyl_pair,
)
from commutants import adpower, canonical, matrices, scalars
from commutants.errors import VerificationError
from commutants.matrices import rref, vstack_rows
from commutants.scalars import cyclo_coeffs, phi_degree
from commutants.subspaces import _from_reduced
from helpers import (
    count_products,
    cyclo3_jordan,
    dense_planes,
    from_sympy,
    hstack,
    mat,
    nilpotent,
    partitions,
    random_rational_matrix,
    reference_commutator_chain,
    reference_power,
    reference_kernel_basis,
    reference_product,
    reference_inverse,
    reference_mul,
    reference_rref,
    sequential_combine,
    stepwise_eval,
    stepwise_power,
    sympy_det,
    to_sympy,
)

square = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=-6, max_value=6), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
).map(mat)

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
# small integers, or fractions over many distinct prime denominators
rational = st.one_of(
    st.integers(min_value=-6, max_value=6).map(Fraction),
    st.builds(Fraction, st.integers(min_value=-60, max_value=60), st.sampled_from(PRIMES)),
)
dim = st.integers(min_value=1, max_value=5)


@st.composite
def grid(draw, rows, cols, entry):
    """A rows x cols list of entries with some whole rows and columns
    set to zero."""
    zero_rows = draw(st.sets(st.integers(min_value=0, max_value=rows - 1)))
    zero_cols = draw(st.sets(st.integers(min_value=0, max_value=cols - 1)))
    return [
        [0 if i in zero_rows or j in zero_cols else draw(entry) for j in range(cols)]
        for i in range(rows)
    ]


@st.composite
def rational_pair(draw):
    k, m, p = draw(dim), draw(dim), draw(dim)
    return mat(draw(grid(k, m, rational))), mat(draw(grid(m, p, rational)))


@st.composite
def cyclotomic_matrix(draw, field, rows, cols, kinds):
    """A rows x cols matrix over Q(zeta_q) of one of ``kinds``: dense
    entries with rational coefficients, Weyl-style monomial (at most one
    c*zeta^e per row), zero, or dense rows repeated up to scalar
    multiples."""
    q = field.q
    dense = st.lists(rational, max_size=2 * q)
    kind = draw(st.sampled_from(kinds))
    if kind == "dense":
        return Matrix.make(draw(grid(rows, cols, dense)), field)
    if kind == "zero":
        return Matrix.zero(rows, cols, field)
    if kind == "repeated":
        base = Matrix.make(draw(grid(draw(st.integers(1, rows)), cols, dense)), field)
        picks = draw(st.lists(st.integers(0, base.rows - 1), min_size=rows, max_size=rows))
        scales = draw(st.lists(dense, min_size=rows, max_size=rows))
        return Matrix.make(
            [[field.coerce(s) * x for x in base.row(i)] for i, s in zip(picks, scales)], field
        )
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        j = draw(st.integers(min_value=-1, max_value=cols - 1))
        if j >= 0:
            e = draw(st.integers(min_value=0, max_value=q - 1))
            out[i][j] = [0] * e + [draw(rational)]
    return Matrix.make(out, field)


@st.composite
def cyclotomic_pair(draw):
    """Compatible dense, Weyl-style or zero factors over Q(zeta_q)."""
    field = FieldTag.cyclotomic(draw(st.sampled_from((1, 2, 3, 4, 5, 6, 7, 8, 9, 12))))
    k, m, p = draw(dim), draw(dim), draw(dim)
    kinds = ("dense", "weyl", "zero")
    return (
        draw(cyclotomic_matrix(field, k, m, kinds)),
        draw(cyclotomic_matrix(field, m, p, kinds)),
    )


def test_construction_and_access():
    M = mat([[1, 2], [3, 4]])
    assert M.at(1, 0) == 3 and M[1, 0] == 3
    assert M.transpose() == mat([[1, 3], [2, 4]])
    assert M.trace() == 5
    assert M.is_square and not mat([[1, 2]]).is_square
    with pytest.raises(ShapeMismatch):
        mat([[1, 2], [3]])


def test_jordan_and_friends():
    J = Matrix.jordan(3, Fraction(1, 2), QQ)
    assert J == mat([[Fraction(1, 2), 1, 0], [0, Fraction(1, 2), 1], [0, 0, Fraction(1, 2)]])
    assert Matrix.elem(2, 0, 1, QQ) == mat([[0, 1], [0, 0]])
    D = Matrix.block_diag([mat([[1]]), mat([[2, 0], [0, 3]])])
    assert D == Matrix.diag([1, 2, 3], QQ)


@settings(max_examples=80)
@given(rational_pair())
def test_mul_matches_sympy(pair):
    A, B = pair
    product = A * B
    assert product.shape == (A.rows, B.cols)
    assert to_sympy(product) == to_sympy(A) * to_sympy(B)
    assert repr(product) == repr(reference_product(A, B))


def test_mul_many_distinct_denominators():
    # a row and a column over fourteen distinct primes, and a 1 x 1 case
    row = mat([[Fraction(1, p) for p in PRIMES]])
    col = mat([[p] for p in PRIMES])
    assert row * col == mat([[len(PRIMES)]])
    outer = col * row
    assert outer.at(0, 1) == Fraction(2, 3) and outer.at(13, 13) == 1
    assert outer == reference_product(col, row)
    assert mat([[Fraction(2, 3)]]) * mat([[Fraction(9, 4)]]) == mat([[Fraction(3, 2)]])


@settings(max_examples=120)
@given(cyclotomic_pair())
def test_mul_cyclotomic_matches_reference(pair):
    A, B = pair
    product = A * B
    reference = reference_product(A, B)
    assert product == reference
    assert repr(product) == repr(reference)


def test_mul_cyclotomic_weyl_pairs():
    # clock D and shift S: DS = zeta * SD, D^q = S^q = I; the halved
    # factors put a single denominator 2 on one side of the product
    for q in (2, 3, 5, 12):
        pair = weyl_pair(q, q)
        D, S = pair.A, pair.B
        w = pair.omega.omega()
        half = Fraction(1, 2)
        assert D * S == (S * D).scale(w)
        assert D ** q == S ** q == Matrix.identity(q, D.field)
        for X, Y in [(D, S), (D.scale(half), S), (S, D.scale(half)), (D * S, D + S)]:
            assert repr(X * Y) == repr(reference_product(X, Y))


def test_mul_cyclotomic_products_that_vanish():
    f3 = FieldTag.cyclotomic(3)
    z = f3.omega(1)
    # 1 + zeta_3 + zeta_3^2 = 0: a nonzero unreduced sum that reduces to 0
    row = Matrix.make([[1, z, z ** 2]], f3)
    ones = Matrix.make([[1], [1], [1]], f3)
    assert row * ones == Matrix.zero(1, 1, f3)
    N = Matrix.make([[0, z], [0, 0]], f3)
    assert N * N == Matrix.zero(2, 2, f3)
    assert Matrix.zero(2, 3, f3) * Matrix.zero(3, 1, f3) == Matrix.zero(2, 1, f3)


# ------------------------------------------- the lifted integer kernels

# denominators negative as written, and large: 2^61 - 1 and 10^12 + 39 are prime
LIFT_DENOMINATORS = (1, 2, -3, 7, -12, 10**12 + 39, -(2**61 - 1))
lift_rational = st.one_of(
    st.integers(min_value=-6, max_value=6).map(Fraction),
    st.builds(Fraction, st.integers(min_value=-(10**15), max_value=10**15), st.sampled_from(LIFT_DENOMINATORS)),
)


@st.composite
def lift_case(draw):
    """A compatible pair over Q or Q(zeta_q), q in 3..7, 12 or 15, sizes
    1..4, with zero rows and columns; cyclotomic entries are rational, or
    carry coefficients on every power of zeta below 2q."""
    q = draw(st.sampled_from((None, 3, 4, 5, 6, 7, 12, 15)))
    field = QQ if q is None else FieldTag.cyclotomic(q)
    entry = lift_rational if q is None else st.one_of(st.lists(lift_rational, min_size=2, max_size=2 * q), lift_rational)
    k, m, p = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return Matrix.make(draw(grid(k, m, entry)), field), Matrix.make(draw(grid(m, p, entry)), field)


@settings(max_examples=200, deadline=None)
@given(lift_case())
def test_lifted_product_and_rref_equal_the_fraction_oracle(case):
    A, B = case
    product = matrices._entries(matrices._mul_lifted(matrices._lift(A), matrices._lift(B)))
    assert repr(Matrix(A.field, A.rows, B.cols, product)) == repr(reference_product(A, B))
    for M in (A, B, reference_product(A, B)):
        reduced, pivots = reference_rref(M)
        r = rref(M)
        assert repr(r.rref) == repr(reduced)
        assert r.pivots == pivots and r.rank == len(pivots)


@st.composite
def lift_system(draw):
    """(M, b) over Q or Q(zeta_q) as in `lift_case`, b a column of M's height."""
    q = draw(st.sampled_from((None, 3, 4, 5, 6)))
    field = QQ if q is None else FieldTag.cyclotomic(q)
    entry = lift_rational if q is None else st.one_of(st.lists(lift_rational, min_size=2, max_size=2 * q), lift_rational)
    k, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return Matrix.make(draw(grid(k, m, entry)), field), Matrix.make(draw(grid(k, 1, entry)), field)


@settings(max_examples=200, deadline=None)
@given(lift_system())
def test_lifted_solve_equals_the_rref_oracle(case):
    # the canonical solution read off the oracle's RREF of [M | b]; the
    # lifted reduction of [M | b] also takes the columns lifted one by one,
    # each over its own denominators, laid side by side
    M, b = case
    reduced, pivots = reference_rref(hstack(M, b))
    expected = None
    if M.cols not in pivots:
        x = [M.field.zero()] * M.cols
        for i, c in enumerate(pivots):
            x[c] = reduced.at(i, M.cols)
        expected = tuple(x)
    assert repr(solve(M, b.entries)) == repr(expected)
    columns = [matrices._lift(Matrix(M.field, M.rows, 1, M.entries[j :: M.cols])) for j in range(M.cols)]
    R, got = matrices._reduced(matrices._beside(columns + [matrices._lift(b)]))
    assert (matrices._entries(R), tuple(got)) == (reduced.entries[: len(got) * reduced.cols], pivots)


@st.composite
def square_system(draw):
    """(L, R) over Q or Q(zeta_5): L square, n in 1..4, often singular (the
    grid zeroes whole rows and columns), R of L's height, 1..4 wide."""
    field = draw(st.sampled_from((QQ, FieldTag.cyclotomic(5))))
    entry = lift_rational if field is QQ else st.one_of(st.lists(lift_rational, min_size=2, max_size=8), lift_rational)
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return Matrix.make(draw(grid(n, n, entry)), field), Matrix.make(draw(grid(n, m, entry)), field)


def _oracle_solve_square(L, R):
    """L^-1 * R read off the oracle's RREF of [L | R], or None when a
    pivot of the first n falls outside L's columns."""
    n = L.rows
    reduced, pivots = reference_rref(hstack(L, R))
    if pivots[:n] != tuple(range(n)):
        return None
    return Matrix(L.field, n, R.cols, tuple(reduced.at(i, n + j) for i in range(n) for j in range(R.cols)))


@settings(max_examples=200, deadline=None)
@given(square_system())
def test_solve_square_equals_the_rref_oracle(case):
    L, R = case
    expected = _oracle_solve_square(L, R)
    got = matrices._solve_square(matrices._lift(L), matrices._lift(R))
    assert (got is None) == (expected is None) == (L.det() == 0)
    if got is not None:
        assert repr(Matrix(L.field, L.rows, R.cols, matrices._entries(got))) == repr(expected)
        assert L * Matrix(L.field, L.rows, R.cols, matrices._entries(got)) == R


def test_solve_square_is_none_for_singular_l_even_when_the_system_has_full_rank():
    # [L | R] has rank n through R's columns, but L is singular
    for field in (QQ, FieldTag.cyclotomic(5)):
        z = field.one() if field is QQ else field.omega(1)
        for L, R in [
            (Matrix.make([[1, 0], [0, 0]], field), Matrix.make([[0], [1]], field)),
            (Matrix.make([[z, z], [2 * z, 2 * z]], field), Matrix.make([[1, 0], [0, z]], field)),
            (Matrix.zero(3, 3, field), Matrix.identity(3, field)),
        ]:
            assert rref(hstack(L, R)).rank == L.rows
            assert matrices._solve_square(matrices._lift(L), matrices._lift(R)) is None
            with pytest.raises(ZeroInverse):
                L.inverse()


def test_lifted_kernels_on_fixed_edge_inputs():
    big = Fraction(-(2**61 - 1), 10**12 + 39)
    for field in (QQ, FieldTag.cyclotomic(3), FieldTag.cyclotomic(4), FieldTag.cyclotomic(5), FieldTag.cyclotomic(6)):
        cases = [
            (Matrix.make([[big]], field), Matrix.make([[Fraction(3, -7)]], field)),
            (Matrix.zero(1, 1, field), Matrix.make([[1]], field)),
            (Matrix.zero(3, 2, field), Matrix.zero(2, 4, field)),
            (Matrix.make([[0, big], [0, 0]], field), Matrix.make([[0, 0], [Fraction(1, -2), 0]], field)),
        ]
        if field.is_cyclotomic:
            # zeta^(phi - 1) squared needs the fold back below zeta^phi
            top = [0] * (len(field.one().coeffs) - 1) + [big]
            cases.append((Matrix.make([[top, 1]], field), Matrix.make([[top], [[0, Fraction(5, -3)]]], field)))
        for A, B in cases:
            product = matrices._entries(matrices._mul_lifted(matrices._lift(A), matrices._lift(B)))
            assert repr(Matrix(field, A.rows, B.cols, product)) == repr(reference_product(A, B))
            for M in (A, B):
                reduced, pivots = reference_rref(M)
                r = rref(M)
                assert repr(r.rref) == repr(reduced) and r.pivots == pivots


@st.composite
def kernel_system(draw):
    """(field, n, rows): plane-major integer rows n^2 wide over Q or
    Q(zeta_3), n in 1..3, with zero rows and columns; of kind random,
    all zero, or full column rank (a nonzero diagonal over random rows)."""
    field = draw(st.sampled_from((QQ, FieldTag.cyclotomic(3))))
    phi = 1 if field is QQ else 2
    n = draw(st.integers(1, 3))
    w = n * n
    kind = draw(st.sampled_from(("random", "zero", "full")))
    height = draw(st.integers(0, w + 2))
    entry = st.integers(-4, 4) if kind != "zero" else st.just(0)
    rows = draw(grid(height, phi * w, entry)) if height else []
    if kind == "full":
        diag = draw(st.lists(st.integers(1, 9), min_size=w, max_size=w))
        rows = [[d if j == i else 0 for j in range(phi * w)] for i, d in enumerate(diag)] + rows
    return field, n, rows


def _kernel_span(field, n, rows):
    """The canonical rows and pivots of the kernel of the integer system
    `rows`, by `reference_kernel_basis` and then `subspace_from_matrices`:
    two eliminations."""
    M = Matrix(field, len(rows), n * n, matrices._entries(matrices._scaled(field, n * n, rows)))
    S = subspace_from_matrices([unvec(v, n, field) for v in reference_kernel_basis(M)], n, field)
    return S.rref_rows, S.pivots


@settings(max_examples=200, deadline=None)
@given(kernel_system())
@example((QQ, 2, [[0, 0, 0, 0], [0, 0, 0, 0]]))
@example((FieldTag.cyclotomic(3), 2, []))
@example((QQ, 2, [[2, 0, 0, 0], [0, -1, 0, 0], [0, 0, 3, 0], [0, 0, 0, 5]]))
@example((FieldTag.cyclotomic(3), 1, [[0, 4]]))
@example((QQ, 1, [[0], [0]]))
@example((QQ, 1, [[-3]]))
def test_reversed_column_read_off_equals_the_span_of_the_kernel(case):
    # the examples: all zero, no rows, full column rank, one column (4 zeta, 0, -3)
    field, n, rows = case
    K, pivots = adpower._kernel_rref(matrices._scaled(field, n * n, rows))
    # each lifted row is over its value at its pivot, so it reads 1 there
    assert all(row[p] == d for d, row, p in zip(K.dens, K.ints, pivots))
    S = _from_reduced(K, pivots, n)
    assert repr((S.rref_rows, S.pivots)) == repr(_kernel_span(field, n, rows))


# the lifted kernels at the shapes the library feeds them: Krylov columns,
# commutator products laid abreast (about 40 columns wide), stacked matrix
# units with all-zero rows, right factors with zero rows, and Weyl-like
# monomial rows whose other zeta-planes are all zero; n up to 12

LIBRARY_SHAPES = ("column", "wide", "units", "zero_rows", "weyl")


def _random_entry(rng, q):
    """Zero, a small integer, or a fraction over a large denominator; over
    Q(zeta_q) a coefficient list of length 1..q."""
    def coefficient():
        kind = rng.random()
        if kind < 0.3:
            return 0
        if kind < 0.7:
            return rng.randint(-6, 6)
        return Fraction(rng.randint(-(10**15), 10**15), rng.choice(LIFT_DENOMINATORS))
    if q is None:
        return coefficient()
    return [coefficient() for _ in range(rng.randint(1, q))]


def _random_matrix(rng, field, rows, cols, zero_rows=()):
    return Matrix.make(
        [[0 if i in zero_rows else _random_entry(rng, field.q) for _ in range(cols)] for i in range(rows)], field
    )


def _monomial_matrix(rng, field, rows, cols):
    """At most one nonzero entry per row, c * zeta^e: every other plane
    of the row is zero."""
    out = [[0] * cols for _ in range(rows)]
    for row in out:
        j = rng.randint(-1, cols - 1)
        if j >= 0:
            c = Fraction(rng.randint(-(10**6), 10**6) or 1, rng.choice(LIFT_DENOMINATORS))
            row[j] = c if field.q is None else [0] * rng.randint(0, field.q - 1) + [c]
    return Matrix.make(out, field)


@st.composite
def library_shape_case(draw):
    q = draw(st.sampled_from((None, 3, 4, 5, 6, 7, 12, 15)))
    field = QQ if q is None else FieldTag.cyclotomic(q)
    shape = draw(st.sampled_from(LIBRARY_SHAPES))
    rng = random.Random(draw(st.integers(0, 2**32)))
    k, m = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    if shape == "column":
        return _random_matrix(rng, field, k, m), _random_matrix(rng, field, m, 1)
    if shape == "wide":
        return _random_matrix(rng, field, k, m), _random_matrix(rng, field, m, draw(st.integers(36, 44)))
    if shape == "units":
        # matrix units E_ij, m x m, stacked: one 1 in each block, every other row zero
        units = [Matrix.elem(m, rng.randrange(m), rng.randrange(m), field) for _ in range(draw(st.integers(1, 4)))]
        left = vstack_rows((U.row(i) for U in units for i in range(m)), field)
        return left, _random_matrix(rng, field, m, draw(st.integers(1, 12)))
    if shape == "zero_rows":
        zero = draw(st.sets(st.integers(0, m - 1)))
        return _random_matrix(rng, field, k, m), _random_matrix(rng, field, m, draw(st.integers(1, 12)), zero)
    return _monomial_matrix(rng, field, k, m), draw(st.sampled_from((_monomial_matrix, _random_matrix)))(rng, field, m, k)


@settings(max_examples=150, deadline=None)
@given(library_shape_case())
def test_lifted_product_at_library_shapes_equals_the_fraction_oracle(case):
    A, B = case
    product = matrices._entries(matrices._mul_lifted(matrices._lift(A), matrices._lift(B)))
    assert repr(Matrix(A.field, A.rows, B.cols, product)) == repr(reference_product(A, B))


def test_lifted_product_over_q105_folds_what_reaches_zeta_phi():
    # Phi_105 has a -2; phi = 48, so planes below 24 never reach zeta^48
    # in a product, zeta * zeta^47 reaches it exactly, zeta^47 squared
    # reaches the top plane zeta^94, and a clock-like diagonal times a
    # shift is one monomial product per row
    field = FieldTag.cyclotomic(105)
    phi = phi_degree(105)
    rng = random.Random(105)
    z = field.omega()

    def grid_of(entry, rows, cols):
        return Matrix.make([[entry() for _ in range(cols)] for _ in range(rows)], field)

    def low():
        return [rng.randint(-5, 5) for _ in range(phi // 2)]

    def dense():
        return [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 7))) for _ in range(phi)]

    def top():
        return [0] * (phi - 1) + [Fraction(rng.randint(1, 9), rng.choice((1, 3)))]

    clock = Matrix.diag([z ** k for k in (0, 1, 47, 50, 104)], field)
    shift = Matrix.make([[int((i - 1) % 5 == j) for j in range(5)] for i in range(5)], field)
    cases = [
        (grid_of(low, 3, 4), grid_of(low, 4, 2)),
        (grid_of(dense, 2, 3), grid_of(dense, 3, 2)),
        (grid_of(top, 2, 2), grid_of(top, 2, 3)),
        (Matrix.make([[0, 0], [1, z]], field), grid_of(top, 2, 2)),
        (Matrix.make([[z, 1]], field), Matrix.make([[z ** 47], [1]], field)),
        (clock, shift),
        (shift, clock),
        (clock, clock),
        (clock * shift, clock),
    ]
    for A, B in cases:
        product = matrices._entries(matrices._mul_lifted(matrices._lift(A), matrices._lift(B)))
        assert repr(Matrix(field, A.rows, B.cols, product)) == repr(reference_product(A, B))


def test_first_product_over_a_large_conductor_is_quick():
    # the fold table of Q(zeta_1009), phi = 1008, is built on the first
    # product; one long division per power would take minutes here
    scalars._zeta_powers.cache_clear()
    field = FieldTag.cyclotomic(1009)
    z = field.omega()
    A = matrices._lift(Matrix.make([[z, 1], [0, z ** 1007]], field))
    start = time.perf_counter()
    product = matrices._mul_lifted(A, A)
    assert time.perf_counter() - start < 5
    # zeta * zeta^1007 = zeta^1008 = -(1 + zeta + ... + zeta^1007)
    assert matrices._entries(product)[1] == z + z ** 1007
    assert matrices._entries(product)[3] == z ** 1005


def test_lifted_product_with_an_empty_inner_dimension():
    # k x 0 times 0 x m: B has no row to transpose, every entry is an empty sum
    for field in (QQ, FieldTag.cyclotomic(5)):
        phi = 1 if field.q is None else phi_degree(field.q)
        empty = matrices._Lifted(field, 3, [], [])
        product = matrices._mul_lifted(matrices._Lifted(field, 0, [1, 2], [[], []]), empty)
        assert product.ints == [[0] * (3 * phi)] * 2 and product.dens == [1, 2]


def test_zero_rows_of_a_product_are_distinct_lists():
    # callers such as _horner add into product rows in place
    for field in (QQ, FieldTag.cyclotomic(3)):
        A = Matrix.make([[0, 0], [0, 0], [1, 0]], field)
        rows = matrices._mul_lifted(matrices._lift(A), matrices._lift(Matrix.identity(2, field))).ints
        assert len({id(row) for row in rows}) == len(rows)


# --------------------------------------------------- the pivot choice

# row scales that make a row large, so that the smallest candidate for a
# pivot is often not the first one
BIG_SCALES = (2**61 - 1, -(10**12 + 39), Fraction(2**61 - 1, 10**12 + 39), 3)


@st.composite
def scaled_rows_case(draw):
    """A matrix over Q or Q(zeta_q), q in 3..6, up to 8 x 12, whose leading
    rows are multiplied by large rational (and, over Q(zeta_q), nonreal)
    factors.  Some rows repeat others up to such a factor, some are zero
    and some are s * row_a + t * row_b for two earlier rows, so the rank
    can fall short and a row can cancel to zero when two pivots are
    cleared in one pass; some columns are zero in every row, so a second
    pivot can sit several columns right of the first; and one column may
    be nonzero in a single row only."""
    q = draw(st.sampled_from((None, 3, 4, 5, 6)))
    field = QQ if q is None else FieldTag.cyclotomic(q)
    rng = random.Random(draw(st.integers(0, 2**32)))
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 12))
    zero = field.zero()
    zero_cols = {j for j in range(cols) if rng.random() < 0.2}
    base = [[zero if j in zero_cols else field.coerce(_random_entry(rng, q)) for j in range(cols)] for _ in range(rows)]
    for i in range(1, rows):
        kind = rng.random()
        if kind < 0.15:
            base[i] = list(base[rng.randrange(i)])
        elif kind < 0.25:
            base[i] = [zero] * cols
        elif kind < 0.4 and i >= 2:
            a, b = rng.sample(range(i), 2)
            s, t = field.coerce(_random_entry(rng, q)), field.coerce(_random_entry(rng, q))
            base[i] = [s * x + t * y for x, y in zip(base[a], base[b])]
    if rng.random() < 0.3:
        j, keep = rng.randrange(cols), rng.randrange(rows)
        for i, row in enumerate(base):
            row[j] = (row[j] or field.one()) if i == keep else zero
    scales = [field.coerce(s) for s in BIG_SCALES]
    if field.is_cyclotomic:
        scales.append(field.coerce([10**12 + 39, 0, -(2**61 - 1)]))
    big = draw(st.integers(1, rows))
    for i in range(big):
        s = rng.choice(scales)
        base[i] = [s * x for x in base[i]]
    return Matrix.make(base, field)


@settings(max_examples=150, deadline=None)
@given(scaled_rows_case())
def test_smallest_row_pivoting_keeps_the_unique_rref(M):
    reduced, pivots = reference_rref(M)
    r = rref(M)
    assert repr(r.rref) == repr(reduced)
    assert r.pivots == pivots and r.rank == len(pivots)


def test_pivot_is_the_row_with_fewest_bits_earliest_on_ties(monkeypatch):
    chosen = []
    plain = matrices._pivot

    def spy(row, c, width, q):
        chosen.append(list(row))
        return plain(row, c, width, q)

    monkeypatch.setattr(matrices, "_pivot", spy)
    # rows 1 and 2 both have 1 + 3 bits, row 0 has 61 + 2
    M = mat([[2**61 - 1, 3], [1, 5], [1, 7]])
    r = rref(M)
    assert chosen[0] == [1, 5]
    assert (r.rref, r.pivots) == reference_rref(M)
    # the second pivot follows the same rule among the rows nonzero in
    # column 1 once column 0 is cleared: rows 2, 3 and 4 have 6 bits each,
    # and row 2, zero in column 0, is the earliest; it enters as [0, 1, 3]
    chosen.clear()
    M = mat([[2**61 - 1, 5, 1], [1, 0, 0], [0, 3, 9], [3, 1, 7], [2, 1, 6]])
    r = rref(M)
    assert chosen[:2] == [[1, 0, 0], [0, 1, 3]]
    assert (r.rref, r.pivots) == reference_rref(M)


def test_a_pass_clears_two_pivot_columns(monkeypatch):
    # one pivot per pass updates the 7 other rows at each of the 8 pivots,
    # 56 updates; two per pass update 6 other rows at each of 4 pair
    # steps, plus the two pivot rows' reductions against each other
    updates = [0]
    plain = matrices._combine

    def counting(*args):
        updates[0] += 1
        return plain(*args)

    monkeypatch.setattr(matrices, "_combine", counting)
    rng = random.Random(8)
    M = mat([[Fraction(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(20)] for _ in range(8)])
    r = rref(M)
    assert r.rank == 8
    assert updates[0] <= 4 * 6 + 4 * 2
    assert (r.rref, r.pivots) == reference_rref(M)


# sha256 of repr(rref_rows) of the omega-centralizer basis below, as the
# first-nonzero-row pivoting gave it
NILPOTENT66_OMEGA5_DIGEST = "349d01ed208fd8c36ca5353017e37274098df13fd8d26e5ea9d3aabd7fb62bee"


def test_pivot_choice_bounds_intermediate_size_on_a_cyclotomic_basis(monkeypatch):
    # first-nonzero-row pivoting let this 24 x 144 elimination over four
    # planes reach 3,385-bit integers; the smallest row keeps them below 1,200
    largest = [0]
    plain = matrices._combine

    def measured(*args):
        row = plain(*args)
        largest[0] = max(largest[0], max(abs(x) for x in row).bit_length())
        return row

    monkeypatch.setattr(matrices, "_combine", measured)
    A = generate(GenSpec(ConjugateBy(GenSpec(NilpotentBlocks((6, 6))), 3), seed=7))
    S = omega_centralizer_basis(A, OmegaSpec(5))
    assert 0 < largest[0] < 1200
    assert S.dim == 24
    assert hashlib.sha256(repr(S.rref_rows).encode()).hexdigest() == NILPOTENT66_OMEGA5_DIGEST


def test_mul_rejects_mismatches():
    A = mat([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ShapeMismatch):
        A * A
    f3, f5 = FieldTag.cyclotomic(3), FieldTag.cyclotomic(5)
    with pytest.raises(FieldMismatch):
        Matrix.identity(2, f3) * Matrix.identity(2, f5)
    with pytest.raises(FieldMismatch):
        Matrix.identity(2, f3) * Matrix.identity(2, QQ)


@settings(max_examples=60)
@given(square)
def test_det_matches_sympy(A):
    assert sympy.Rational(A.det()) == to_sympy(A).det()


def test_det_generic_path_cyclotomic():
    f5 = FieldTag.cyclotomic(5)
    z = f5.omega(1)
    A = Matrix.make([[z, 1], [0, z ** 2]], f5)
    assert A.det() == z ** 3
    B = Matrix.make([[z, z], [z, z]], f5)
    assert B.det() == 0
    # 3x3 with mixed entries: first-row cofactor expansion gives -z^2
    C = Matrix.make([[1, z, 0], [z, 1, 1], [0, 1, 1]], f5)
    assert C.det() == -(z ** 2)


@lru_cache(maxsize=None)
def _det_inputs():
    u = [Fraction(k - 5, k + 1) for k in range(12)]
    v = [Fraction(3 - k, 2) for k in range(12)]
    return {
        # repeated entries: one invariant factor per repeat
        "diagonal": Matrix.diag([2, 2, Fraction(-1, 3), 2, Fraction(-1, 3), 5], QQ),
        # forty one-dimensional blocks per factor over Q(zeta_5)
        "weyl": weyl_pair(5, 40).A,
        "rank 1": mat([[a * b for b in v] for a in u]),
        "zero": Matrix.zero(5, 5, QQ),
        "nilpotent (4,4,4,4)": nilpotent((4, 4, 4, 4), 7),
        "zeta_3": cyclo3_jordan(5, (2, 1, 3)) + Matrix.identity(6, FieldTag.cyclotomic(3)),
        "0 x 0": Matrix(QQ, 0, 0, ()),
    }


@pytest.mark.parametrize("name", list(_det_inputs()))
def test_det_matches_sympy_where_the_split_works_hardest(name):
    # det is (-1)^n chi_A(0) off the split: inputs with many invariant
    # factors, a zero constant term, or none at all
    A = _det_inputs()[name]
    assert A.det() == sympy_det(A)
    assert type(A.det()) is type(A.field.one())


def test_det_of_the_empty_matrix_is_one():
    for field in (QQ, FieldTag.cyclotomic(3)):
        assert Matrix(field, 0, 0, ()).det() == field.one()
    with pytest.raises(NotSquare, match="determinant needs a square matrix"):
        mat([[1, 2]]).det()


def test_det_raises_on_a_corrupted_split(monkeypatch):
    # a wrong companion form fails the split's A*P = P*F check, so det
    # raises instead of returning a value
    inputs = _det_inputs()
    monkeypatch.setattr(canonical, "companion", lambda f: Matrix.identity(f.degree, f.field))
    for A in (mat([[1, 2], [3, 4]]), inputs["zeta_3"], inputs["nilpotent (4,4,4,4)"], inputs["weyl"]):
        with pytest.raises(VerificationError):
            A.det()


@settings(max_examples=80)
@given(st.tuples(dim, st.integers(min_value=1, max_value=7)).flatmap(
    lambda shape: grid(*shape, rational)).map(mat))
def test_rref_matches_sympy(A):
    R, pivots, rank = rref(A)
    sR, spivots = to_sympy(A).rref()
    assert to_sympy(R) == sR
    assert list(pivots) == list(spivots)
    assert rank == len(spivots)
    expected, expected_pivots = reference_rref(A)
    assert repr(R) == repr(expected) and pivots == expected_pivots


@settings(max_examples=150)
@given(st.sampled_from((1, 2, 3, 4, 5, 6, 8, 12)).flatmap(
    lambda q: st.tuples(dim, st.integers(min_value=1, max_value=6)).flatmap(
        lambda shape: cyclotomic_matrix(
            FieldTag.cyclotomic(q), *shape, ("dense", "weyl", "repeated")))))
def test_rref_cyclotomic_matches_reference(A):
    # dense entries give non-rational pivots such as 1 - zeta
    R, pivots, rank = rref(A)
    expected, expected_pivots = reference_rref(A)
    assert repr(R) == repr(expected)
    assert pivots == expected_pivots and rank == len(pivots)


@st.composite
def non_rational_pivot_matrix(draw, q):
    """A 2..4 x 2..5 matrix over Q(zeta_q) of dense entries with no
    rational entry in column 0, so pivots that are not rational occur; its
    last row is sometimes s * row 0 + t * row 1 for dense s and t, and
    then its entry in column 0 may be rational."""
    field, phi = FieldTag.cyclotomic(q), phi_degree(q)
    entry = st.lists(rational, min_size=phi, max_size=phi)
    rows, cols = draw(st.integers(2, 4)), draw(st.integers(2, 5))
    grid = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    for row in grid:
        row[0][1] = row[0][1] or Fraction(1)
    M = Matrix.make(grid, field)
    if rows > 2 and draw(st.booleans()):
        s, t = field.coerce(draw(entry)), field.coerce(draw(entry))
        last = [s * x + t * y for x, y in zip(M.row(0), M.row(1))]
        M = Matrix(field, rows, cols, M.entries[: -cols] + tuple(last))
    return M


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((5, 7, 12)).flatmap(non_rational_pivot_matrix))
def test_rref_with_non_rational_pivots_matches_the_fraction_reference(M):
    # the pivot row is multiplied by the integer product of its pivot's
    # other conjugates; the reference divides by the pivot in Fractions
    R, pivots, rank = rref(M)
    expected, expected_pivots = reference_rref(M, reference_mul, reference_inverse)
    assert not M.at(0, 0).is_rational()
    assert repr(R) == repr(expected)
    assert pivots == expected_pivots and rank == len(pivots)


@settings(max_examples=300)
@given(st.sampled_from((None, 3, 5, 7, 12)).flatmap(
    lambda q: st.tuples(
        st.just(q),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=-50, max_value=50),
        st.lists(st.integers(min_value=-9, max_value=9), min_size=phi_degree(q) if q else 1, max_size=phi_degree(q) if q else 1),
        st.randoms(use_true_random=False),
    )))
def test_combine_in_pairs_equals_the_sequential_update(case):
    q, width, pv, v, rng = case
    phi = len(v)
    row = [rng.randint(-10**6, 10**6) for _ in range(phi * width)]
    pivot_row = [rng.randint(-10**6, 10**6) for _ in range(phi * width)]
    shifts = matrices._zeta_shifts(pivot_row, width, cyclo_coeffs(q)[:-1] if q else ())
    assert matrices._combine(pv, row, v, shifts) == sequential_combine(pv, row, v, shifts)


def test_rref_cyclotomic_pivots_need_no_scalar_sums(monkeypatch):
    f5 = FieldTag.cyclotomic(5)
    rng = random.Random(5)
    M = Matrix.make(
        [[[Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3))) for _ in range(4)]
          for _ in range(8)] for _ in range(6)],
        f5,
    )
    expected = reference_rref(M)
    sums = [0]

    def counted(name):
        plain = getattr(CycloScalar, name)

        def wrapper(self, other):
            sums[0] += 1
            return plain(self, other)

        return wrapper

    for name in ("__add__", "__radd__", "__sub__", "__rsub__"):
        monkeypatch.setattr(CycloScalar, name, counted(name))
    R, pivots, rank = rref(M)
    assert sums[0] == 0
    assert (R, pivots) == expected and rank == 6


@st.composite
def kernel_matrix(draw):
    """A matrix over Q or Q(zeta_3) with 0..4 rows and 0..4 columns, so
    wide, tall or square: random with zero rows and columns, all zero, or
    of full rank (nonzero diagonal, random entries above it)."""
    field = draw(st.sampled_from((QQ, FieldTag.cyclotomic(3))))
    entry = rational if field is QQ else st.lists(rational, max_size=3)
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    kind = draw(st.sampled_from(("random", "zero", "full")))
    if not rows or not cols or kind == "zero":
        return Matrix.zero(rows, cols, field)
    if kind == "random":
        return Matrix.make(draw(grid(rows, cols, entry)), field)
    nonzero = entry.filter(lambda x: field.coerce(x))
    return Matrix.make([[draw(nonzero) if j == i else draw(entry) if j > i else 0 for j in range(cols)] for i in range(rows)], field)


@settings(max_examples=200, deadline=None)
@given(kernel_matrix())
@example(Matrix.zero(3, 0, QQ))
@example(Matrix.zero(0, 3, FieldTag.cyclotomic(3)))
@example(mat([[1, 2, 3, 4], [2, 4, 6, 8]]))
@example(mat([[1, 2], [3, 4], [5, 6], [7, 8]]))
def test_kernel_basis_equals_the_field_arithmetic_read_off(M):
    # the examples: no columns, no rows, wide of rank 1, tall of full rank
    assert repr(kernel_basis(M)) == repr(reference_kernel_basis(M))


def test_kernel_basis_of_matrices_without_rows_or_columns():
    # no columns: no kernel vector, and no slicing by a zero width
    assert kernel_basis(Matrix.zero(3, 0, QQ)) == []
    # no rows: every column is free, so the unit vectors span the kernel
    for field in (QQ, FieldTag.cyclotomic(3)):
        o, z = field.one(), field.zero()
        assert kernel_basis(Matrix.zero(0, 3, field)) == [(o, z, z), (z, o, z), (z, z, o)]


def test_kernel_solve_inverse_cyclotomic():
    f5 = FieldTag.cyclotomic(5)
    z = f5.omega(1)
    one = f5.one()
    M = Matrix.make(
        [[1, z, z ** 2, 0], [1 - z, 0, z ** 3, 1], [2 - z, z, z ** 2 + z ** 3, 1]], f5
    )
    basis = kernel_basis(M)
    assert len(basis) == 2
    for v in basis:
        assert M * Matrix(f5, 4, 1, v) == Matrix.zero(3, 1, f5)
    b = (one, z, 1 + z)
    x = solve(M, b)
    assert M * Matrix(f5, 4, 1, x) == Matrix(f5, 3, 1, b)
    assert solve(M, (one, z, z)) is None
    P = Matrix.make([[1 - z, z, 0], [0, 1 + z ** 2, Fraction(1, 3)], [z ** 4, 0, 2]], f5)
    assert P * P.inverse() == Matrix.identity(3, f5)
    assert P.inverse() * P == Matrix.identity(3, f5)
    with pytest.raises(ZeroInverse):
        Matrix.make([[1, z], [z, z ** 2]], f5).inverse()


@settings(max_examples=40)
@given(square)
def test_kernel_is_nullspace(A):
    basis = kernel_basis(A)
    assert len(basis) == A.cols - to_sympy(A).rank()
    zero = tuple(Fraction(0) for _ in range(A.rows))
    for v in basis:
        col = Matrix(QQ, A.cols, 1, tuple(v))
        assert tuple((A * col).entries) == zero


@settings(max_examples=40)
@given(square)
def test_inverse(A):
    if A.det() == 0:
        with pytest.raises(ZeroInverse):
            A.inverse()
        return
    assert A * A.inverse() == Matrix.identity(A.rows, QQ)
    assert A.inverse() == from_sympy(to_sympy(A).inv())


def test_pow():
    A = mat([[1, 1], [0, 1]])
    assert A ** 0 == Matrix.identity(2, QQ)
    assert A ** 5 == mat([[1, 5], [0, 1]])
    assert A ** -2 == (A.inverse()) ** 2
    with pytest.raises(NotSquare):
        mat([[1, 2, 3], [4, 5, 6]]) ** 2


def test_pow_multiplies_no_identity(monkeypatch):
    A = mat([[1, 2, 0], [Fraction(1, 3), 0, 1], [0, -1, 2]])
    expected = {k: reference_power(A, k) for k in range(9)}
    inverse_cubed = reference_power(A.inverse(), 3)
    products = count_products(monkeypatch)
    for k, count in [(0, 0), (1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (6, 3), (7, 4), (8, 3)]:
        products[0] = 0
        assert A ** k == expected[k]
        assert products[0] == count, k
    products[0] = 0
    assert A ** -3 == inverse_cubed
    assert products[0] == 2


@st.composite
def chain_case(draw):
    """A square matrix over Q, Q(zeta_3) or Q(zeta_5), n <= 4, with large
    and negative denominators and zero rows and columns, and a polynomial
    over the same field: zero, constant or of degree up to 5, with
    non-integer and (over Q(zeta_q)) non-rational coefficients."""
    q = draw(st.sampled_from((None, 3, 5)))
    field = QQ if q is None else FieldTag.cyclotomic(q)
    entry = lift_rational if q is None else st.one_of(st.lists(lift_rational, min_size=2, max_size=2 * q), lift_rational)
    n = draw(st.integers(1, 4))
    A = Matrix.make(draw(grid(n, n, entry)), field)
    coeff = st.one_of(st.just(0), entry)
    f = Poly.make(draw(st.lists(coeff, max_size=draw(st.sampled_from((0, 1, 6))))), field)
    return A, f


@settings(max_examples=80, deadline=None)
@given(chain_case(), st.integers(-2, 9))
def test_lifted_power_and_horner_chains_equal_stepwise_products(case, k):
    A, f = case
    assert repr(eval_at_matrix(f, A)) == repr(stepwise_eval(f, A))
    if k < 0 and not A.det():
        with pytest.raises(ZeroInverse):
            A ** k
    else:
        assert repr(A ** k) == repr(stepwise_power(A, k))


def test_same_compares_rows_over_their_denominators():
    f5 = FieldTag.cyclotomic(5)
    for field in (QQ, f5):
        L = matrices._Lifted
        phi = 4 if field.is_cyclotomic else 1
        row = [1, -2] + [0, 3] * (phi - 1)
        # [1, -2] / 2 against the same row over 6 = 2 * 3: equal
        assert matrices._same(L(field, 2, [2], [row]), L(field, 2, [6], [[3 * x for x in row]]))
        # the same integers over other denominators are only proportional
        assert not matrices._same(L(field, 2, [2], [row]), L(field, 2, [6], [row]))
        doubled = [2 * x for x in row]
        assert matrices._same(L(field, 2, [1, 1], [row, row]), L(field, 2, [1, 2], [row, doubled]))
        assert not matrices._same(L(field, 2, [1, 1], [row, row]), L(field, 2, [2, 1], [row, doubled]))
        # zero rows agree over any denominators
        zero = [0] * (2 * phi)
        assert matrices._same(L(field, 2, [5], [zero]), L(field, 2, [1], [list(zero)]))
    A = Matrix.make([[Fraction(1, 2), Fraction(-2, 3)], [0, 7]], QQ)
    assert matrices._same(matrices._lift(A), matrices._lift(A.promote(5))) is False
    # other shapes are never the same, even where the rows they share agree
    assert matrices._same(matrices._lift(A), matrices._lift(Matrix(QQ, 1, 2, A.row(0)))) is False
    assert matrices._same(matrices._lift(A), matrices._lift(Matrix(QQ, 2, 1, (A.at(0, 0), 0)))) is False


def test_vec_kron_identity():
    # vec(A X B) = (A kron B^T) vec(X), row-major
    A = mat([[1, 2], [3, 4]])
    X = mat([[0, 1], [1, 5]])
    B = mat([[2, 0], [1, 1]])
    lhs = vec(A * X * B)
    big = kron(A, B.transpose())
    rhs = tuple(
        sum(big.at(i, j) * vec(X)[j] for j in range(4)) for i in range(4)
    )
    assert lhs == rhs


def test_unvec_roundtrip():
    M = mat([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert unvec(vec(M), 3, QQ) == M


def test_solve_canonical():
    # underdetermined: [1 1] x = [2]; free variable pinned to zero
    A = Matrix(QQ, 1, 2, (Fraction(1), Fraction(1)))
    sol = solve(A, (Fraction(2),))
    assert sol == (Fraction(2), Fraction(0))
    # inconsistent
    B = Matrix(QQ, 2, 1, (Fraction(1), Fraction(1)))
    assert solve(B, (Fraction(1), Fraction(2))) is None


def test_field_mixing_rejected():
    A = mat([[1]])
    B = Matrix.identity(1, FieldTag.cyclotomic(3))
    with pytest.raises(FieldMismatch):
        A + B
    with pytest.raises(FieldMismatch):
        A * B


def test_promote():
    A = mat([[1, 2], [0, 1]])
    P = A.promote(4)
    assert P.field == FieldTag.cyclotomic(4)
    assert P.at(0, 1) == 2
    with pytest.raises(FieldMismatch):
        P.promote(3)
    assert P.promote(4) == P


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: grid(n, n, lift_rational)), st.sampled_from((3, 4, 5, 6, 7)))
def test_embed_is_the_lift_of_the_promoted_matrix(rows, q):
    A = mat(rows)
    field = FieldTag.cyclotomic(q)
    embedded = matrices._embed(matrices._lift(A), field)
    assert embedded == matrices._lift(A.promote(q))
    assert all(len(row) == phi_degree(q) * A.cols for row in embedded.ints)
    assert matrices._embed(embedded, field) is embedded
    with pytest.raises(FieldMismatch, match="cannot promote"):
        matrices._embed(embedded, FieldTag.cyclotomic(q + 1 if q != 5 else 7))


def test_scale_and_arithmetic():
    A = mat([[1, 2], [3, 4]])
    assert A.scale(Fraction(1, 2)) == mat([[Fraction(1, 2), 1], [Fraction(3, 2), 2]])
    assert A - A == Matrix.zero(2, 2, QQ)
    assert (-A) + A == Matrix.zero(2, 2, QQ)
    assert 2 * A == A + A


# ------------------------------------------- elementwise ops skip zero entries

@st.composite
def elementwise_operands(draw):
    """A scalar and two same-shape matrices over Q or Q(zeta_5): the
    second is independent, the negated first, all zero, or the first."""
    field = draw(st.sampled_from((QQ, FieldTag.cyclotomic(5))))
    rows, cols = draw(dim), draw(dim)
    if field.is_cyclotomic:
        def matrix():
            return draw(cyclotomic_matrix(field, rows, cols, ("dense", "weyl", "zero")))
        c = field.coerce(draw(st.lists(rational, max_size=5)))
    else:
        def matrix():
            return mat(draw(grid(rows, cols, rational)))
        c = draw(rational)
    A = matrix()
    other = draw(st.sampled_from(("fresh", "negated", "zero", "same")))
    B = {"fresh": matrix, "negated": lambda: -A, "zero": lambda: Matrix.zero(rows, cols, field),
         "same": lambda: A}[other]()
    return c, A, B


def _entrywise(op, A, *B):
    return Matrix(A.field, A.rows, A.cols, tuple(op(*xs) for xs in zip(A.entries, *(M.entries for M in B))))


@settings(max_examples=80, deadline=None)
@given(elementwise_operands())
def test_elementwise_ops_match_entrywise_oracle(operands):
    c, A, B = operands
    cases = [
        (A + B, _entrywise(lambda a, b: a + b, A, B)),
        (B + A, _entrywise(lambda b, a: b + a, B, A)),
        (A - B, _entrywise(lambda a, b: a - b, A, B)),
        (B - A, _entrywise(lambda b, a: b - a, B, A)),
        (A.scale(c), _entrywise(lambda a: A.field.coerce(c) * a, A)),
        (A.scale(0), _entrywise(lambda a: A.field.zero() * a, A)),
    ]
    for ours, oracle in cases:
        assert ours == oracle
        assert [type(x) for x in ours.entries] == [type(x) for x in oracle.entries]


def test_scale_multiplies_only_nonzero_entries(monkeypatch):
    A = weyl_pair(3, 12).B
    nonzero = sum(1 for x in A.entries if x)
    count = [0]
    plain = CycloScalar.__mul__

    def counting(self, other):
        count[0] += 1
        return plain(self, other)

    monkeypatch.setattr(CycloScalar, "__mul__", counting)
    scaled = A.scale(CycloScalar.zeta(3, 2))
    assert count[0] == nonzero == 12
    assert sum(1 for x in scaled.entries if x) == nonzero


@st.composite
def cyclotomic_row(draw):
    """A row over Q(zeta_q), q in {3, 4, 5, 6}: zero entries, and entries
    whose coefficient tuples are partly zero, over several denominators."""
    field = FieldTag.cyclotomic(draw(st.sampled_from((3, 4, 5, 6))))
    phi = phi_degree(field.q)
    coefficient = st.one_of(st.just(0), rational)
    entry = st.one_of(st.just([0]), st.lists(coefficient, min_size=phi, max_size=phi))
    return field, [field.coerce(c) for c in draw(st.lists(entry, min_size=1, max_size=8))]


@settings(max_examples=80, deadline=None)
@given(cyclotomic_row())
def test_planes_skips_zeros_and_equals_the_dense_lift(case):
    field, row = case
    phi = phi_degree(field.q)
    assert matrices._planes(row, field.q, phi) == dense_planes(row, field.q, phi)


@settings(max_examples=60, deadline=None)
@given(st.one_of(rational_pair(), cyclotomic_pair()), st.lists(rational, min_size=1, max_size=6))
def test_scalar_times_lifted_matrix_equals_scale(pair, coeffs):
    A, _ = pair
    c = A.field.coerce(coeffs[0] if A.field is QQ else coeffs)
    lifted = matrices._times(c, matrices._lift(A))
    assert Matrix(A.field, A.rows, A.cols, matrices._entries(lifted)) == A.scale(c)
    # [c_1 I | c_2 I] has c_b on the diagonal of block b
    both = Matrix(A.field, A.rows, 2 * A.rows, matrices._entries(matrices._abreast((c, -c), A.rows, A.field)))
    ident = Matrix.identity(A.rows, A.field)
    assert both == hstack(ident.scale(c), ident.scale(-c))


@st.composite
def column_case(draw):
    """A matrix over Q, Q(zeta_3) or Q(zeta_5), one-row and one-column
    shapes drawn often, and lists of its column and of its row indices
    in any order, repeats allowed."""
    q = draw(st.sampled_from((None, 3, 5)))
    rows, cols = draw(st.one_of(st.sampled_from(((1, 1), (1, 4), (4, 1))), st.tuples(dim, dim)))
    if q is None:
        M = mat(draw(grid(rows, cols, rational)))
    else:
        M = draw(cyclotomic_matrix(FieldTag.cyclotomic(q), rows, cols, ("dense", "weyl", "zero")))
    return M, draw(st.lists(st.integers(0, cols - 1), max_size=2 * cols)), draw(st.lists(st.integers(0, rows - 1), max_size=2 * rows))


Q5 = FieldTag.cyclotomic(5)
# rows over different denominators, taken reversed, repeated and not at all
UNEVEN = mat([[Fraction(1, 2), 1], [Fraction(1, 3), 2], [5, Fraction(-1, 7)]])
UNEVEN5 = Matrix.make([[[Fraction(1, 2), 0, 1], 1], [0, [0, Fraction(-2, 9)]], [[3, 0, 0, Fraction(1, 4)], Fraction(1, 5)]], Q5)


@settings(max_examples=80, deadline=None)
@given(column_case())
@example((UNEVEN, [1, 0], [2, 1, 0]))
@example((UNEVEN, [0], [1, 1, 2, 1]))
@example((UNEVEN, [1], []))
@example((UNEVEN5, [1, 0, 1], [2, 1, 0, 0]))
@example((UNEVEN5, [], []))
def test_lifted_columns_and_transpose_equal_the_matrix_ones(case):
    M, picks, rows = case
    L = matrices._lift(M)
    T = matrices._transpose(L)
    assert (T.rows, T.cols) == (M.cols, M.rows)
    assert matrices._entries(T) == M.transpose().entries
    C = matrices._columns(L, picks)
    assert (C.rows, C.cols) == (M.rows, len(picks))
    assert matrices._entries(C) == tuple(M.at(i, j) for i in range(M.rows) for j in picks)
    # _take and _below keep each row over its own denominator: plain list picks
    R = matrices._take(L, rows)
    assert (R.field, R.cols, R.dens, R.ints) == (M.field, M.cols, [L.dens[i] for i in rows], [L.ints[i] for i in rows])
    assert matrices._entries(R) == tuple(x for i in rows for x in M.row(i))
    S = matrices._below((L, R, matrices._take(L, rows[::-1])))
    assert (S.field, S.cols, S.dens, S.ints) == (M.field, M.cols, L.dens + R.dens + R.dens[::-1], L.ints + R.ints + R.ints[::-1])
    assert matrices._entries(S) == M.entries + tuple(x for i in rows + rows[::-1] for x in M.row(i))

def _plane_ints(M: Matrix) -> list:
    """The entries of M, row-major, each split into its coefficients,
    plane-major as in `matrices._planes`; over Q the entries themselves."""
    if M.field is QQ:
        return list(M.entries)
    phi = phi_degree(M.field.q)
    return [x.coeffs[e] for e in range(phi) for x in M.entries]


def _chain_kernel(A: Matrix, mu, k: int) -> list[Matrix]:
    """A basis of {Y : (ad^mu_A)^k Y = 0}, ad^mu_A(Y) = AY - mu*YA, from
    the Kronecker oracle: the kernel of the k-th power of its n^2 x n^2
    operator, in field arithmetic."""
    op = reference_power(commutant_operator(A, mu), k)
    return [unvec(v, A.rows, A.field) for v in reference_kernel_basis(op)]


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([(QQ, Fraction(1)), (QQ, Fraction(-1)), (FieldTag.cyclotomic(5), CycloScalar.zeta(5, 2))]),
    st.integers(1, 4).flatmap(partitions),
    st.integers(0, 10**6),
    st.integers(1, 3),
)
def test_sides_equal_the_fraction_products_and_agree_exactly_on_the_relation(case, sizes, seed, k):
    # the Ys: a basis of {Y : (ad^mu_A)^k Y = 0} from the Kronecker oracle,
    # which the chain kills, a seeded integer matrix, which it generally
    # does not, and 0; every step of the row-by-row chain must equal the
    # Fraction products, and the packed verdict the Fraction one
    field, mu = case
    A = nilpotent(sizes, seed)
    n = A.rows
    Ys = [random_rational_matrix(seed, n), Matrix.zero(n, n, QQ)]
    if field is not QQ:
        A, Ys = A.promote(field.q), [Y.promote(field.q) for Y in Ys]
    Ys += _chain_kernel(A, mu, k)
    L = matrices._lift(A)
    lifts = [matrices._lift(Y).common() for Y in Ys]
    vecs = [matrices._vec(Yl) for Yl in lifts]
    d = lcm(*L.dens)
    verdicts = []
    for Y, Yl, (steps, lhs, rhs) in zip(Ys, lifts, reference_commutator_chain(vecs, L, mu, k)):
        # step j holds the integers of t*d^j*(ad^mu_A)^j Y, t Y's denominator
        t, Yj = Yl.dens[0], Y
        for j, step in enumerate(steps):
            assert step == _plane_ints(Yj.scale(t * d**j))
            last, Yj = Yj, reference_product(A, Yj) - reference_product(Yj, A).scale(mu)
        AY, muYA = reference_product(A, last), reference_product(last, A).scale(mu)
        assert lhs == _plane_ints(AY.scale(t * d**k))
        assert rhs == _plane_ints(muYA.scale(t * d**k))
        assert (lhs == rhs) == Yj.is_zero()
        verdicts.append(Yj.is_zero())
    assert matrices._relation_holds(vecs, L, mu, k) == all(verdicts)


def _packed_width(vecs, L, mu, k) -> int:
    """The slot width w the packed chain must use: S = n * phi * M_L *
    (1 + sum |c|) over the fold rows, w = (S * (2 S)^(k-1) * M_Y).bit_length() + 2."""
    L = L.common()
    mu_L = L if mu == 1 else matrices._times(mu, L)
    q = L.field.q
    phi = phi_degree(q) if q else 1
    fold = sum(abs(c) for row in scalars._zeta_powers(q)[phi : 2 * phi - 1] for _, c in row) if q else 0
    m_L = max([abs(x) for M in (L, mu_L) for row in M.ints for x in row], default=0)
    m_Y = max(abs(x) for v in vecs for x in v)
    s = L.rows * phi * m_L * (1 + fold)
    return (s * (2 * s) ** (k - 1) * m_Y).bit_length() + 2


@st.composite
def relation_case(draw):
    """A over Q, Q(zeta_3), Q(zeta_5), Q(zeta_7) or Q(zeta_12) (a
    conjugated nilpotent, times zeta^s over Q(zeta_q)), mu in {1, -1,
    zeta^j} with j up to q - 1, so past phi as well, k in {1, 2, 3} and
    integer vecs: basis rows of {Y : (ad^mu_A)^k Y = 0}, or of the
    kernel one power higher, which the chain need not kill, times large
    multipliers of either sign,
    possibly cut to one row or none, a row of large negative entries
    appended, or one entry of one row moved by +-1."""
    q = draw(st.sampled_from((None, 3, 5, 7, 12)))
    A = nilpotent(draw(st.integers(1, 3).flatmap(partitions)), draw(st.integers(0, 10**6)))
    mu = Fraction(draw(st.sampled_from((1, -1))))
    if q is not None:
        field = FieldTag.cyclotomic(q)
        A = A.promote(q).scale(CycloScalar.zeta(q, draw(st.integers(0, q - 1))))
        mu = draw(st.sampled_from((field.one(), -field.one(), CycloScalar.zeta(q, draw(st.integers(0, q - 1))))))
    k = draw(st.integers(1, 3))
    scale = st.one_of(st.sampled_from((-3, -2, -1, 1, 2, 3)), st.integers(2**60, 2**90), st.integers(-(2**90), -(2**60)))
    basis = _chain_kernel(A, mu, k + draw(st.integers(0, 1)))
    vecs = [[draw(scale) * x for x in matrices._vec(matrices._lift(Y).common())] for Y in basis]
    cut = draw(st.sampled_from(("all", "single", "none")))
    vecs = vecs[:1] if cut == "single" else [] if cut == "none" else vecs
    width = A.rows * A.rows * (phi_degree(q) if q else 1)
    if draw(st.booleans()):
        vecs.append(draw(st.lists(st.integers(-(2**100), 0), min_size=width, max_size=width)))
    if vecs and draw(st.booleans()):
        e, p = draw(st.integers(0, len(vecs) - 1)), draw(st.integers(0, width - 1))
        vecs[e] = vecs[e][:p] + [vecs[e][p] + draw(st.sampled_from((1, -1)))] + vecs[e][p + 1 :]
    return A, mu, vecs, k


def _folding_case(q, j, off, k):
    """Conjugated nilpotent (2, 1) times zeta_q over Q(zeta_q), mu =
    zeta_q^j past phi, the basis rows of {Y : (ad^mu_A)^k Y = 0} with the
    last one negated and made huge, and with ``off`` added to the first
    entry of the first row."""
    A = nilpotent((2, 1), 3).promote(q).scale(CycloScalar.zeta(q))
    mu = CycloScalar.zeta(q, j)
    vecs = [matrices._vec(matrices._lift(Y).common()) for Y in _chain_kernel(A, mu, k)]
    vecs[-1] = [-(2**80) * x for x in vecs[-1]]
    vecs[0] = [vecs[0][0] + off] + vecs[0][1:]
    return A, mu, vecs, k


@settings(max_examples=120, deadline=None)
@given(relation_case())
@example(_folding_case(5, 4, 0, 1))
@example(_folding_case(5, 4, -1, 1))
@example(_folding_case(12, 7, 0, 1))
@example(_folding_case(12, 7, 1, 1))
@example(_folding_case(7, 6, 0, 1))
@example(_folding_case(5, 4, 0, 2))
@example(_folding_case(12, 7, 1, 2))
@example(_folding_case(7, 6, -1, 3))
def test_packed_relation_proof_gives_the_row_by_row_verdict(case):
    A, mu, vecs, k = case
    L = matrices._lift(A)
    chains = reference_commutator_chain(vecs, L, mu, k)
    # the seam: every product the chain makes, with its operands
    with pytest.MonkeyPatch.context() as m:
        products = []
        m.setattr(matrices, "_mul_lifted", lambda X, Y, plain=matrices._mul_lifted: products.append((X, Y)) or plain(X, Y))
        assert matrices._relation_holds(vecs, L, mu, k) == all(left == right for _, left, right in chains)
    if not vecs:
        assert products == []
        return
    # after mu*L (one product unless mu = 1) come k pairs L*Y, Y*(mu*L),
    # and each step's Y is the packed one, slot e at 2^(w e), of the
    # row-by-row steps, with the width of the docstring; that width
    # holds every unpacked entry the chain makes, in the steps after the
    # input and in both last sides
    w = _packed_width(vecs, L, mu, k)
    assert len(products) == 2 * k + (mu != 1)
    pairs = products[-2 * k :]
    for j in range(k):
        (_, Y), (Y2, _) = pairs[2 * j], pairs[2 * j + 1]
        assert Y is Y2
        assert matrices._vec(Y) == [sum(steps[j][p] * 2 ** (w * e) for e, (steps, _, _) in enumerate(chains)) for p in range(len(vecs[0]))]
    assert all(abs(x) < 2 ** (w - 1) for steps, left, right in chains for x in chain(*steps[1:], left, right))


_J2 = mat([[0, 1], [0, 0]])


@pytest.mark.parametrize(
    "A, mu, vecs, holds",
    [
        (_J2, Fraction(1), [], True),
        (_J2, Fraction(1), [[1, 0, 0, 1]], True),
        (_J2, Fraction(1), [[-(10**40), 3, 0, -(10**40)]], True),
        (_J2, Fraction(1), [[1, 0, 0, 1], [0, -(10**40), 0, 0], [-7, 1, 0, -7]], True),
        (_J2, Fraction(1), [[1, 0, 0, 1], [0, -(10**40), 0, 0], [-7, 1, 0, -6]], False),
        (_J2, Fraction(-1), [[0, -(10**40), 0, 0]], True),
        (_J2, Fraction(-1), [[0, 1, 0, 0], [1, 0, 0, -1]], True),
        (_J2, Fraction(-1), [[0, 1, 0, 0], [1, 0, 0, 1]], False),
    ],
)
def test_packed_relation_proof_on_fixed_rows(A, mu, vecs, holds):
    L = matrices._lift(A)
    assert all(left == right for _, left, right in reference_commutator_chain(vecs, L, mu, 1)) == holds
    assert matrices._relation_holds(vecs, L, mu, 1) == holds


# the vecs of E_11, E_12, E_21 and E_22 over Q, and of E_21 and
# zeta^2*E_21 over Q(zeta_5), four planes of four entries
_E11, _E12, _E21, _E22 = ([int(p == i) for p in range(4)] for i in range(4))
_Z5 = FieldTag.cyclotomic(5)
_E21_5, _Z2E21_5 = [int(p == 2) for p in range(16)], [int(p == 10) for p in range(16)]


@pytest.mark.parametrize(
    "A, mu, vecs, k, holds",
    [
        # on J_2: ad(E_11) = -E_12 and ad(E_12) = 0, so E_11 dies at the
        # second step; ad(E_21) = E_11 - E_22 and ad^2(E_21) = -2*E_12
        (_J2, 1, [_E11], 1, False),
        (_J2, 1, [_E11], 2, True),
        (_J2, 1, [_E21], 2, False),
        (_J2, 1, [_E21], 3, True),
        (_J2, 1, [_E12, [-(10**40) * x for x in _E11], [7, 0, 0, 7]], 2, True),
        (_J2, 1, [_E12, [-(10**40) * x for x in _E11], [7, 0, -1, 7]], 2, False),
        (_J2, 1, [_E12, [-(10**40) * x for x in _E11], [7, 0, -1, 7]], 3, True),
        # mu = -1: JY + YJ takes E_11 to E_12 to 0, and E_21 to I to 2J to 0
        (_J2, -1, [_E11], 2, True),
        (_J2, -1, [_E21], 2, False),
        (_J2, -1, [_E21, _E22, _E11], 3, True),
        (_J2, -1, [_E21, _E22, _E11], 2, False),
        # mu = zeta_5: E_21 goes to E_11 - zeta*E_22, then to -2*zeta*E_12
        (_J2.promote(5), CycloScalar.zeta(5), [_E21_5], 2, False),
        (_J2.promote(5), CycloScalar.zeta(5), [_Z2E21_5, [-(2**70) * x for x in _E21_5]], 3, True),
        (_J2.promote(5), CycloScalar.zeta(5, 4), [_Z2E21_5, [-(2**70) * x for x in _E21_5]], 2, False),
        # L = 0 kills everything, at every power and for every mu
        (Matrix.zero(2, 2, QQ), 1, [[5, -3, 10**30, 1]], 1, True),
        (Matrix.zero(2, 2, QQ), -1, [[5, -3, 10**30, 1], _E21], 3, True),
        (Matrix.zero(2, 2, _Z5), CycloScalar.zeta(5, 3), [_Z2E21_5], 2, True),
        # no vecs: vacuously true
        (_J2, 1, [], 2, True),
        (_J2, -1, [], 3, True),
    ],
)
def test_packed_chain_on_fixed_rows(A, mu, vecs, k, holds):
    L = matrices._lift(A)
    assert all(left == right for _, left, right in reference_commutator_chain(vecs, L, mu, k)) == holds
    assert matrices._relation_holds(vecs, L, mu, k) == holds


def test_a_slot_narrower_than_its_entries_lets_failing_rows_cancel():
    # Y = E_11 fails J_2*Y = Y*J_2; rows 8*Y and -Y packed 3 bits apart
    # sum to 8*Y - 8*Y = 0, so both packed sides vanish, but the width
    # of the proof keeps the slots apart and sees both rows fail
    L = matrices._lift(_J2)
    vecs = [[8 * x for x in _E11], [-x for x in _E11]]
    assert all(left != right for _, left, right in reference_commutator_chain(vecs, L, 1, 1))
    narrow = [sum(v[p] * 2 ** (3 * e) for e, v in enumerate(vecs)) for p in range(4)]
    assert narrow == [0, 0, 0, 0]
    [(_, left, right)] = reference_commutator_chain([narrow], L, 1, 1)
    assert left == right
    assert _packed_width(vecs, L, Fraction(1), 1) > 3
    assert not matrices._relation_holds(vecs, L, Fraction(1), 1)


def test_a_slot_narrower_than_the_chain_lets_rows_cancel_at_the_second_step():
    # on J_2, (ad)^2 E_21 = -2*E_12 and (ad)^2 E_11 = 0, so Y_a = 4*E_21
    # and Y_b = E_11 - E_21 both fail at k = 2.  Packed 2 bits apart they
    # give Z = 4*E_11, which is not zero and fails at k = 1, but whose
    # second step -8*E_12 + 4 * 2*E_12 cancels; the width of the proof
    # holds each slot's entries and sees both rows fail
    L = matrices._lift(_J2)
    vecs = [[4 * x for x in _E21], [a - b for a, b in zip(_E11, _E21)]]
    assert all(left != right for _, left, right in reference_commutator_chain(vecs, L, 1, 2))
    narrow = [sum(v[p] * 2 ** (2 * e) for e, v in enumerate(vecs)) for p in range(4)]
    assert narrow == [4 * x for x in _E11]
    [(_, left, right)] = reference_commutator_chain([narrow], L, 1, 1)
    assert left != right
    [(_, left, right)] = reference_commutator_chain([narrow], L, 1, 2)
    assert left == right
    assert _packed_width(vecs, L, 1, 2) > 2
    assert not matrices._relation_holds(vecs, L, 1, 2)
