"""Shared fixtures-by-hand: golden matrices, oracle bridges to sympy,
and small random generators for the property suites."""

from __future__ import annotations

import json
import random
import re
import signal
import sys
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from itertools import count
from math import comb, gcd
from typing import Callable, NamedTuple

import pytest
import sympy
from hypothesis import strategies as st
from sympy.matrices.normalforms import smith_normal_form
from sympy.polys.matrices import DomainMatrix

from commutants import adpower, canonical, cli, commutant, equivalence, matrices, subspaces
from commutants.errors import AlgebraError, VerificationError
from commutants.gen import Companion, ConjugateBy, GenSpec, NilpotentBlocks, generate
from commutants.matrices import _lift, _take, rref
from commutants.scalars import cyclo_coeffs, phi_degree
from commutants import (
    CongruenceClass,
    class_exponents,
    CycloScalar,
    FieldTag,
    Matrix,
    Poly,
    OmegaSpec,
    QQ,
    StructureReport,
    SubspaceBasis,
    ad_inclusion_check,
    ad_power_kernel,
    centralizer_basis,
    char_poly,
    clifforder_basis,
    clifforder_has_invertible,
    commutant_operator,
    double_centralizer_basis,
    equivalence_certificate,
    eval_at_matrix,
    express_in_powers,
    invariant_factors,
    is_balanced_matrix,
    min_poly,
    omega_centralizer_basis,
    omega_equivalence_check,
    poly_gcd,
    solve,
    subspace_from_matrices,
    unvec,
    vec,
    weyl_pair,
)

# ------------------------------------------------------------ builders

def mat(rows, field=QQ) -> Matrix:
    return Matrix.make(rows, field)


def frac(a, b=1) -> Fraction:
    return Fraction(a, b)


def poly(coeffs, field=QQ) -> Poly:
    return Poly.make(list(coeffs), field)


# ---------------------------------------------- hand-checked test pairs

# 5x5 pair: J_2(1) + J_3(-1) against J_2(2) + J_3(-2).
PAIR5_A = mat([
    [1, 1, 0, 0, 0],
    [0, 1, 0, 0, 0],
    [0, 0, -1, -1, 0],
    [0, 0, 0, -1, -1],
    [0, 0, 0, 0, -1],
])
PAIR5_B = mat([
    [2, 1, 0, 0, 0],
    [0, 2, 0, 0, 0],
    [0, 0, -2, -1, 0],
    [0, 0, 0, -2, -1],
    [0, 0, 0, 0, -2],
])
# A = f(B): (1/128)(3x^4 + 8x^3 - 24x^2 + 32x + 48), ascending.
PAIR5_A_FROM_B = poly([frac(3, 8), frac(1, 4), frac(-3, 16), frac(1, 16), frac(3, 128)])
# B = g(A): (1/8)(-3x^4 - 4x^3 + 6x^2 + 20x - 3), ascending.
PAIR5_B_FROM_A = poly([frac(-3, 8), frac(5, 2), frac(3, 4), frac(-1, 2), frac(-3, 8)])

# 4x4 odd pair: J_2(1) + diag(-1, -1) against J_2(2) + diag(-2, -2).
ODD4_A = Matrix.block_diag([Matrix.jordan(2, 1, QQ), Matrix.diag([-1, -1], QQ)])
ODD4_B = Matrix.block_diag([Matrix.jordan(2, 2, QQ), Matrix.diag([-2, -2], QQ)])
# A = (1/4)B + (1/16)B^3 and B = (5/2)A - (1/2)A^3.
ODD4_A_FROM_B = poly([0, frac(1, 4), 0, frac(1, 16)])
ODD4_B_FROM_A = poly([0, frac(5, 2), 0, frac(-1, 2)])
ODD4_A_FROM_B_GENERAL = poly([frac(-1, 2), frac(1, 2), frac(1, 8)])
ODD4_B_FROM_A_GENERAL = poly([frac(1, 2), 2, frac(-1, 2)])

# Unbalanced invertible 4x4 pair: [[1,12],[0,1]] + [[-1,-3],[0,-1]]
# against [[2,4],[0,2]] + [[-2,-1],[0,-2]], odd-equivalent.
TRI4_A = Matrix.block_diag([mat([[1, 12], [0, 1]]), mat([[-1, -3], [0, -1]])])
TRI4_B = Matrix.block_diag([mat([[2, 4], [0, 2]]), mat([[-2, -1], [0, -2]])])
TRI4_B_FROM_A = poly([0, frac(17, 6), 0, frac(-5, 6)])
TRI4_A_FROM_B = poly([0, frac(-3, 4), 0, frac(5, 16)])

# diag(1, 2) odd-equivalent to diag(3, 4).
DIAG2_A = Matrix.diag([1, 2], QQ)
DIAG2_B = Matrix.diag([3, 4], QQ)
DIAG2_A_FROM_B = poly([0, frac(5, 42), 0, frac(1, 42)])
DIAG2_B_FROM_A = poly([0, frac(10, 3), 0, frac(-1, 3)])

# Equal (zero) clifforders without any polynomial equivalence.
COUNTER_A = Matrix.diag([1, frac(2, 3), frac(1, 2)], QQ)
COUNTER_B = Matrix.identity(3, QQ)


# ------------------------------------------------- reference products

def hstack(A: Matrix, B: Matrix) -> Matrix:
    """[A | B] entry by entry, for systems the oracles reduce."""
    assert A.field == B.field and A.rows == B.rows
    return Matrix(A.field, A.rows, A.cols + B.cols, tuple(x for i in range(A.rows) for x in A.row(i) + B.row(i)))


def reference_product(A: Matrix, B: Matrix) -> Matrix:
    """The textbook triple loop: one scalar multiply-add per nonzero
    entry of A and entry of B, each normalized on the spot.  The oracle
    that ``Matrix.__mul__`` must match entry for entry."""
    n, k, m = A.rows, A.cols, B.cols
    a, b = A.entries, B.entries
    flat = []
    for i in range(n):
        arow = a[i * k : (i + 1) * k]
        for j in range(m):
            acc = A.field.zero()
            for t in range(k):
                x = arow[t]
                if x:
                    acc = acc + x * b[t * m + j]
            flat.append(acc)
    return Matrix(A.field, n, m, tuple(flat))


def reference_power(A: Matrix, k: int) -> Matrix:
    result = Matrix.identity(A.rows, A.field)
    for _ in range(k):
        result = reference_product(result, A)
    return result


def stepwise_power(A: Matrix, k: int) -> Matrix:
    """A^k as |k| products through ``Matrix.__mul__``, starting from I
    and normalized after each, of A or (k < 0) of A's inverse.  The oracle
    for the lifted power chain."""
    base = A if k >= 0 else A.inverse()
    result = Matrix.identity(A.rows, A.field)
    for _ in range(abs(k)):
        result = result * base
    return result


def stepwise_eval(f: Poly, A: Matrix) -> Matrix:
    """f(A) as the sum of c_e * A^e, each power one more product through
    ``Matrix.__mul__``, each term through ``scale`` and ``+``.  The oracle
    for the lifted Horner chain."""
    result = Matrix.zero(A.rows, A.rows, A.field)
    power = Matrix.identity(A.rows, A.field)
    for c in f.coeffs:
        result = result + power.scale(c)
        power = power * A
    return result


def reference_rref(M: Matrix, times=lambda x, y: x * y, inverse=lambda x: 1 / x) -> tuple[Matrix, tuple[int, ...]]:
    """Textbook Gauss-Jordan with division: scale each pivot row by the
    inverse of its pivot, then clear the column in every other row.  The
    oracle that ``rref`` must match entry for entry; returns the reduced
    matrix and its pivot columns.  ``times`` and ``inverse`` are the
    scalar product and inverse, the field's own unless given."""
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
        inv = inverse(rows[r][c])
        rows[r] = [times(x, inv) for x in rows[r]]
        for i in range(M.rows):
            if i != r and rows[i][c]:
                v = rows[i][c]
                rows[i] = [x - times(v, y) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == M.rows:
            break
    flat = tuple(x for row in rows for x in row)
    return Matrix(M.field, M.rows, M.cols, flat), tuple(pivots)


# ------------------------------------------- reference scalar routines

def reference_omega_commutes(A: Matrix, B: Matrix, w) -> bool:
    """AB = omega * BA through ``Matrix.__mul__`` and ``scale``, with A
    and B promoted to Q(zeta_q).  The oracle for the lifted relation check."""
    A, B = A.promote(w.q), B.promote(w.q)
    return A * B == (B * A).scale(w.omega())


def reference_reduce_mod_phi(coeffs, q: int) -> tuple[Fraction, ...]:
    """coeffs as a polynomial in zeta_q, reduced mod Phi_q by long division
    in Fraction arithmetic and padded to deg Phi_q.  With the three
    routines below, the Fraction oracle for CycloScalar's integer
    arithmetic."""
    phi = cyclo_coeffs(q)
    d = len(phi) - 1
    rem = [Fraction(c) for c in coeffs]
    for i in range(len(rem) - 1, d - 1, -1):
        c = rem[i]
        if c:
            for j, p in enumerate(phi, i - d):
                rem[j] -= c * p
    rem = rem[:d]
    return tuple(rem + [Fraction(0)] * (d - len(rem)))


def reference_mul(x: CycloScalar, y: CycloScalar) -> CycloScalar:
    """x * y: the Fraction convolution of the coefficients, reduced by
    `reference_reduce_mod_phi`."""
    out = [Fraction(0)] * (2 * len(x.coeffs) - 1)
    for i, a in enumerate(x.coeffs):
        for j, b in enumerate(y.coeffs):
            out[i + j] += a * b
    return CycloScalar(x.q, reference_reduce_mod_phi(out, x.q))


def reference_inverse(x: CycloScalar) -> CycloScalar:
    """1 / x as the product of the other Galois conjugates of x, each
    image reduced in Fractions, over the norm."""
    q = x.q
    others = CycloScalar.from_rational(q, 1)
    for k in range(2, q):
        if gcd(k, q) == 1:
            image = [Fraction(0)] * q
            for i, c in enumerate(x.coeffs):
                image[i * k % q] = c
            others = reference_mul(others, CycloScalar(q, reference_reduce_mod_phi(image, q)))
    norm = reference_mul(x, others).coeffs[0]
    return CycloScalar(q, tuple(c / norm for c in others.coeffs))


def reference_pow(x: CycloScalar, k: int) -> CycloScalar:
    """x^k by square-and-multiply on `reference_mul`, through
    `reference_inverse` for k < 0."""
    if k < 0:
        return reference_pow(reference_inverse(x), -k)
    result, base = CycloScalar.from_rational(x.q, 1), x
    while k:
        if k & 1:
            result = reference_mul(result, base)
        base = reference_mul(base, base)
        k >>= 1
    return result


def reference_potter_samples(q: int, n_samples: int, seed: int):
    """The (s, t) pairs the CLI's potter samples must equal: the same
    draws, each scalar coerced into Q(zeta_q) and multiplied by
    CycloScalar.zeta(q, k)."""
    rng = random.Random(seed)
    field = FieldTag.cyclotomic(q)
    for _ in range(n_samples):
        s = field.coerce(Fraction(rng.randint(1, 9), rng.randint(1, 4)) * rng.choice([-1, 1]))
        t = field.coerce(Fraction(rng.randint(1, 9), rng.randint(1, 4)) * rng.choice([-1, 1]))
        s = s * CycloScalar.zeta(q, rng.randrange(q))
        t = t * CycloScalar.zeta(q, rng.randrange(q))
        yield s, t


def sequential_combine(pv: int, row: list[int], v, shifts) -> list[int]:
    """pv * row - sum_e v[e] * shifts[e], gcd-normalized, one pass over
    the row per nonzero v[e].  The oracle for ``matrices._combine``."""
    for ve, s in zip(v, shifts):
        if ve:
            row = [pv * x - ve * y for x, y in zip(row, s)]
            pv = 1
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def repeated_power(x: CycloScalar, k: int) -> CycloScalar:
    """x^k as |k| multiplications starting from 1, and for k < 0 one
    division of 1 by x^|k|.  The oracle for ``CycloScalar.__pow__``."""
    acc = CycloScalar.from_rational(x.q, 1)
    for _ in range(abs(k)):
        acc = acc * x
    return acc if k >= 0 else 1 / acc


def dense_planes(values, q: int, phi: int) -> tuple[int, list[int]]:
    """The per-coefficient lift: every zeta-coefficient of every entry,
    zeros included, read plane-major, over the lcm of all their
    denominators.  The oracle for ``matrices._planes`` over Q(zeta_q)."""
    coeffs = [x.coeffs[e] for e in range(phi) for x in values]
    d = 1
    for c in coeffs:
        d = d * c.denominator // gcd(d, c.denominator)
    return d, [int(c * d) for c in coeffs]


def reference_divmod(f: Poly, g: Poly) -> tuple[Poly, Poly]:
    """Long division with one field division by g's leading coefficient
    per quotient coefficient.  The oracle for ``Poly.__divmod__``."""
    num = list(f.coeffs)
    dd = g.degree
    quo = [f.field.zero()] * max(len(num) - dd, 0)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i] / g.leading
        quo[i - dd] = c
        for j, p in enumerate(g.coeffs):
            num[i - dd + j] = num[i - dd + j] - c * p
    return Poly.make(quo, f.field), Poly.make(num[:dd], f.field)


def schoolbook_mul(f: Poly, g: Poly) -> Poly:
    """f * g by a double loop over the nonzero coefficient pairs, summed
    into field zeros.  The oracle for ``Poly.__mul__``."""
    if f.is_zero or g.is_zero:
        return Poly.zero(f.field)
    out = [f.field.zero()] * (len(f.coeffs) + len(g.coeffs) - 1)
    for i, a in enumerate(f.coeffs):
        if a:
            for j, b in enumerate(g.coeffs):
                if b:
                    out[i + j] = out[i + j] + a * b
    return Poly(f.field, tuple(out))


def one_inverse_divmod(f: Poly, g: Poly) -> tuple[Poly, Poly]:
    """Long division by g, scaling each quotient coefficient by one
    inverse of g's leading coefficient (none when g is monic).  The oracle
    for ``Poly.__divmod__``."""
    num = list(f.coeffs)
    dd = g.degree
    one = f.field.one()
    inv = None if g.leading == one else one / g.leading
    quo = [f.field.zero()] * max(len(num) - dd, 0)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i] if inv is None else num[i] * inv
        if c:
            quo[i - dd] = c
            for j, p in enumerate(g.coeffs):
                num[i - dd + j] = num[i - dd + j] - c * p
    while num and not num[-1]:
        num.pop()
    return Poly(f.field, tuple(quo)), Poly(f.field, tuple(num))


def from_one_pow(f: Poly, k: int) -> Poly:
    """f^k by square-and-multiply starting from the polynomial 1.  The
    oracle for ``Poly.__pow__``."""
    result, base = Poly.one(f.field), f
    while k:
        if k & 1:
            result = result * base
        base = base * base if k > 1 else base
        k >>= 1
    return result


def binomial_ann_k_member(X: Matrix, B: Matrix, k: int) -> bool:
    """Whether sum_i C(k,i) (-1)^i X^(k-i) B X^i vanishes, expanded with
    ``Matrix`` products, the identity never multiplied in.  The oracle
    for ``ann_k_member``."""
    n = X.rows
    powers = [None, X]
    for _ in range(k - 1):
        powers.append(powers[-1] * X)
    acc = Matrix.zero(n, n, X.field)
    for i in range(k + 1):
        term = B if i == k else powers[k - i] * B
        if i:
            term = term * powers[i]
        acc = acc + term.scale(comb(k, i) * (-1 if i % 2 else 1))
    return acc.is_zero()


def reference_commutator_chain(vecs: list[list[int]], L, mu, k: int) -> list[tuple[list, list, list]]:
    """The chain of `matrices._relation_holds` on each Y_e alone, with no
    packing: for the integer vec Y_e of an n x n block, (steps, left,
    right) with steps the integer vecs Y_e^(0) = Y_e, ..., Y_e^(k-1),
    Y_e^(j) = d*L*Y_e^(j-1) - d*mu*Y_e^(j-1)*L, and left and right the
    integer vecs of d*L*Y_e^(k-1) and d*mu*Y_e^(k-1)*L, d the common
    denominator of the lifted L.  Each side is one `_mul_lifted` product
    on one Y; (ad^mu_L)^k Y_e = 0 exactly when left == right."""
    L = L.common()
    mu_L = L if mu == 1 else matrices._times(mu, L)
    n, q = L.rows, L.field.q
    phi = phi_degree(q) if q else 1
    lifted = lambda v: matrices._scaled(L.field, n, [[v[f * n * n + r * n + c] for f in range(phi) for c in range(n)] for r in range(n)])
    out = []
    for v in vecs:
        steps = [v]
        for _ in range(k):
            Y = lifted(steps[-1])
            left, right = (matrices._vec(matrices._mul_lifted(*pair)) for pair in ((L, Y), (Y, mu_L)))
            steps.append([a - b for a, b in zip(left, right)])
        out.append((steps[:-1], left, right))
    return out


def reference_monic(f: Poly) -> Poly:
    """f with every coefficient divided by the leading one."""
    return Poly.make([c / f.leading for c in f.coeffs], f.field)


def count_products(monkeypatch, shapes: list | None = None) -> list[int]:
    """Count matrix products from here on: every product, whether
    ``Matrix.__mul__`` or an integer Krylov step, runs the one integer
    product kernel ``matrices._mul_lifted``, so each module of the package
    that binds it gets a counting copy that increments the returned
    one-item list, and appends (rows, inner, cols) of each product to
    ``shapes`` when given."""
    count = [0]
    plain = matrices._mul_lifted

    def counting(A, B):
        count[0] += 1
        if shapes is not None:
            shapes.append((A.rows, A.cols, B.cols))
        return plain(A, B)

    for name, module in list(sys.modules.items()):
        if (name == "commutants" or name.startswith("commutants.")) and getattr(module, "_mul_lifted", None) is plain:
            monkeypatch.setattr(module, "_mul_lifted", counting)
    return count


def reference_kernel_basis(M: Matrix) -> list[tuple]:
    """Basis vectors of {x : Mx = 0} read off the public `rref` in field
    arithmetic: for each free column, 1 there and the negated RREF column
    at the pivots.  The oracle for `kernel_basis`, whose lifted read-off
    the ad-power kernels share, and the kernel step of the Kronecker and
    power-dependency oracles."""
    r = rref(M)
    z, o = M.field.zero(), M.field.one()
    out = []
    for fc in range(M.cols):
        if fc in r.pivots:
            continue
        v = [z] * M.cols
        v[fc] = o
        for row_idx, pc in enumerate(r.pivots):
            coeff = r.rref.at(row_idx, fc)
            if coeff:
                v[pc] = -coeff
        out.append(tuple(v))
    return out


def reference_commutant_basis(A: Matrix, mu) -> SubspaceBasis:
    """The Kronecker oracle for {X : AX = mu XA}: the kernel of the
    n^2 x n^2 operator A kron I - mu I kron A^T, canonicalized like the
    library's bases.  A must already live over mu's field."""
    vecs = reference_kernel_basis(commutant_operator(A, mu))
    mats = [unvec(v, A.rows, A.field) for v in vecs]
    return subspace_from_matrices(mats, ambient_n=A.rows, field=A.field)


def reference_block_solutions(a: Poly, b: Poly, mu) -> list[list[tuple]]:
    """Basis of {Y : C(a)*Y = mu*Y*C(b)} in field arithmetic, each Y as
    its deg b columns of deg a field elements: with columns read as
    F[x]/(a), the solutions are p -> p(mu^-1 x)*u mod a for u in
    (a/g)*F[x]/(a), g = gcd(a(x), b(mu^-1 x)), taken by Euclid for any
    a and b; column k of solution t is mu^-k x^(t+k) (a/g) mod a.  The
    oracle for `commutant._block_solutions`, which works in integers."""
    field = a.field
    inv = field.one() / mu
    scales, c = [], field.one()
    for _ in b.coeffs:
        scales.append(c)
        c = c * inv
    g = poly_gcd(a, Poly.make([x * y for x, y in zip(b.coeffs, scales)], field))
    if not g.degree:
        return []
    zero, low = field.zero(), a.coeffs[:-1]
    w = list((a // g).coeffs) + [zero] * (g.degree - 1)
    shifts = [tuple(w)]
    for _ in range(g.degree + b.degree - 2):
        # x * w mod a: shift up, fold the top back with the monic a
        top = w[-1]
        w = [zero] + w[:-1]
        if top:
            w = [x - top * y for x, y in zip(w, low)]
        shifts.append(tuple(w))
    return [[tuple(s * x for x in shifts[t + k]) for k, s in enumerate(scales[:-1])] for t in range(g.degree)]


def hand_fold_block_solutions(a: Poly, b: Poly, mu) -> list[list[tuple]]:
    """`commutant._block_solutions` with each step x*U mod a written out
    on the plane-major integers: U_s shifted up one row in every plane,
    its top entry folded back through a's low coefficients times each
    power of zeta, then times mu^-1 by `_times`.  The oracle for the
    step products, whose Ys it gives to within one positive rational
    scale per Y."""
    field = a.field
    inv = field.one() / mu
    if mu == 1 or all(mu ** (b.degree - k) == 1 for k, x in enumerate(b.coeffs) if x):
        g = a if a.degree <= b.degree else b
    else:
        g = poly_gcd(a, Poly.make([x * inv**k for k, x in enumerate(b.coeffs)], field))
    if not g.degree:
        return []
    q, da = field.q, a.degree
    d, low = matrices._planes(a.coeffs[:-1], q, phi_degree(q) if q else 1)
    fold = matrices._zeta_shifts(low, da, cyclo_coeffs(q)[:-1] if q else ())  # zeta^e * d*low
    u = Poly.one(field) if g is a else a // g
    dw, w = matrices._planes(list(u.coeffs) + [field.zero()] * (da - u.degree - 1), q, len(fold))
    U = matrices._Lifted(field, da, [dw], [w])
    for _ in range(g.degree + b.degree - 2):
        z = U.ints[-1]
        y = [d * z[i - 1] if i % da else 0 for i in range(len(z))]
        for t, f in zip(z[da - 1 :: da], fold):
            if t:
                y = [x - t * v for x, v in zip(y, f)]
        y = matrices._Lifted(field, da, [U.dens[-1] * d], [y])
        y = y if inv == 1 else matrices._times(inv, y)
        U.dens.append(y.dens[0])
        U.ints.append(y.ints[0])
    db = b.degree
    return [[tuple(col) for col in U._replace(dens=U.dens[t : t + db], ints=U.ints[t : t + db]).common().ints] for t in range(g.degree)]


def reference_ad_power_kernel(A: Matrix, k: int) -> SubspaceBasis:
    """The Kronecker oracle for ker (ad_A)^k: the kernel of the k-th power
    of the n^2 x n^2 operator A kron I - I kron A^T, canonicalized like
    the library's bases."""
    vecs = reference_kernel_basis(commutant_operator(A, A.field.one()) ** k)
    mats = [unvec(v, A.rows, A.field) for v in vecs]
    return subspace_from_matrices(mats, ambient_n=A.rows, field=A.field)


def reference_double_centralizer(A: Matrix) -> SubspaceBasis:
    """The stacked-kernel oracle for C(C(A)): the kernel of the
    c*n^2 x n^2 stack of commutant_operator(X_i, 1) over the centralizer
    basis elements X_i, canonicalized like the library's bases."""
    n = A.rows
    rows = []
    for X in centralizer_basis(A).basis:
        op = commutant_operator(X, A.field.one())
        rows.extend(op.row(i) for i in range(op.rows))
    stacked = Matrix(A.field, len(rows), n * n, tuple(x for r in rows for x in r))
    mats = [unvec(v, n, A.field) for v in reference_kernel_basis(stacked)]
    return subspace_from_matrices(mats, ambient_n=n, field=A.field)


def reference_reduce(v: list, S: SubspaceBasis) -> list:
    """v reduced against S's RREF rows in field arithmetic, one pass: zero
    exactly when v lies in S.  With `reference_contains` and
    `reference_leq`, the oracle for the lifted membership test behind
    `subspace_contains` and `subspace_leq`."""
    for row, p in zip(S.rref_rows, S.pivots):
        c = v[p]
        if c:
            v = [a - c * b for a, b in zip(v, row)]
    return v


def reference_contains(S: SubspaceBasis, X: Matrix) -> bool:
    return not any(reference_reduce(list(X.entries), S))


def reference_leq(S: SubspaceBasis, T: SubspaceBasis) -> bool:
    return not any(any(reference_reduce(list(row), T)) for row in S.rref_rows)


def reference_invertible_probe(S: SubspaceBasis, trials: int = 64, seed: int = 0) -> Matrix | None:
    """`random_invertible_probe` in field arithmetic: the same seeded
    draws, each combination of the basis summed with `Matrix.scale` and
    `+` and tested by `Matrix.det`."""
    if S.dim == 0:
        return None
    rng = random.Random(seed)
    for t in range(trials):
        h = 1 + t
        coeffs = [rng.randint(-h, h) for _ in range(S.dim)]
        if not any(coeffs):
            continue
        combo = None
        for c, b in zip(coeffs, S.basis):
            if c:
                combo = b.scale(c) if combo is None else combo + b.scale(c)
        if combo.det() != 0:
            return combo
    return None


def reference_char_poly(A: Matrix) -> Poly:
    """Faddeev-LeVerrier: det(xI - A) from the traces of A*M_k, with
    M_(k+1) = A*M_k + c_k*I, n - 1 products through ``Matrix.__mul__``
    and divisions by k only, exact in characteristic zero.  The oracle
    for the product of the split's invariant factors."""
    n, field = A.rows, A.field
    ident = Matrix.identity(n, field)
    AM = A
    coeffs = [field.one()]
    for k in range(1, n + 1):
        ck = -(AM.trace() / k)
        coeffs.append(ck)
        if k < n:
            AM = A * (AM + ident.scale(ck))
    coeffs.reverse()
    return Poly.make(coeffs, field)


def reference_min_poly(A: Matrix) -> Poly:
    """The first dependency of vec I, vec A, ..., vec A^n, read off the
    first kernel vector of the matrix with these columns: its free column
    is the first power dependent on the lower ones, where it is 1.  The
    oracle for the split's checked Krylov polynomial."""
    powers = [Matrix.identity(A.rows, A.field)]
    for _ in range(A.rows):
        powers.append(powers[-1] * A)
    columns = Matrix(A.field, A.rows * A.rows, len(powers), tuple(x for row in zip(*map(vec, powers)) for x in row))
    return Poly.make(reference_kernel_basis(columns)[0], A.field)


def reference_express_in_powers(B: Matrix, A: Matrix, cls: CongruenceClass) -> Poly | None:
    """The stacked-powers oracle for B = sum_e c_e A^e over the class
    exponents: one column vec(A^e) per exponent, n^2 rows, solved with
    free coordinates pinned to zero, or None."""
    exps = class_exponents(cls, A.rows)
    columns = [vec(A ** e) for e in exps]
    m = A.rows * A.rows
    system = Matrix(A.field, m, len(exps), tuple(col[i] for i in range(m) for col in columns))
    sol = solve(system, vec(B))
    if sol is None:
        return None
    dense = [A.field.zero()] * (exps[-1] + 1)
    for idx, e in enumerate(exps):
        dense[e] = sol[idx]
    return Poly.make(dense, A.field)


# ------------------------------------------------------- sympy bridges

def to_sympy(M: Matrix) -> sympy.Matrix:
    """Rational matrices map to Rational entries; cyclotomic entries map
    to polynomials in a primitive root exp(2*pi*I/q)."""
    if not M.field.is_cyclotomic:
        return sympy.Matrix(M.rows, M.cols,
                            lambda i, j: sympy.Rational(M.at(i, j)))
    zeta = sympy.exp(2 * sympy.pi * sympy.I / M.field.q)

    def entry(i, j):
        x = M.at(i, j)
        return sum(sympy.Rational(c) * zeta ** e for e, c in enumerate(x.coeffs))

    return sympy.Matrix(M.rows, M.cols, entry)


def from_sympy(S: sympy.Matrix) -> Matrix:
    return mat([[Fraction(int(x.p), int(x.q)) for x in S.row(i)]
                for i in range(S.rows)])


def sympy_poly_coeffs(f: Poly) -> sympy.Poly:
    x = sympy.Symbol("x")
    expr = sum(sympy.Rational(c) * x ** e for e, c in enumerate(f.coeffs))
    return sympy.Poly(expr, x, domain="QQ")


def sympy_invariant_factors(M: Matrix) -> list[Poly]:
    """Oracle: Smith normal form of xI - A over QQ[x], monic-normalized,
    computed entirely by sympy."""
    x = sympy.Symbol("x")
    XI = x * sympy.eye(M.rows) - to_sympy(M)
    snf = smith_normal_form(XI, domain=sympy.QQ[x])
    out = []
    for i in range(M.rows):
        p = sympy.Poly(snf[i, i], x, domain="QQ")
        out.append(_poly_from_sympy(p.monic() if not p.is_zero else p))
    return out


def minors_gcd_invariant_factors(M: Matrix) -> list[Poly]:
    """Independent oracle: d_k = gcd of all k x k minors of xI - A in
    QQ[x]; invariant factor k is d_k / d_(k-1).  Exponential in n, use
    only for n <= 4."""
    import itertools

    x = sympy.Symbol("x")
    XI = x * sympy.eye(M.rows) - to_sympy(M)
    n = M.rows
    d_prev = sympy.Poly(1, x, domain="QQ")
    out = []
    for k in range(1, n + 1):
        g = sympy.Poly(0, x, domain="QQ")
        for rows in itertools.combinations(range(n), k):
            for cols in itertools.combinations(range(n), k):
                g = g.gcd(sympy.Poly(XI[rows, cols].det(), x, domain="QQ"))
        g = g.monic()
        out.append(_poly_from_sympy(g.div(d_prev)[0]))
        d_prev = g
    return out


def _poly_from_sympy(p: sympy.Poly) -> Poly:
    cs = [Fraction(int(c.p), int(c.q)) for c in reversed(p.all_coeffs())]
    return poly(cs)


def sympy_charpoly(M: Matrix) -> Poly:
    x = sympy.Symbol("x")
    p = to_sympy(M).charpoly(x)
    return _poly_from_sympy(sympy.Poly(p.as_expr(), x, domain="QQ"))


def sympy_det(M: Matrix):
    """Oracle: det M as a scalar of M's field, by sympy's fraction-free
    elimination over QQ, or over QQ[z] for Q(zeta_q), the polynomial in
    z then reduced mod Phi_q(z) by sympy."""
    if not M.field.is_cyclotomic:
        d = to_sympy(M).det()
        return Fraction(int(d.p), int(d.q))
    q, z = M.field.q, sympy.Symbol("z")
    ring = sympy.QQ[z]
    memo = {}

    def entry(x):
        if x not in memo:
            memo[x] = ring.from_sympy(sum(sympy.Rational(c) * z ** e for e, c in enumerate(x.coeffs)))
        return memo[x]

    grid = [[entry(M.at(i, j)) for j in range(M.cols)] for i in range(M.rows)]
    d = DomainMatrix(grid, M.shape, ring).det() if M.rows else ring.one
    r = sympy.Poly(sympy.rem(ring.to_sympy(d), sympy.cyclotomic_poly(q, z), z), z, domain="QQ")
    return CycloScalar(q, tuple(Fraction(int(c.p), int(c.q)) for c in reversed(r.all_coeffs())))


def relation_kernel_oracle(A: Matrix, mu_sympy) -> int:
    """Dimension of {X : AX = mu XA} computed column-by-column in sympy:
    the operator's matrix is assembled from its action on the unit
    matrices E_ij, with no Kronecker products involved."""
    n = A.rows
    S = to_sympy(A)
    cols = []
    for i in range(n):
        for j in range(n):
            E = sympy.zeros(n, n)
            E[i, j] = 1
            Y = S * E - mu_sympy * E * S
            cols.append([sympy.simplify(Y[r, c]) for r in range(n) for c in range(n)])
    op = sympy.Matrix(cols).T
    return n * n - op.rank()


# ------------------------------------------------------ random samples

def random_rational_matrix(seed: int, n: int, height: int = 4) -> Matrix:
    rng = random.Random(seed)
    return mat([[rng.randint(-height, height) for _ in range(n)] for _ in range(n)])


def conjugated(M: Matrix, seed: int) -> Matrix:
    """P^-1 M P for a seeded invertible integer P."""
    for s in range(seed, seed + 64):
        P = random_rational_matrix(s, M.rows, 2)
        if M.field.is_cyclotomic:
            P = P.promote(M.field.q)
        if P.det():
            return P.inverse() * M * P
    return M


def random_jordan_matrix(seed: int, n: int) -> Matrix:
    """Random direct sum of Jordan blocks with small rational
    eigenvalues, then an integer change of basis."""
    rng = random.Random(seed)
    blocks = []
    left = n
    while left > 0:
        size = rng.randint(1, min(3, left))
        lam = Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2]))
        blocks.append(Matrix.jordan(size, lam, QQ))
        left -= size
    M = Matrix.block_diag(blocks)
    for _ in range(64):
        P = random_rational_matrix(rng.randrange(2 ** 30), n, 2)
        if P.det():
            return P.inverse() * M * P
    return M


def nilpotent(sizes, seed: int) -> Matrix:
    """The direct sum of the nilpotent Jordan blocks J_k(0), k in sizes,
    conjugated by a seeded integer matrix."""
    return conjugated(Matrix.block_diag([Matrix.jordan(k, 0, QQ) for k in sizes]), seed)


def cyclo3_jordan(seed: int, sizes) -> Matrix:
    """Conjugated direct sum of Jordan blocks over Q(zeta_3) with
    eigenvalues drawn from 0, 1, zeta_3 and -zeta_3."""
    field, z = FieldTag.cyclotomic(3), CycloScalar.zeta(3)
    eigen = [0, 1, z, -z]
    blocks = [Matrix.jordan(k, eigen[(seed + i) % 4], field) for i, k in enumerate(sizes)]
    return conjugated(Matrix.block_diag(blocks), seed)


# ------------------------------------------------ hypothesis strategies

def partitions(n: int):
    """The partitions of n as tuples of part sizes."""
    return st.integers(1, n).flatmap(
        lambda head: st.just((head,)) if head == n else partitions(n - head).map(lambda rest: (head,) + rest)
    )


seeds = st.integers(0, 10 ** 6)
# square matrices over Q and Q(zeta_3), n <= 6: random, Jordan, scalar,
# nilpotent and cyclotomic Jordan forms, all but the scalars conjugated
double_inputs = st.one_of(
    st.builds(random_rational_matrix, seeds, st.integers(1, 6), st.integers(1, 3)),
    st.builds(random_jordan_matrix, seeds, st.integers(2, 6)),
    st.builds(lambda n, c: Matrix.identity(n, QQ).scale(c), st.integers(1, 5), st.integers(-3, 3)),
    st.builds(nilpotent, st.integers(1, 6).flatmap(partitions), seeds),
    st.builds(cyclo3_jordan, seeds, st.integers(1, 5).flatmap(partitions)),
    st.builds(lambda s, n: random_rational_matrix(s, n, 2).promote(3), seeds, st.integers(1, 4)),
)


# ------------------------------------------ proof obligations and forbidden calls
# FAULTS plants a fault against each check the library makes before it
# returns; FORBIDDEN spies on calls a path must not make.  test_faults.py
# runs every (row, consumer) pair.  A consumer is (function, *args) or (CLI
# command, *args); an argument that is a key of NAMED stands for that
# object, which a CLI run writes to a file (a str as it is).

DEROGATORY = conjugated(Matrix.block_diag([Matrix.jordan(2, 1, QQ), Matrix.diag([1, -1], QQ)]), 7)
NILPOTENT = conjugated(Matrix.block_diag([Matrix.jordan(3, 0, QQ), mat([[0]])]), 7)
W5 = OmegaSpec(5, 2)
# conjugated J_2(zeta_3) + diag(zeta_3, -zeta_3), over Q(zeta_3)
_Z3, _z3 = FieldTag.cyclotomic(3), CycloScalar.zeta(3)
CYCLO3 = conjugated(Matrix.block_diag([Matrix.jordan(2, _z3, _Z3), Matrix.diag([_z3, -_z3], _Z3)]), 0)
# derogatory inputs whose centralizer is larger than F[A]
SHRUNK = (DEROGATORY, NILPOTENT, Matrix.identity(3, QQ).scale(2), CYCLO3)
_CYCLIC = generate(GenSpec(ConjugateBy(GenSpec(Companion(poly([3, 0, 1, 1]))), 3), 7))

NAMED = {
    "derogatory": DEROGATORY, "nilpotent": NILPOTENT, "cyclo3": CYCLO3, "2I3": SHRUNK[2],
    "J3": Matrix.jordan(3, 0, QQ), "J4(1)": Matrix.jordan(4, 1, QQ), "jordan(5, 4)": random_jordan_matrix(5, 4),
    "cyclo3 (2,2)": cyclo3_jordan(1, (2, 2)), "0x0": Matrix.zero(0, 0, QQ),
    "rational 2x2": mat([[Fraction(1, 2), Fraction(-5, 3)], [Fraction(7, 4), 0]]), "2x2": mat([[1, 2], [3, 4]]),
    "zeta_3 (2,1,3) + I": cyclo3_jordan(5, (2, 1, 3)) + Matrix.identity(6, _Z3),
    "nilpotent (4,4,4,4)": nilpotent((4, 4, 4, 4), 7), "weyl(5, 40).A": weyl_pair(5, 40).A,
    "pair5_a": PAIR5_A, "pair5_b": PAIR5_B, "odd4_a": ODD4_A, "odd4_b": ODD4_B, "tri4_a": TRI4_A, "tri4_b": TRI4_B,
    "counter_a": COUNTER_A, "counter_b": COUNTER_B, "pair5_a over Q(zeta_5)": PAIR5_A.promote(5),
    "pair5_b over Q(zeta_5)": PAIR5_B.promote(5), "odd4_a over Q(zeta_5)": ODD4_A.promote(5),
    "odd4_b + zeta_5 odd4_a": ODD4_B.promote(5) + ODD4_A.promote(5).scale(CycloScalar.zeta(5)),
    "diag(0, 0, 1)": Matrix.diag([0, 0, 1], QQ), "J2(0) + (1/2)": Matrix.block_diag([Matrix.jordan(2, 0, QQ), mat([[Fraction(1, 2)]])]),
    "J3(0) + J1(2), conjugated": conjugated(Matrix.block_diag([Matrix.jordan(3, 0, QQ), Matrix.jordan(1, 2, QQ)]), 7),
    "J2(zeta_3)": Matrix.jordan(2, _z3, _Z3),
    # the companion of 3 + x^2 + x^3 and nilpotent (3,2), conjugated as `gen` does (seed 7, height 3)
    "cyclic": _CYCLIC, "nilpotent (3,2)": generate(GenSpec(ConjugateBy(GenSpec(NilpotentBlocks((3, 2))), 3), 7)),
    **{f"cyclic: {name}": eval_at_matrix(poly(f), _CYCLIC) for name, f in (("x + x^2", [0, 1, 1]), ("x + x^3", [0, 1, 0, 1]), ("2x + x^4", [0, 2, 0, 0, 1]))},
    "malformed": '{"field": "Q", "rows": [[1,]]}',
    "mu=1": QQ.one(), "mu=-1": -QQ.one(), "mu=zeta_5^2": W5.omega(), "mu=zeta_3": _z3, "mu=1 in Q(zeta_3)": _Z3.one(), "mu=-1 in Q(zeta_3)": -_Z3.one(),
    "w5": W5, "w3": OmegaSpec(3, 2), "w3,1": OmegaSpec(3, 1),
    "general": CongruenceClass.general(), "odd": CongruenceClass.odd(), "q:3": CongruenceClass.q_class(3),
    "1+2x+3x^2": poly([1, 2, 3]), "1+2x+3x^2 over Q(zeta_3)": poly([1, 2, 3], _Z3),
}


def dimension(A: Matrix, mu) -> int:
    """dim {X : AX = mu*XA} as the CLI counts it, off the checked split."""
    return commutant._dimension(commutant._split(_lift(A)), mu)


def planted(change, which=None, first_argument=False):
    """A plant that hands on change(value) for the value of call `which`
    of the producer (1-based; every call when None), or with
    `first_argument` hands the producer change(its first argument)."""
    def plant(plain, fired):
        calls = count(1)

        def producer(*args):
            if which not in (None, next(calls)):
                return plain(*args)
            value = args[0] if first_argument else plain(*args)
            bad = change(value)
            fired.append(bad != value)
            return plain(bad, *args[1:]) if first_argument else bad
        return producer
    return plant


def _split_reordered(split):
    """The split with its blocks in reverse order, P's column blocks
    permuted alike, so that A*P = P*F still holds."""
    factors, P = split
    offsets = [sum(f.degree for f in factors[:i]) for i in range(len(factors))]
    cols = [c for o, f in reversed(list(zip(offsets, factors))) for c in range(o, o + f.degree)]
    return factors[::-1], matrices._columns(P, cols)


def _split_singular(split):
    """The split with P's last column zeroed (plane-major: index k is
    column k % n)."""
    factors, P = split
    return factors, P._replace(ints=[[0 if k % P.cols == P.cols - 1 else x for k, x in enumerate(row)] for row in P.ints])


def _bumped(L, row, at, by=1):
    """L with the integer at `at` of row `row` raised by `by`."""
    ints = [list(r) for r in L.ints]
    ints[row][at] += by
    return L._replace(ints=ints)


def _first_coordinate_plus_one(out):
    """A coordinate tuple with 1 added to its first entry, or block
    solutions with 1 added to the first entry of the first Y's first
    column; nothing to change in an empty one."""
    if not out:
        return out
    if isinstance(out, tuple):
        return (out[0] + 1,) + out[1:]
    (head, *cols), *rest = out
    return [[(head[0] + 1,) + head[1:], *cols], *rest]


_SPLIT_READERS = [
    consumer
    for A, mus, q in (("derogatory", ("mu=1", "mu=-1", "mu=zeta_5^2"), "5"), ("nilpotent", ("mu=1", "mu=-1", "mu=zeta_5^2"), "5"),
                      ("cyclo3", ("mu=1 in Q(zeta_3)", "mu=-1 in Q(zeta_3)", "mu=zeta_3"), "3"))
    for consumer in [(invariant_factors, A), (StructureReport.of, A), (char_poly, A), *[(dimension, A, mu) for mu in mus],
                     ("analyze", A), ("centralizer", A), ("clifforder", A), ("omega", A, "--q", q)]
]
_DOUBLE_CENTRALIZERS = tuple((double_centralizer_basis, A) for A in ("derogatory", "nilpotent", "2I3", "cyclo3"))


class Fault(NamedTuple):
    """A proof obligation and a fault planted against it: `plant` turns
    the plain `producer` (module, name), whose output the check reads,
    into the faulty one, and every consumer must end in VerificationError
    matching `message`; a CLI run exits 3 with nothing on stdout and one
    JSON error on stderr.  `gaps` are consumers that still return a value
    on the fault (strict xfails)."""

    check: str
    fault: str
    producer: tuple
    plant: Callable
    message: str
    consumers: tuple
    gaps: tuple = ()


FAULTS = [
    Fault("A*P = P*F", "identity companion blocks", (canonical, "companion"), planted(lambda C: Matrix.identity(C.rows, C.field)), r"A\*P = P\*F",
          ((invariant_factors, "derogatory"), (char_poly, "derogatory"), (is_balanced_matrix, "derogatory"), (centralizer_basis, "derogatory"), ("analyze", "derogatory"),
           *[(Matrix.det, A) for A in ("2x2", "zeta_3 (2,1,3) + I", "nilpotent (4,4,4,4)", "weyl(5, 40).A")])),
    Fault("A*P = P*F", "P's last column zeroed", (canonical, "_cyclic_split"), planted(_split_singular), r"A\*P = P\*F", tuple(_SPLIT_READERS)),
    Fault("f_1 | ... | f_r", "blocks reordered", (canonical, "_cyclic_split"), planted(_split_reordered), r"f_1 \| f_2", tuple(_SPLIT_READERS)),
    Fault("P invertible", "P's last column zeroed after the split", (commutant, "_frobenius"), planted(_split_singular), "singular",
          ((centralizer_basis, "derogatory"), (clifforder_basis, "derogatory"), (omega_centralizer_basis, "nilpotent", "w5"), (dimension, "derogatory", "mu=1"),
           ("analyze", "derogatory"), ("centralizer", "derogatory"), ("omega", "nilpotent", "--q", "5"))),
    # on a scalar A the zeroed column passes A*P = P*F, and only the
    # split's P^-1 sees it; the readers of `_frobenius` alone do not
    Fault("P invertible", "P's last column zeroed on a scalar A", (canonical, "_cyclic_split"), planted(_split_singular), "singular",
          ((centralizer_basis, "2I3"), (clifforder_basis, "2I3"), (dimension, "2I3", "mu=1"), ("analyze", "2I3"), ("centralizer", "2I3")),
          gaps=tuple((f, "2I3") for f in (char_poly, invariant_factors, Matrix.det, StructureReport.of, is_balanced_matrix, clifforder_has_invertible))),
    Fault("span rank = Frobenius' count", "last reduced row dropped", (commutant, "_reduced"), planted(lambda out: (_take(out[0], range(out[0].rows - 1)), out[1][:-1])),
          "span has rank .+, Frobenius' formula gives",
          ((centralizer_basis, "derogatory"), (clifforder_basis, "derogatory"), (omega_centralizer_basis, "nilpotent", "w5"), ("centralizer", "derogatory", "--basis"))),
    Fault("relation", "last reduced row grown", (commutant, "_reduced"), planted(lambda out: (_bumped(out[0], -1, 0, out[0].dens[-1]), out[1])), r"fails AX = mu\*XA",
          ((centralizer_basis, "derogatory"), (clifforder_basis, "derogatory"), (omega_centralizer_basis, "nilpotent", "w5"),
           ("centralizer", "derogatory", "--basis"), ("omega", "nilpotent", "--q", "5", "--k", "2", "--basis"))),
    Fault("relation", "an integer of the first reduced row changed", (commutant, "_reduced"), planted(lambda out: (_bumped(out[0], 0, -1), out[1])), r"fails AX = mu\*XA",
          ((centralizer_basis, "derogatory"), (clifforder_basis, "derogatory"), (omega_centralizer_basis, "nilpotent", "w5"),
           ("centralizer", "derogatory", "--basis"), ("clifforder", "derogatory", "--basis"))),
    Fault("relation", "every block solution perturbed", (commutant, "_block_solutions"), planted(_first_coordinate_plus_one), r"fails AX = mu\*XA",
          ((centralizer_basis, "derogatory"), (omega_centralizer_basis, "nilpotent", "w5"), ("centralizer", "pair5_a", "--basis"))),
    Fault("relation", "the first block solution perturbed", (commutant, "_block_solutions"), planted(_first_coordinate_plus_one, 1), r"fails AX = mu\*XA",
          ((centralizer_basis, "pair5_a"), ("centralizer", "pair5_a", "--basis"))),
    Fault("relation", "P perturbed after the split", (commutant, "_frobenius"), planted(lambda out: (out[0], _bumped(out[1], 0, 0, out[1].dens[0]))), r"fails AX = mu\*XA",
          ((centralizer_basis, "derogatory"), (clifforder_basis, "derogatory"), (omega_centralizer_basis, "nilpotent", "w5"), ("centralizer", "derogatory", "--basis"))),
    Fault("double centralizer dimension", "deg m_A one too high", (commutant, "min_poly"), planted(lambda m: Poly.monomial(m.degree + 1, 1, m.field)), "double centralizer has dimension", _DOUBLE_CENTRALIZERS),
    Fault("double centralizer dimension", "last power dropped", (commutant, "_reduced"), planted(lambda L: _take(L, range(L.rows - 1)), first_argument=True), "double centralizer has dimension", _DOUBLE_CENTRALIZERS),
    Fault("A-invariance", "deg m_A one too low", (commutant, "min_poly"), planted(lambda m: Poly.monomial(m.degree - 1, 1, m.field)), "not A-invariant or misses I", _DOUBLE_CENTRALIZERS),
    # power k on its way into the reduction, for every k < deg m_A (3, 3, 1 and 3)
    *[Fault("A-invariance", f"power {k} bumped", (commutant, "_reduced"), planted(lambda L, k=k: _bumped(L, k, 0), first_argument=True), "not A-invariant or misses I",
            tuple(c for c in _DOUBLE_CENTRALIZERS if k == 0 or c[1] != "2I3"))
      for k in range(3)],
    Fault("A-invariance", "an integer of the first reduced row changed", (commutant, "_reduced"), planted(lambda out: (_bumped(out[0], 0, -1), out[1])), "not A-invariant or misses I", _DOUBLE_CENTRALIZERS),
    # the coordinate reads run in this order: 1 the Krylov coordinates of
    # B*v, 2 the f system, 3 the g system
    Fault("certificate congruence", "f system perturbed", (equivalence, "_in_span"), planted(_first_coordinate_plus_one, 2), r"certificate fails f\(base\) = target mod m_A",
          ((equivalence_certificate, "pair5_a", "pair5_b", "general"), (equivalence_certificate, "odd4_a", "odd4_b", "odd"),
           (equivalence_certificate, "tri4_a", "tri4_b", "odd"), (express_in_powers, "pair5_b", "pair5_a"), ("equiv", "pair5_a", "pair5_b"))),
    Fault("certificate congruence", "g system perturbed", (equivalence, "_in_span"), planted(_first_coordinate_plus_one, 3), r"certificate fails f\(base\) = target mod m_A",
          ((equivalence_certificate, "pair5_a", "pair5_b", "general"), (equivalence_certificate, "odd4_a", "odd4_b", "odd"),
           (equivalence_certificate, "tri4_a", "tri4_b", "odd"), ("equiv", "pair5_a", "pair5_b"))),
    # a wrong dependency must raise, not redraw: on the derogatory input
    # every draw meets the same fault
    Fault("Krylov dependency", "every dependency's first coordinate perturbed", (canonical, "_in_span"), planted(_first_coordinate_plus_one), "Krylov dependency fails",
          (*[(f, A) for A in ("cyclic", "nilpotent (3,2)") for f in (min_poly, invariant_factors, char_poly, Matrix.det, double_centralizer_basis, centralizer_basis)],
           *[(equivalence_certificate, "cyclic", f"cyclic: {f}", cls) for f in ("x + x^2", "x + x^3", "2x + x^4") for cls in ("general", "odd")],
           (express_in_powers, "cyclic: x + x^2", "cyclic"),
           (omega_equivalence_check, "nilpotent (3,2)", "nilpotent (3,2)", "w3,1"), ("analyze", "cyclic"), ("analyze", "nilpotent (3,2)"),
           ("omega", "nilpotent (3,2)", "--q", "3"), ("equiv", "cyclic", "cyclic: x + x^2"), ("equiv", "nilpotent (3,2)", "nilpotent (3,2)"))),
]


class Forbidden(NamedTuple):
    """Calls a path must not make: each consumer makes exactly `calls`
    calls (0: none) of module.name for each (module, name, calls) of
    `spied`, and gives the same answer with the spies as without."""

    what: str
    spied: tuple
    consumers: tuple


_KRONECKER_FREE = [(ad_power_kernel, A, k) for A in ("J3", "jordan(5, 4)", "cyclo3 (2,2)") for k in (1, 2, 3)]

FORBIDDEN = [
    Forbidden("no Kronecker operator", ((adpower, "commutant_operator", 0), (commutant, "commutant_operator", 0), (commutant, "kron", 0)),
              (*_KRONECKER_FREE,
               *[(ad_inclusion_check, A, "1+2x+3x^2" + (" over Q(zeta_3)" if A == "cyclo3 (2,2)" else ""), k) for _, A, k in _KRONECKER_FREE],
               *[(f, A) for A in ("derogatory", "nilpotent", "cyclo3") for f in (centralizer_basis, clifforder_basis)],
               (omega_centralizer_basis, "nilpotent", "w5"), (omega_centralizer_basis, "cyclo3", "w3"),
               *_DOUBLE_CENTRALIZERS)),
    # the basis is read off one reversed-column reduction: no kernel of
    # unit-matrix images, no canonicalizing second elimination
    Forbidden("one elimination", (*[(m, name, 0) for m in (matrices, subspaces, commutant, adpower) for name in ("_reduced", "kernel_basis") if hasattr(m, name)],
                                  (matrices, "_rref_core", 1)),
              tuple((ad_power_kernel, A, k) for A in ("J3", "jordan(5, 4)", "cyclo3 (2,2)", "rational 2x2", "0x0") for k in (1, 2, 3))),
    # --q and --k are checked right after the file is read; a malformed
    # file is still reported first
    Forbidden("no split before the omega-spec check", ((canonical, "_cyclic_split", 0),),
              (*[("analyze", "J3", "--q", q, "--k", k) for q, k in (("4", "2"), ("0", "1"), ("6", "-3"))], ("analyze", "malformed", "--q", "4", "--k", "2"))),
    # Frobenius' count is deg g per pair of invariant factors, read off
    # `_block_gcd`, on the poly_gcd branch as on the others
    Forbidden("no block solution for a dimension", ((commutant, "_block_solutions", 0), (commutant, "_mul_lifted", 0)),
              tuple((dimension, A, mu) for A in ("derogatory", "nilpotent", "2I3")
                    for mu in ("mu=1", "mu=-1", "mu=zeta_5^2")) + tuple((dimension, "cyclo3", mu) for mu in ("mu=1 in Q(zeta_3)", "mu=-1 in Q(zeta_3)", "mu=zeta_3"))),
    # deg m_A is read off min_poly's one checked cyclic-vector step
    Forbidden("the double centralizer builds no centralizer and runs no split",
              ((commutant, "_mu_commutant_basis", 0), (canonical, "_cyclic_split", 0), (canonical, "_cyclic_vector", 1)),
              (*_DOUBLE_CENTRALIZERS, (double_centralizer_basis, "J4(1)"))),
    # every certificate coordinate is read off the Krylov echelon the
    # cyclic vector built
    Forbidden("no rref pass in certificates", ((matrices, "_rref_core", 0), (canonical, "_rref_core", 0)),
              tuple(c for A, B, cls in (("pair5_a", "pair5_b", "general"), ("odd4_a", "odd4_b", "odd"), ("tri4_a", "tri4_b", "odd"), ("counter_a", "counter_b", "general"),
                                        ("pair5_a", "pair5_b", "q:3"), ("pair5_a over Q(zeta_5)", "pair5_b over Q(zeta_5)", "general"),
                                        ("odd4_a over Q(zeta_5)", "odd4_b + zeta_5 odd4_a", "odd"))
                    for c in ((equivalence_certificate, A, B, cls), (express_in_powers, B, A, cls)))),
    Forbidden("no matrix power in certificates", ((Matrix, "__pow__", 0),),
              tuple(c for A, B, cls in (("pair5_a", "pair5_b", "general"), ("odd4_a", "odd4_b", "odd"), ("tri4_a", "tri4_b", "odd"),
                                        ("counter_a", "counter_b", "general"), ("pair5_a", "pair5_b", "q:3"))
                    for c in ((equivalence_certificate, A, B, cls), (equivalence_certificate, B, A, cls)))),
    # m_A = x^(deg m_A) decides nilpotency, even when x divides m_A
    Forbidden("nilpotency read without a split", ((canonical, "_cyclic_split", 0),),
              tuple((omega_equivalence_check, A, A, "w3,1") for A in ("diag(0, 0, 1)", "J2(0) + (1/2)", "J3(0) + J1(2), conjugated", "J2(zeta_3)"))),
]


def consumer_id(consumer) -> str:
    head, *args = consumer
    if callable(head):
        return f"{head.__qualname__}({', '.join(map(str, args))})"
    return " ".join(["cli", head, *args])


@contextmanager
def time_cap(seconds: int):
    """Raise TimeoutError in the block after `seconds`: a check that turns
    a fault into an endless redraw fails instead of hanging the run."""
    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def outcome(consumer, tmp_path, capsys):
    """What a consumer gives, within 60 s: a library call's value or
    library error, or a CLI run's exit code, stdout and stderr."""
    head, *args = consumer
    with time_cap(60):
        if callable(head):
            try:
                return "value", head(*(NAMED.get(a, a) if isinstance(a, str) else a for a in args))
            except (AlgebraError, VerificationError) as exc:
                return type(exc), str(exc)
        argv = [head]
        for a in args:
            if a in NAMED:
                path = tmp_path / f"{len(argv)}.json"
                path.write_text(NAMED[a] if isinstance(NAMED[a], str) else json.dumps(cli.matrix_json(NAMED[a])))
                a = str(path)
            argv.append(a)
        code = cli.main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def plant_fault(fault: Fault, consumer, monkeypatch, tmp_path, capsys):
    """Run `consumer` with `fault` planted: the fault must be planted and
    must end in VerificationError matching the row's message."""
    module, name = fault.producer
    fired = []
    monkeypatch.setattr(module, name, fault.plant(getattr(module, name), fired))
    got = outcome(consumer, tmp_path, capsys)
    assert any(fired), f"{name} gave no value the fault could change"
    if callable(consumer[0]):
        assert got[0] is VerificationError and re.search(fault.message, got[1]), got
    else:
        code, out, err = got
        assert (code, out, json.loads(err)["error"]) == (3, "", "VerificationError") and re.search(fault.message, json.loads(err)["message"]), got


def forbid_calls(row: Forbidden, consumer, monkeypatch, tmp_path, capsys):
    """Run `consumer` without and with the row's spies: the same answer,
    and exactly the allowed number of calls of each spied name."""
    want = outcome(consumer, tmp_path, capsys)
    made = Counter()
    for module, name, calls in row.spied:
        def spy(*args, key=(module, name), plain=getattr(module, name), calls=calls):
            made[key] += 1
            assert made[key] <= calls, f"{key[1]} called more than {calls} times"
            return plain(*args)
        monkeypatch.setattr(module, name, spy)
    assert outcome(consumer, tmp_path, capsys) == want
    assert [made[module, name] for module, name, _ in row.spied] == [calls for _, _, calls in row.spied]


def rows_test(table, *groups, ids=None):
    """A test that runs every consumer of the rows named in a group (by
    `check: fault` for FAULTS, by `what` for FORBIDDEN), gaps left out:
    one test, or one per group with `ids`."""
    run = plant_fault if table is FAULTS else forbid_calls
    name = (lambda row: f"{row.check}: {row.fault}") if table is FAULTS else (lambda row: row.what)

    def test(group, monkeypatch, tmp_path, capsys):
        rows = [row for row in table if name(row) in group]
        assert len(rows) == len(group), group
        for row in rows:
            for consumer in row.consumers:
                with monkeypatch.context() as m:
                    run(row, consumer, m, tmp_path, capsys)

    if ids is None:
        return lambda monkeypatch, tmp_path, capsys: test(groups[0], monkeypatch, tmp_path, capsys)
    return pytest.mark.parametrize("group", groups, ids=ids)(test)
