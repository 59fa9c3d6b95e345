"""Exact arithmetic for the oracle, written without the library.

Polynomials are ascending lists of Fractions with no trailing zeros.
Rational matrices are lists of rows of Fractions.  An element of
Q(zeta_q), q prime, is a length-q list in Q[x]/(x^q - 1); it is zero in
Q(zeta_q) exactly when all q coefficients are equal, because the kernel
of Q[x]/(x^q - 1) -> Q[x]/(Phi_q) is spanned by 1 + x + ... + x^(q-1).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

# ---------------------------------------------------------- polynomials


def p_trim(f):
    f = list(f)
    while f and f[-1] == 0:
        f.pop()
    return f


def p_mul(f, g):
    if not f or not g:
        return []
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return p_trim(out)


def p_divmod(f, g):
    num = [Fraction(c) for c in f]
    dg = len(g) - 1
    quo = [Fraction(0)] * max(len(num) - dg, 0)
    for i in range(len(num) - 1, dg - 1, -1):
        c = num[i] / g[-1]
        if c:
            quo[i - dg] = c
            for j, b in enumerate(g):
                num[i - dg + j] -= c * b
    return p_trim(quo), p_trim(num)


def p_monic(f):
    return [Fraction(c) / f[-1] for c in f]


def p_gcd(f, g):
    a, b = p_trim(f), p_trim(g)
    while b:
        a, b = b, p_divmod(a, b)[1]
    return p_monic(a)


def p_lcm(f, g):
    return p_monic(p_divmod(p_mul(f, g), p_gcd(f, g))[0])


def p_flip(f):
    """(-1)^deg f * f(-x): the monic characteristic polynomial of -C_f."""
    d = len(f) - 1
    return [c if (d - i) % 2 == 0 else -c for i, c in enumerate(f)]


def is_balanced(f):
    f = p_monic(f)
    return p_flip(f) == f


def invariant_factors(blocks):
    """Nonconstant invariant factors of a direct sum of companion
    matrices: Smith form of diag(blocks) by pairwise (gcd, lcm)."""
    d = [p_monic(b) for b in blocks]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            d[i], d[j] = p_gcd(d[i], d[j]), p_lcm(d[i], d[j])
    return [f for f in d if len(f) > 1]


def hom_dim(blocks, twist):
    """Frobenius: dim{X : AX = X B} for A = sum of companions of
    `blocks` and B similar to sum of companions of twist(f)."""
    return sum(len(p_gcd(f, twist(g))) - 1 for f in blocks for g in blocks)


def ad_kernel_dim(sizes, k):
    """dim ker (ad_N)^k for N nilpotent with Jordan block sizes `sizes`:
    J_a (x) I - I (x) J_b^T has Jordan blocks a+b-1, a+b-3, ..., |a-b|+1."""
    return sum(
        min(k, a + b - 1 - 2 * t)
        for a in sizes
        for b in sizes
        for t in range(min(a, b))
    )


def in_class(coeffs, q):
    """Exponents allowed: all when q is None, else e >= 1, e = 1 mod q."""
    return all(
        c == 0 or q is None or (e >= 1 and (e - 1) % q == 0)
        for e, c in enumerate(coeffs)
    )


# ------------------------------------------------------ rational matrices


def mat_mul(A, B):
    cols = list(zip(*B))
    return [[sum(a * b for a, b in zip(row, col) if a) for col in cols] for row in A]


def mat_sub(A, B):
    return [[a - b for a, b in zip(r, s)] for r, s in zip(A, B)]


def is_zero(A):
    return not any(any(row) for row in A)


def horner(coeffs, A):
    """f(A) for ascending coefficients, constant term times I.  Powers are
    taken of the integer matrix N = dA, so f(A) = sum_e c_e N^e / d^e."""
    n = len(A)
    d = 1
    for row in A:
        for x in row:
            d = lcm(d, Fraction(x).denominator)
    N = [[int(x * d) for x in row] for row in A]
    P = [[int(i == j) for j in range(n)] for i in range(n)]
    R = [[Fraction(0)] * n for _ in range(n)]
    for e, c in enumerate(coeffs):
        if c:
            scale = Fraction(c) / d**e
            R = [[r + scale * p for r, p in zip(rr, pr)] for rr, pr in zip(R, P)]
        if e < len(coeffs) - 1:
            P = mat_mul(P, N)
    return R


def rank(rows):
    rows = [list(r) for r in rows]
    r = 0
    width = len(rows[0]) if rows else 0
    for c in range(width):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        p = rows[r][c]
        for i in range(r + 1, len(rows)):
            if rows[i][c]:
                f = rows[i][c] / p
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


# ------------------------------------------------------ cyclotomic matrices


def cy(coeffs, q):
    """Lift a coefficient array in powers of zeta_q to Q[x]/(x^q - 1)."""
    out = [Fraction(0)] * q
    for i, c in enumerate(coeffs):
        out[i % q] += Fraction(c)
    return out


def cy_is_zero(a):
    return all(c == a[0] for c in a)


def omega_relation_holds(A, X, q, k):
    """A rational, X over Q(zeta_q) in the cy() representation:
    is AX - zeta_q^k X A zero?"""
    n = len(A)
    for i in range(n):
        for j in range(n):
            acc = [Fraction(0)] * q
            for t in range(n):
                a = A[i][t]
                if a:
                    for s, c in enumerate(X[t][j]):
                        acc[s] += a * c
                b = A[t][j]
                if b:
                    for s, c in enumerate(X[i][t]):
                        acc[(s + k) % q] -= b * c
            if not cy_is_zero(acc):
                return False
    return True
