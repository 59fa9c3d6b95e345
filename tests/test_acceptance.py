"""End-to-end checks, one test per promised behavior.

Each test prints a single pass/fail line so the suite doubles as a
checklist when run with -q.
"""

import contextlib
import random
import sys
import time
from fractions import Fraction
from math import comb

from commutants import (
    AdOperator,
    Certificate,
    CongruenceClass,
    CycloScalar,
    FieldTag,
    Matrix,
    OmegaSpec,
    QQ,
    ad_power_kernel,
    centralizer_basis,
    clifforder_basis,
    double_centralizer_basis,
    equivalence_certificate,
    eval_at_matrix,
    is_balanced_matrix,
    k_matrix,
    kernel_basis,
    kron,
    min_poly,
    omega_centralizer_basis,
    omega_equivalence_check,
    potter_check,
    random_invertible_probe,
    random_odd_poly,
    subspace_equal,
    subspace_from_matrices,
    subspace_leq,
    unvec,
    vec,
    verify_certificate,
    weyl_pair,
)
from helpers import (
    COUNTER_A,
    COUNTER_B,
    PAIR5_A,
    PAIR5_B,
    PAIR5_A_FROM_B,
    PAIR5_B_FROM_A,
    ODD4_A,
    ODD4_A_FROM_B,
    ODD4_B,
    ODD4_B_FROM_A,
    poly,
    reference_double_centralizer,
    reference_min_poly,
)


CRITERION_LINES: list[str] = []


@contextlib.contextmanager
def criterion(num, text):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        line = f"[c{num:02d}] FAIL {text}"
        CRITERION_LINES.append(line)
        print(line, file=sys.__stdout__, flush=True)
        raise
    dt = time.perf_counter() - t0
    line = f"[c{num:02d}] PASS {text} ({dt:.2f}s)"
    CRITERION_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)


def partitions(n, largest=None):
    if largest is None:
        largest = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def trial_matrix(seed, n):
    # block-diagonal Jordan structure with small rational eigenvalues
    rng = random.Random(seed)
    blocks = []
    left = n
    while left:
        s = rng.randint(1, min(3, left))
        lam = Fraction(rng.randint(-2, 2), rng.choice([1, 1, 2]))
        blocks.append(Matrix.jordan(s, lam, QQ))
        left -= s
    return Matrix.block_diag(blocks)


def test_c01_example_certificate_golden():
    with criterion(1, "5x5 certificate pair recovered and verified exactly"):
        t0 = time.perf_counter()
        cert = equivalence_certificate(PAIR5_A, PAIR5_B)
        assert cert is not None
        assert cert.f == PAIR5_B_FROM_A
        assert cert.g == PAIR5_A_FROM_B
        printed = Certificate(PAIR5_B_FROM_A, PAIR5_A_FROM_B, CongruenceClass.general())
        assert verify_certificate(PAIR5_A, PAIR5_B, printed)
        assert time.perf_counter() - t0 < 1.0


def test_c02_nilpotent_clifforder_span():
    with criterion(2, "clifforder of J_n(0) is the n checkerboard matrices, n=1..8"):
        for n in range(1, 9):
            A = Matrix.jordan(n, 0, QQ)
            S = clifforder_basis(A)
            assert S.dim == n
            K = subspace_from_matrices([k_matrix(n, i) for i in range(1, n + 1)])
            assert subspace_equal(S, K)


def test_c03_centralizer_biconditional():
    with criterion(3, "equal centralizers iff two-sided certificate, 250 seeded trials"):
        t0 = time.perf_counter()
        positives = negatives = 0
        for trial in range(200):
            rng = random.Random(1000 + trial)
            n = rng.randint(2, 6)
            A = trial_matrix(2000 + trial, n)
            f = random_odd_poly(3000 + trial, n, CongruenceClass.general())
            B = eval_at_matrix(f, A)
            equal = subspace_equal(centralizer_basis(A), centralizer_basis(B))
            cert = equivalence_certificate(A, B)
            assert equal == (cert is not None)
            if cert is not None:
                assert verify_certificate(A, B, cert)
                positives += 1
        for trial in range(50):
            rng = random.Random(5000 + trial)
            n = rng.randint(2, 6)
            A = trial_matrix(6000 + trial, n)
            B = trial_matrix(7000 + trial, n)
            equal = subspace_equal(centralizer_basis(A), centralizer_basis(B))
            cert = equivalence_certificate(A, B)
            assert equal == (cert is not None)
            if cert is None:
                negatives += 1
        assert positives >= 100
        assert negatives >= 40
        assert time.perf_counter() - t0 < 60.0


def test_c04_balanced_iff_invertible_anticommuter():
    with criterion(4, "balanced flag matches invertibility probe on 30 curated matrices"):
        curated = []
        for n in range(1, 7):
            for part in partitions(n):
                curated.append(Matrix.block_diag(
                    [Matrix.jordan(s, 0, QQ) for s in part]))
        assert len(curated) == 29
        a = Fraction(2)
        curated.append(Matrix.block_diag(
            [Matrix.jordan(3, a, QQ), Matrix.jordan(4, a, QQ).scale(-1)]))
        hits = 0
        for M in curated:
            bal = is_balanced_matrix(M)
            S = clifforder_basis(M)
            trials = 64 if bal else 200
            w = random_invertible_probe(S, trials=trials, seed=7)
            assert bal == (w is not None)
            if w is not None:
                assert w.det() != 0
                assert M * w == (w * M).scale(-1)
                hits += 1
        assert hits == 29


def test_c05_double_centralizer_is_polynomial_algebra():
    with criterion(5, "double centralizer equals span of powers, 100 seeded matrices"):
        for trial in range(100):
            rng = random.Random(400 + trial)
            n = rng.randint(2, 5)
            A = trial_matrix(8000 + trial, n)
            # d from the first dependency of the vectorized powers, not
            # from the split the library reads it off
            d = reference_min_poly(A).degree
            assert min_poly(A).degree == d
            powers = []
            P = Matrix.identity(n, A.field)
            for _ in range(d):
                powers.append(P)
                P = P * A
            want = subspace_from_matrices(powers)
            ours = double_centralizer_basis(A)
            assert subspace_equal(ours, want)
            assert ours.rref_rows == reference_double_centralizer(A).rref_rows
            assert want.dim == d


def _action_basis(A, mu):
    # operator assembled entry-by-entry from the defining relation,
    # no Kronecker identity involved
    n = A.rows
    cols = []
    for i in range(n):
        for j in range(n):
            E = Matrix.elem(n, i, j, A.field)
            cols.append(vec(A * E - (E * A).scale(mu)))
    rows = [[cols[c][r] for c in range(n * n)] for r in range(n * n)]
    op = Matrix.make(rows, A.field)
    mats = [unvec(v, n, A.field) for v in kernel_basis(op)]
    return subspace_from_matrices(mats, ambient_n=n, field=A.field)


def test_c06_kron_operator_matches_direct_relation():
    with criterion(6, "Kronecker kernels agree with relation checking, all three relations"):
        z3 = CycloScalar.zeta(3)
        for trial in range(100):
            rng = random.Random(777 + trial)
            n = rng.randint(2, 5)
            A = trial_matrix(9000 + trial, n)
            assert subspace_equal(centralizer_basis(A), _action_basis(A, 1))
            assert subspace_equal(clifforder_basis(A), _action_basis(A, -1))
            if trial % 5 == 0:
                Ac = A.promote(3)
                w = OmegaSpec(3, 1)
                assert subspace_equal(omega_centralizer_basis(A, w),
                                      _action_basis(Ac, z3))


def test_c07_potter_identity_suite():
    with criterion(7, "q-th power collapse for Weyl pairs, q = 2..7, 20 samples each"):
        t0 = time.perf_counter()
        rng = random.Random(99)
        for q in range(2, 8):
            pair = weyl_pair(q, q)
            field = FieldTag.cyclotomic(q)
            for _ in range(20):
                s = field.coerce(Fraction(rng.randint(1, 5), rng.randint(1, 3))
                                 * rng.choice([-1, 1]))
                t = field.coerce(Fraction(rng.randint(1, 5), rng.randint(1, 3))
                                 * rng.choice([-1, 1]))
                s = s * CycloScalar.zeta(q, rng.randrange(q)) if q > 1 else s
                t = t * CycloScalar.zeta(q, rng.randrange(q)) if q > 1 else t
                assert potter_check(pair, s, t)
        assert time.perf_counter() - t0 < 30.0


def test_c08_omega_equivalence_on_j5():
    with criterion(8, "omega-centralizer equality and q:3 certificates on J_5(0)"):
        A = Matrix.jordan(5, 0, QQ)
        w = OmegaSpec(3, 1)
        rng = random.Random(55)
        for _ in range(10):
            b = Fraction(rng.choice([1, 2, 3, 5]) * rng.choice([-1, 1]),
                         rng.choice([1, 2]))
            c = Fraction(rng.randint(-3, 3))
            B = A.scale(b) + (A ** 4).scale(c)
            rep = omega_equivalence_check(A, B, w)
            assert rep.centralizers_equal
            assert rep.certificate is not None
            assert rep.certificate.cls.q == 3
            assert rep.agree
        bad = omega_equivalence_check(A, A * A, w)
        assert not bad.centralizers_equal
        assert bad.certificate is None
        assert bad.agree


def test_c09_odd_equivalence_golden_and_counterexample():
    with criterion(9, "odd 4x4 certificate pair exact; equal zero clifforders insufficient"):
        cert = equivalence_certificate(ODD4_A, ODD4_B, CongruenceClass.odd())
        assert cert is not None
        assert cert.f == ODD4_B_FROM_A
        assert cert.g == ODD4_A_FROM_B
        assert verify_certificate(ODD4_A, ODD4_B, cert)
        ca = clifforder_basis(COUNTER_A)
        cb = clifforder_basis(COUNTER_B)
        assert ca.dim == 0 and cb.dim == 0
        assert subspace_equal(ca, cb)
        assert equivalence_certificate(COUNTER_A, COUNTER_B,
                                       CongruenceClass.odd()) is None


def test_c10_ad_power_suite():
    with criterion(10, "Ad-power kernels: base case, monotone, inclusion, forcing lemma"):
        for trial in range(100):
            rng = random.Random(123 + trial)
            n = rng.randint(2, 4)
            k = rng.randint(1, 4)
            A = trial_matrix(10_000 + trial, n)
            f = random_odd_poly(11_000 + trial, n, CongruenceClass.general())
            Kk = ad_power_kernel(A, k)
            assert subspace_equal(ad_power_kernel(A, 1), centralizer_basis(A))
            if k < 4 and trial % 5 == 0:
                assert subspace_leq(Kk, ad_power_kernel(A, k + 1))
            op = AdOperator.of(eval_at_matrix(f, A))
            for X in Kk.basis:
                Y = X
                for _ in range(k):
                    Y = op.apply(Y)
                assert Y.is_zero()
        # alternating-sign annihilation forces B = O: the diagonal D below
        # satisfies the k-fold identity against J_n(0), yet the matching
        # sign-free operator (L_D + R_D)^k kills nothing
        for n in range(2, 6):
            A = Matrix.jordan(n, 0, QQ)
            D = Matrix.diag([Fraction((s + 1) * (1 if s % 2 == 0 else -1))
                             for s in range(n)], QQ)
            for k in (2, 3):
                total = Matrix.zero(n, n, QQ)
                for i in range(k + 1):
                    total = total + ((A ** (k - i)) * D * (A ** i)).scale(comb(k, i))
                assert total.is_zero()
                I = Matrix.identity(n, QQ)
                plus_op = kron(D, I) + kron(I, D.transpose())
                assert not kernel_basis(plus_op ** k)
