"""Seeded op plans for the three workloads.

A plan is plain data, built from the workload name and seed alone:
inputs are `gen` specs in the CLI's JSON spec format (plus derived
matrices B = p(A) and Weyl pairs), and each op names its inputs, its
arguments and the end-to-end metric its time adds to.  Each input also
carries its cyclic decomposition (the monic polynomials of the companion
and nilpotent blocks it is similar to), from which the oracle derives
every expected dimension and invariant factor.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from exact import p_mul

SUBCOMMAND_METRIC = {
    "analyze": "analyze_s",
    "centralizer": "centralizer_s",
    "clifforder": "clifforder_s",
    "omega": "omega_s",
    "equiv": "equiv_s",
    "potter": "potter_s",
    "adpower": "adpower_s",
    "structure": "structure_s",
    "balanced": "structure_s",
}


@dataclass
class Input:
    """One matrix the workload feeds the program.

    kind "gen": `spec` is a CLI gen spec; "poly_of": B = poly(A) for the
    input named `base`; "weyl": the A (part 0) or B (part 1) of
    weyl_pair(q, n)."""

    name: str
    kind: str
    spec: dict | None = None
    blocks: list = field(default_factory=list)
    base: str | None = None
    poly: list = field(default_factory=list)
    q: int = 0
    n: int = 0
    part: int = 0


@dataclass
class Op:
    """One question asked of the program.

    CLI kinds run `commutants <kind> <files> <args>`; "adpower",
    "structure" and "balanced" call the library on the first input."""

    id: str
    kind: str
    inputs: tuple
    args: tuple = ()
    expect_rc: int = 0

    @property
    def metric(self) -> str:
        return SUBCOMMAND_METRIC[self.kind]


@dataclass
class Plan:
    workload: str
    seed: int
    inputs: dict
    ops: list


# ------------------------------------------------------------ spec helpers


def _nil(sizes):
    return {"nilpotent_blocks": list(sizes)}


def _comp(coeffs):
    return {"companion": [int(c) for c in coeffs]}


def _spec(profile, seed=0):
    return {"profile": profile, "seed": seed}


def _conj(profile, seed, height=3):
    return _spec({"conjugate_by": {"inner": _spec(profile), "height": height}}, seed)


def _block_diag(*profiles):
    return {"block_diag": [_spec(p) for p in profiles]}


def _x_power(a):
    return [0] * a + [1]


def _random_monic(rng, degree, lo=-3, hi=3):
    return [rng.randint(lo, hi) for _ in range(degree)] + [1]


def _omega_homogeneous(rng, degree, q):
    """Monic f with f(w x) = w^deg f(x) for every q-th root of unity w:
    only exponents congruent to deg f mod q carry coefficients."""
    coeffs = [0] * degree + [1]
    for e in range(degree % q, degree, q):
        coeffs[e] = rng.choice([-2, -1, 1, 2])
    return coeffs


class _Builder:
    def __init__(self, workload, seed):
        self.rng = random.Random(f"{workload}:{seed}")
        self.inputs: dict[str, Input] = {}
        self.ops: list[Op] = []

    def gen_input(self, profile, blocks, height=3) -> str:
        name = f"m{len(self.inputs):03d}"
        seed = self.rng.randrange(1 << 30)
        self.inputs[name] = Input(name, "gen", spec=_conj(profile, seed, height), blocks=blocks)
        return name

    def nil_input(self, sizes, height=3) -> str:
        return self.gen_input(_nil(sizes), [_x_power(a) for a in sizes], height)

    def companion_input(self, coeffs, height=3) -> str:
        return self.gen_input(_comp(coeffs), [coeffs], height)

    def derived_input(self, base, poly) -> str:
        name = f"m{len(self.inputs):03d}"
        self.inputs[name] = Input(name, "poly_of", base=base, poly=[str(c) for c in poly])
        return name

    def weyl_inputs(self, q, n) -> tuple[str, str]:
        names = (f"weyl{q}x{n}a", f"weyl{q}x{n}b")
        for part, name in enumerate(names):
            self.inputs[name] = Input(name, "weyl", q=q, n=n, part=part)
        return names

    def op(self, kind, inputs, args=(), expect_rc=0):
        self.ops.append(Op(f"{len(self.ops):03d}-{kind}", kind, tuple(inputs), tuple(args), expect_rc))


# ------------------------------------------------------------- workloads


# Shapes are cycled, not drawn, so every seed asks the same mix of
# questions at the same sizes; the seed picks coefficients, conjugators
# and sample points.  That keeps a run's cost steady across seeds.


def _commutant_q(b: _Builder):
    # 84 cheap ops (n = 5..6), 14 at n = 8 around the 90th percentile,
    # 2 at n = 10 above it
    rng = b.rng
    heavy = [b.nil_input((4, 4)), b.nil_input((3, 3, 2)), b.nil_input((4, 2, 2)), b.nil_input((5, 2, 1))]
    heavy += [b.companion_input(_random_monic(rng, 8)) for _ in range(2)]
    f = _random_monic(rng, 4)
    heavy.append(b.gen_input(_block_diag(_comp(f), _nil((2, 2))), [f, _x_power(2), _x_power(2)]))
    heavy.append(b.nil_input((5, 5)))  # the n = 10 baseline probe
    cheap = []
    partitions = [(3, 3), (2, 2, 1, 1), (4, 2), (3, 2, 1), (2, 2, 2)]
    for i in range(32):
        if i % 3 == 0:
            cheap.append(b.nil_input(partitions[(i // 3) % len(partitions)]))
        elif i % 3 == 1:
            cheap.append(b.companion_input(_random_monic(rng, 6)))
        else:
            f = _random_monic(rng, 3)
            sizes = [(2, 1), (1, 1, 1), (3,)][(i // 3) % 3]
            cheap.append(b.gen_input(_block_diag(_comp(f), _nil(sizes)), [f] + [_x_power(a) for a in sizes]))
    for name in cheap + heavy:
        b.op("centralizer", [name], ["--basis"])
        b.op("clifforder", [name], ["--basis"])
    partitions = [(3, 2), (2, 2, 1), (4, 1), (3, 1, 1), (2, 2, 2)]
    for i in range(20):
        b.op("adpower", [b.nil_input(partitions[i % 5])], [str(2 + i % 2)])


def _structure_q(b: _Builder):
    # 6 canonical-form ops at n = 9..11 sit above the 90th percentile; the
    # rest (equiv at n = 6..12, small reports, analyze) form one continuum
    rng = b.rng
    for n in (9, 10, 11):
        b.op("structure", [b.companion_input(_random_monic(rng, n), height=1)])
    for n in (9, 10):
        h = _random_monic(rng, 2)
        f = _random_monic(rng, n // 2 - 2)
        g = _random_monic(rng, n - n // 2 - 2)
        hf = [int(c) for c in p_mul(h, f)]
        hg = [int(c) for c in p_mul(h, g)]
        b.op("structure", [b.gen_input(_block_diag(_comp(hf), _comp(hg)), [hf, hg], height=1)])
    b.op("balanced", [b.companion_input(_balanced_monic(rng, 10), height=1)])
    for i in range(8):
        n = 6 + i % 3
        coeffs = _balanced_monic(rng, n) if i % 2 else _random_monic(rng, n)
        b.op("balanced" if i % 4 < 2 else "structure", [b.companion_input(coeffs, height=1)])
    b.op("analyze", [b.nil_input((3, 1))])
    b.op("analyze", [b.companion_input(_random_monic(rng, 4))])
    f, g = _random_monic(rng, 2), _random_monic(rng, 2)
    b.op("analyze", [b.gen_input(_block_diag(_comp(f), _comp(g)), [f, g])])
    b.op("analyze", [b.nil_input((3, 2))])
    b.op("analyze", [b.companion_input(_random_monic(rng, 5))])
    classes = [("general", None), ("odd", 2), ("q:3", 3)]
    for i in range(84):
        cls, q = classes[i % 3]
        n = 6 + i % 7
        a = b.nil_input(_PARTITIONS[n][(i // 7) % len(_PARTITIONS[n])])
        if i % 5 == 4:
            # A is not a polynomial in A^m (m >= 2) when A has index >= 2
            m = {None: 2, 2: 3, 3: 4}[q]
            b.op("equiv", [a, b.derived_input(a, [0] * m + [1])], ["--class", cls], expect_rc=1)
            continue
        # for nilpotent A, p(A) with p'(0) != 0 generates the same algebra
        poly = [0] * n
        for e in range(n):
            if e == 1:
                poly[e] = Fraction(rng.choice([1, 2, 3]) * rng.choice([-1, 1]), rng.choice([1, 2]))
            elif q is None or (e >= 1 and (e - 1) % q == 0):
                poly[e] = Fraction(rng.randint(-3, 3))
        b.op("equiv", [a, b.derived_input(a, poly)], ["--class", cls])


def _balanced_monic(rng, n):
    """x^(n mod 2) h(x^2): f(-x) = (-1)^n f(x)."""
    coeffs = [0] * (n + 1)
    for j, c in enumerate(_random_monic(rng, n // 2)):
        coeffs[2 * j + n % 2] = c
    return coeffs


_PARTITIONS = {
    6: [(3, 3), (4, 2), (3, 2, 1)],
    7: [(4, 3), (3, 2, 2), (5, 2)],
    8: [(4, 4), (3, 3, 2), (5, 3)],
    9: [(5, 4), (3, 3, 3), (4, 3, 2)],
    10: [(5, 5), (4, 3, 3), (6, 4)],
    11: [(6, 5), (4, 4, 3), (5, 3, 3)],
    12: [(6, 6), (4, 4, 4), (5, 4, 3)],
}


def _cyclotomic(b: _Builder):
    # 9 omega/analyze ops (omega at q = 3, n = 5 and q = 5, n = 4 cost
    # about the same) sit above the 90th percentile; 93 potter ops below
    rng = b.rng
    i = 0
    for q in (3, 5):
        for k in (1, 2):
            for basis in (False, True):
                args = ["--q", str(q), "--k", str(k)] + (["--basis"] if basis else [])
                if i % 2:
                    inp = b.companion_input(_omega_homogeneous(rng, {3: 5, 5: 4}[q], q), height=2)
                else:
                    inp = b.nil_input([(3, 2), (2, 2)][q == 5], height=2)
                b.op("omega", [inp], args)
                i += 1
    b.op("analyze", [b.nil_input((2, 2), height=2)], ["--q", "3"])
    sizes = [(3, 6), (5, 5), (3, 9), (3, 6), (5, 5), (3, 12), (3, 6), (5, 5), (3, 9), (5, 10)]
    for i in range(93):
        q, n = sizes[i % 10]
        pa, pb = b.weyl_inputs(q, n)
        b.op("potter", [pa, pb], ["--q", str(q), "--samples", "1", "--seed", str(rng.randrange(1000))])


_BUILDERS = {"commutant_q": _commutant_q, "structure_q": _structure_q, "cyclotomic": _cyclotomic}
WORKLOADS = tuple(_BUILDERS)


def build_plan(workload: str, seed: int) -> Plan:
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(_BUILDERS)}")
    b = _Builder(workload, seed)
    _BUILDERS[workload](b)
    return Plan(workload, seed, b.inputs, b.ops)
