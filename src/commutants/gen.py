"""Seeded test-case generators.

Profiles describe a matrix shape declaratively; `generate` turns a spec
into an exact matrix, deterministically for a given seed.  One dispatch
over the profile kinds, `_materialize`, checks a profile's fields and
then builds it, so a nested spec is checked once, as it is built, and a
declared size is compared with the built matrix.  P^-1 * M * P
is the lifted solve of P*X = M*P, for the first nonsingular seeded
integer P, embedded in M's field.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .canonical import companion
from .errors import InvalidSpec, _integer
from .matrices import Matrix, _embed, _entries, _lift, _mul_lifted, _scaled, _solve_square
from .polys import CongruenceClass, Poly
from .scalars import QQ

_MAX_CONJUGATE_TRIES = 64


@dataclass(frozen=True)
class NilpotentBlocks:
    """Direct sum of nilpotent Jordan blocks with the given sizes."""

    sizes: tuple[int, ...]

    def __init__(self, sizes):
        object.__setattr__(self, "sizes", tuple(sizes))

    def size(self) -> int:
        return sum(self.sizes)


@dataclass(frozen=True)
class Companion:
    """Companion matrix of a monic polynomial."""

    poly: Poly

    def size(self) -> int:
        return self.poly.degree


@dataclass(frozen=True)
class DiagRational:
    """Diagonal matrix with the given rational entries."""

    values: tuple[Fraction, ...]

    def __init__(self, values):
        object.__setattr__(self, "values", tuple(Fraction(v) for v in values))

    def size(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class BlockDiag:
    """Direct sum of independently generated parts."""

    parts: tuple["GenSpec", ...]

    def __init__(self, parts):
        object.__setattr__(self, "parts", tuple(parts))

    def size(self) -> int:
        return sum(p.profile.size() for p in self.parts)


@dataclass(frozen=True)
class ConjugateBy:
    """Generate the inner spec, then conjugate by a random integer
    matrix with entries in [-height, height]."""

    inner: "GenSpec"
    height: int = 3

    def size(self) -> int:
        return self.inner.profile.size()


Profile = NilpotentBlocks | Companion | DiagRational | BlockDiag | ConjugateBy


@dataclass(frozen=True)
class GenSpec:
    profile: Profile
    seed: int = 0
    size: int | None = None


def generate(spec: GenSpec) -> Matrix:
    """Materialize a spec.  Raises InvalidSpec on malformed profiles or
    a declared size that disagrees with the built matrix."""
    M = _materialize(spec.profile, spec.seed)
    if spec.size is not None and spec.size != M.rows:
        raise InvalidSpec(f"declared size {spec.size} != profile size {M.rows}")
    return M


def _materialize(profile: Profile, seed: int) -> Matrix:
    """The matrix of a profile, its fields checked first; nested specs
    are checked as `generate` builds them."""
    if isinstance(profile, NilpotentBlocks):
        if not profile.sizes:
            raise InvalidSpec("NilpotentBlocks needs at least one block")
        for s in profile.sizes:
            _integer(s, 1, None, InvalidSpec, f"block sizes must be positive integers: {profile.sizes}")
        return Matrix.block_diag([Matrix.jordan(s, 0, QQ) for s in profile.sizes])
    if isinstance(profile, Companion):
        f = profile.poly
        if f.is_zero or f.degree == 0:
            raise InvalidSpec("Companion needs a polynomial of positive degree")
        if not f.is_monic:
            raise InvalidSpec("Companion needs a monic polynomial")
        return companion(f)
    if isinstance(profile, DiagRational):
        if not profile.values:
            raise InvalidSpec("DiagRational needs at least one entry")
        return Matrix.diag(list(profile.values), QQ)
    if isinstance(profile, BlockDiag):
        if not profile.parts:
            raise InvalidSpec("BlockDiag needs at least one part")
        if not all(isinstance(p, GenSpec) for p in profile.parts):
            raise InvalidSpec("BlockDiag parts must be GenSpec values")
        return Matrix.block_diag([generate(p) for p in profile.parts])
    if not isinstance(profile, ConjugateBy):
        raise InvalidSpec(f"unknown profile {type(profile).__name__}")
    if not isinstance(profile.inner, GenSpec):
        raise InvalidSpec("ConjugateBy inner must be a GenSpec")
    _integer(profile.height, 1, None, InvalidSpec, f"conjugator height must be >= 1, got {profile.height}")
    inner = generate(profile.inner)
    n = inner.rows
    rng = random.Random(seed)
    H = profile.height
    Ml = _lift(inner)
    for _ in range(_MAX_CONJUGATE_TRIES):
        P = _embed(_scaled(QQ, n, [[rng.randint(-H, H) for _ in range(n)] for _ in range(n)]), inner.field)
        X = _solve_square(P, _mul_lifted(Ml, P))
        if X is not None:
            return Matrix(inner.field, n, n, _entries(X))
    raise InvalidSpec(
        f"no invertible conjugator found in {_MAX_CONJUGATE_TRIES} draws "
        f"(n={n}, height={H})"
    )


def random_odd_poly(seed: int, n: int, cls: CongruenceClass | None = None) -> Poly:
    """Random polynomial with exponents allowed by `cls` (odd class by
    default) and degree < max(n, 2), guaranteed to use x^1 with a
    nonzero coefficient so the result is never constant."""
    if cls is None:
        cls = CongruenceClass.odd()
    _integer(n, 1, None, InvalidSpec, "matrix size must be positive")
    rng = random.Random(seed)
    bound = max(n, 2)
    if cls.q is None:
        candidates = [e for e in range(bound)]
    else:
        candidates = [e for e in range(1, bound) if cls.allows(e)]
    dense = [Fraction(0)] * bound
    for e in candidates:
        if e == 1:
            dense[1] = Fraction(rng.choice([1, 2, 3]) * rng.choice([-1, 1]))
        else:
            dense[e] = Fraction(rng.randint(-3, 3))
    return Poly.make(dense, QQ)
