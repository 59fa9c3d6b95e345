"""Command-line front-end: JSON in, JSON out, exact arithmetic inside.

One reader, `_read`, takes the JSON wire format straight to lifted
integer rows, and every matrix command runs on those, with no field
element built for its input.  A commutant command builds the checked
Frobenius split of those rows once, `commutant._split`, and reads every
answer off it: `analyze` its structure report (`canonical._report`),
both dimensions and its omega basis, and it echoes the input from the
rows `_read` gave.  A printed dimension with no basis beside it is read
off that split (`commutant._dimension`, and deg m_A for the double
centralizer), so no span is built only to be counted.  Every printed
matrix is spelled from lifted integer rows by one speller,
`_spelled_rows`: a basis from the reduced integer rows the relation
check read (`_rows_json`), with no field element built, the echoed
input from `_read`'s rows and any other matrix from its lift
(`_lifted_json`).  A polynomial's coefficients are Fractions already,
which `str` spells as `_spelled` does (`_poly_json`).  One writer,
`_emit`, prints every command's JSON as json.dumps(obj, indent=2)
would.  `analyze` checks its --q and --k right after the read, before
the split.

Exit codes: 0 success, 1 negative mathematical verdict (not equivalent,
identity fails), 2 malformed input, 3 a failed internal check (a
computed result did not verify, so nothing was printed).  Errors go to
stderr as JSON.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from math import gcd, lcm

from .canonical import StructureReport, _report
from .commutant import OmegaSpec, _dimension, _mu_commutant_basis, _split
from .equivalence import Certificate, _certificate
from .errors import (
    AlgebraError,
    FieldError,
    InvalidSpec,
    ParseError,
    RaggedRows,
    VerificationError,
    _integer,
)
from .gen import (
    BlockDiag,
    Companion,
    ConjugateBy,
    DiagRational,
    GenSpec,
    NilpotentBlocks,
    generate,
)
from .matrices import Matrix, _cells, _entries, _from_cells, _lift, _Lifted, _square
from .polys import CongruenceClass, Poly
from .potter import _collapses, _lifts, _power_stacks, _quasi_commutes
from .scalars import QQ, CycloScalar, FieldTag, _divmod_monic, _scaled_zeta, cyclo_coeffs


# ---------------------------------------------------------------- parsing

def _parse_fraction(raw, where: str) -> Fraction:
    """A JSON integer, or a string exactly as Fraction(raw) reads it."""
    if isinstance(raw, bool):
        raise FieldError(f"{where}: booleans are not scalars")
    if isinstance(raw, int):
        return Fraction(raw)
    if isinstance(raw, float):
        raise FieldError(f"{where}: floats are not accepted, use \"p/q\" strings")
    if isinstance(raw, str):
        try:
            return Fraction(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise FieldError(f"{where}: bad rational {raw!r}") from exc
    raise FieldError(f"{where}: cannot read scalar from {type(raw).__name__}")


def _ratio(raw, i: int, j: int) -> tuple[int, int]:
    """The scalar at row i, column j as (num, den), den > 0: JSON integers
    and "p", "-p" and "p/q" in ASCII digits by int(), every other spelling
    and every error through `_parse_fraction`."""
    if type(raw) is int:
        return raw, 1
    if type(raw) is str and raw.isascii():
        num, slash, den = raw.partition("/")
        if num.removeprefix("-").isdigit() and (not slash or den.isdigit() and den.strip("0")):
            try:
                return int(num), int(den) if slash else 1
            except ValueError:  # past the int-string limit
                pass
    x = _parse_fraction(raw, f"row {i}, column {j}")
    return x.numerator, x.denominator


def _cell(raw, q: int | None, memo: dict, i: int, j: int) -> tuple[list[int], int]:
    """The Q(zeta_q) entry at row i, column j as its coefficient integers,
    ascending in zeta, over a denominator: a plain scalar is one
    coefficient, an array is taken over the lcm of its denominators and
    folded mod Phi_q in integers, read once per spelling."""
    if type(raw) is not list:
        num, den = _ratio(raw, i, j)
        return [num], den
    if q is None:
        raise FieldError(f"row {i}, column {j}: coefficient arrays need a cyclotomic field")
    key = repr(raw)  # tells true from 1 and "1" from 1
    if key not in memo:
        parts = [_ratio(c, i, j) for c in raw]
        den = lcm(*[d for _, d in parts])
        memo[key] = _divmod_monic([n * (den // d) for n, d in parts], cyclo_coeffs(q))[1], den
    return memo[key]


def _parse_field(raw) -> FieldTag:
    if raw == "Q":
        return QQ
    if isinstance(raw, dict) and set(raw) == {"cyclotomic"}:
        q = raw["cyclotomic"]
        _integer(q, 1, None, FieldError, f"cyclotomic order must be a positive integer, got {q!r}")
        return FieldTag.cyclotomic(q)
    raise FieldError(f"unrecognized field designation {raw!r}")


def _loads(text: bytes | str, what: str):
    """json.loads(text), every failure a ParseError "bad <what>: ...",
    with the position when the text is not JSON."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad {what}: {exc.msg}", line=exc.lineno, column=exc.colno) from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, an integer past the int-string limit, or too deep
        raise ParseError(f"bad {what}: {exc}") from exc


def _read(text: bytes | str) -> _Lifted:
    """`parse_matrix`'s input as lifted integer rows, each over the lcm of
    its reduced denominators as `_lift` gives them, with no field element:
    the cells go to `matrices._from_cells` as integers."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not UTF-8: {exc}") from exc
    obj = _loads(text, "JSON")
    if not isinstance(obj, dict):
        raise ParseError("top level must be a JSON object")
    missing = {"field", "rows"} - set(obj)
    if missing:
        raise ParseError(f"missing keys: {sorted(missing)}")
    field = _parse_field(obj["field"])
    rows = obj["rows"]
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise ParseError("\"rows\" must be a non-empty list of lists")
    width = len(rows[0])
    if width == 0:
        raise ParseError("rows must be non-empty")
    for i, row in enumerate(rows):
        if len(row) != width:
            raise RaggedRows(f"row {i} has length {len(row)}, expected {width}")
    q, memo = field.q, {}
    # over Q a plain scalar is read straight, and an array raises in _cell
    cells = ([_ratio(raw, i, j) if q is None and type(raw) is not list else _cell(raw, q, memo, i, j) for j, raw in enumerate(row)] for i, row in enumerate(rows))
    return _from_cells(field, width, cells)


def parse_matrix(text: bytes | str) -> Matrix:
    """Read a matrix from the JSON wire format
    {"field": "Q" | {"cyclotomic": q}, "rows": [[scalar, ...], ...]}
    where a scalar is an integer, a string Fraction reads ("p/q", "1.5",
    "1e3", " 3 "), exactly, or (cyclotomic only) a coefficient array in
    powers of zeta_q; floats and booleans are rejected."""
    L = _read(text)
    return Matrix(L.field, L.rows, L.cols, _entries(L))


def _parse_genspec(obj, where: str = "spec") -> GenSpec:
    if not isinstance(obj, dict):
        raise InvalidSpec(f"{where}: expected an object")
    if "profile" not in obj:
        raise InvalidSpec(f"{where}: missing \"profile\"")
    seed = obj.get("seed", 0)
    size = obj.get("size")
    _integer(seed, None, None, InvalidSpec, f"{where}: seed must be an integer")
    if size is not None:
        _integer(size, None, None, InvalidSpec, f"{where}: size must be an integer")
    return GenSpec(profile=_parse_profile(obj["profile"], where), seed=seed, size=size)


def _parse_profile(obj, where: str):
    if not isinstance(obj, dict) or len(obj) != 1:
        raise InvalidSpec(f"{where}: profile must be an object with exactly one key")
    (kind, payload), = obj.items()
    if kind == "nilpotent_blocks":
        if not isinstance(payload, list):
            raise InvalidSpec(f"{where}: nilpotent_blocks takes a list of sizes")
        return NilpotentBlocks(payload)
    if kind == "companion":
        if not isinstance(payload, list):
            raise InvalidSpec(f"{where}: companion takes ascending coefficients")
        coeffs = [_parse_fraction(c, where) for c in payload]
        return Companion(Poly.make(coeffs, QQ))
    if kind == "diag_rational":
        if not isinstance(payload, list):
            raise InvalidSpec(f"{where}: diag_rational takes a list of scalars")
        return DiagRational([_parse_fraction(c, where) for c in payload])
    if kind == "block_diag":
        if not isinstance(payload, list):
            raise InvalidSpec(f"{where}: block_diag takes a list of specs")
        parts = [_parse_genspec(p, f"{where}.block_diag[{i}]") for i, p in enumerate(payload)]
        return BlockDiag(parts)
    if kind == "conjugate_by":
        if not isinstance(payload, dict) or "inner" not in payload:
            raise InvalidSpec(f"{where}: conjugate_by needs an \"inner\" spec")
        height = payload.get("height", 3)
        _integer(height, None, None, InvalidSpec, f"{where}: height must be an integer")
        inner = _parse_genspec(payload["inner"], f"{where}.conjugate_by.inner")
        return ConjugateBy(inner=inner, height=height)
    raise InvalidSpec(f"{where}: unknown profile kind {kind!r}")


# ---------------------------------------------------------- serialization

def _field_json(field: FieldTag):
    if field.is_cyclotomic:
        return {"cyclotomic": field.q}
    return "Q"


def _lifted_json(L: _Lifted) -> dict:
    return {"field": _field_json(L.field), "rows": _spelled_rows(L)}


def matrix_json(M: Matrix) -> dict:
    return _lifted_json(_lift(M))


def _poly_json(f: Poly) -> list:
    return [[str(c) for c in x.coeffs] if isinstance(x, CycloScalar) else str(x) for x in f.coeffs]


def _class_json(cls: CongruenceClass):
    if cls.q is None:
        return "general"
    if cls.q == 2:
        return "odd"
    return {"q": cls.q}


def certificate_json(cert: Certificate) -> dict:
    return {"f": _poly_json(cert.f), "g": _poly_json(cert.g), "class": _class_json(cert.cls)}


def _structure_json(rep: StructureReport) -> dict:
    return {
        "n": rep.n,
        "field": _field_json(rep.field),
        "char_poly": _poly_json(rep.char_poly),
        "min_poly": _poly_json(rep.min_poly),
        "invariant_factors": [_poly_json(f) for f in rep.invariant_factors],
        "is_balanced": rep.is_balanced,
        "is_nilpotent": rep.is_nilpotent,
        "min_equals_char": rep.min_equals_char,
    }


def _spelled(x: int, d: int) -> str:
    """str(Fraction(x, d)) for d != 0, with no Fraction built: x/d in
    lowest terms, the sign on the numerator, "/1" left off."""
    g = gcd(x, d) if d > 0 else -gcd(x, d)
    return str(x // g) if g == d else f"{x // g}/{d // g}"


def _spelled_rows(L: _Lifted) -> list[list]:
    """L's rows as JSON cells, spelled from the integers over each row's
    denominator with no field element built: over Q a string per entry,
    over Q(zeta_q) a list of its phi coefficient strings."""
    rational = L.field.q is None
    out = []
    for d, entries in _cells(L):
        # zeros, about a third of the cells, skip the call
        if rational:
            out.append([_spelled(x, d) if x else "0" for x in entries])
        else:
            out.append([[_spelled(x, d) if x else "0" for x in c] for c in entries])
    return out


def _rows_json(R: _Lifted, n: int) -> list:
    """`matrix_json` of each n x n matrix whose vec is a row of R: the
    basis as `_mu_commutant_basis` proved it, with no field element
    built."""
    field = _field_json(R.field)
    return [{"field": field, "rows": [cells[i : i + n] for i in range(0, n * n, n)]} for cells in _spelled_rows(R)]


def _json(obj, pad: str) -> str:
    """json.dumps(obj, indent=2) for a JSON value whose dict keys are
    strings, nested at the newline and indent ``pad``: containers are
    laid out here, strings and other scalars spelled as json spells
    them."""
    if type(obj) is str:
        return encode_basestring_ascii(obj)
    inner = pad + "  "
    if isinstance(obj, (list, tuple)):
        items = [encode_basestring_ascii(x) if type(x) is str else _json(x, inner) for x in obj]
        return "[" + inner + ("," + inner).join(items) + pad + "]" if items else "[]"
    if isinstance(obj, dict):
        items = [encode_basestring_ascii(k) + ": " + _json(v, inner) for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}" if items else "{}"
    return json.dumps(obj)


def _emit(obj) -> None:
    """print(json.dumps(obj, indent=2)), byte for byte, without the
    pure-Python encoder json.dumps falls back to whenever indent is set."""
    print(_json(obj, "\n"))


# ------------------------------------------------------------- commands

def _read_file(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _cmd_analyze(args) -> int:
    L = _read(_read_file(args.file))
    w = None if args.q is None else OmegaSpec(args.q, args.k)  # a bad --k fails before the split
    _square(L, "structure report needs a square matrix")
    # one Frobenius split, P^-1 included, serves the report and every
    # commutant
    split = _split(L)
    rep = _report(L.field, L.rows, split.factors)
    one = L.field.one()
    out = {
        "input": _lifted_json(L),
        "structure": _structure_json(rep),
        "dims": {
            "centralizer": _dimension(split, one),
            "clifforder": _dimension(split, -one),
            # C(C(A)) = F[A], of dimension deg m_A
            "double_centralizer": rep.min_poly.degree,
        },
        "flags": {
            "balanced": rep.is_balanced,
            "nilpotent": rep.is_nilpotent,
            "min_eq_char": rep.min_equals_char,
            "clifforder_has_invertible": rep.is_balanced,
        },
    }
    if w is not None:
        R, _ = _mu_commutant_basis(split, w.omega())
        out["omega"] = {"q": w.q, "k": w.k, "dim": R.rows, "basis": _rows_json(R, L.rows)}
    _emit(out)
    return 0


def _cmd_commutant(args) -> int:
    """centralizer, clifforder and omega: the solutions of AX = mu*XA."""
    A = _read(_read_file(args.file))
    if args.command == "omega":
        w = OmegaSpec(args.q, args.k)
        mu, out = w.omega(), {"q": w.q, "k": w.k}
    else:
        mu, out = A.field.one() if args.command == "centralizer" else -A.field.one(), {}
    split = _split(A)
    if args.basis:
        R, _ = _mu_commutant_basis(split, mu)
        out["dimension"], out["basis"] = R.rows, _rows_json(R, A.rows)
    else:
        out["dimension"] = _dimension(split, mu)
    _emit(out)
    return 0


def _cmd_equiv(args) -> int:
    A = _read(_read_file(args.file_a))
    B = _read(_read_file(args.file_b))
    try:
        cls = CongruenceClass.parse(args.cls)
    except ValueError as exc:
        raise FieldError(f"bad class {args.cls!r}: {exc}") from None
    cert = _certificate(A, B, cls)
    if cert is None:
        _emit({"equivalent": False})
        return 1
    _emit(certificate_json(cert))
    return 0


def _potter_samples(q: int, n_samples: int, seed: int):
    """(s, t, s^q, t^q) per sample, s = r * zeta^k for a rational r = +-a/b
    and k drawn below q, built straight from the draws and the residue of
    zeta^k; s^q = r^q, since zeta^(kq) = 1."""
    rng = random.Random(seed)
    for _ in range(n_samples):
        r = [Fraction(rng.randint(1, 9), rng.randint(1, 4)) * rng.choice([-1, 1]) for _ in range(2)]
        s, t = [_scaled_zeta(q, x, rng.randrange(q)) for x in r]
        yield s, t, _scaled_zeta(q, r[0] ** q, 0), _scaled_zeta(q, r[1] ** q, 0)


def _cmd_potter(args) -> int:
    if args.samples < 0:
        raise InvalidSpec(f"--samples must be non-negative, got {args.samples}")
    A = _read(_read_file(args.file_a))
    B = _read(_read_file(args.file_b))
    w = OmegaSpec(args.q, args.k)
    A, B = _lifts(A, B, w)
    if not _quasi_commutes(A, B, w):
        _emit({"quasi_commuting": False, "q": w.q, "k": w.k})
        return 1
    stacks = _power_stacks(A, B, w.q)
    checked = 0
    for sample in _potter_samples(w.q, args.samples, args.seed):
        if not _collapses(stacks, *sample, w):
            _emit({"quasi_commuting": True, "holds": False, "q": w.q, "samples_run": checked})
            return 1
        checked += 1
    _emit({"quasi_commuting": True, "holds": True, "q": w.q, "samples_run": checked})
    return 0


def _cmd_gen(args) -> int:
    raw = args.spec
    try:
        obj = _loads(raw, "spec JSON")
    except ParseError as exc:
        if not isinstance(exc.__cause__, json.JSONDecodeError):
            raise
        try:  # not JSON text: a path
            with open(raw, "rb") as fh:
                text = fh.read()
        except OSError as err:
            raise InvalidSpec(f"--spec is neither JSON nor a readable file: {err}") from err
        obj = _loads(text, f"spec JSON in {raw}")
    spec = _parse_genspec(obj)
    if args.seed is not None:
        spec = GenSpec(profile=spec.profile, seed=args.seed, size=spec.size)
    _emit(matrix_json(generate(spec)))
    return 0


# ----------------------------------------------------------------- main

@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args keeps no
    state between calls."""
    p = argparse.ArgumentParser(
        prog="commutants",
        description="Exact commutant-type subspaces, equivalence certificates and "
        "quasi-commutation checks for matrices over Q and Q(zeta_q).",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("analyze", help="full structural report for one matrix")
    sp.add_argument("file")
    sp.add_argument("--q", type=int, default=None, help="add an omega-centralizer section")
    sp.add_argument("--k", type=int, default=1)
    sp.set_defaults(run=_cmd_analyze)

    for name in ("centralizer", "clifforder"):
        sp = sub.add_parser(name, help=f"dimension (and basis) of the {name}")
        sp.add_argument("file")
        sp.add_argument("--basis", action="store_true")
        sp.set_defaults(run=_cmd_commutant)

    sp = sub.add_parser("omega", help="omega-centralizer over Q(zeta_q)")
    sp.add_argument("file")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--basis", action="store_true")
    sp.set_defaults(run=_cmd_commutant)

    sp = sub.add_parser("equiv", help="two-sided polynomial equivalence certificate")
    sp.add_argument("file_a")
    sp.add_argument("file_b")
    sp.add_argument("--class", dest="cls", default="general", help="general, odd or q:N")
    sp.set_defaults(run=_cmd_equiv)

    sp = sub.add_parser("potter", help="verify the q-th power collapse on sampled (s, t)")
    sp.add_argument("file_a")
    sp.add_argument("file_b")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--samples", type=int, default=20)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(run=_cmd_potter)

    sp = sub.add_parser("gen", help="materialize a generator spec to a matrix")
    sp.add_argument("--spec", required=True, help="inline JSON or a path to a JSON file")
    sp.add_argument("--seed", type=int, default=None)
    sp.set_defaults(run=_cmd_gen)

    return p


def _error_json(exc: Exception) -> dict:
    out = {"error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, ParseError):
        if exc.line is not None:
            out["line"] = exc.line
        if exc.column is not None:
            out["column"] = exc.column
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except AlgebraError as exc:
        print(json.dumps(_error_json(exc)), file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(json.dumps(_error_json(exc)), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
