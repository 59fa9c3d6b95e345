"""Checks every op's answer with the benchmark's own exact arithmetic.

Expected values come from each input's cyclic decomposition (see
plan.py), never from the library: Frobenius' formula for commutant
dimensions, the Clebsch-Gordan block sizes for ad-power kernels, a
pairwise (gcd, lcm) Smith form for invariant factors, and Horner
evaluation for certificates.  `check` returns a list of problems; an
empty list means the answer is right.
"""

from __future__ import annotations

import json
from fractions import Fraction

import exact
from plan import Op

CLASS_JSON = {"general": "general", "odd": "odd", "q:3": {"q": 3}}
CLASS_Q = {"general": None, "odd": 2, "q:3": 3}


def parse_rows(obj, q=None):
    """Rows of a wire-format matrix: Fractions over Q, cy() lists over
    Q(zeta_q)."""
    if q is None:
        return [[Fraction(x) for x in row] for row in obj["rows"]]
    return [[exact.cy(x, q) for x in row] for row in obj["rows"]]


def _arg(op: Op, flag, default=None):
    args = list(op.args)
    return args[args.index(flag) + 1] if flag in args else default


def _poly(coeffs):
    return exact.p_trim(Fraction(c) for c in coeffs)


def _same_ambient_basis(basis, n, field, errs):
    for X in basis:
        if X.get("field") != field or len(X["rows"]) != n or any(len(r) != n for r in X["rows"]):
            errs.append("basis element has the wrong shape or field")
            return False
    return True


def _check_q_basis(out, A, mu, dim, errs):
    n = len(A)
    if out.get("dimension") != dim:
        errs.append(f"dimension {out.get('dimension')} != expected {dim}")
    if "basis" not in out:
        return
    basis = out["basis"]
    if len(basis) != out.get("dimension"):
        errs.append(f"{len(basis)} basis elements for dimension {out.get('dimension')}")
    if not _same_ambient_basis(basis, n, "Q", errs):
        return
    mats = [parse_rows(X) for X in basis]
    for X in mats:
        AX = exact.mat_mul(A, X)
        XA = exact.mat_mul(X, A)
        if not exact.is_zero([[a - mu * b for a, b in zip(r, s)] for r, s in zip(AX, XA)]):
            errs.append("basis element violates AX = mu XA")
            break
    if mats and exact.rank([[x for row in X for x in row] for X in mats]) != len(mats):
        errs.append("basis elements are linearly dependent")


def _expected_structure(blocks, n):
    inv = exact.invariant_factors(blocks)
    full = [[Fraction(1)]] * (n - len(inv)) + inv
    char = [Fraction(1)]
    for f in inv:
        char = exact.p_mul(char, f)
    balanced = all(exact.is_balanced(f) for f in inv)
    return {
        "char_poly": char,
        "min_poly": full[-1],
        "invariant_factors": full,
        "is_balanced": balanced,
        "is_nilpotent": char == [0] * n + [1],
        "min_equals_char": full[-1] == char,
    }


def _check_structure(got, blocks, n, errs):
    want = _expected_structure(blocks, n)
    for key in ("char_poly", "min_poly"):
        if _poly(got.get(key, [])) != want[key]:
            errs.append(f"{key} differs")
    if [_poly(f) for f in got.get("invariant_factors", [])] != want["invariant_factors"]:
        errs.append("invariant_factors differ")
    for key in ("is_balanced", "is_nilpotent", "min_equals_char"):
        if got.get(key) is not want[key]:
            errs.append(f"{key} is {got.get(key)}, expected {want[key]}")
    return want


def _same(f):
    return f


def _omega_blocks_ok(blocks, q):
    # f(w x) = w^deg f(x): the omega twist of every block is the block
    return all(c == 0 or (e - (len(f) - 1)) % q == 0 for f in blocks for e, c in enumerate(f))


def check(op: Op, rc, text, inputs) -> list[str]:
    """Problems with one answer.  `inputs` maps an input name to a dict
    with "rows" (rational rows, or coefficient arrays for Weyl pairs)
    and "blocks" (the cyclic decomposition; empty for derived inputs)."""
    errs: list[str] = []
    if rc != op.expect_rc:
        return [f"exit code {rc}, expected {op.expect_rc}"]
    try:
        out = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc.msg}"]
    first = inputs[op.inputs[0]]
    A, blocks = first["rows"], first["blocks"]
    n = len(A)
    if op.kind in ("centralizer", "clifforder"):
        mu, twist = (1, _same) if op.kind == "centralizer" else (-1, exact.p_flip)
        _check_q_basis(out, A, mu, exact.hom_dim(blocks, twist), errs)
    elif op.kind == "omega":
        q, k = int(_arg(op, "--q")), int(_arg(op, "--k", 1))
        if not _omega_blocks_ok(blocks, q):
            return ["plan error: input blocks are not omega-homogeneous"]
        _check_omega(out, A, q, k, exact.hom_dim(blocks, _same), errs)
    elif op.kind == "adpower":
        k = int(op.args[0])
        sizes = [len(f) - 1 for f in blocks]
        if out.get("dimension") != exact.ad_kernel_dim(sizes, k):
            errs.append(f"dimension {out.get('dimension')} != expected {exact.ad_kernel_dim(sizes, k)}")
        basis = [parse_rows(X) for X in out.get("basis", [])]
        if len(basis) != out.get("dimension"):
            errs.append(f"{len(basis)} basis elements for dimension {out.get('dimension')}")
        for X in basis:
            Y = X
            for _ in range(k):
                Y = exact.mat_sub(exact.mat_mul(A, Y), exact.mat_mul(Y, A))
            if not exact.is_zero(Y):
                errs.append("basis element is not killed by ad_A^k")
                break
        if basis and exact.rank([[x for row in X for x in row] for X in basis]) != len(basis):
            errs.append("basis elements are linearly dependent")
    elif op.kind == "structure":
        _check_structure(out, blocks, n, errs)
    elif op.kind == "balanced":
        want = all(exact.is_balanced(f) for f in exact.invariant_factors(blocks))
        if out is not want:
            errs.append(f"is_balanced_matrix gave {out}, expected {want}")
    elif op.kind == "analyze":
        _check_analyze(op, out, A, blocks, errs)
    elif op.kind == "equiv":
        _check_equiv(op, out, A, inputs[op.inputs[1]]["rows"], errs)
    elif op.kind == "potter":
        q, samples = int(_arg(op, "--q")), int(_arg(op, "--samples"))
        want = {"quasi_commuting": True, "holds": True, "q": q, "samples_run": samples}
        if out != want:
            errs.append(f"potter gave {out}, expected {want}")
    else:
        errs.append(f"no oracle for op kind {op.kind!r}")
    return errs


def _check_omega(out, A, q, k, dim, errs):
    n = len(A)
    if out.get("dimension") != dim:
        errs.append(f"dimension {out.get('dimension')} != expected {dim}")
    if out.get("q") != q or out.get("k") != k:
        errs.append("q or k echoed wrongly")
    if "basis" not in out:
        return
    basis = out["basis"]
    if len(basis) != out.get("dimension"):
        errs.append(f"{len(basis)} basis elements for dimension {out.get('dimension')}")
    if not _same_ambient_basis(basis, n, {"cyclotomic": q}, errs):
        return
    for X in basis:
        if not exact.omega_relation_holds(A, parse_rows(X, q), q, k):
            errs.append("basis element violates AX = omega XA")
            break


def _check_analyze(op, out, A, blocks, errs):
    n = len(A)
    if parse_rows(out.get("input", {"rows": []})) != A:
        errs.append("input echoed wrongly")
    want = _check_structure(out.get("structure", {}), blocks, n, errs)
    dims = {
        "centralizer": exact.hom_dim(blocks, _same),
        "clifforder": exact.hom_dim(blocks, exact.p_flip),
        "double_centralizer": len(want["min_poly"]) - 1,
    }
    if out.get("dims") != dims:
        errs.append(f"dims {out.get('dims')} != expected {dims}")
    flags = {
        "balanced": want["is_balanced"],
        "nilpotent": want["is_nilpotent"],
        "min_eq_char": want["min_equals_char"],
        "clifforder_has_invertible": want["is_balanced"],
    }
    if out.get("flags") != flags:
        errs.append(f"flags {out.get('flags')} != expected {flags}")
    q = _arg(op, "--q")
    if q is not None:
        q, k = int(q), int(_arg(op, "--k", 1))
        if not _omega_blocks_ok(blocks, q):
            errs.append("plan error: input blocks are not omega-homogeneous")
            return
        om = out.get("omega", {})
        _check_omega({"q": om.get("q"), "k": om.get("k"), "dimension": om.get("dim"), "basis": om.get("basis", [])},
                     A, q, k, exact.hom_dim(blocks, _same), errs)


def _check_equiv(op, out, A, B, errs):
    cls = _arg(op, "--class", "general")
    if op.expect_rc == 1:
        if out != {"equivalent": False}:
            errs.append(f"expected a refusal, got {out}")
        return
    if out.get("class") != CLASS_JSON[cls]:
        errs.append(f"class {out.get('class')} != {CLASS_JSON[cls]}")
    f = [Fraction(c) for c in out.get("f", [])]
    g = [Fraction(c) for c in out.get("g", [])]
    q = CLASS_Q[cls]
    if not (exact.in_class(f, q) and exact.in_class(g, q)):
        errs.append("certificate uses exponents outside the class")
    elif exact.horner(f, A) != B:
        errs.append("certificate f(A) != B")
    elif exact.horner(g, B) != A:
        errs.append("certificate g(B) != A")
