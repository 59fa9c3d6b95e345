#!/usr/bin/env python3
"""Benchmark of the commutants library on seeded exact-arithmetic workloads.

    python3 bench/run.py --workload commutant_q --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
./src.  One process, one client, closed loop: each op (a CLI subcommand
through `commutants.cli.main(argv)` with stdout captured, or a library
call) starts when the previous one has returned.  The workload's fixed
batch of ops is run a fixed number of times (passes), set by --seconds and
the workload alone, so every version of the program gets the same number
of samples.

The host this was built on is shared, and its speed swings by up to 1.8x
within seconds and drifts by a quarter over minutes.  So every time the
benchmark reports is taken at the reference host speed: a fixed loop of
stdlib Fraction arithmetic (the work the library spends its time on) is
timed right before and right after each op and each set-up, and the
measured time is scaled by the loop's reference time over the quicker of
those two loop times.  Raw times are printed next to the scaled ones.

--trace 0 prints the end-to-end metrics; --trace 1 makes the same
untraced passes, then one traced set-up and one traced pass with every
layer function wrapped from outside (see spans.py), and prints the
per-layer metrics.  Every answer is checked by oracle.py outside the
timed region; with the default seed the sha256 of every op's output must
also match digests.json.  The last line of stdout is one JSON object;
the exit code is 1 if any op failed and 2 if the benchmark cannot run at
all.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import exact  # noqa: E402
from metrics import COUNTED_PREDICTIONS, PREDICTED_TOP, SPAN_PREDICTIONS  # noqa: E402
from oracle import check, parse_rows  # noqa: E402
from plan import SUBCOMMAND_METRIC, WORKLOADS, build_plan  # noqa: E402
from spans import COUNTS, SPANS, Tracer  # noqa: E402

DEFAULT_SEED = 0
SETUP_REPEATS = 5
DIGESTS = HERE / "digests.json"
SPEC = ROOT / "BENCHMARK.json"
LIBRARY_OPS = ("adpower", "structure", "balanced")
SUBCOMMAND_TIMES = tuple(dict.fromkeys(SUBCOMMAND_METRIC.values()))
# the layers that have spans; scalars are counted, not timed
TIMED_LAYERS = tuple(dict.fromkeys(p.split(".")[0] for p in SPANS))
# passes per 20 s of --seconds, about what fits on a 2-vCPU Xeon VM at
# the seed code.  The pass count must never depend on how fast the
# program under test runs.  commutant_q gets one more pass because its
# time sits in a few long ops, each timed once per pass.
PASSES_PER_20_S = {"commutant_q": 3, "structure_q": 2, "cyclotomic": 2}
CALIBRATION_TERMS = 400
# the calibration loop's quickest time seen on a 2-vCPU Xeon VM
REFERENCE_CALIBRATION_S = 0.0015


# ------------------------------------------------------- host calibration


def calibration_loop():
    """Fixed exact rational arithmetic in the benchmark's own code, timed
    next to each measurement to gauge the host's speed at that moment."""
    s = Fraction(0)
    for i in range(1, CALIBRATION_TERMS):
        s += Fraction(1, i) * 3
    return s


def _loop_seconds():
    start = perf_counter()
    calibration_loop()
    return perf_counter() - start


def calibrated(fn):
    """Call fn() between two calibration loops; returns its result, its
    seconds and the quicker loop's seconds."""
    before = _loop_seconds()
    start = perf_counter()
    result = fn()
    seconds = perf_counter() - start
    return result, seconds, min(before, _loop_seconds())


def at_reference_speed(seconds, loop_seconds):
    return seconds * REFERENCE_CALIBRATION_S / loop_seconds


# ------------------------------------------------------------------ set-up


def _genspec(api, obj):
    (kind, payload), = obj["profile"].items()
    if kind == "nilpotent_blocks":
        profile = api.NilpotentBlocks(payload)
    elif kind == "companion":
        profile = api.Companion(api.Poly.make([Fraction(c) for c in payload], api.QQ))
    elif kind == "block_diag":
        profile = api.BlockDiag([_genspec(api, p) for p in payload])
    elif kind == "conjugate_by":
        profile = api.ConjugateBy(inner=_genspec(api, payload["inner"]), height=payload["height"])
    else:
        raise ValueError(f"unknown profile {kind!r}")
    return api.GenSpec(profile=profile, seed=obj.get("seed", 0))


def _scalar_json(x):
    return [str(c) for c in x.coeffs] if hasattr(x, "coeffs") else str(x)


def _wire(rows, q=None):
    field = "Q" if q is None else {"cyclotomic": q}
    return {"field": field, "rows": [[_scalar_json(x) for x in row] for row in rows]}


def _matrix_rows(M):
    return [list(M.entries[i * M.cols:(i + 1) * M.cols]) for i in range(M.rows)]


def _write_input(api, inp, workdir, derived):
    if inp.kind == "poly_of":
        matrix, rows, q = None, derived[inp.name], None
    elif inp.kind == "gen":
        matrix, q = api.generate(_genspec(api, inp.spec)), None
        rows = _matrix_rows(matrix)
    else:
        pair = api.weyl_pair(inp.q, inp.n)
        matrix = pair.A if inp.part == 0 else pair.B
        rows, q = _matrix_rows(matrix), inp.q
    text = json.dumps(_wire(rows, q))
    path = workdir / f"{inp.name}.json"
    path.write_text(text, encoding="utf-8")
    return {"path": str(path), "matrix": matrix, "rows": rows, "text": text, "q": q}


def materialize(api, plan, workdir, derived):
    """Build every input of the plan and write it as a CLI input file.

    Returns the inputs and, for each, the (seconds, calibration loop
    seconds) of gen.generate or weyl_pair plus writing the file.  Derived
    inputs B = p(A) are the benchmark's own work, computed once into
    `derived` and not timed."""
    env, times = {}, []
    for name, inp in plan.inputs.items():
        if inp.kind == "poly_of" and name not in derived:
            base = [[Fraction(x) for x in row] for row in env[inp.base]["rows"]]
            derived[name] = exact.horner([Fraction(c) for c in inp.poly], base)
        env[name], seconds, loop = calibrated(lambda: _write_input(api, inp, workdir, derived))
        times.append((seconds, loop))
    return env, times


def _import_package():
    importlib.import_module("commutants.cli")
    return importlib.import_module("commutants")


def setup(plan, workdir, derived):
    """Import the package afresh, materialise the inputs through
    gen.generate and write the input files; this is what setup_s times.
    Returns the package, the inputs and each step's (seconds, calibration
    loop seconds)."""
    for mod in [m for m in sys.modules if m == "commutants" or m.startswith("commutants.")]:
        del sys.modules[mod]
    api, seconds, loop = calibrated(_import_package)
    env, times = materialize(api, plan, workdir, derived)
    return api, env, [(seconds, loop), *times]


def oracle_inputs(plan, env):
    return {
        name: {"rows": parse_rows(json.loads(env[name]["text"]), env[name]["q"]),
               "blocks": [[Fraction(c) for c in f] for f in inp.blocks]}
        for name, inp in plan.inputs.items()
    }


# --------------------------------------------------------------------- ops


def _basis_json(S):
    return {"dimension": S.dim, "basis": [_wire(_matrix_rows(X)) for X in S.basis]}


def _poly_json(f):
    return [str(c) for c in f.coeffs]


def render(op, raw) -> str:
    """Output text of one op: stdout for CLI ops, JSON of the result for
    library ops."""
    if op.kind not in LIBRARY_OPS:
        return raw
    if op.kind == "adpower":
        return json.dumps(_basis_json(raw))
    if op.kind == "balanced":
        return json.dumps(raw)
    return json.dumps({
        "char_poly": _poly_json(raw.char_poly),
        "min_poly": _poly_json(raw.min_poly),
        "invariant_factors": [_poly_json(f) for f in raw.invariant_factors],
        "is_balanced": raw.is_balanced,
        "is_nilpotent": raw.is_nilpotent,
        "min_equals_char": raw.min_equals_char,
    })


def make_call(api, op, env):
    """A no-argument callable returning (exit code, raw output)."""
    if op.kind in LIBRARY_OPS:
        M = env[op.inputs[0]]["matrix"]
        if op.kind == "adpower":
            k = int(op.args[0])
            return lambda: (0, api.ad_power_kernel(M, k))
        if op.kind == "structure":
            return lambda: (0, api.StructureReport.of(M))
        return lambda: (0, api.is_balanced_matrix(M))
    argv = [op.kind, *(env[name]["path"] for name in op.inputs), *op.args]

    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = api.cli.main(argv)
        return rc, out.getvalue()

    return call


def _guarded(call):
    try:
        return (*call(), None)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return None, None, f"{type(exc).__name__}: {exc}"


def run_pass(calls, tracer=None):
    """Run the batch once; returns (wall seconds, [(op, raw seconds,
    seconds at reference speed, rc, raw, error)])."""
    gc.collect()
    rows = []
    start = perf_counter()
    for op, call in calls:
        if tracer is not None:
            tracer.op_id = op.id
        (rc, raw, error), seconds, loop = calibrated(lambda: _guarded(call))
        rows.append((op, seconds, at_reference_speed(seconds, loop), rc, raw, error))
    return perf_counter() - start, rows


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Verifier:
    """Checks each pass outside the timed region: the oracle on the
    first answer to each op, byte-identity with it afterwards, and the
    recorded digests for the default seed."""

    def __init__(self, inputs, digests):
        self.inputs = inputs
        self.digests = digests
        self.first: dict[str, str] = {}
        self.failures: list[tuple[str, str]] = []
        self.attempted = 0

    def verify(self, rows):
        for op, _, _, rc, raw, error in rows:
            self.attempted += 1
            if error is not None:
                self.failures.append((op.id, error))
                continue
            text = render(op, raw)
            key = _sha(f"{rc}\n{text}")
            if op.id in self.first:
                problems = [] if self.first[op.id] == key else ["output differs from the first pass"]
            else:
                self.first[op.id] = key
                problems = check(op, rc, text, self.inputs)
                if self.digests is not None and self.digests.get(op.id) != _sha(text):
                    problems.append("output digest differs from the one recorded for the default seed")
            self.failures.extend((op.id, p) for p in problems)


# ----------------------------------------------------------------- reports


def _quantile90(values):
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def _commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            path = ROOT / ".git" / name
            if path.is_file():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
        return ref
    except OSError:
        return "n/a (not a git checkout)"


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def header(args, spec):
    digest = hashlib.sha256()
    for path in sorted((SRC / "commutants").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "optimize_flag": sys.flags.optimize,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "commit": _commit(),
        "source_sha256": digest.hexdigest(),
        "workload": args.workload,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == args.workload),
        "seed": args.seed,
        "seconds": args.seconds,
        "passes": pass_count(args.workload, args.seconds),
        "trace": args.trace,
        "client": "one process, one client, closed loop",
    }


def _print_table(title, rows):
    print(title)
    for row in rows:
        print("  " + row)


# -------------------------------------------------------------------- main


def pass_count(workload, seconds):
    return max(1, round(PASSES_PER_20_S[workload] * seconds / 20))


def measure(plan, api, env, verifier, passes):
    """Run the batch `passes` times.

    Returns the calls; each pass's raw wall time and its summed op times
    at reference speed; and each op's best raw time and best time at
    reference speed over the passes.  Best times are what the metrics
    use: interference only ever slows an op down."""
    calls = [(op, make_call(api, op, env)) for op in plan.ops]
    walls, totals = [], []
    best_raw, best = [float("inf")] * len(calls), [float("inf")] * len(calls)
    for _ in range(passes):
        wall, rows = run_pass(calls)
        walls.append(wall)
        totals.append(sum(row[2] for row in rows))
        best_raw = [min(b, row[1]) for b, row in zip(best_raw, rows)]
        best = [min(b, row[2]) for b, row in zip(best, rows)]
        verifier.verify(rows)
    return calls, walls, totals, best_raw, best


def traced_run(plan, api, workdir, derived, verifier, calls, untraced):
    """One traced set-up and pass; `untraced` is the median untraced
    pass, summed at reference speed, that the overhead is taken against."""
    tracer = Tracer()
    tracer.install()
    try:
        tracer.op_id = "setup"
        materialize(api, plan, workdir, derived)
        wall, rows = run_pass(calls, tracer)
    finally:
        tracer.uninstall()
    verifier.verify(rows)
    traced = sum(row[2] for row in rows)
    calls_by, self_by = tracer.summary()
    total_self = sum(self_by.values()) or 1.0
    c = tracer.counts
    out = {}
    for prefix in SPANS:
        out[f"{prefix}.calls"] = calls_by[prefix]
        out[f"{prefix}.self_share"] = 100.0 * self_by[prefix] / total_self
    out["matrices.rref.cells"] = c["rref.cells"]
    out["matrices.rref.rank_per_row"] = c["rref.rank"] / c["rref.rows"] if c["rref.rows"] else 0.0
    out["commutant.double_centralizer_basis.rank_per_row"] = c["dc.rank"] / c["dc.rows"] if c["dc.rows"] else 0.0
    out["matrices.matmul.mults"] = c["matmul.mults"]
    out["polys.divmod.max_coeff_bits"] = c["divmod.max_bits"]
    for name in COUNTS:
        out[f"{name}.calls"] = c[name]
    for layer in TIMED_LAYERS:
        layer_self = sum(v for k, v in self_by.items() if k.split(".")[0] == layer)
        out[f"layer.{layer}.self_share"] = 100.0 * layer_self / total_self
    out["trace.overhead_ratio"] = traced / untraced
    spans_dir = ROOT / ".bench_out"
    spans_dir.mkdir(exist_ok=True)
    spans_file = spans_dir / f"spans-{plan.workload}-seed{plan.seed}.tsv"
    tracer.write(spans_file)

    _print_table(
        f"traced pass: {traced:.3f} s over {len(rows)} ops at reference speed ({wall:.3f} s raw), "
        f"untraced median {untraced:.3f} s, overhead x{traced / untraced:.2f}; "
        f"{len(tracer.spans)} spans -> {spans_file.relative_to(ROOT)}",
        [f"{p:<40} calls {calls_by[p]:>8}  self_s {self_by[p]:9.4f}  share {out[p + '.self_share']:5.1f}%"
         f"  | predicted to move: {SPAN_PREDICTIONS[p]}" for p in SPANS],
    )
    ranked = sorted(TIMED_LAYERS, key=lambda layer: -out[f"layer.{layer}.self_share"])
    _print_table(f"layer self-time shares; predicted top for {plan.workload}: {PREDICTED_TOP[plan.workload]}",
                 [f"{layer:<12} {out[f'layer.{layer}.self_share']:5.1f}%" for layer in ranked])
    _print_table("counted, not timed (their time sits in the calling span)",
                 [f"{name:<48} {out[name]:>12.6g}  | predicted to move: {prediction}"
                  for name, prediction in COUNTED_PREDICTIONS.items()])
    return out


def run(args, spec, plan, workdir):
    setup_raw, setup_times, derived = [], [], {}
    for _ in range(SETUP_REPEATS):
        api, env, steps = setup(plan, workdir, derived)
        setup_raw.append(sum(seconds for seconds, _ in steps))
        setup_times.append(sum(at_reference_speed(seconds, loop) for seconds, loop in steps))
    digests = json.loads(DIGESTS.read_text())[plan.workload] if args.seed == DEFAULT_SEED else None
    verifier = Verifier(oracle_inputs(plan, env), digests)
    passes = pass_count(plan.workload, args.seconds)
    calls, walls, totals, best_raw, best = measure(plan, api, env, verifier, passes)
    cmd_times = dict.fromkeys(SUBCOMMAND_TIMES, 0.0)
    for op, dt in zip(plan.ops, best):
        cmd_times[op.metric] += dt

    e2e = {
        "wall_s": sum(best),
        "op_p50_s": statistics.median(best),
        "op_p90_s": _quantile90(best),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        layer = traced_run(plan, api, workdir, derived, verifier, calls, statistics.median(totals))
        for name in SUBCOMMAND_TIMES:
            layer[f"cmd.{name[:-2]}.wall_share"] = 100.0 * cmd_times[name] / e2e["wall_s"]

    failed = len(verifier.failures)
    _print_table(
        f"{len(walls)} passes of {len(plan.ops)} ops (raw pass walls "
        f"{' '.join(f'{w:.3f}' for w in walls)} s); times below are at the reference host speed and "
        f"each op's best over the passes, percentiles over the {len(best)} ops; "
        f"setup_s is the median of {SETUP_REPEATS} set-ups",
        [f"{k:<14} {v:.6f} {'MiB' if k == 'peak_rss_mib' else 's'}" for k, v in e2e.items()]
        + [f"raw wall_s     {sum(best_raw):.6f} s (unscaled best times)",
           f"raw setup_s    {statistics.median(setup_raw):.6f} s (unscaled)"]
        + [f"fail_ratio     {failed / verifier.attempted:.6f} ({failed} of {verifier.attempted} ops)"]
        + [f"{k:<14} {v:.6f} s" for k, v in cmd_times.items() if v]
        + ["waiting time: none exists (one process, one client, no queues or locks)"],
    )
    for op_id, problem in verifier.failures[:20]:
        print(f"FAILED {op_id}: {problem}")
    metrics = layer if args.trace else e2e
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    return {
        "correct": failed == 0,
        "attempted": verifier.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if sys.flags.optimize:
        # -O strips the __debug__ probe in clifforder_has_invertible, so
        # the run would time a different program
        print("refusing to run under python -O", file=sys.stderr)
        return 2
    if not (SRC / "commutants" / "__init__.py").is_file():
        print(f"no package source at {SRC}/commutants; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads(SPEC.read_text())
    print(json.dumps({"header": header(args, spec)}))
    plan = build_plan(args.workload, args.seed)
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = run(args, spec, plan, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
