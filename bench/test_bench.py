"""Self-tests of the benchmark: the oracle rejects wrong answers, a seed
fixes the inputs and the op list, and every per-layer metric in
BENCHMARK.json carries a prediction.

    python3 bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402
from metrics import COUNTED_PREDICTIONS, SPAN_PREDICTIONS  # noqa: E402
from oracle import check  # noqa: E402
from plan import WORKLOADS, build_plan  # noqa: E402
from spans import SPANS  # noqa: E402

sys.path.insert(0, str(run.SRC))
SCRATCH = run.ROOT / ".bench_work" / "selftest"


def _answers(workload, seed, kinds):
    """Run the first op of each wanted kind; returns {kind: (op, rc, text)}
    and the oracle inputs."""
    plan = build_plan(workload, seed)
    workdir = SCRATCH / f"{workload}-{seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    api, env, _ = run.setup(plan, workdir, {})
    found = {}
    for op in plan.ops:
        kind = (op.kind, op.expect_rc, "--basis" in op.args)
        if kind in kinds and kind not in found:
            rc, raw = run.make_call(api, op, env)()
            found[kind] = (op, rc, run.render(op, raw))
    return found, run.oracle_inputs(plan, env)


class OracleCatchesWrongAnswers(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.q_answers, cls.q_inputs = _answers(
            "commutant_q", 3, {("centralizer", 0, True), ("adpower", 0, False)})
        cls.s_answers, cls.s_inputs = _answers(
            "structure_q", 3, {("equiv", 0, False), ("equiv", 1, False), ("structure", 0, False)})
        cls.c_answers, cls.c_inputs = _answers("cyclotomic", 3, {("omega", 0, True)})

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(SCRATCH, ignore_errors=True)

    @staticmethod
    def bump(x):
        return str(Fraction(x) + 1)

    def assertCaught(self, op, rc, obj, inputs):
        self.assertNotEqual(check(op, rc, json.dumps(obj), inputs), [])

    def test_true_answers_pass(self):
        for answers, inputs in ((self.q_answers, self.q_inputs), (self.s_answers, self.s_inputs),
                                (self.c_answers, self.c_inputs)):
            for op, rc, text in answers.values():
                self.assertEqual(check(op, rc, text, inputs), [], op.id)

    def test_perturbed_basis_entry(self):
        for key in (("centralizer", 0, True), ("adpower", 0, False)):
            op, rc, text = self.q_answers[key]
            out = json.loads(text)
            out["basis"][0]["rows"][0][0] = self.bump(out["basis"][0]["rows"][0][0])
            self.assertCaught(op, rc, out, self.q_inputs)

    def test_perturbed_cyclotomic_basis_entry(self):
        op, rc, text = self.c_answers[("omega", 0, True)]
        out = json.loads(text)
        cell = out["basis"][0]["rows"][0][0]
        cell[1] = self.bump(cell[1])
        self.assertCaught(op, rc, out, self.c_inputs)

    def test_dropped_basis_element(self):
        for answers, inputs, key in ((self.q_answers, self.q_inputs, ("centralizer", 0, True)),
                                     (self.q_answers, self.q_inputs, ("adpower", 0, False)),
                                     (self.c_answers, self.c_inputs, ("omega", 0, True))):
            op, rc, text = answers[key]
            out = json.loads(text)
            out["basis"].pop()
            self.assertCaught(op, rc, out, inputs)
            out["dimension"] -= 1
            self.assertCaught(op, rc, out, inputs)

    def test_changed_certificate_coefficient(self):
        op, rc, text = self.s_answers[("equiv", 0, False)]
        for poly in ("f", "g"):
            out = json.loads(text)
            out[poly][1] = self.bump(out[poly][1])
            self.assertCaught(op, rc, out, self.s_inputs)

    def test_wrong_exit_code_and_verdict(self):
        op, rc, text = self.s_answers[("equiv", 1, False)]
        self.assertEqual(rc, 1)
        self.assertNotEqual(check(op, 0, text, self.s_inputs), [])
        op, rc, text = self.s_answers[("equiv", 0, False)]
        self.assertCaught(op, rc, {"equivalent": False}, self.s_inputs)

    def test_wrong_invariant_factor(self):
        op, rc, text = self.s_answers[("structure", 0, False)]
        out = json.loads(text)
        out["invariant_factors"][-1][0] = self.bump(out["invariant_factors"][-1][0])
        self.assertCaught(op, rc, out, self.s_inputs)


class SeedFixesInputs(unittest.TestCase):
    def tearDown(self):
        shutil.rmtree(SCRATCH, ignore_errors=True)

    def test_same_plan_and_bytes(self):
        for workload in WORKLOADS:
            first, second = build_plan(workload, 7), build_plan(workload, 7)
            self.assertEqual(first, second)
            self.assertNotEqual(first.inputs, build_plan(workload, 8).inputs)
            files = []
            for tag in ("a", "b"):
                workdir = SCRATCH / f"{workload}-{tag}"
                workdir.mkdir(parents=True)
                run.setup(first, workdir, {})
                files.append({p.name: p.read_bytes() for p in sorted(workdir.iterdir())})
            self.assertEqual(files[0], files[1])
            self.assertEqual(len(files[0]), len(first.inputs))


class ContractFile(unittest.TestCase):
    def test_every_per_layer_metric_has_a_prediction(self):
        spec = json.loads(run.SPEC.read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        self.assertEqual(set(SPAN_PREDICTIONS), set(SPANS))
        predicted = set(COUNTED_PREDICTIONS) | {
            f"{prefix}.{stat}" for prefix in SPANS for stat in ("calls", "self_share")}
        for m in spec["per_layer"]:
            # layer.*, cmd.* and trace.* summarise the metrics above
            if not m["name"].startswith(("layer.", "cmd.", "trace.")):
                self.assertIn(m["name"], predicted)

    def test_digests_cover_the_default_plans(self):
        digests = json.loads(run.DIGESTS.read_text())
        for workload in WORKLOADS:
            ops = build_plan(workload, run.DEFAULT_SEED).ops
            self.assertEqual(set(digests[workload]), {op.id for op in ops})

    def test_refuses_optimize_flag_and_missing_source(self):
        cmd = ["--workload", "commutant_q", "--seed", "1", "--seconds", "1", "--trace", "0"]
        p = subprocess.run([sys.executable, "-O", str(HERE / "run.py"), *cmd],
                           capture_output=True, text=True, timeout=60)
        self.assertEqual((p.returncode, p.stdout), (2, ""))
        bare = SCRATCH / "bare"
        shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        try:
            p = subprocess.run([sys.executable, "bench/run.py", *cmd], cwd=bare,
                               capture_output=True, text=True, timeout=60)
        finally:
            shutil.rmtree(SCRATCH, ignore_errors=True)
        self.assertNotEqual(p.returncode, 0)
        self.assertEqual(p.stdout, "")


if __name__ == "__main__":
    unittest.main()
