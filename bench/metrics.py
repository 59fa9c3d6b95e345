"""The prediction each per-layer metric carries.

BENCHMARK.json names every metric with its unit, and each end-to-end
metric with its bound; its key set is fixed, so the predictions live
here.  Every per-layer metric names the end-to-end metric and workload
it is predicted to move, so a later performance change can cite it.
Per-subcommand times (analyze_s, centralizer_s, ...) are end-to-end
measurements too, but each is zero on the workloads that do not run that
subcommand, so they are printed in the report rather than gated.  So is
op_p90_s: the tail of a batch is a handful of heavy ops whose cost the
seed moves, so across seeds it spreads more than a third of the largest
bound allowed.
Nothing in the library queues or waits (one process, one client, no
locks, no I/O on the hot path), so there are no waiting-time metrics.
"""

from __future__ import annotations

# workload -> layers predicted to carry the largest self-time share
PREDICTED_TOP = {
    "commutant_q": "matrices (rref + kron); canonical and scalar counts ~0",
    "structure_q": "matrices (matmul, rref under solve), then canonical; scalar counts 0",
    "cyclotomic": "matrices (generic rref, matmul in potter); the only workload with scalar counts",
}

_ELIM = "centralizer_s, clifforder_s, adpower_s, wall_s on commutant_q; omega_s on cyclotomic"
_SOLVE = "equiv_s, structure_s on structure_q; potter_s on cyclotomic"
_POLY = "structure_s, analyze_s on structure_q; no change on commutant_q"
_CANON = "structure_s, analyze_s on structure_q; no change on commutant_q or cyclotomic"
_CYCLO = "omega_s, potter_s on cyclotomic; nothing on the Q workloads"

# span prefix -> prediction, for its .calls and .self_share
SPAN_PREDICTIONS = {
    "matrices.kron": _ELIM,
    "matrices.rref": _ELIM,
    "matrices.kernel_basis": _ELIM,
    "matrices.solve": _SOLVE,
    "matrices.det": "setup_s on every workload (conjugators); analyze_s via the probe",
    "matrices.inverse": "setup_s on every workload (conjugators)",
    "matrices.matmul": _SOLVE,
    "matrices.pow": "potter_s on cyclotomic; adpower_s on commutant_q",
    "subspaces.subspace_from_matrices": "the *_s of every subspace op, most on commutant_q",
    "subspaces.random_invertible_probe": "analyze_s on structure_q and cyclotomic",
    "polys.divmod": _POLY,
    "polys.poly_gcd": _POLY,
    "polys.eval_at_matrix": _POLY,
    "canonical.char_poly": _CANON,
    "canonical.min_poly": _CANON,
    "canonical.invariant_factors": _CANON,
    "canonical.is_balanced_matrix": _CANON,
    "canonical.StructureReport.of": _CANON,
    "commutant.commutant_operator": "centralizer_s, clifforder_s on commutant_q; omega_s on cyclotomic",
    "commutant.centralizer_basis": "centralizer_s on commutant_q; analyze_s on structure_q",
    "commutant.clifforder_basis": "clifforder_s on commutant_q; analyze_s on structure_q",
    "commutant.omega_centralizer_basis": "omega_s on cyclotomic",
    "commutant.double_centralizer_basis": "analyze_s on structure_q and cyclotomic",
    "commutant.clifforder_has_invertible": "analyze_s on structure_q and cyclotomic",
    "adpower.ad_power_kernel": "adpower_s on commutant_q",
    "equivalence.express_in_powers": "equiv_s on structure_q",
    "equivalence.equivalence_certificate": "equiv_s on structure_q",
    "potter.potter_check": "potter_s on cyclotomic",
    "potter.omega_commutes": "potter_s on cyclotomic",
    "gen.generate": "setup_s on every workload",
    "cli.main": "op_p50_s on every workload (argparse, JSON in and out)",
    "cli.parse_matrix": "op_p50_s on every workload",
}

# counted (not timed) per-layer metric -> prediction
COUNTED_PREDICTIONS = {
    "matrices.rref.cells": _ELIM,
    "matrices.rref.rank_per_row": _ELIM,
    "commutant.double_centralizer_basis.rank_per_row":
        "analyze_s on structure_q (redundant rows of the stacked system)",
    "matrices.matmul.mults": _SOLVE,
    "polys.mul.calls": _POLY,
    "polys.divmod.max_coeff_bits": _POLY + " (expression swell in Smith reduction)",
    "scalars.cyclo_mul.calls": _CYCLO,
    "scalars.cyclo_add.calls": _CYCLO,
    "scalars.cyclo_inverse.calls": "omega_s on cyclotomic; nothing on the Q workloads",
}
