"""What the benchmark measures: workloads, metrics and their bounds.

This module is the single source of ``BENCHMARK.json`` at the repository
root (``python3 perfbench/run.py --write-spec`` regenerates it) and of the
metric names every run must emit.

End-to-end metrics are reported by every workload, so their names are
generic; the workload-specific name each one stands for (``problems_per_s``
on ``ingest_score``, ``cells_per_s`` on ``simulate_prune``, ...) is printed
in the human-readable report above the result line.
"""

from __future__ import annotations

import json
from pathlib import Path

BENCH_DIR = "perfbench"
RUN_SECONDS = 20

WORKLOADS = [
    {
        "name": "ingest_score",
        "why": (
            "dump scoring: JSONL parsing and path-probability derivation "
            "dominate; two well-separated probability modes keep the "
            "mixture fit near-idle"
        ),
    },
    {
        "name": "simulate_prune",
        "why": (
            "simulation sweep on log-normally spread path probabilities: "
            "the Weibull-mixture EM dominates, ingest is unused"
        ),
    },
    {
        "name": "exact_analysis",
        "why": (
            "exact enumeration: about two million estimator calls on 4-5 "
            "path batches per run, pruning idle"
        ),
    },
    {
        "name": "mc_convergence",
        "why": (
            "Monte Carlo convergence: memory-heavy numpy count-matrix "
            "sampling, no path objects"
        ),
    },
]

# The latency tail is this percentile of the request latencies on every
# workload.  Higher percentiles that still leave ten requests beyond them
# (p99 on ingest_score, p95 on simulate_prune) swung by up to 2.4x between
# runs on a shared 2-core host, beyond any bound the benchmark may set.
TAIL_PCT = 90.0

# (name, unit, better, bound).  Time metrics are normalized for host speed
# (see run.reference_kernel); the bounds absorb what that leaves.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_tail_ms", "ms", "lower", 0.25),
]

# (name, unit, better).  Times and counts are per round, the workload's
# fixed unit of work (see bench_workloads), so they do not grow with run
# length or with how many rounds a faster program fits into a run.  Times
# of a layer that calls another exclude the callee (self time) where the
# callee is listed too: oracle.enum_s, estimators.*_s, pruning.posterior_s
# (prune minus the fit), error_analysis.mc_self_s and cli.self_s.
PER_LAYER = [
    ("ingest.load_s", "s/round", "lower"),
    ("ingest.records", "count/round", "higher"),
    ("ingest.bytes", "B/round", "higher"),
    ("ingest.render_s", "s/round", "lower"),
    ("paths.derive_s", "s/round", "lower"),
    ("paths.unique_s", "s/round", "lower"),
    ("paths.dedup_ratio", "ratio", "lower"),
    ("paths.select_s", "s/round", "lower"),
    ("pruning.fit_s", "s/round", "lower"),
    ("pruning.fits", "count/round", "lower"),
    ("pruning.em_sweeps", "sweeps/fit", "lower"),
    ("pruning.em_capped_frac", "frac", "lower"),
    ("pruning.fallback_frac", "frac", "lower"),
    ("pruning.posterior_s", "s/round", "lower"),
    ("pruning.retained_frac", "frac", "higher"),
    ("oracle.sample_s", "s/round", "lower"),
    ("oracle.sample_calls", "count/round", "lower"),
    ("oracle.enum_s", "s/round", "lower"),
    ("oracle.enum_outcomes", "count/round", "higher"),
    ("oracle.count_matrix_s", "s/round", "lower"),
    ("oracle.count_matrix_bytes", "B_computed", "lower"),
    ("estimators.sc_s", "s/round", "lower"),
    ("estimators.ppl_s", "s/round", "lower"),
    ("estimators.pc_s", "s/round", "lower"),
    ("estimators.rpc_self_s", "s/round", "lower"),
    ("estimators.calls", "count/round", "lower"),
    ("estimators.mean_batch_n", "paths/call", "higher"),
    ("error_analysis.mc_self_s", "s/round", "lower"),
    ("error_analysis.ratefit_s", "s/round", "lower"),
    ("metrics.ece_s", "s/round", "lower"),
    ("cli.self_s", "s/round", "lower"),
    ("trace.ops_per_s", "1/s", "higher"),
    ("trace.spans", "count/round", "lower"),
]

# Workload-specific names of the generic end-to-end metrics, as printed in
# the human-readable report.
OPS_NAME = {
    "ingest_score": "problems_per_s",
    "simulate_prune": "cells_per_s",
    "exact_analysis": "outcomes_per_s",
    "mc_convergence": "mc_trials_per_s",
}
LATENCY_PREFIX = {
    "ingest_score": "score_latency",
    "simulate_prune": "repeat_latency",
    "exact_analysis": "decompose_latency",
    "mc_convergence": "convergence_latency",
}


def benchmark_doc() -> dict:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": ["python3", f"{BENCH_DIR}/run.py"],
        "paths": [BENCH_DIR],
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def render_benchmark_json() -> str:
    return json.dumps(benchmark_doc(), indent=2) + "\n"


def write_benchmark_json(repo_root: Path) -> Path:
    dest = repo_root / "BENCHMARK.json"
    dest.write_text(render_benchmark_json(), encoding="utf-8")
    return dest
