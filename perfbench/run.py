"""Benchmark of the reasonconf pipeline.

One workload per process:

    python3 perfbench/run.py --workload ingest_score --seed 1 --seconds 20 --trace 0

prints a human-readable report and, as its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones of ``bench_spec.END_TO_END``; with
``--trace 1`` the tracer wraps the program's public functions and the
metrics are the per-layer ones of ``bench_spec.PER_LAYER``, and the spans
are written to ``perfbench/_out/``.

Every workload at once, each in a fresh process, untraced and traced, with
the tracing overhead:

    python3 perfbench/run.py --all --seed 1 --seconds 20

``--write-spec`` regenerates ``BENCHMARK.json`` from ``bench_spec``.

The program is imported from ``src/`` of the checkout this file sits in;
nothing needs building.  Inputs are generated from ``--seed`` under
``perfbench/_work/`` and removed afterwards.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# Single-threaded BLAS: the mixture fit's power sums are a matrix product.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = {"full": 5, "toy": 1}
# Measured calls are grouped into windows of at least this much time.
WINDOW_S = 1.0
# The reference kernel's time on an uncontended core of the 2-core Xeon
# host the benchmark was written on; it only sets the scale of the
# normalized figures.
REFERENCE_NOMINAL_S = 0.0015


def reference_kernel() -> float:
    """Seconds taken by fixed pure-Python work that never touches the program.

    On a shared host the speed of this process switches, for seconds to
    minutes at a time, between regimes up to 1.7x apart as neighbours come
    and go.  The runner calls this kernel between rounds and divides every
    time metric by the host slowdown it sees (its time over
    REFERENCE_NOMINAL_S), so the figures read as if measured on the
    uncontended host; the raw figures are printed in the report too.  The
    median of three back-to-back runs is taken.
    """
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        acc = {}
        total = 0.0
        for i in range(10000):
            k = i & 127
            acc[k] = acc.get(k, 0.0) + i * 0.5
            total += acc[k]
        samples.append(time.perf_counter() - start)
    return sorted(samples)[1]


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_probe(workdir: Path) -> None:
    """Child-process body: import the program, build the config and oracle."""
    start = time.perf_counter()
    from reasonconf import cli, oracle

    cli.RunConfig.load(str(workdir / "config.json"), None)
    if (workdir / "oracle.json").exists():
        oracle.load_oracle(str(workdir / "oracle.json"))
    print(repr(time.perf_counter() - start))


def measure_setup(workdir: Path, repeats: int) -> tuple:
    """Set-up times of ``repeats`` fresh processes, raw and normalized."""
    raw, normalized = [], []
    for _ in range(repeats):
        before = reference_kernel()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", str(workdir)],
            env=_child_env(),
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        seconds = float(proc.stdout.strip().splitlines()[-1])
        slowdown = statistics.median([before, reference_kernel()]) / REFERENCE_NOMINAL_S
        raw.append(seconds)
        normalized.append(seconds / slowdown)
    return raw, normalized


def percentile(sorted_values: list, pct: float):
    """Nearest-rank percentile and the number of samples above it."""
    n = len(sorted_values)
    rank = min(n, max(1, math.ceil(pct / 100.0 * n)))
    return sorted_values[rank - 1], n - rank


def env_info() -> str:
    import numpy
    import scipy

    pins = " ".join(f"{k}={os.environ.get(k)}" for k in PINNED_ENV)
    return (
        f"nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={numpy.__version__} scipy={scipy.__version__} {pins}"
    )


@dataclass
class Measurement:
    rounds: int = 0
    attempted: int = 0
    failures: list = field(default_factory=list)
    ops: float = 0.0
    busy_s: float = 0.0
    latencies: list = field(default_factory=list)  # raw seconds
    window_rates: list = field(default_factory=list)  # raw ops per second
    # The same, normalized for host speed: each latency by the slowdown
    # around its round, each window rate by the median slowdown of its window.
    norm_latencies: list = field(default_factory=list)
    norm_window_rates: list = field(default_factory=list)
    slowdowns: list = field(default_factory=list)


def measure(workload, tracer, seconds: float) -> Measurement:
    """Closed loop: whole rounds until ``seconds`` of calls are measured.

    The reference kernel runs between every two rounds, outside the
    measured time.
    """
    m = Measurement()
    warm = workload.round(0, tracer)  # caches and lazy set-up; not timed
    m.attempted += warm.requests
    m.failures += warm.failures
    ops = busy = 0.0
    before = reference_kernel() / REFERENCE_NOMINAL_S
    window_slowdowns = [before]
    deadline = time.monotonic() + 3 * seconds + 30
    while (m.rounds < workload.min_rounds or m.busy_s < seconds) and time.monotonic() < deadline:
        m.rounds += 1
        res = workload.round(m.rounds, tracer)
        after = reference_kernel() / REFERENCE_NOMINAL_S
        slowdown = (before + after) / 2.0
        before = after
        window_slowdowns.append(after)
        m.attempted += res.requests
        m.failures += res.failures
        m.ops += res.ops
        m.busy_s += res.busy_s
        m.latencies += res.latencies
        m.norm_latencies += [x / slowdown for x in res.latencies]
        ops += res.ops
        busy += res.busy_s
        if busy >= WINDOW_S or not (
            (m.rounds < workload.min_rounds or m.busy_s < seconds)
            and time.monotonic() < deadline
        ):
            window = statistics.median(window_slowdowns)
            m.slowdowns.append(window)
            m.window_rates.append(ops / busy)
            m.norm_window_rates.append(ops / busy * window)
            ops = busy = 0.0
            window_slowdowns = [after]
    return m


def run_workload(args) -> int:
    import bench_inputs
    import bench_spec
    import bench_trace
    import bench_workloads

    workdir = BENCH_DIR / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        inputs = bench_inputs.make_inputs(args.workload, args.seed, args.size, workdir)
        setup_raw, setup_norm = measure_setup(workdir, SETUP_REPEATS[args.size])
        workload = bench_workloads.WORKLOADS[args.workload](inputs, args.seed)
        tracer = bench_trace.Tracer() if args.trace else None
        with bench_trace.installed(tracer):
            m = measure(workload, tracer, args.seconds)
        quality = workload.quality()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    latencies = sorted(m.norm_latencies)
    raw_latencies = sorted(m.latencies)
    p50, _ = percentile(latencies, 50.0)
    tail, beyond = percentile(latencies, bench_spec.TAIL_PCT)
    name = args.workload
    lat = bench_spec.LATENCY_PREFIX[name]
    print(f"# workload={name} seed={args.seed} seconds={args.seconds} trace={args.trace} size={args.size}")
    print(f"# env {env_info()}")
    print(
        f"# closed loop, 1 caller: {m.rounds} rounds after 1 warm-up, "
        f"{len(latencies)} timed requests in {m.busy_s:.3f} s, {len(m.window_rates)} windows; "
        f"host slowdown median {statistics.median(m.slowdowns):.3f} "
        f"(range {min(m.slowdowns):.3f}-{max(m.slowdowns):.3f})"
    )
    print(
        f"# raw, not normalized: {statistics.median(m.window_rates)!r} {workload.ops_unit}/s, "
        f"p50 {percentile(raw_latencies, 50.0)[0] * 1e3!r} ms, "
        f"p{bench_spec.TAIL_PCT:g} {percentile(raw_latencies, bench_spec.TAIL_PCT)[0] * 1e3!r} ms, "
        f"setup {statistics.median(setup_raw)!r} s"
    )
    for msg in m.failures[:10]:
        print(f"# FAILED: {msg}")
    end_to_end = {
        "setup_s": statistics.median(setup_norm),
        "peak_rss_mb": peak_rss_mb,
        "ops_per_s": statistics.median(m.norm_window_rates),
        "latency_p50_ms": p50 * 1e3,
        "latency_tail_ms": tail * 1e3,
    }
    units = {n: u for n, u, _, _ in bench_spec.END_TO_END}
    print(
        f"{bench_spec.OPS_NAME[name]} = {end_to_end['ops_per_s']!r} 1/s "
        f"({workload.ops_unit} per second, median of {len(m.window_rates)} windows)"
    )
    print(f"{lat}_p50_ms = {end_to_end['latency_p50_ms']!r} ms (of {len(latencies)} requests)")
    print(
        f"{lat}_tail_ms = {end_to_end['latency_tail_ms']!r} ms "
        f"(p{bench_spec.TAIL_PCT:g} of {len(latencies)} requests, {beyond} beyond it)"
    )
    print(f"setup_s = {end_to_end['setup_s']!r} s (median of {len(setup_norm)} fresh processes)")
    print(f"peak_rss_mb = {peak_rss_mb!r} MB")
    print(f"failed_frac = {len(m.failures) / m.attempted!r} ({len(m.failures)}/{m.attempted} requests)")
    for key, value in quality.items():
        print(f"{key} = {value!r} (deterministic per seed)")

    if args.trace:
        # The warm-up round is traced too, so layer figures are per traced round.
        metrics = bench_trace.layer_metrics(
            tracer, m.rounds + 1, statistics.median(m.norm_window_rates)
        )
        layer_units = {n: u for n, u, _ in bench_spec.PER_LAYER}
        for key, value in metrics.items():
            print(f"{key} = {value!r} {layer_units[key]}")
        shares = bench_trace.layer_shares(tracer)
        print("# share of time inside the program: " + ", ".join(
            f"{layer} {100.0 * share:.1f}%" for layer, share in shares.items()
        ))
        dest = BENCH_DIR / "_out" / f"trace-{name}-seed{args.seed}.jsonl"
        tracer.write_spans(dest)
        print(f"# {len(tracer.spans)} spans written to {dest.relative_to(ROOT)}")
        out_metrics = {k: {"value": v, "unit": layer_units[k]} for k, v in metrics.items()}
    else:
        out_metrics = {k: {"value": v, "unit": units[k]} for k, v in end_to_end.items()}
    print(
        json.dumps(
            {
                "correct": not m.failures,
                "attempted": m.attempted,
                "failed": len(m.failures),
                "metrics": out_metrics,
            }
        )
    )
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process, untraced then traced."""
    import bench_spec

    status = 0
    for w in bench_spec.WORKLOADS:
        results = {}
        for trace in (0, 1):
            cmd = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", w["name"], "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace), "--size", args.size,
            ]
            proc = subprocess.run(cmd, env=_child_env(), capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"# {w['name']} trace={trace} exited {proc.returncode}\n{proc.stderr}")
                status = 1
                continue
            print("\n".join(lines[:-1]))
            results[trace] = json.loads(lines[-1])
            status |= 0 if results[trace]["correct"] else 1
        if 0 in results and 1 in results:
            plain = results[0]["metrics"]["ops_per_s"]["value"]
            traced = results[1]["metrics"]["trace.ops_per_s"]["value"]
            print(
                f"tracing_overhead_ops_per_s = {traced - plain!r} 1/s "
                f"(traced minus untraced, {100.0 * (traced - plain) / plain:+.1f}%)"
            )
        print()
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full")
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--write-spec", action="store_true", help="regenerate BENCHMARK.json")
    parser.add_argument("--setup-probe", metavar="WORKDIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        setup_probe(Path(args.setup_probe))
        return 0
    if args.write_spec:
        import bench_spec

        print(bench_spec.write_benchmark_json(ROOT))
        return 0
    if not (SRC / "reasonconf" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    # Pin BLAS threads before numpy is first imported.
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, str(SRC))
    import bench_spec

    if args.seconds is None:
        args.seconds = bench_spec.RUN_SECONDS
    if args.all:
        return run_all(args)
    if args.workload not in {w["name"] for w in bench_spec.WORKLOADS}:
        parser.error(f"--workload must be one of {[w['name'] for w in bench_spec.WORKLOADS]}")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
