"""In-memory tracing of the program's layers, installed from outside.

The tracer wraps public functions at the module attributes their callers
look up (``reasonconf.cli.estimate``, ``reasonconf.estimators.prune``,
``reasonconf.pruning.fit_mixture``, ...) and restores them afterwards; the
program's source is never edited.  Calls at layer boundaries become spans
(name, start, end, parent span, request id).  Calls made per enumerated
outcome or per path (the estimators, dedup, selection, probability
derivation) are only aggregated into counters, so tracing does not swamp
the work it measures.  Self time of a call is its duration minus the time
of the wrapped calls it made.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, List, Optional


class Tracer:
    def __init__(self):
        self.spans: List[tuple] = []
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.request_id: Optional[int] = None
        # One frame per active wrapped call or benchmark span.
        self._stack: List[list] = []
        self._next_id = 0

    def _enclosing_span(self) -> Optional[int]:
        for frame in reversed(self._stack):
            if frame[0] is not None:
                return frame[0]
        return None

    def _enter(self, span: bool) -> list:
        """Push a frame: [span id or None, child seconds, parent span, start]."""
        span_id = None
        if span:
            span_id = self._next_id
            self._next_id += 1
        frame = [span_id, 0.0, self._enclosing_span(), time.perf_counter()]
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list):
        end = time.perf_counter()
        self._stack.pop()
        span_id, child, parent, start = frame
        elapsed = end - start
        if self._stack:
            self._stack[-1][1] += elapsed
        self.total[name] += elapsed
        self.self_time[name] += elapsed - child
        self.calls[name] += 1
        if span_id is not None:
            self.spans.append((name, start, end, span_id, parent, self.request_id))

    def call(self, name: str, fn: Callable, args, kwargs, span: bool, on_result=None):
        frame = self._enter(span)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            self.counts[f"{name}.raised.{type(exc).__name__}"] += 1
            raise
        finally:
            self._exit(name, frame)
        if on_result is not None:
            on_result(self, args, kwargs, result)
        return result

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (a round or a request)."""
        frame = self._enter(True)
        try:
            yield
        finally:
            self._exit(name, frame)

    def write_spans(self, dest: Path):
        dest.parent.mkdir(parents=True, exist_ok=True)
        with open(dest, "w", encoding="utf-8") as fh:
            for name, start, end, span_id, parent, request in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start,
                            "end": end,
                            "id": span_id,
                            "parent": parent,
                            "request": request,
                        }
                    )
                    + "\n"
                )


@contextmanager
def maybe_span(tracer: Optional[Tracer], name: str):
    if tracer is None:
        yield
    else:
        with tracer.span(name):
            yield


# --- what gets wrapped, and the counters read off arguments and results ---


def _on_unique(t, args, kwargs, result):
    t.counts["paths.in"] += len(args[0].paths)
    t.counts["paths.unique"] += len(result)


def _on_estimator(t, args, kwargs, result):
    t.counts["estimators.batch_paths"] += len(args[0].paths)


def _on_prune(t, args, kwargs, result):
    t.counts["pruning.retained"] += len(result.retained_indices)
    t.counts["pruning.removed"] += len(result.removed_indices)
    t.counts["pruning.fallbacks"] += 1 if result.fallback_used else 0


def _fit_config(args, kwargs):
    if len(args) > 1:
        return args[1]
    return kwargs.get("config")


def _on_fit(t, args, kwargs, result):
    t.counts["pruning.fits_returned"] += 1
    t.counts["pruning.sweeps"] += result.n_iter
    config = _fit_config(args, kwargs)
    max_iter = config.max_iter if config is not None else 200
    if not result.converged and result.n_iter >= max_iter:
        t.counts["pruning.capped"] += 1


def _on_enum(t, args, kwargs, result):
    t.counts["oracle.enum_outcomes"] += len(result.outcome_probs)


def _on_count_matrix(t, args, kwargs, result):
    t.counts["oracle.count_matrix_bytes"] += result.nbytes


def _on_load(t, args, kwargs, result):
    t.counts["ingest.records"] += sum(b.n for b in result.values())
    t.counts["ingest.bytes"] += os.path.getsize(args[0])


CLI_ENTRY_POINTS = ("simulate_rows", "estimate_rows", "decompose_rows", "convergence_rows")


@contextmanager
def installed(tracer: Optional[Tracer]):
    """Wrap the program's public functions for the duration of the block."""
    if tracer is None:
        yield
        return
    from reasonconf import cli, error_analysis, estimators, ingest, metrics, paths, pruning

    undo = []

    def wrap(owner, attr, name, span, on_result=None):
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, span, on_result)

        wrapper.__wrapped__ = fn
        setattr(owner, attr, wrapper)
        undo.append((owner, attr, fn))
        return wrapper

    # cli: the entry points the benchmark calls, and what they look up.
    for attr in CLI_ENTRY_POINTS:
        wrap(cli, attr, f"cli.{attr}", span=True)
    wrap(cli, "estimate", "estimators.estimate", span=False)
    wrap(cli, "selection_for_scoring", "estimators.selection_for_scoring", span=False)
    rpc = wrap(cli, "rpc_confidence", "estimators.rpc_confidence", True, _on_estimator)
    undo.append((estimators, "rpc_confidence", estimators.rpc_confidence))
    estimators.rpc_confidence = rpc
    wrap(cli, "sample_batch", "oracle.sample_batch", span=True)
    wrap(cli, "exact_estimator_moments", "oracle.exact_estimator_moments", True, _on_enum)
    wrap(
        cli,
        "monte_carlo_estimation_error",
        "error_analysis.monte_carlo_estimation_error",
        span=True,
    )
    wrap(
        error_analysis,
        "sample_count_matrix",
        "oracle.sample_count_matrix",
        True,
        _on_count_matrix,
    )
    # Per-outcome estimator calls: decompose looks them up in cli._ENUM_FNS,
    # estimate() in the estimators module.
    for kind, attr in (("sc", "sc_confidence"), ("ppl", "ppl_confidence"), ("pc", "pc_confidence")):
        wrapper = wrap(estimators, attr, f"estimators.{attr}", False, _on_estimator)
        key = kind.upper()
        undo.append((cli._ENUM_FNS, key, cli._ENUM_FNS[key]))
        cli._ENUM_FNS[key] = wrapper
    wrap(estimators, "unique_paths", "paths.unique_paths", False, _on_unique)
    wrap(estimators, "select_answer", "paths.select_answer", span=False)
    wrap(estimators, "prune", "pruning.prune", True, _on_prune)
    wrap(pruning, "fit_mixture", "pruning.fit_mixture", True, _on_fit)
    wrap(paths, "derive_path_prob", "paths.derive_path_prob", span=False)
    wrap(ingest, "load_jsonl", "ingest.load_jsonl", True, _on_load)
    wrap(ingest, "render_results", "ingest.render_results", span=True)
    wrap(metrics, "ece", "metrics.ece", span=True)

    rate_fit = error_analysis.RateFit
    original_fit = rate_fit.__dict__["fit"]

    def fit(cls, *args, **kwargs):
        return tracer.call(
            "error_analysis.RateFit.fit", original_fit.__func__, (cls,) + args, kwargs, True
        )

    rate_fit.fit = classmethod(fit)
    undo.append((rate_fit, "fit", original_fit))
    try:
        yield
    finally:
        for owner, attr, original in reversed(undo):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)


def layer_shares(t: Tracer) -> dict:
    """Each module's share of the self time spent inside wrapped calls."""
    by_layer = defaultdict(float)
    for name, seconds in t.self_time.items():
        if not name.startswith("bench."):
            by_layer[name.split(".")[0]] += seconds
    total = sum(by_layer.values())
    return {layer: seconds / total for layer, seconds in sorted(by_layer.items())} if total else {}


def layer_metrics(t: Tracer, rounds: int, traced_ops_per_s: float) -> dict:
    """Per-layer metrics of a traced run, per round of the workload."""

    def per_round(value):
        return value / rounds

    def ratio(num, den):
        return num / den if den else 0.0

    fits_ok = t.counts["pruning.fits_returned"]
    prunes = t.calls["pruning.prune"]
    estimator_calls = sum(
        t.calls[f"estimators.{k}"]
        for k in ("sc_confidence", "ppl_confidence", "pc_confidence", "rpc_confidence")
    )
    cli_self = sum(t.self_time[f"cli.{a}"] for a in CLI_ENTRY_POINTS)
    return {
        "ingest.load_s": per_round(t.total["ingest.load_jsonl"]),
        "ingest.records": per_round(t.counts["ingest.records"]),
        "ingest.bytes": per_round(t.counts["ingest.bytes"]),
        "ingest.render_s": per_round(t.total["ingest.render_results"]),
        "paths.derive_s": per_round(t.total["paths.derive_path_prob"]),
        "paths.unique_s": per_round(t.total["paths.unique_paths"]),
        "paths.dedup_ratio": ratio(
            t.counts["paths.in"] - t.counts["paths.unique"], t.counts["paths.in"]
        ),
        "paths.select_s": per_round(t.total["paths.select_answer"]),
        "pruning.fit_s": per_round(t.total["pruning.fit_mixture"]),
        "pruning.fits": per_round(t.calls["pruning.fit_mixture"]),
        "pruning.em_sweeps": ratio(t.counts["pruning.sweeps"], fits_ok),
        "pruning.em_capped_frac": ratio(t.counts["pruning.capped"], fits_ok),
        "pruning.fallback_frac": ratio(t.counts["pruning.fallbacks"], prunes),
        "pruning.posterior_s": per_round(t.self_time["pruning.prune"]),
        "pruning.retained_frac": ratio(
            t.counts["pruning.retained"],
            t.counts["pruning.retained"] + t.counts["pruning.removed"],
        ),
        "oracle.sample_s": per_round(t.total["oracle.sample_batch"]),
        "oracle.sample_calls": per_round(t.calls["oracle.sample_batch"]),
        "oracle.enum_s": per_round(t.self_time["oracle.exact_estimator_moments"]),
        "oracle.enum_outcomes": per_round(t.counts["oracle.enum_outcomes"]),
        "oracle.count_matrix_s": per_round(t.total["oracle.sample_count_matrix"]),
        "oracle.count_matrix_bytes": per_round(t.counts["oracle.count_matrix_bytes"]),
        "estimators.sc_s": per_round(t.self_time["estimators.sc_confidence"]),
        "estimators.ppl_s": per_round(t.self_time["estimators.ppl_confidence"]),
        "estimators.pc_s": per_round(t.self_time["estimators.pc_confidence"]),
        "estimators.rpc_self_s": per_round(t.self_time["estimators.rpc_confidence"]),
        "estimators.calls": per_round(estimator_calls),
        "estimators.mean_batch_n": ratio(t.counts["estimators.batch_paths"], estimator_calls),
        "error_analysis.mc_self_s": per_round(
            t.self_time["error_analysis.monte_carlo_estimation_error"]
        ),
        "error_analysis.ratefit_s": per_round(t.total["error_analysis.RateFit.fit"]),
        "metrics.ece_s": per_round(t.total["metrics.ece"]),
        "cli.self_s": per_round(cli_self),
        "trace.ops_per_s": traced_ops_per_s,
        "trace.spans": per_round(len(t.spans)),
    }
