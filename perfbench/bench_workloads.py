"""The four workloads: one round of work each, its timing and its checks.

Every workload is a closed loop with one caller: each request starts when
the previous one returns.  A round is the workload's fixed unit of work;
the runner repeats rounds until the measured time is used up.  Only the
calls into the program are timed; the output checks run between them.

A request is one call of a ``reasonconf.cli`` entry point on one unit of
input:

- ingest_score:   ``estimate_rows`` for one problem (four methods plus
                  selection); a round also parses the dump with
                  ``load_jsonl`` and renders all rows with
                  ``render_results``.
- simulate_prune: ``simulate_rows`` for one paired repeat at every n.
- exact_analysis: ``decompose_rows`` for SC, PPL and PC over the n grid.
- mc_convergence: ``convergence_rows`` for one method over the n grid.

Functions are looked up on their modules at call time, so the tracer's
wrappers are seen.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from bench_inputs import Inputs, request_seed
from bench_trace import Tracer, maybe_span

# Tolerances of the output checks.
EXACT_TOL = 1e-9
MC_SIGMAS = 5.0


@dataclass
class RoundResult:
    busy_s: float = 0.0
    latencies: List[float] = field(default_factory=list)
    ops: float = 0.0
    requests: int = 0
    failures: List[str] = field(default_factory=list)


def _load_doc(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class _Workload:
    name = ""
    min_rounds = 3
    ops_unit = ""

    def __init__(self, inputs: Inputs, seed: int):
        from reasonconf import cli, ingest, metrics, oracle

        self.cli, self.ingest, self.metrics = cli, ingest, metrics
        self.inputs = inputs
        self.seed = seed
        self.config_doc = _load_doc(inputs.config_path)
        self.cfg = cli.RunConfig.load(str(inputs.config_path), None)
        self.oracle = None
        self.oracle_doc = None
        if inputs.oracle_path is not None:
            self.oracle = oracle.load_oracle(str(inputs.oracle_path))
            self.oracle_doc = _load_doc(inputs.oracle_path)

    def config(self, **overrides):
        return self.cli.RunConfig.from_doc({**self.config_doc, **overrides})

    def request(self, result: RoundResult, tracer: Optional[Tracer], request_id: int,
                fn: Callable, check: Callable):
        """Time one call, then check its output; exceptions count as failures."""
        if tracer is not None:
            tracer.request_id = request_id
        result.requests += 1
        with maybe_span(tracer, "bench.request"):
            start = time.perf_counter()
            try:
                out = fn()
            except Exception as exc:  # a failed request is counted, not fatal
                out = None
                error = f"request {request_id} raised {type(exc).__name__}: {exc}"
            else:
                error = None
            elapsed = time.perf_counter() - start
        result.busy_s += elapsed
        result.latencies.append(elapsed)
        if error is None:
            try:
                error = check(out)
            except Exception as exc:  # malformed output is a failure too
                error = f"request {request_id}: checking the output raised {exc!r}"
        if error is not None:
            result.failures.append(error)
        return out

    def quality(self) -> Dict[str, float]:
        return {}


class IngestScore(_Workload):
    name = "ingest_score"
    ops_unit = "problems"

    def __init__(self, inputs, seed):
        super().__init__(inputs, seed)
        self.rpc_pairs = None

    def round(self, index: int, tracer: Optional[Tracer]) -> RoundResult:
        result = RoundResult()
        expected = self.inputs.expected
        problems = len(expected)
        with maybe_span(tracer, "bench.round"):
            start = time.perf_counter()
            try:
                batches = self.ingest.load_jsonl(str(self.inputs.jsonl_path), self.cfg.prob_mode)
            except Exception as exc:
                result.busy_s += time.perf_counter() - start
                result.requests = problems
                result.failures = [f"load_jsonl raised {type(exc).__name__}: {exc}"] * problems
                return result
            result.busy_s += time.perf_counter() - start
            if sorted(batches) != sorted(expected):
                result.requests = problems
                result.failures = ["load_jsonl returned the wrong problem ids"] * problems
                return result

            all_rows = []
            for k, pid in enumerate(sorted(batches)):
                out = self.request(
                    result,
                    tracer,
                    index * problems + k,
                    lambda: self.cli.estimate_rows({pid: batches[pid]}, self.cfg),
                    lambda out: self._check_problem(pid, out),
                )
                if out is not None:
                    all_rows.extend(out[0])

            start = time.perf_counter()
            text = self.ingest.render_results(all_rows, "csv")
            rpc = [(r.confidence, r.correct) for r in all_rows if r.method == "RPC"]
            self.metrics.ece(rpc, self.cfg.bins)
            result.busy_s += time.perf_counter() - start
        result.ops = problems
        if result.failures:
            pass  # the failed requests are already counted
        elif len(all_rows) != problems * len(self.cfg.methods):
            result.failures.append(f"{len(all_rows)} rows for {problems} problems")
        elif text.count("\n") != len(all_rows) + 1:
            result.failures.append("rendered CSV line count differs from the row count")
        if self.rpc_pairs is None:
            self.rpc_pairs = rpc
        return result

    def _check_problem(self, pid, out) -> Optional[str]:
        rows, reports = out
        records = self.inputs.expected[pid]
        truth = self.inputs.truths[pid]
        by_method = {r.method: r for r in rows}
        if sorted(by_method) != sorted(self.cfg.methods) or len(rows) != len(by_method):
            return f"{pid}: rows {[r.method for r in rows]}"
        for row in rows:
            if row.n != len(records) or row.correct != (row.selected_answer == truth):
                return f"{pid}: {row.method} row n/correct mismatch"

        # SC: independent recount of the generated records.
        votes: Dict[str, int] = {}
        for rec in records:
            votes[rec.answer] = votes.get(rec.answer, 0) + 1
        sc_best = max(votes.values())
        sc = by_method["SC"]
        if votes.get(sc.selected_answer) != sc_best or abs(
            sc.confidence - sc_best / len(records)
        ) > EXACT_TOL:
            return f"{pid}: SC {sc.selected_answer}={sc.confidence}, recount max {sc_best}"

        uniques = []
        seen = set()
        for rec in records:
            if rec.text not in seen:
                seen.add(rec.text)
                uniques.append(rec)
        pc: Dict[str, float] = {}
        for rec in uniques:
            pc[rec.answer] = pc.get(rec.answer, 0.0) + rec.prob
        pc_row = by_method["PC"]
        if abs(pc_row.confidence - min(1.0, max(pc.values()))) > EXACT_TOL:
            return f"{pid}: PC confidence {pc_row.confidence}, recount {max(pc.values())}"
        ppl_row = by_method["PPL"]
        if abs(ppl_row.confidence - max(rec.prob for rec in uniques)) > EXACT_TOL:
            return f"{pid}: PPL confidence {ppl_row.confidence}"

        # RPC: retained and removed indices partition the unique paths, the
        # retained set is never empty, and per answer its sum never exceeds PC.
        report = reports.get(pid)
        if report is None:
            return f"{pid}: no pruning report"
        kept = list(report["retained_indices"])
        removed = list(report["removed_indices"])
        if not kept:
            return f"{pid}: empty retained set"
        if sorted(kept + removed) != list(range(len(uniques))):
            return f"{pid}: retained/removed do not partition the unique paths"
        rpc: Dict[str, float] = {}
        for i in kept:
            rpc[uniques[i].answer] = rpc.get(uniques[i].answer, 0.0) + uniques[i].prob
        for answer, value in rpc.items():
            if value > pc[answer] + EXACT_TOL:
                return f"{pid}: RPC {answer}={value} above PC {pc[answer]}"
        rpc_row = by_method["RPC"]
        chosen = rpc.get(rpc_row.selected_answer)
        if chosen is None or abs(rpc_row.confidence - min(1.0, chosen)) > EXACT_TOL:
            return f"{pid}: RPC confidence {rpc_row.confidence}, recount {chosen}"
        if chosen < max(rpc.values()) - EXACT_TOL:
            return f"{pid}: RPC selected a non-maximal answer"
        return None

    def quality(self):
        return _accuracy_ece(self.metrics, self.rpc_pairs, self.cfg.bins)


def _accuracy_ece(metrics, pairs, bins) -> Dict[str, float]:
    return {
        "rpc_accuracy": sum(1 for _, c in pairs if c) / len(pairs),
        "rpc_ece": metrics.ece(pairs, bins),
    }


class SimulatePrune(_Workload):
    name = "simulate_prune"
    min_rounds = 40  # the requests rpc_accuracy and rpc_ece are taken over
    ops_unit = "cells"

    def __init__(self, inputs, seed):
        super().__init__(inputs, seed)
        self.rpc_pairs = []

    def round(self, index: int, tracer: Optional[Tracer]) -> RoundResult:
        result = RoundResult()
        cfg = self.config(seed=request_seed(self.seed, index))
        pairs = []

        def call():
            rows = self.cli.simulate_rows(self.oracle, cfg)
            pairs[:] = [(_row_confidence(r), r[3] == 1.0) for r in rows if r[0] == "RPC"]
            self.metrics.ece(pairs, cfg.bins)
            return rows

        with maybe_span(tracer, "bench.round"):
            self.request(result, tracer, index, call, lambda rows: self._check(rows, cfg))
        result.ops = len(cfg.methods) * len(cfg.n_grid)
        if index < self.min_rounds:
            self.rpc_pairs.extend(pairs)
        return result

    def _check(self, rows, cfg) -> Optional[str]:
        if len(rows) != len(cfg.methods) * len(cfg.n_grid):
            return f"{len(rows)} rows for {len(cfg.n_grid)} n x {len(cfg.methods)} methods"
        conf = {}
        for method, n, repeat, acc, err in rows:
            if repeat != 0 or acc not in (0.0, 1.0) or not (0.0 <= err <= 1.0):
                return f"malformed row {(method, n, repeat, acc, err)}"
            conf[method, n] = _row_confidence((method, n, repeat, acc, err))
        for n in cfg.n_grid:
            votes = conf["SC", n] * n
            if abs(votes - round(votes)) > 1e-6 or votes < 1 - 1e-6:
                return f"SC confidence {conf['SC', n]} is not a vote fraction at n={n}"
            # RPC(a) <= PC(a) <= max PC for every answer a, and a path's own
            # probability never exceeds its answer's probability sum.
            if conf["RPC", n] > conf["PC", n] + EXACT_TOL:
                return f"RPC {conf['RPC', n]} above PC {conf['PC', n]} at n={n}"
            if conf["PPL", n] > conf["PC", n] + EXACT_TOL:
                return f"PPL {conf['PPL', n]} above PC {conf['PC', n]} at n={n}"
        return None

    def quality(self):
        return _accuracy_ece(self.metrics, self.rpc_pairs, self.cfg.bins)


def _row_confidence(row) -> float:
    """The scored confidence of a simulate row: its error is |conf - correct|."""
    _, _, _, acc, err = row
    return 1.0 - err if acc == 1.0 else err


def _truth_mass(doc) -> float:
    return math.fsum(
        q for q, a in zip(doc["path_probs"], doc["path_answers"]) if a == doc["truth"]
    )


def _first_truth_path_prob(doc) -> float:
    return doc["path_probs"][doc["path_answers"].index(doc["truth"])]


class ExactAnalysis(_Workload):
    name = "exact_analysis"
    ops_unit = "outcomes"

    def round(self, index: int, tracer: Optional[Tracer]) -> RoundResult:
        result = RoundResult()
        m = len(self.oracle_doc["path_probs"])
        with maybe_span(tracer, "bench.round"):
            self.request(
                result,
                tracer,
                index,
                lambda: self.cli.decompose_rows(self.oracle, self.cfg),
                self._check,
            )
        result.ops = len(self.cfg.methods) * sum(m**n for n in self.cfg.n_grid)
        return result

    def _check(self, rows) -> Optional[str]:
        from reasonconf.error_analysis import ppl_closed_form, sc_closed_form

        expected = sorted((method, n) for method in self.cfg.methods for n in self.cfg.n_grid)
        if [(r[0], r[1]) for r in rows] != expected:
            return f"rows {[(r[0], r[1]) for r in rows]}"
        for method, n, est, model, total, exact in rows:
            if exact is not True:
                return f"{method} n={n}: not enumerated exactly"
            if not all(math.isfinite(v) and v >= 0.0 for v in (est, model, total)):
                return f"{method} n={n}: invalid errors {(est, model, total)}"
            if method == "SC":
                cf = sc_closed_form(_truth_mass(self.oracle_doc), n, True)
                got = (est, model, total)
                want = (cf.estimation_error, cf.model_error, cf.total)
            elif method == "PPL":
                cf = ppl_closed_form(_first_truth_path_prob(self.oracle_doc), n, True)
                got, want = (model, total), (cf.model_error, cf.total)
            else:
                continue
            if any(abs(g - w) > EXACT_TOL for g, w in zip(got, want)):
                return f"{method} n={n}: {got} vs closed form {want}"
        return None


class MCConvergence(_Workload):
    name = "mc_convergence"
    ops_unit = "MC trials"

    def round(self, index: int, tracer: Optional[Tracer]) -> RoundResult:
        result = RoundResult()
        seed = request_seed(self.seed, index)
        with maybe_span(tracer, "bench.round"):
            for k, method in enumerate(self.cfg.methods):
                cfg = self.config(methods=[method], seed=seed)
                self.request(
                    result,
                    tracer,
                    index * len(self.cfg.methods) + k,
                    lambda: self.cli.convergence_rows(self.oracle, cfg),
                    lambda out: self._check(method, out),
                )
                result.ops += cfg.trials * len(cfg.n_grid)
        return result

    def _check(self, method, out) -> Optional[str]:
        rows, summaries = out
        trials = self.cfg.trials
        if [(r[0], r[1]) for r in rows] != [(method, n) for n in self.cfg.n_grid]:
            return f"{method}: rows {[(r[0], r[1]) for r in rows]}"
        if len(summaries) != 1 or "slope=" not in summaries[0]:
            return f"{method}: rate fit summary {summaries}"
        for _, n, mc, _closed in rows:
            if not (math.isfinite(mc) and mc >= 0.0):
                return f"{method} n={n}: invalid Monte Carlo error {mc}"
            mean, var = _squared_error_moments(method, self.oracle_doc, n)
            if mean is None:
                continue
            stderr = math.sqrt(var / trials)
            if abs(mc - mean) > MC_SIGMAS * stderr:
                return f"{method} n={n}: {mc} vs {mean} +- {stderr}"
        return None


def _squared_error_moments(method, doc, n):
    """Exact mean and variance of one trial's (estimate - true prob)^2.

    SC: the vote fraction K/n with K ~ Binomial(n, p); the fourth central
    binomial moment gives the variance.  PPL: the squared error is q^2 when
    the path goes unsampled, probability (1-q)^n, and 0 otherwise.  (The
    closed_form column that convergence rows carry for PPL is the signed
    decomposition term, a different quantity.)
    """
    if method == "SC":
        p = _truth_mass(doc)
        v = p * (1.0 - p)
        mean = v / n
        fourth = n * v * (1.0 + 3.0 * (n - 2) * v) / n**4
        return mean, fourth - mean * mean
    if method == "PPL":
        q = _first_truth_path_prob(doc)
        miss = (1.0 - q) ** n
        return q * q * miss, q**4 * miss * (1.0 - miss)
    return None, None


WORKLOADS = {
    cls.name: cls for cls in (IngestScore, SimulatePrune, ExactAnalysis, MCConvergence)
}
