"""Command-line driver for experiments.

Subcommands: simulate, convergence, decompose, estimate, fit-mixture,
metrics, config.  Every command is deterministic given its config and
inputs; output rows are emitted in canonical sorted order and files are
only written after the whole computation succeeds.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import (
    ConfigError,
    EnumerationTooLargeError,
    FitDegenerateError,
    ReasonConfError,
)
from .estimators import (
    ESTIMATOR_KINDS,
    estimate,
    rpc_confidence,
    sc_confidence,
    pc_confidence,
    ppl_confidence,
    selection_for_scoring,
)
from .error_analysis import (
    MCErrorEstimate,
    RateFit,
    monte_carlo_estimation_error,
    pc_closed_form,
    ppl_closed_form,
    sc_closed_form,
)
from .ingest import ResultRow, load_jsonl, render_csv, render_results
from .metrics import reliability_bins
from .oracle import (
    OracleSpec,
    derive_seed,
    exact_estimator_moments,
    load_oracle,
    sample_batch,
)
from .paths import ScoredKey, canonicalize_answer, unique_paths
from .pruning import FitConfig, fit_mixture

logger = logging.getLogger("reasonconf")

@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration; unknown keys are rejected up front."""

    seed: int = 0
    methods: Tuple[str, ...] = ("SC", "PPL", "PC", "RPC")
    prob_mode: str = "length_normalized"
    n_grid: Tuple[int, ...] = (64, 128)
    repeats: int = 10
    trials: int = 100000
    bins: int = 10
    truths: Optional[Dict[str, str]] = None
    fit: FitConfig = field(default_factory=FitConfig)

    def to_doc(self) -> dict:
        """The JSON document form; ``RunConfig()``'s is the full schema."""
        return asdict(self)

    @classmethod
    def from_doc(cls, doc: dict) -> "RunConfig":
        """Validate and coerce a config document.

        A value of the wrong type or shape raises ConfigError, as does an
        unknown key or a count below 1.
        """
        try:
            return cls._coerce(doc)
        except (TypeError, ValueError, AttributeError) as exc:
            raise ConfigError(f"malformed config: {exc}") from exc

    @classmethod
    def _coerce(cls, doc: dict) -> "RunConfig":
        defaults = cls().to_doc()
        unknown = set(doc) - set(defaults)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        merged = {**defaults, **doc}
        fit_doc = merged["fit"]
        fit_unknown = set(fit_doc) - set(defaults["fit"])
        if fit_unknown:
            raise ConfigError(f"unknown fit config keys: {sorted(fit_unknown)}")
        fit_merged = {**defaults["fit"], **fit_doc}
        methods = tuple(merged["methods"])
        for m in methods:
            if m not in ESTIMATOR_KINDS:
                raise ConfigError(f"unknown estimator kind {m!r}")
        if merged["prob_mode"] not in ("joint", "length_normalized"):
            raise ConfigError(f"unknown prob_mode {merged['prob_mode']!r}")
        n_grid = tuple(int(n) for n in merged["n_grid"])
        if any(n < 1 for n in n_grid):
            raise ConfigError("n_grid entries must be positive")
        counts = {key: int(merged[key]) for key in ("repeats", "trials", "bins")}
        for key, value in counts.items():
            if value < 1:
                raise ConfigError(f"{key} must be >= 1")
        truths = merged["truths"]
        if truths is not None:
            truths = {str(k): str(v) for k, v in truths.items()}
        return cls(
            seed=int(merged["seed"]),
            methods=methods,
            prob_mode=merged["prob_mode"],
            n_grid=n_grid,
            truths=truths,
            fit=FitConfig(
                weight_bounds=tuple(fit_merged["weight_bounds"]),
                max_iter=int(fit_merged["max_iter"]),
                tol=float(fit_merged["tol"]),
            ),
            **counts,
        )

    @classmethod
    def load(cls, path: Optional[str], seed_override: Optional[int]) -> "RunConfig":
        doc = {}
        if path is not None:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        if seed_override is not None:
            doc = {**doc, "seed": seed_override}
        return cls.from_doc(doc)


def simulate_rows(oracle: OracleSpec, cfg: RunConfig) -> List[tuple]:
    """Sample, estimate, select, and score each (method, n, repeat) cell.

    All methods see the same batch for a given (n, repeat), so method
    comparisons are paired.  Rows: (method, n, seed, accuracy, ece).
    """
    rows = []
    for n in cfg.n_grid:
        for r in range(cfg.repeats):
            batch = sample_batch(oracle, n, derive_seed(cfg.seed, n, r))
            for method in cfg.methods:
                conf = estimate(method, batch, cfg.fit)
                answer, value = selection_for_scoring(method, conf)
                hit = 1.0 if answer == oracle.truth else 0.0
                rows.append((method, n, r, hit, abs(value - hit)))
    rows.sort(key=lambda row: (row[0], row[1], row[2]))
    return rows


def _convergence_target(oracle: OracleSpec, method: str) -> ScoredKey:
    """The truth, or for PPL the first oracle path carrying it (else path 0)."""
    if method != "PPL":
        return oracle.truth
    paths = oracle.paths
    return next((p for p in paths if p.answer == oracle.truth), paths[0])


def _closed_form_estimation(
    oracle: OracleSpec, method: str, n: int, mc: MCErrorEstimate
) -> float:
    """The closed-form estimation term at the target's p and I from ``mc``."""
    p, correct = mc.true_prob, mc.is_correct
    if method == "SC":
        return sc_closed_form(p, n, correct).estimation_error
    if method == "PPL":
        return ppl_closed_form(p, n, correct).estimation_error
    if method == "PC":
        k = max(1, sum(1 for a in oracle.path_answers if a == oracle.truth))
        return pc_closed_form(p, k, n, correct).estimation_error
    raise ConfigError(f"no closed form for method {method!r}")


def convergence_rows(
    oracle: OracleSpec, cfg: RunConfig
) -> Tuple[List[tuple], List[str]]:
    """Monte Carlo estimation error against the closed form, per (method, n).

    Returns data rows (method, n, mc_est_err, closed_form_est_err) and the
    rate-fit summary lines.  RPC has no closed form and is skipped here.
    """
    rows = []
    summaries = []
    for method in cfg.methods:
        if method == "RPC":
            continue
        target = _convergence_target(oracle, method)
        mc_errors = []
        for n in cfg.n_grid:
            mc = monte_carlo_estimation_error(
                oracle,
                method,
                target,
                n,
                cfg.trials,
                derive_seed(cfg.seed, ESTIMATOR_KINDS.index(method) + 1, n),
            )
            mc_errors.append(mc.estimation_error)
            closed = _closed_form_estimation(oracle, method, n, mc)
            rows.append((method, n, mc.estimation_error, closed))
        transform = "loglog" if method == "SC" else "semilog"
        try:
            rate = RateFit.fit(list(cfg.n_grid), mc_errors, transform)
            summaries.append(
                f"# ratefit method={method} transform={transform} "
                f"slope={rate.slope!r} residual={rate.residual!r}"
            )
        except ValueError as exc:
            summaries.append(f"# ratefit method={method} unavailable: {exc}")
    rows.sort(key=lambda row: (row[0], row[1]))
    return rows, summaries


_ENUM_FNS = {
    "SC": sc_confidence,
    "PPL": ppl_confidence,
    "PC": pc_confidence,
}


def decompose_rows(oracle: OracleSpec, cfg: RunConfig) -> List[tuple]:
    """Error decomposition per (method, n), exact or flagged Monte Carlo.

    Rows: (method, n, estimation_error, model_error, total, exact), where
    ``total`` is the reasoning error E[(est - I)^2] on both routes.  A row
    is enumerated exactly when the M^n ordered outcomes fit under the
    enumeration cap, and estimated by Monte Carlo otherwise; RPC has no
    Monte Carlo route, so its rows past the cap are skipped with a
    warning.  The additivity of the exact decomposition for the voting
    estimator is asserted to 1e-12.
    """
    rows = []
    for method in cfg.methods:
        if method == "RPC":
            estimator = lambda b: rpc_confidence(b, cfg.fit)[0]
        else:
            estimator = _ENUM_FNS[method]
        target = _convergence_target(oracle, method)
        for n in cfg.n_grid:
            try:
                res = exact_estimator_moments(oracle, n, estimator, target)
                exact = True
                drift = res.reasoning_error - res.estimation_error - res.model_error
                if method == "SC" and abs(drift) > 1e-12:
                    raise ReasonConfError(
                        f"voting decomposition drift {abs(drift)} at n={n}"
                    )
            except EnumerationTooLargeError:
                if method == "RPC":
                    logger.warning(
                        "decompose: skipping method RPC at n=%d: too many "
                        "outcomes to enumerate and no Monte Carlo route",
                        n,
                    )
                    continue
                res = monte_carlo_estimation_error(
                    oracle,
                    method,
                    target,
                    n,
                    cfg.trials,
                    derive_seed(cfg.seed, ESTIMATOR_KINDS.index(method) + 1, n, 1),
                )
                exact = False
            errors = (res.estimation_error, res.model_error, res.reasoning_error)
            rows.append((method, n, *errors, exact))
    rows.sort(key=lambda row: (row[0], row[1]))
    return rows


def estimate_rows(
    batches: Dict[str, "SampleBatch"], cfg: RunConfig
) -> Tuple[List[ResultRow], Dict[str, dict]]:
    """Run the configured estimators over ingested batches.

    Problems with no entry in ``cfg.truths`` score as incorrect.  Returns
    result rows plus one pruning-report document per problem (only
    populated when RPC runs).
    """
    rows: List[ResultRow] = []
    reports: Dict[str, dict] = {}
    for pid in sorted(batches):
        batch = batches[pid]
        truth = None
        if cfg.truths and pid in cfg.truths:
            truth = canonicalize_answer(cfg.truths[pid])
        for method in cfg.methods:
            if method == "RPC":
                conf, report = rpc_confidence(batch, cfg.fit)
                reports[pid] = _report_doc(report)
            else:
                conf = estimate(method, batch, cfg.fit)
            answer, value = selection_for_scoring(method, conf)
            rows.append(
                ResultRow(
                    problem_id=pid,
                    method=method,
                    n=batch.n,
                    selected_answer=answer.canonical,
                    confidence=value,
                    correct=(truth is not None and answer == truth),
                )
            )
    rows.sort(key=lambda row: (row.problem_id, row.method))
    return rows, reports


def _report_doc(report) -> dict:
    """A pruning report's JSON form; a fallback report has no ``fit`` key."""
    doc = asdict(report)
    if doc["fit"] is None:
        del doc["fit"]
    return doc


def _emit(text: str, out: Optional[str]):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _cmd_simulate(args) -> str:
    cfg = RunConfig.load(args.config, args.seed)
    oracle = load_oracle(args.oracle)
    rows = simulate_rows(oracle, cfg)
    return render_csv(("method", "n", "seed", "accuracy", "ece"), rows)


def _cmd_convergence(args) -> str:
    cfg = RunConfig.load(args.config, args.seed)
    oracle = load_oracle(args.oracle)
    rows, summaries = convergence_rows(oracle, cfg)
    return render_csv(
        ("method", "n", "mc_est_err", "closed_form_est_err"), rows, summaries
    )


def _cmd_decompose(args) -> str:
    cfg = RunConfig.load(args.config, args.seed)
    oracle = load_oracle(args.oracle)
    rows = decompose_rows(oracle, cfg)
    return render_csv(
        ("method", "n", "estimation_error", "model_error", "total", "exact"), rows
    )


def _cmd_estimate(args) -> str:
    cfg = RunConfig.load(args.config, args.seed)
    batches = load_jsonl(args.input, cfg.prob_mode, strict=not args.lenient)
    rows, reports = estimate_rows(batches, cfg)
    if args.report is not None:
        _emit(json.dumps(reports, indent=2, sort_keys=True) + "\n", args.report)
    return render_results(rows, args.format)


def _cmd_fit_mixture(args) -> str:
    cfg = RunConfig.load(args.config, args.seed)
    if args.input.endswith(".jsonl"):
        batches = load_jsonl(args.input, cfg.prob_mode)
        fits = {}
        for pid in sorted(batches):
            probs = [p.path_prob for p in unique_paths(batches[pid])]
            try:
                fits[pid] = asdict(fit_mixture(probs, cfg.fit))
            except FitDegenerateError as exc:
                fits[pid] = {"degenerate": True, "reason": str(exc)}
        doc = {"problems": fits}
    else:
        with open(args.input, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        probs = payload["probs"] if isinstance(payload, dict) else payload
        doc = {"fit": asdict(fit_mixture([float(p) for p in probs], cfg.fit))}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _cmd_metrics(args) -> str:
    cfg = RunConfig.load(args.config, args.seed)
    with open(args.input, "r", encoding="utf-8") as fh:
        rows = json.load(fh)
    scored = [(float(r["confidence"]), bool(r["correct"])) for r in rows]
    pairs = [(r["selected_answer"], r["correct"]) for r in rows]
    bins = reliability_bins(scored, cfg.bins)
    acc = sum(1 for _, c in pairs if c) / len(pairs)
    doc = {"accuracy": acc, "ece": bins.ece(), "bins": asdict(bins)}
    if args.format == "csv":
        return render_csv(
            ("bin_low", "bin_high", "count", "mean_confidence", "empirical_accuracy"),
            [
                (bins.edges[i], bins.edges[i + 1], bins.counts[i],
                 bins.mean_confidence[i], bins.empirical_accuracy[i])
                for i in range(len(bins.counts))
            ],
            (f"# accuracy={acc!r}", f"# ece={doc['ece']!r}"),
        )
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _cmd_config(args) -> str:
    if args.print_defaults:
        cfg = RunConfig()
    else:
        cfg = RunConfig.load(args.config, args.seed)
    return json.dumps(cfg.to_doc(), indent=2, sort_keys=True) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reasonconf",
        description="Confidence estimation experiments over sampled reasoning paths",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, oracle=False, inputs=False, fmt=False):
        p.add_argument("--config", default=None, help="JSON run config")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=None, help="output file (default stdout)")
        if oracle:
            p.add_argument("--oracle", required=True, help="oracle spec JSON")
        if inputs:
            p.add_argument("--input", required=True, help="input file")
        if fmt:
            p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("simulate", help="sample/estimate/select accuracy rows")
    common(p, oracle=True)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("convergence", help="Monte Carlo vs closed-form error")
    common(p, oracle=True)
    p.set_defaults(fn=_cmd_convergence)

    p = sub.add_parser("decompose", help="estimation/model error split")
    common(p, oracle=True)
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("estimate", help="run estimators over a JSONL dump")
    common(p, inputs=True, fmt=True)
    p.add_argument("--report", default=None, help="write pruning reports JSON here")
    p.add_argument("--lenient", action="store_true", help="skip malformed lines")
    p.set_defaults(fn=_cmd_estimate)

    p = sub.add_parser("fit-mixture", help="fit the two-Weibull mixture")
    common(p, inputs=True)
    p.set_defaults(fn=_cmd_fit_mixture)

    p = sub.add_parser("metrics", help="accuracy/ECE/reliability from results")
    common(p, inputs=True, fmt=True)
    p.set_defaults(fn=_cmd_metrics)

    p = sub.add_parser("config", help="inspect the effective configuration")
    common(p)
    p.add_argument("--print-defaults", action="store_true")
    p.set_defaults(fn=_cmd_config)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    logging.basicConfig(
        level=os.environ.get("REASONCONF_LOG_LEVEL", "WARNING").upper()
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text = args.fn(args)
    except (ReasonConfError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(text, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
