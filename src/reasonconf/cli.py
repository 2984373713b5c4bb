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
import sys
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import (
    ConfigError,
    EnumerationTooLargeError,
    InvalidPathError,
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
    MC_KINDS,
    MCErrorEstimate,
    RateFit,
    monte_carlo_estimation_error,
    pc_closed_form,
    ppl_closed_form,
    sc_closed_form,
)
from .ingest import ResultRow, load_jsonl, read_json_document, render_csv, render_results
from .metrics import reliability_bins
from .oracle import (
    OracleSpec,
    derive_seed,
    exact_estimator_moments,
    load_oracle,
    sample_batch,
    target_paths,
)
from .paths import ScoredKey, canonicalize_answer
from .pruning import MixtureFit, PruningReport, WeibullParams, fit_mixture

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

    def to_doc(self) -> dict:
        """The JSON document form; ``RunConfig()``'s is the full schema."""
        return asdict(self)

    @classmethod
    def from_doc(cls, doc: dict) -> "RunConfig":
        """Validate and coerce a config document.

        A value of the wrong type or shape raises ConfigError, as does an
        unknown key, a count below 1, an empty or repeating ``methods``, an
        ``n_grid`` that is empty or not strictly increasing, or a truth that
        canonicalizes to an empty answer.  ``truths`` values are stored
        canonicalized.
        """
        try:
            return cls._coerce(doc)
        except (TypeError, ValueError, AttributeError, OverflowError) as exc:
            raise ConfigError(f"malformed config: {exc}") from exc

    @classmethod
    def _coerce(cls, doc: dict) -> "RunConfig":
        defaults = cls().to_doc()
        unknown = set(doc) - set(defaults)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        merged = {**defaults, **doc}
        methods = tuple(merged["methods"])
        for m in methods:
            if m not in ESTIMATOR_KINDS:
                raise ConfigError(f"unknown estimator kind {m!r}")
        if not methods or len(set(methods)) < len(methods):
            raise ConfigError("methods must be non-empty and hold no repeats")
        if merged["prob_mode"] not in ("joint", "length_normalized"):
            raise ConfigError(f"unknown prob_mode {merged['prob_mode']!r}")
        n_grid = tuple(_whole("n_grid", n) for n in merged["n_grid"])
        if any(n < 1 for n in n_grid):
            raise ConfigError("n_grid entries must be positive")
        if not n_grid or any(b <= a for a, b in zip(n_grid, n_grid[1:])):
            raise ConfigError("n_grid must be non-empty and strictly increasing")
        counts = {key: _whole(key, merged[key]) for key in ("repeats", "trials", "bins")}
        for key, value in counts.items():
            if value < 1:
                raise ConfigError(f"{key} must be >= 1")
        truths = merged["truths"]
        if truths is not None:
            if not all(isinstance(v, str) for v in truths.values()):
                raise ConfigError("truths values must be strings")
            truths = {str(k): _canonical_truth(k, v) for k, v in truths.items()}
        seed = _whole("seed", merged["seed"])
        if seed < 0:
            raise ConfigError(f"malformed config: seed {seed} is negative")
        return cls(
            seed=seed,
            methods=methods,
            prob_mode=merged["prob_mode"],
            n_grid=n_grid,
            truths=truths,
            **counts,
        )

    @classmethod
    def load(cls, path: Optional[str], seed_override: Optional[int]) -> "RunConfig":
        doc = {}
        if path is not None:
            doc = read_json_document(path, "config")
        if seed_override is not None:
            doc = {**doc, "seed": seed_override}
        return cls.from_doc(doc)


def _whole(key: str, value) -> int:
    """An integer config value: anything but an int or a whole float is malformed."""
    if type(value) is not int and not (type(value) is float and value.is_integer()):
        raise ConfigError(f"{key} {value!r} is not a whole number")
    return int(value)


def _canonical_truth(key, value: str) -> str:
    """A ``truths`` value's canonical answer; one that is empty is malformed."""
    try:
        return canonicalize_answer(value).canonical
    except InvalidPathError:
        raise ConfigError(
            f"malformed config: truths[{key!r}] canonicalizes to an empty answer"
        ) from None


def simulate_rows(oracle: OracleSpec, cfg: RunConfig) -> List[tuple]:
    """Sample, estimate, select, and score each (method, n, repeat) cell.

    All methods see the same batch for a given (n, repeat), so method
    comparisons are paired.  Rows: (method, n, repeat, accuracy, ece).
    """
    rows = []
    fits = []
    for n in cfg.n_grid:
        for r in range(cfg.repeats):
            batch = sample_batch(oracle, n, derive_seed(cfg.seed, n, r))
            for method, answer, value, _ in _score(batch, cfg.methods, fits):
                hit = 1.0 if answer == oracle.truth else 0.0
                rows.append((method, n, r, hit, abs(value - hit)))
    _warn_capped(fits)
    rows.sort(key=lambda row: (row[0], row[1], row[2]))
    return rows


def _score(batch: "SampleBatch", methods: Sequence[str], fits: list) -> List[tuple]:
    """(method, selected answer, confidence, pruning report) per method.

    Only RPC has a pruning report, else it is None; its fit is also
    appended to ``fits``.
    """
    scored = []
    for method in methods:
        report = None
        if method == "RPC":
            conf, report = rpc_confidence(batch)
            fits.append(report.fit)
        else:
            conf = estimate(method, batch)
        scored.append((method, *selection_for_scoring(conf), report))
    return scored


def _warn_capped(fits: Sequence[Optional[MixtureFit]]):
    """Log how many of the mixture fits stopped at the EM map cap unconverged.

    ``None`` stands for a batch too small or flat to fit; it is no fit.
    """
    done = [fit for fit in fits if fit is not None]
    capped = sum(1 for fit in done if not fit.converged)
    if capped:
        logger.warning("%d of %d mixture fits stopped at the EM map cap", capped, len(done))


def _convergence_target(oracle: OracleSpec, method: str) -> ScoredKey:
    """The truth, or for PPL the first oracle path carrying it (else path 0)."""
    if method != "PPL":
        return oracle.truth
    indices = target_paths(oracle, oracle.truth)[0]
    return oracle.paths[indices[0] if indices else 0]


def _closed_form_estimation(
    oracle: OracleSpec, method: str, n: int, mc: MCErrorEstimate
) -> float:
    """The SC, PPL or PC closed-form estimation term at p and I from ``mc``."""
    p, correct = mc.true_prob, mc.is_correct
    if method == "SC":
        return sc_closed_form(p, n, correct).estimation_error
    if method == "PPL":
        return ppl_closed_form(p, n, correct).estimation_error
    k = max(1, len(target_paths(oracle, oracle.truth)[0]))
    return pc_closed_form(p, k, n, correct).estimation_error


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
        if method not in MC_KINDS:
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
    # Looked up at call time, so a wrapper set on cli.rpc_confidence sees it.
    "RPC": lambda batch: rpc_confidence(batch)[0],
}


def decompose_rows(oracle: OracleSpec, cfg: RunConfig) -> List[tuple]:
    """Error decomposition per (method, n), exact or flagged Monte Carlo.

    Rows: (method, n, estimation_error, model_error, total, exact), where
    ``total`` is the reasoning error E[(est - I)^2] on both routes.  A row
    is enumerated exactly when the M^n ordered outcomes fit under the
    enumeration cap, and estimated by Monte Carlo otherwise; a method
    outside ``MC_KINDS`` (RPC) has no Monte Carlo route, so its rows past
    the cap are skipped with a warning.  The additivity of the exact
    decomposition for the voting estimator is asserted to 1e-12.
    """
    rows = []
    for method in cfg.methods:
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
                if method not in MC_KINDS:
                    logger.warning(
                        "decompose: skipping method %s at n=%d: too many "
                        "outcomes to enumerate and no Monte Carlo route",
                        method, n,
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

    A problem's truth is the label, class id included, of its first record
    whose canonical answer is the ``cfg.truths`` entry; with
    no entry or no such record it scores as incorrect.  Returns result rows
    plus one pruning-report document per problem (only for RPC).
    """
    rows: List[ResultRow] = []
    reports: Dict[str, dict] = {}
    fits = []
    for pid in sorted(batches):
        batch = batches[pid]
        wanted = (cfg.truths or {}).get(pid)
        truth = next((p.answer for p in batch.paths if p.answer.canonical == wanted), None)
        for method, answer, value, report in _score(batch, cfg.methods, fits):
            if report is not None:
                reports[pid] = _report_doc(report)
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
    _warn_capped(fits)
    rows.sort(key=lambda row: (row.problem_id, row.method))
    return rows, reports


def _fit_doc(fit: MixtureFit) -> dict:
    """A fit's JSON form, the document ``asdict(fit)`` gives.

    Built from ``vars``, which is shallow.  ``asdict`` deep-copies every
    value one call at a time: on a Xeon core it took 12.4 us for a fit that
    ``vars`` reads in 1.3 us, and 113 us for a 128-path report.
    """
    return {
        key: dict(vars(value)) if isinstance(value, WeibullParams) else value
        for key, value in vars(fit).items()
    }


def _report_doc(report: PruningReport) -> dict:
    """A pruning report's JSON form; a fallback report has no ``fit`` key."""
    doc = dict(vars(report))
    fit = doc.pop("fit")
    if fit is not None:
        doc["fit"] = _fit_doc(fit)
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
    return render_csv(("method", "n", "repeat", "accuracy", "ece"), rows)


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
    payload = read_json_document(args.input, "probs")
    try:
        probs = payload["probs"] if isinstance(payload, dict) else payload
        if not all(type(p) in (int, float) for p in probs):
            raise TypeError("probs must hold numbers")
        probs = [float(p) for p in probs]
    except (TypeError, KeyError, OverflowError) as exc:
        raise ReasonConfError(f"malformed probs document: {exc}") from exc
    doc = {"fit": _fit_doc(fit_mixture(probs))}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _cmd_metrics(args) -> str:
    cfg = RunConfig.load(args.config, args.seed)
    rows = read_json_document(args.input, "results")
    try:
        scored = [(r["confidence"], r["correct"]) for r in rows]
        if not all(type(c) in (int, float) and type(ok) is bool for c, ok in scored):
            raise TypeError("confidence must be a number and correct a boolean")
    except (TypeError, KeyError) as exc:
        raise ReasonConfError(f"malformed results document: {exc}") from exc
    bins = reliability_bins(scored, cfg.bins)
    acc = sum(1 for _, c in scored if c) / len(scored)
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

    def common(p, oracle=False, inputs=False, fmt=False, config=True):
        if config:
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
    common(p, inputs=True, config=False)
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
    logging.basicConfig(level=logging.WARNING)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text = args.fn(args)
    except (ReasonConfError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(text, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
