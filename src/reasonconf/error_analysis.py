"""Closed-form error decompositions and their empirical counterparts.

For each estimator the expected squared reasoning error splits into an
estimation term (driven by the sampling budget) and a model term (the
squared gap between the true confidence and correctness).  The closed forms
here are paired with exact enumeration or Monte Carlo checks in the test
suite; none of them is derived from the code it validates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Optional, Sequence, Tuple

import numpy as np

from .errors import AssumptionError, DomainError, EmptyInputError
from .oracle import (
    OracleSpec,
    TargetErrors,
    indicator,
    sample_count_matrix,
    target_paths,
    true_answer_prob,
)
from .paths import AnswerLabel, ScoredKey

Regime = Literal["exponential", "linear"]


@dataclass(frozen=True)
class ErrorBreakdown:
    """Estimation + model split of the expected squared reasoning error.

    The estimation term is stored signed: for the probability-sum
    estimators it can be negative when the answer is wrong and its
    probability is large.  ``total`` is always the exact sum of the parts.
    """

    estimation_error: float
    model_error: float

    @property
    def total(self) -> float:
        return self.estimation_error + self.model_error


def sc_closed_form(p: float, n: int, is_correct: bool) -> ErrorBreakdown:
    """Vote-fraction estimator: estimation p(1-p)/n, model (p - I)^2.

    The estimation term is the binomial variance of the vote fraction, so
    it shrinks only linearly in the sample count.
    """
    _check_prob(p)
    _check_n(n)
    ind = indicator(is_correct)
    return ErrorBreakdown(
        estimation_error=p * (1.0 - p) / n,
        model_error=(p - ind) ** 2,
    )


def ppl_closed_form(p_path: float, n: int, is_correct: bool) -> ErrorBreakdown:
    """Path-probability estimator: estimation (1-p)^n p (2I - p).

    The estimation term decays exponentially at rate (1-p) and is negative
    for incorrect paths with p > 0: reporting a wrong path's probability as
    0 (because it went unsampled) beats reporting its true probability.
    """
    _check_prob(p_path)
    _check_n(n)
    ind = indicator(is_correct)
    est = (1.0 - p_path) ** n * p_path * (2.0 * ind - p_path)
    return ErrorBreakdown(estimation_error=est, model_error=(p_path - ind) ** 2)


def pc_closed_form(
    p_answer: float, k: int, n: int, is_correct: bool
) -> ErrorBreakdown:
    """Probability-sum estimator over an answer backed by k equal paths.

    With alpha = 1 - p/k the estimation term is
    alpha^n * p * (2I - (1 + alpha^n) p), the same exponential shape as the
    path-probability estimator but paired with the voting estimator's model
    term.  Requires p/k <= 1.
    """
    _check_prob(p_answer)
    _check_n(n)
    if k < 1:
        raise DomainError(f"k must be a positive integer, got {k}")
    if p_answer / k > 1.0:
        raise DomainError(f"p/k = {p_answer / k} exceeds 1")
    ind = indicator(is_correct)
    alpha_n = (1.0 - p_answer / k) ** n
    est = alpha_n * p_answer * (2.0 * ind - (1.0 + alpha_n) * p_answer)
    return ErrorBreakdown(estimation_error=est, model_error=(p_answer - ind) ** 2)


@dataclass(frozen=True)
class DegenerationDiagnostic:
    """Where the probability-sum decay rate sits for a given (p, n)."""

    alpha_n: float
    linear_approx: float
    regime: Regime

    @property
    def ratio(self) -> float:
        return self.alpha_n / self.linear_approx


def degeneration_diagnostic(p: float, n: int) -> DegenerationDiagnostic:
    """Compare the exponential factor (1-p)^n against 1/(1 + n p).

    For vanishing p with n p << 1 the two agree and the decay is
    effectively linear in n; the regime is reported as ``linear`` when the
    ratio lies in [0.95, 1.05].  Evaluated at k = 1.
    """
    if not (0.0 < p < 1.0):
        raise DomainError(f"p must lie in (0, 1), got {p}")
    if n < 0:
        raise DomainError(f"n must be non-negative, got {n}")
    alpha_n = (1.0 - p) ** n
    linear = 1.0 / (1.0 + n * p)
    ratio = alpha_n / linear
    regime: Regime = "linear" if 0.95 <= ratio <= 1.05 else "exponential"
    return DegenerationDiagnostic(alpha_n=alpha_n, linear_approx=linear, regime=regime)


def hoeffding_bound(k: int, k_hat: int, alpha: float, tau: float) -> float:
    """Lower bound on the probability that pruning keeps the right answer.

    Evaluates 1 - exp(-2 * k_hat * k^2 * (1 - tau / (1 - alpha))^2), which
    lies in [0, 1) since the exponent is never positive.  The bound is
    vacuous (returns 0) when the threshold tau exceeds the per-path mean
    1 - alpha.
    """
    if k < 1 or k_hat < 1:
        raise DomainError("k and k_hat must be positive integers")
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    if tau <= 0.0:
        raise DomainError(f"tau must be positive, got {tau}")
    if tau > 1.0 - alpha:
        return 0.0
    exponent = -2.0 * k_hat * k * k * (1.0 - tau / (1.0 - alpha)) ** 2
    return 1.0 - math.exp(exponent)


def empirical_prune_failure_rate(
    oracle: OracleSpec,
    n: int,
    trials: int,
    seed: int,
    tau: Optional[float] = None,
) -> float:
    """Fraction of trials where the correct answer's sampled paths average
    below the pruning threshold.

    A trial samples n paths; failure means either no sampled path carries
    the correct answer, or the mean probability of those that do falls
    below ``tau``.  ``tau`` defaults to the correct answer's full mass (the
    idealized threshold), which is above the per-path mean whenever the
    answer splits over several paths; informative comparisons pass an
    explicit tau below 1 - alpha.
    """
    if trials < 100:
        raise DomainError(f"need at least 100 trials, got {trials}")
    if tau is None:
        tau = true_answer_prob(oracle, oracle.truth)
    probs = np.asarray(oracle.path_probs)
    correct = np.asarray(
        [a == oracle.truth for a in oracle.path_answers], dtype=bool
    )
    counts = sample_count_matrix(oracle, n, trials, seed)
    k_hat = counts[:, correct].sum(axis=1)
    mass = (counts[:, correct] * probs[correct]).sum(axis=1)
    with np.errstate(invalid="ignore"):
        mean_prob = np.where(k_hat > 0, mass / np.maximum(k_hat, 1), 0.0)
    failures = (k_hat == 0) | (mean_prob < tau)
    return float(np.mean(failures))


def model_error_comparison(
    path_probs: Sequence[float],
    path_answers: Sequence[AnswerLabel],
    truth: AnswerLabel,
) -> Tuple[float, float]:
    """Idealized model errors of the voting and path-probability estimators.

    The instance lists every path with its probability; the assumption is
    that incorrect paths all carry distinct answers.  The voting model
    error sums (mass(answer) - I)^2 over answers, the path-probability
    model error sums (p(path) - I)^2 over paths.  Merging several correct
    paths into one answer is exactly what makes the first sum smaller, so
    voting <= path-probability always, strictly when the correct answer has
    two or more paths.
    """
    if len(path_probs) != len(path_answers):
        raise AssumptionError("path_probs and path_answers lengths differ")
    if len(path_probs) == 0:
        raise EmptyInputError("instance has no paths")

    wrong_counts: dict = {}
    for answer in path_answers:
        if answer != truth:
            wrong_counts[answer] = wrong_counts.get(answer, 0) + 1
    for answer, count in wrong_counts.items():
        if count > 1:
            raise AssumptionError(
                f"incorrect answer {answer!r} maps to {count} paths; "
                "the comparison assumes distinct answers for incorrect paths"
            )

    mass: dict = {}
    for q, answer in zip(path_probs, path_answers):
        mass[answer] = mass.get(answer, 0.0) + q

    sc_err = math.fsum(
        (m - (1.0 if answer == truth else 0.0)) ** 2 for answer, m in mass.items()
    )
    ppl_err = math.fsum(
        (q - (1.0 if answer == truth else 0.0)) ** 2
        for q, answer in zip(path_probs, path_answers)
    )
    assert sc_err <= ppl_err + 1e-12, "voting model error exceeded path-probability"
    return sc_err, ppl_err


@dataclass(frozen=True)
class MCErrorEstimate(TargetErrors):
    """Monte Carlo counterpart of ``OutcomeEnumeration``.

    ``estimation_error`` and ``reasoning_error`` are means over the same
    trials; ``stderr`` is the standard error of ``estimation_error``.
    """

    stderr: float
    trials: int


def monte_carlo_estimation_error(
    oracle: OracleSpec,
    kind: str,
    target: ScoredKey,
    n: int,
    trials: int,
    seed: int,
) -> MCErrorEstimate:
    """Estimation and reasoning error of an estimator over seeded trials.

    Runs on the per-trial sample-count matrix, which determines the SC, PPL
    and PC statistics without materializing path objects; a cross-check
    against the object-level estimators is part of the test suite.
    ``target_paths`` resolves the target to the paths with that answer (SC,
    PC) or to the oracle path it is (PPL).  SC estimates their vote
    fraction; PC, and PPL over its one path, the summed mass of those that
    were sampled.
    """
    if kind in ("SC", "PC"):
        labels = oracle.path_answers
    elif kind == "PPL":
        labels = oracle.paths
    else:
        raise ValueError(f"no fast Monte Carlo route for estimator {kind!r}")
    indices, true_p, is_correct = target_paths(oracle, labels, target)
    idx = list(indices)
    counts = sample_count_matrix(oracle, n, trials, seed)[:, idx]
    if kind == "SC":
        estimates = counts.sum(axis=1) / n
    else:
        estimates = ((counts > 0) * np.asarray(oracle.path_probs)[idx]).sum(axis=1)
    sq = (estimates - true_p) ** 2
    return MCErrorEstimate(
        true_prob=true_p,
        is_correct=is_correct,
        estimation_error=float(np.mean(sq)),
        reasoning_error=float(np.mean((estimates - indicator(is_correct)) ** 2)),
        stderr=float(np.std(sq) / math.sqrt(trials)),
        trials=trials,
    )


@dataclass(frozen=True)
class RateFit:
    """Least-squares slope of transformed error values against n.

    ``loglog`` regresses ln(err) on ln(n) (a power law, slope = exponent);
    ``semilog`` regresses ln(err) on n (an exponential, slope = log rate).
    Non-positive error values cannot be log-transformed and are dropped;
    at least 4 positive points must remain.
    """

    ns: Tuple[int, ...]
    errors: Tuple[float, ...]
    slope: float
    intercept: float
    residual: float
    transform: str

    @classmethod
    def fit(
        cls, ns: Sequence[int], errors: Sequence[float], transform: str
    ) -> "RateFit":
        if transform not in ("loglog", "semilog"):
            raise ValueError(f"unknown transform {transform!r}")
        if len(ns) != len(errors):
            raise ValueError("ns and errors lengths differ")
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise ValueError("n values must be strictly increasing")
        pairs = [(n, e) for n, e in zip(ns, errors) if e > 0.0]
        if len(pairs) < 4:
            raise ValueError(
                f"only {len(pairs)} positive error values; need at least 4"
            )
        kept_n = np.asarray([n for n, _ in pairs], dtype=float)
        kept_e = np.asarray([e for _, e in pairs], dtype=float)
        xs = np.log(kept_n) if transform == "loglog" else kept_n
        ys = np.log(kept_e)
        slope, intercept = np.polyfit(xs, ys, 1)
        resid = float(np.sqrt(np.mean((ys - (slope * xs + intercept)) ** 2)))
        return cls(
            ns=tuple(int(n) for n, _ in pairs),
            errors=tuple(float(e) for _, e in pairs),
            slope=float(slope),
            intercept=float(intercept),
            residual=resid,
            transform=transform,
        )


def _check_prob(p: float):
    if not (0.0 <= p <= 1.0):
        raise DomainError(f"probability must lie in [0, 1], got {p}")


def _check_n(n: int):
    if n < 1:
        raise DomainError(f"n must be a positive integer, got {n}")
