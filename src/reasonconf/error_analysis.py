"""Closed-form error decompositions, their Monte Carlo counterpart, rate fits.

For the SC, PPL and PC estimators the expected squared reasoning error
splits into an estimation term (driven by the sampling budget) and a model
term (the squared gap between the true confidence and correctness).  The
closed forms here are paired with exact enumeration or Monte Carlo checks
in the test suite; none of them is derived from the code it validates.
``monte_carlo_estimation_error`` measures an estimator's error over seeded
trials, and ``RateFit`` fits how that error decays in n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .errors import DomainError, InvalidSampleSizeError
from .oracle import (
    OracleSpec,
    TargetErrors,
    sample_count_matrix,
    target_paths,
)
from .paths import ScoredKey

MC_KINDS = ("SC", "PPL", "PC")  # the estimators per-trial counts determine


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
    ind = float(is_correct)
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
    ind = float(is_correct)
    est = (1.0 - p_path) ** n * p_path * (2.0 * ind - p_path)
    return ErrorBreakdown(estimation_error=est, model_error=(p_path - ind) ** 2)


def pc_closed_form(
    p_answer: float, k: int, n: int, is_correct: bool
) -> ErrorBreakdown:
    """Probability-sum estimator over an answer backed by k equal paths.

    With alpha = 1 - p/k the estimation term is
    alpha^n * p * (2I - (1 + alpha^n) p), the same exponential shape as the
    path-probability estimator but paired with the voting estimator's model
    term.
    """
    _check_prob(p_answer)
    _check_n(n)
    if k < 1:
        raise DomainError(f"k must be a positive integer, got {k}")
    ind = float(is_correct)
    alpha_n = (1.0 - p_answer / k) ** n
    est = alpha_n * p_answer * (2.0 * ind - (1.0 + alpha_n) * p_answer)
    return ErrorBreakdown(estimation_error=est, model_error=(p_answer - ind) ** 2)


@dataclass(frozen=True)
class MCErrorEstimate(TargetErrors):
    """Monte Carlo counterpart of ``OutcomeEnumeration``.

    ``estimation_error`` and ``reasoning_error`` are means over the same
    trials; ``stderr`` is the standard error of ``estimation_error``.
    """

    stderr: float


def monte_carlo_estimation_error(
    oracle: OracleSpec,
    kind: str,
    target: ScoredKey,
    n: int,
    trials: int,
    seed: int,
) -> MCErrorEstimate:
    """Estimation and reasoning error of an estimator over seeded trials.

    Runs on per-trial sample counts, which determine the SC, PPL and PC
    statistics without materializing path objects; a cross-check against
    the object-level estimators is part of the test suite.
    ``target_paths`` resolves the target: an answer (SC, PC) to its paths,
    an oracle path (PPL) to itself.  SC estimates their vote fraction; PC,
    and PPL over its one path, the summed mass of those that were sampled.

    Each trial draws only the categories its statistic reads, with every
    other path merged into one trailing category: SC draws the target's
    total mass against the rest, PC and PPL each target path (in index
    order) and then the rest.
    """
    if kind not in MC_KINDS:
        raise ValueError(f"no fast Monte Carlo route for estimator {kind!r}")
    if trials < 1:
        raise InvalidSampleSizeError(f"Monte Carlo needs trials >= 1, got {trials}")
    indices, true_p, is_correct = target_paths(oracle, target)
    if kind == "SC":
        estimates = _kept_counts([min(1.0, true_p)], n, trials, seed)[:, 0] / n
    else:
        probs = np.asarray([oracle.path_probs[i] for i in indices])
        estimates = ((_kept_counts(probs, n, trials, seed) > 0) * probs).sum(axis=1)
    sq = (estimates - true_p) ** 2
    return MCErrorEstimate(
        true_prob=true_p,
        is_correct=is_correct,
        estimation_error=float(np.mean(sq)),
        reasoning_error=float(np.mean((estimates - float(is_correct)) ** 2)),
        stderr=float(np.std(sq) / math.sqrt(trials)),
    )


def _kept_counts(
    kept: Sequence[float], n: int, trials: int, seed: int
) -> np.ndarray:
    """Per-trial counts of the ``kept`` categories, shape (trials, len(kept)).

    Every other path is merged into one trailing "rest" category, drawn
    and then dropped; the kept columns have the joint law they have over
    all paths.  Rest goes last, so where it stands for the oracle's last
    path alone the draw is the very one made over all paths.  Its mass is
    clamped at 0, since oracle probabilities may sum to 1 + 1e-12.
    """
    rest = max(0.0, 1.0 - math.fsum(kept))
    return sample_count_matrix([*kept, rest], n, trials, seed)[:, :-1]


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
