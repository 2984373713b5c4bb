"""Calibration error, reliability bins, and budget curves."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .errors import DomainError, EmptyInputError


def _bin_index(confidence: float, bins: int) -> int:
    """Equal-width right-closed bins over [0, 1]; confidence 0 joins bin 0."""
    if confidence <= 0.0:
        return 0
    return min(bins - 1, math.ceil(confidence * bins) - 1)


@dataclass(frozen=True)
class CalibrationBins:
    """Per-bin counts, mean confidences, and empirical accuracies.

    Edges are the bins + 1 boundaries of equal-width intervals over [0, 1];
    bin i covers (edges[i], edges[i+1]] except bin 0, which also includes 0.
    Empty bins carry count 0 with zeroed statistics.
    """

    edges: Tuple[float, ...]
    counts: Tuple[int, ...]
    mean_confidence: Tuple[float, ...]
    empirical_accuracy: Tuple[float, ...]

    @property
    def total_count(self) -> int:
        return sum(self.counts)

    def ece(self) -> float:
        """Calibration error recomputed exactly from the bin statistics."""
        n = self.total_count
        return math.fsum(
            (c / n) * abs(acc - conf)
            for c, conf, acc in zip(
                self.counts, self.mean_confidence, self.empirical_accuracy
            )
            if c > 0
        )


def reliability_bins(
    scored: Sequence[Tuple[float, bool]], bins: int = 10
) -> CalibrationBins:
    """Bin (confidence, correct) pairs for a reliability diagram."""
    if len(scored) == 0:
        raise EmptyInputError("no scored items to bin")
    if bins < 1:
        raise DomainError(f"need at least 1 bin, got {bins}")
    # fsum keeps bins of identical confidences exactly calibrated instead
    # of drifting by accumulation rounding.
    confs: List[List[float]] = [[] for _ in range(bins)]
    hit_sums = [0] * bins
    counts = [0] * bins
    for confidence, correct in scored:
        if not (0.0 <= confidence <= 1.0):
            raise DomainError(f"confidence {confidence} outside [0, 1]")
        b = _bin_index(confidence, bins)
        counts[b] += 1
        confs[b].append(confidence)
        hit_sums[b] += 1 if correct else 0
    return CalibrationBins(
        edges=tuple(i / bins for i in range(bins + 1)),
        counts=tuple(counts),
        mean_confidence=tuple(
            math.fsum(confs[i]) / counts[i] if counts[i] else 0.0
            for i in range(bins)
        ),
        empirical_accuracy=tuple(
            hit_sums[i] / counts[i] if counts[i] else 0.0 for i in range(bins)
        ),
    )


def ece(scored: Sequence[Tuple[float, bool]], bins: int = 10) -> float:
    """Expected calibration error under equal-width right-closed binning.

    Sum over bins of (bin count / N) * |bin accuracy - bin mean confidence|.
    """
    return reliability_bins(scored, bins).ece()


@dataclass(frozen=True)
class BudgetPoint:
    n: int
    mean_accuracy: float
    std_accuracy: float


@dataclass(frozen=True)
class BudgetCurve:
    """Accuracy against the sampling budget for one method."""

    method: str
    points: Tuple[BudgetPoint, ...]
    repeats: int

    def __post_init__(self):
        if self.repeats < 1:
            raise DomainError("repeats must be >= 1")
        ns = [p.n for p in self.points]
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise DomainError("budget curve n values must be strictly increasing")


def budget_curve(
    method: str, per_n_accuracies: Sequence[Tuple[int, Sequence[float]]]
) -> BudgetCurve:
    """Aggregate per-seed accuracies into a mean/std curve."""
    points = []
    repeats = 0
    for n, accs in per_n_accuracies:
        if len(accs) == 0:
            raise EmptyInputError(f"no accuracies for n={n}")
        repeats = max(repeats, len(accs))
        mean = math.fsum(accs) / len(accs)
        var = math.fsum((a - mean) ** 2 for a in accs) / len(accs)
        points.append(
            BudgetPoint(n=n, mean_accuracy=mean, std_accuracy=math.sqrt(var))
        )
    return BudgetCurve(method=method, points=tuple(points), repeats=repeats)


def budget_to_match(curve: BudgetCurve, reference_accuracy: float) -> Optional[int]:
    """Smallest budget whose mean accuracy reaches the reference, if any."""
    if len(curve.points) == 0:
        raise EmptyInputError("budget curve has no points")
    for point in curve.points:
        if point.mean_accuracy >= reference_accuracy:
            return point.n
    return None
