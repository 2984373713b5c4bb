"""Low-probability path pruning via a two-component Weibull mixture.

The batch's path probabilities are modeled as a mixture of a high and a low
Weibull component, fitted by deterministic EM with the first weight held in
``WEIGHT_BOUNDS``, accelerated by SQUAREM and stopped by ``MAX_MAPS`` or
``TOL``.  The fit iterates on one vector theta = (w1, ln k1, ln lam1, ln k2,
ln lam2); an extrapolated theta is clipped into the box ``_LOWER``..``_UPPER``,
and ``WeibullParams`` and ``MixtureFit`` are built once, when the fit
returns.  Paths are kept when their posterior of belonging to the high
component reaches 0.5, or when they clear the batch mean (the truncated-mean
guard, which also makes the retained set provably non-empty).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, EmptyBatchError, FitDegenerateError

# Shape parameter clamp; outside this range the density is numerically a spike
# or uniform and the solver treats the data as degenerate.
SHAPE_MIN = 1e-3
SHAPE_MAX = 1e3
# Clamp on the first component's weight, so neither component can vanish.
WEIGHT_BOUNDS = (0.2, 0.8)
# Cap on the EM maps (log-likelihood evaluations) a fit may take, extrapolated
# or not, and the log-likelihood change below which it stops as converged.
MAX_MAPS = 200
TOL = 1e-8

_EXP_CAP = 700.0  # exp argument cap to keep log-densities finite
# The box an extrapolated theta is clipped into: the weight clamp, the shape
# clamp and, on ln lam, the exp cap.
_LOWER = np.array([WEIGHT_BOUNDS[0]] + [math.log(SHAPE_MIN), -_EXP_CAP] * 2)
_UPPER = np.array([WEIGHT_BOUNDS[1]] + [math.log(SHAPE_MAX), _EXP_CAP] * 2)

# SQUAREM acceleration of the EM map (Varadhan & Roland 2008, "Simple and
# globally convergent methods for accelerating the convergence of any EM
# algorithm", Scand. J. Stat. 35(2)).  The first cycle starts from the
# iterate _PLAIN_MAPS maps in: from the moment initialization EM moves far
# and not yet along the slow direction extrapolation follows, and a fit
# that plain EM finishes within _PLAIN_MAPS + 2 maps takes exactly those.
# The step length is capped.  As in the SQUAREM package, the cap grows
# fourfold whenever a step at the cap is accepted; it starts at 4, where the
# package's cap of 1 stands after its first cycle.  It halves, down to 1 (a
# plain double map), whenever an extrapolated point is rejected, at the cap
# or inside it, so a run of rejected steps cannot go on at one length.
_PLAIN_MAPS = 4
_STEP_CAP_START = 4.0


@dataclass(frozen=True)
class WeibullParams:
    """Shape/scale pair, both strictly positive and finite."""

    shape: float
    scale: float

    def __post_init__(self):
        if not (math.isfinite(self.shape) and self.shape > 0):
            raise DomainError(f"shape must be positive and finite, got {self.shape}")
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise DomainError(f"scale must be positive and finite, got {self.scale}")

    def log_mean(self) -> float:
        """log of the distribution mean scale * Gamma(1 + 1/shape)."""
        return math.log(self.scale) + math.lgamma(1.0 + 1.0 / self.shape)

    def mean(self) -> float:
        try:
            return math.exp(self.log_mean())
        except OverflowError:
            return math.inf


@dataclass(frozen=True)
class MixtureFit:
    """A two-component Weibull mixture, fitted or given.

    ``high_index`` designates the component with the larger distribution
    mean (ties broken toward the larger scale); a fit's ``w1`` lies in
    ``WEIGHT_BOUNDS``.  Weights must lie in (0, 1) and sum to 1 within 1e-9,
    and shapes in [SHAPE_MIN, SHAPE_MAX], so every log-density at a finite
    ln x is finite.  The mixture is evaluated at w2 = 1 - w1; a fit sets
    ``w2`` to exactly that.
    """

    comp1: WeibullParams
    comp2: WeibullParams
    w1: float
    w2: float
    high_index: int
    loglik: float
    converged: bool
    n_iter: int = 0

    def __post_init__(self):
        w1, w2 = self.w1, self.w2
        if not (0.0 < w1 < 1.0 and 0.0 < w2 < 1.0 and abs(w1 + w2 - 1.0) <= 1e-9):
            raise DomainError(f"weights {w1}, {w2} must lie in (0, 1) and sum to 1")
        if self.high_index not in (1, 2):
            raise DomainError("high_index must be 1 or 2")
        if not all(SHAPE_MIN <= c.shape <= SHAPE_MAX for c in (self.comp1, self.comp2)):
            raise DomainError(f"component shapes must lie in [{SHAPE_MIN}, {SHAPE_MAX}]")

    @property
    def high(self) -> WeibullParams:
        return self.comp1 if self.high_index == 1 else self.comp2


@dataclass(frozen=True)
class PruningReport:
    """Which unique-path indices survived pruning, and why."""

    fit: Optional[MixtureFit]
    retained_indices: Tuple[int, ...]
    removed_indices: Tuple[int, ...]
    fallback_used: bool
    mean_threshold: float


def _log_data(probs) -> np.ndarray:
    """ln x of mixture data, which must be positive and finite (DomainError)."""
    x = np.asarray(probs, dtype=float)
    if np.any(x <= 0.0) or not np.all(np.isfinite(x)):
        raise DomainError("mixture data must be positive and finite")
    return np.log(x)


def _log_joint(log_x: np.ndarray, theta: np.ndarray):
    """Rows log(w_j f_j(x)), j = 1, 2, of the mixture at theta, and their logaddexp."""
    # log(w f(x)) = u - exp(u) - ln x + log w + log k, u = k (ln x - ln lam),
    # with exp's argument capped.
    w1 = float(theta[0])
    log_k, log_lam = theta[1::2, None], theta[2::2, None]
    u = np.exp(log_k) * (log_x - log_lam)
    log_wk = log_k + [[math.log(w1)], [math.log(1.0 - w1)]]
    rows = u - np.exp(np.minimum(u, _EXP_CAP)) - log_x + log_wk
    return rows, np.logaddexp(rows[0], rows[1])


def _theta(w1: float, comp1: WeibullParams, comp2: WeibullParams) -> np.ndarray:
    """theta = (w1, ln k1, ln lam1, ln k2, ln lam2) of a mixture, with w2 = 1 - w1."""
    return np.array([w1, *np.log([comp1.shape, comp1.scale, comp2.shape, comp2.scale])])


def _moment_init(x: np.ndarray) -> Tuple[float, float]:
    """Method-of-moments starting (ln k, ln lam) (Justus shape approximation)."""
    mean = float(np.mean(x))
    std = float(np.std(x))
    if std <= 0 or mean <= 0:
        return 0.0, math.log(max(mean, 1e-12))
    cv = std / mean
    k = min(max(cv**-1.086, 0.05), 100.0)
    return math.log(k), math.log(mean) - math.lgamma(1.0 + 1.0 / k)


class _ShapeWorkspace:
    """Precomputed per-dataset arrays shared by every M-step solve.

    The shifted power sums S0 = sum r x^k, S1 = sum r x^k ln x and S2 (with
    ln^2) share a common factor exp(k * max(ln x)) which cancels in every
    ratio the solver uses; the shift keeps x^k from underflowing for small
    x and large k.  All three sums come from a single matrix product.
    """

    def __init__(self, log_x: np.ndarray):
        self.log_x = log_x
        self.shift = float(np.max(log_x))
        self.centered = log_x - self.shift
        self.powers = np.stack(
            [np.ones_like(log_x), log_x, log_x * log_x], axis=1
        )

    def stats(self, k: float, r: np.ndarray):
        """[S0, S1, S2] for weights r at shape k."""
        # np.dot reaches the same BLAS kernel as ``@`` with less overhead.
        return np.dot(np.exp(self.centered * k) * r, self.powers).tolist()


def _weighted_mle(
    r: np.ndarray, r_sum: float, ws: _ShapeWorkspace, k_start: float
) -> Tuple[float, float]:
    """Weighted Weibull MLE: shape from safeguarded root-finding, scale closed.

    The shape solves g(k) = S1/S0 - 1/k - mean_r(ln x) = 0, which is
    strictly increasing in k, so a Newton iteration safeguarded by a
    sign-change bracket converges to the unique root; data with no weighted
    spread push the root to a clamp.  Warm-started from the current shape,
    the solve usually exits after one evaluation once EM has settled.
    Returns (ln k, ln lam), with ln lam = shift + ln(S0 / sum r) / k
    reusing the power sums from the final shape evaluation.
    """
    t = float(np.dot(r, ws.log_x)) / r_sum
    lo, hi = SHAPE_MIN, SHAPE_MAX
    k = min(max(k_start, lo), hi)
    s0 = 0.0
    k_eval = k
    for _ in range(60):
        k_eval = k
        s0, s1, s2 = ws.stats(k, r)
        if s0 <= 0.0:
            g, slope = -1.0, 1.0 / (k * k)
        else:
            ratio = s1 / s0
            g = ratio - 1.0 / k - t
            slope = (s2 / s0 - ratio * ratio) + 1.0 / (k * k)
        if abs(g) < 1e-12:
            break
        if g > 0.0:
            hi = k
        else:
            lo = k
        step = g / slope if slope > 0 else 0.0
        k_new = k - step
        if not (lo < k_new < hi):
            k_new = 0.5 * (lo + hi)
        if abs(k_new - k) < 1e-12 * k:
            break
        k = k_new
    if k != k_eval:
        s0 = ws.stats(k, r)[0]
    if s0 <= 0.0:
        return math.log(k), ws.shift
    return math.log(k), ws.shift + math.log(s0 / r_sum) / k


def _extrapolate(theta0, theta1, theta2, step_cap):
    """SQUAREM (scheme S3) point from three successive EM iterates of theta.

    With r = t1 - t0 and v = t2 - 2 t1 + t0 the step length is
    alpha = -|r| / |v|, held within [-step_cap, -1], and the point is
    t0 - 2 alpha r + alpha^2 v, clipped into the box ``_LOWER``..``_UPPER``
    so it is always valid.  Returns the point and alpha; alpha = -1 gives
    t2 itself, returned as is.
    """
    r = theta1 - theta0
    v = theta2 - 2.0 * theta1 + theta0
    norm_v = math.hypot(*v.tolist())
    if not norm_v > 0.0:
        return theta2, -1.0
    alpha = max(min(-math.hypot(*r.tolist()) / norm_v, -1.0), -step_cap)
    if alpha == -1.0:
        return theta2, alpha
    return (theta0 - 2.0 * alpha * r + alpha * alpha * v).clip(_LOWER, _UPPER), alpha


def _m_step(ws: _ShapeWorkspace, theta: np.ndarray, rows, norm) -> np.ndarray:
    """The EM map's M-step from theta, given the E-step rows and norm at theta.

    ``w1`` is the first component's mean responsibility clamped to
    ``WEIGHT_BOUNDS``; each component whose responsibilities sum past 1e-12
    gets its weighted Weibull MLE, warm-started from its shape in theta,
    and keeps its theta entries otherwise.
    """
    r1 = np.exp(rows[0] - norm)
    r1_sum = float(r1.sum())
    r2_sum = r1.size - r1_sum
    mapped = theta.tolist()
    mapped[0] = min(max(r1_sum / r1.size, WEIGHT_BOUNDS[0]), WEIGHT_BOUNDS[1])
    if r1_sum > 1e-12:
        mapped[1:3] = _weighted_mle(r1, r1_sum, ws, math.exp(mapped[1]))
    if r2_sum > 1e-12:
        mapped[3:] = _weighted_mle(1.0 - r1, r2_sum, ws, math.exp(mapped[3]))
    return np.array(mapped)


def _fit_from_theta(
    log_x: np.ndarray, theta: np.ndarray, converged: bool, n_maps: int
) -> MixtureFit:
    """The ``MixtureFit`` at theta, with its log-likelihood over ln x.

    The components are exp of theta's logs, and ``loglik`` is evaluated at
    the theta read back from them, as ``mixture_loglik`` evaluates it.  The
    component with the larger mean is high; a tie goes to the larger scale.
    """
    w1 = float(theta[0])
    k1, lam1, k2, lam2 = map(math.exp, theta[1:].tolist())
    comp1, comp2 = WeibullParams(k1, lam1), WeibullParams(k2, lam2)
    high = 1 if (comp1.log_mean(), comp1.scale) >= (comp2.log_mean(), comp2.scale) else 2
    return MixtureFit(
        comp1=comp1,
        comp2=comp2,
        w1=w1,
        w2=1.0 - w1,
        high_index=high,
        loglik=float(_log_joint(log_x, _theta(w1, comp1, comp2))[1].sum()),
        converged=converged,
        n_iter=n_maps,
    )


def fit_mixture(probs: Sequence[float]) -> MixtureFit:
    """Bounded-weight maximum-likelihood fit of the two-Weibull mixture.

    Deterministic EM on theta = (w1, ln k1, ln lam1, ln k2, ln lam2):
    responsibilities in the E-step, per-component weighted Weibull MLE in
    the M-step (shape from safeguarded root-finding, scale in closed form),
    ``w1`` clamped to ``WEIGHT_BOUNDS`` (``_m_step``).  Starts from a fixed
    median-split moment initialization; the result is ``_fit_from_theta``.

    The EM map F is accelerated by SQUAREM, scheme S3.  After the first
    ``_PLAIN_MAPS`` plain maps, each cycle takes two plain maps t1 = F(t0)
    and t2 = F(t1), extrapolates from them (``_extrapolate``) to t', and
    applies one stabilizing map F(t').  When the log-likelihood at t' is
    not finite or falls below the one at t1, the cycle falls back to t2 and
    skips that map's M-step, so accepted log-likelihoods never decrease.

    ``MAX_MAPS`` caps the number of EM maps, that is of log-likelihood
    evaluations, which ``n_iter`` reports.  After every map whose point is
    accepted, the fit stops once the log-likelihood moved less than
    ``TOL``; ``converged`` is False only when the cap stopped it first.

    Raises FitDegenerateError when fewer than 4 points or fewer than 2
    distinct values are supplied; callers fall back to mean-only pruning.
    """
    x = np.asarray(list(probs), dtype=float)
    if x.size < 4:
        raise FitDegenerateError(f"need at least 4 data points, got {x.size}")
    log_x = _log_data(x)
    if np.unique(x).size < 2:
        raise FitDegenerateError("mixture data has no spread")

    ws = _ShapeWorkspace(log_x)
    order = np.argsort(x, kind="stable")
    half = x.size // 2
    theta = np.array([0.5, *_moment_init(x[order[:half]]), *_moment_init(x[order[half:]])])
    # The plain iterates of the current cycle and, while theta is an
    # extrapolated point, the pair (t2 to fall back to, step length).
    plain = [theta]
    pending = None
    step_cap = _STEP_CAP_START

    loglik = -math.inf
    converged = False
    n_maps = 0
    while n_maps < MAX_MAPS:
        n_maps += 1
        rows, norm = _log_joint(log_x, theta)
        new_loglik = float(norm.sum())
        if pending is not None:
            fallback, alpha = pending
            pending = None
            if not (math.isfinite(new_loglik) and new_loglik >= loglik):
                theta = fallback
                plain = [theta]
                step_cap = max(1.0, step_cap / 2.0)
                continue
            if alpha == -step_cap:
                step_cap *= 4.0

        theta = _m_step(ws, theta, rows, norm)
        if abs(new_loglik - loglik) < TOL:
            converged = True
            break
        loglik = new_loglik

        if n_maps <= _PLAIN_MAPS:
            plain = [theta]
            continue
        plain.append(theta)
        if len(plain) == 3 and n_maps < MAX_MAPS:
            theta, alpha = _extrapolate(*plain, step_cap)
            if theta is not plain[2]:
                pending = (plain[2], alpha)
            elif alpha == -step_cap:
                step_cap *= 4.0
            plain = []

    return _fit_from_theta(log_x, theta, converged, n_maps)


def mixture_loglik(probs: Sequence[float], fit: MixtureFit) -> float:
    """Log-likelihood of data, each positive and finite, under a given mixture."""
    theta = _theta(fit.w1, fit.comp1, fit.comp2)
    return float(_log_joint(_log_data(list(probs)), theta)[1].sum())


def _p_high_arr(log_x: np.ndarray, fit: MixtureFit) -> np.ndarray:
    """The E-step's responsibility of the high component at each ln x."""
    rows, norm = _log_joint(log_x, _theta(fit.w1, fit.comp1, fit.comp2))
    return np.exp(rows[fit.high_index - 1] - norm)


def p_high(x: float, fit: MixtureFit) -> float:
    """Posterior probability that x, positive and finite, came from the high component.

    This is the E-step's responsibility w_h f_h(x) / (w1 f1(x) + w2 f2(x)),
    taken in log space as exp(l_h - logaddexp(l1, l2)).
    """
    return float(_p_high_arr(_log_data([x]), fit)[0])


def prune(probs: Sequence[float]) -> PruningReport:
    """Split unique-path probabilities into retained and removed index sets.

    Retained = {i : p_high(p_i) >= 0.5} union {i : p_i >= mean(p)}.  When
    the mixture fit is degenerate only the mean rule applies.  The maximum
    element always clears the mean, so the retained set is never empty.
    """
    x = [float(p) for p in probs]
    if len(x) == 0:
        raise EmptyBatchError("cannot prune an empty path set")
    # The true mean never exceeds the max; clamping shields the non-empty
    # retention guarantee from summation rounding on near-constant data.
    mean = min(math.fsum(x) / len(x), max(x))

    try:
        fit: Optional[MixtureFit] = fit_mixture(x)
    except FitDegenerateError:
        fit = None

    posteriors = [0.0] * len(x) if fit is None else _p_high_arr(np.log(x), fit).tolist()
    keep = [p >= mean or post >= 0.5 for p, post in zip(x, posteriors)]

    retained = tuple(i for i, k in enumerate(keep) if k)
    removed = tuple(i for i, k in enumerate(keep) if not k)
    return PruningReport(
        fit=fit,
        retained_indices=retained,
        removed_indices=removed,
        fallback_used=fit is None,
        mean_threshold=mean,
    )
