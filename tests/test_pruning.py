"""Weibull mixture fitting, the high-component posterior, and pruning."""

import math
import statistics

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammaln
from scipy.stats import weibull_min

from reasonconf import (
    DomainError,
    EmptyBatchError,
    FitDegenerateError,
    MixtureFit,
    WeibullParams,
    fit_mixture,
    mixture_loglik,
    p_high,
    prune,
)
import reasonconf.pruning
from reasonconf.pruning import SHAPE_MAX, SHAPE_MIN, WEIGHT_BOUNDS, _extrapolate


def bimodal_sample(seed: int, n: int = 128):
    """Half W(shape=2, scale=0.8), half W(shape=1.5, scale=0.1), labeled."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    from_high = rng.random(n) < 0.5
    values = np.where(
        from_high, 0.8 * rng.weibull(2.0, n), 0.1 * rng.weibull(1.5, n)
    )
    return values, from_high


TRUE_BIMODAL = MixtureFit(
    comp1=WeibullParams(shape=2.0, scale=0.8),
    comp2=WeibullParams(shape=1.5, scale=0.1),
    w1=0.5,
    w2=0.5,
    high_index=1,
    loglik=0.0,
    converged=True,
)


def single_weibull(k: float, lam: float) -> MixtureFit:
    """A mixture whose two components are the same Weibull W(k, lam)."""
    comp = WeibullParams(k, lam)
    return MixtureFit(
        comp1=comp, comp2=comp, w1=0.5, w2=0.5, high_index=1, loglik=0.0, converged=True
    )


def simulate_prune_batch(seed: int):
    """Unique-path probabilities shaped like a ``simulate`` RPC batch.

    The oracle holds 500 paths whose probabilities follow a log-normal
    profile (sigma 1.5) summing to 1; a batch keeps 64-256 distinct paths,
    drawn with probability proportional to their own.
    """
    normal = statistics.NormalDist()
    profile = np.exp(1.5 * np.array([normal.inv_cdf((i + 0.5) / 500) for i in range(500)]))
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    probs = rng.permutation(profile)
    probs /= probs.sum()
    size = int(rng.integers(64, 257))
    return probs[rng.choice(500, size=size, replace=False, p=probs)].tolist()


SIMULATE_FAMILY = [simulate_prune_batch(seed) for seed in range(40)]


def plain_em(probs, tol: float, max_iter: int) -> MixtureFit:
    """Unaccelerated EM: the reference the accelerated fit must agree with.

    The same start, EM map and result as ``fit_mixture``, one sweep at a
    time, stopping once the log-likelihood moves less than ``tol``.
    """
    from reasonconf.pruning import (
        _fit_from_theta,
        _log_joint,
        _m_step,
        _moment_init,
        _ShapeWorkspace,
    )

    x = np.asarray(probs, dtype=float)
    log_x = np.log(x)
    ws = _ShapeWorkspace(log_x)
    order = np.argsort(x, kind="stable")
    theta = np.array(
        [0.5, *_moment_init(x[order[: x.size // 2]]), *_moment_init(x[order[x.size // 2 :]])]
    )
    loglik, converged = -math.inf, False
    for sweep in range(1, max_iter + 1):
        rows, norm = _log_joint(log_x, theta)
        new_loglik = float(norm.sum())
        theta = _m_step(ws, theta, rows, norm)
        if abs(new_loglik - loglik) < tol:
            converged = True
            break
        loglik = new_loglik
    return _fit_from_theta(log_x, theta, converged, sweep)


def two_mode_batch(seed: int, n: int = 51):
    """Two well-separated modes like an ingested dump's unique paths.

    Each path's probability is the geometric mean of 256 token
    probabilities whose negative logs are exponential with mean near 0.3
    (45% of paths) or near 2.5.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    high = rng.random(n) < 0.45
    scale = np.where(high, rng.normal(0.3, 0.03, n), rng.normal(2.5, 0.2, n))
    return [float(np.exp(-np.mean(rng.exponential(s, 256)))) for s in scale]


def density(x: float, fit: MixtureFit) -> float:
    return math.exp(mixture_loglik([x], fit))


class TestWeibullPdf:
    def test_exponential_special_case(self):
        assert density(1.0, single_weibull(1.0, 1.0)) == pytest.approx(
            math.exp(-1.0), abs=1e-12
        )

    def test_shape_two(self):
        assert density(1.0, single_weibull(2.0, 1.0)) == pytest.approx(
            2.0 * math.exp(-1.0), abs=1e-12
        )

    @pytest.mark.parametrize("k,lam", [(0.7, 0.2), (1.0, 0.5), (3.0, 0.9)])
    def test_at_scale_point(self, k, lam):
        assert density(lam, single_weibull(k, lam)) == pytest.approx(
            (k / lam) * math.exp(-1.0), rel=1e-12
        )

    @pytest.mark.parametrize("k,lam", [(0.5, 0.3), (2.0, 0.8), (1.5, 0.1)])
    def test_agrees_with_scipy(self, k, lam):
        xs = np.linspace(0.01, 1.5, 40)
        ours = [density(float(x), single_weibull(k, lam)) for x in xs]
        ref = weibull_min.pdf(xs, c=k, scale=lam)
        np.testing.assert_allclose(ours, ref, rtol=1e-10)

    @pytest.mark.parametrize("k", [SHAPE_MIN, 0.05, 1.0, 100.0, SHAPE_MAX])
    @pytest.mark.parametrize("lam", [0.3, 1.0])
    def test_log_mean_agrees_with_scipy(self, k, lam):
        ref = math.log(lam) + float(gammaln(1.0 + 1.0 / k))
        assert WeibullParams(k, lam).log_mean() == pytest.approx(ref, rel=0, abs=1e-12)

    def test_mean_past_the_float_range_is_inf(self):
        # Gamma(1 + 1/SHAPE_MIN) = 1000! overflows a float; its log does not.
        params = WeibullParams(SHAPE_MIN, 1.0)
        assert math.isfinite(params.log_mean())
        assert params.mean() == math.inf

    def test_invalid_params_rejected(self):
        with pytest.raises(DomainError):
            WeibullParams(0.0, 1.0)
        with pytest.raises(DomainError):
            WeibullParams(1.0, -1.0)


class TestFitMixture:
    def test_three_points_degenerate(self):
        with pytest.raises(FitDegenerateError):
            fit_mixture([0.1, 0.5, 0.9])

    def test_constant_data_degenerate(self):
        with pytest.raises(FitDegenerateError):
            fit_mixture([0.4] * 10)

    def test_nonpositive_data_rejected(self):
        with pytest.raises(DomainError):
            fit_mixture([0.1, 0.2, -0.3, 0.4])

    @given(
        st.lists(st.floats(min_value=-300.0, max_value=0.0), min_size=4, max_size=48)
        .map(lambda exps: [10.0**e for e in exps])
        .filter(lambda probs: len(set(probs)) >= 2)
    )
    @example([1e-300] * 3 + [1.0] * 3)
    @example(np.geomspace(1e-300, 1.0, 40).tolist())
    @settings(max_examples=60, deadline=None)
    def test_data_spanning_the_float_range_fit_finitely(self, probs):
        fit = fit_mixture(probs)
        assert math.isfinite(fit.loglik)
        assert WEIGHT_BOUNDS[0] <= fit.w1 <= WEIGHT_BOUNDS[1]

    def test_bimodal_recovery(self):
        values, from_high = bimodal_sample(seed=0)
        fit = fit_mixture(values.tolist())
        posterior = np.array([p_high(float(v), fit) for v in values])
        agreement = np.mean((posterior >= 0.5) == from_high)
        assert agreement >= 0.9
        # A maximum-likelihood fit cannot lose badly to the generating
        # parameters on the same data.
        assert fit.loglik >= mixture_loglik(values.tolist(), TRUE_BIMODAL) - 0.01 * 128

    def test_component_means_separate_the_modes(self):
        values, _ = bimodal_sample(seed=0)
        fit = fit_mixture(values.tolist())
        low = fit.comp1 if fit.high_index == 2 else fit.comp2
        assert fit.high.mean() > 5 * low.mean()

    def test_single_component_data_still_valid(self):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(123)))
        values = 0.5 * rng.weibull(2.0, 96)
        fit = fit_mixture(values.tolist())
        lo, hi = WEIGHT_BOUNDS
        assert lo <= fit.w1 <= hi
        # Reference: unweighted single-Weibull MLE via scipy's optimizer.
        k_hat, _, lam_hat = weibull_min.fit(values, floc=0)
        single = float(np.sum(weibull_min.logpdf(values, c=k_hat, scale=lam_hat)))
        assert fit.loglik >= single - 1e-6 * len(values)

    @pytest.mark.parametrize("seed", [0, 4, 123])
    def test_loglik_is_mixture_loglik_bit_for_bit(self, seed):
        values, _ = bimodal_sample(seed=seed, n=64)
        fit = fit_mixture(values.tolist())
        assert fit.loglik == mixture_loglik(values.tolist(), fit)

    def test_deterministic_bit_for_bit(self):
        values, _ = bimodal_sample(seed=4)
        a = fit_mixture(values.tolist())
        b = fit_mixture(values.tolist())
        assert (a.comp1, a.comp2, a.w1, a.loglik) == (b.comp1, b.comp2, b.w1, b.loglik)

    def test_weighted_mle_is_a_pure_function(self):
        # The M-step reads only its arguments: repeated calls, calls in a
        # different order and a fresh workspace all give the same result,
        # and the weights are left as they were.
        from reasonconf.pruning import _ShapeWorkspace, _weighted_mle

        values, _ = bimodal_sample(seed=5, n=64)
        ws = _ShapeWorkspace(np.log(values))
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(6)))
        cases = []
        for k_start in (0.3, 1.0, 2.5, 40.0):
            r = rng.random(values.size)
            cases.append((r, float(r.sum()), k_start))
        first = [_weighted_mle(r, r_sum, ws, k) for r, r_sum, k in cases]
        # (ln k, ln lam), with the shape inside the clamp.
        assert all(
            len(params) == 2
            and all(type(v) is float for v in params)
            and SHAPE_MIN <= math.exp(params[0]) <= SHAPE_MAX
            for params in first
        )
        kept = [r.copy() for r, _, _ in cases]
        fresh = _ShapeWorkspace(np.log(values))
        again = [_weighted_mle(r, r_sum, fresh, k) for r, r_sum, k in reversed(cases)]
        assert again[::-1] == first
        assert all(np.array_equal(r, r0) for (r, _, _), r0 in zip(cases, kept))

    def test_retained_sets_match_a_tight_plain_em(self, monkeypatch):
        # Plain EM crawls on these batches; run to tol 1e-12 it reaches
        # the fixed point the accelerated fit must find.  At the default
        # tol both stop short of it, since |dloglik| < tol says little
        # where each map gains little: the accelerated fit must still stop
        # no more than tol below plain EM at the default tol and cap, and
        # at tol 1e-12 within 1e-9 of the reference.
        for probs in SIMULATE_FAMILY:
            ref = plain_em(probs, tol=1e-12, max_iter=100_000)
            assert ref.converged
            mean = math.fsum(probs) / len(probs)
            ref_keep = tuple(
                i
                for i, p in enumerate(probs)
                if p >= mean or p_high(p, ref) >= 0.5
            )
            assert prune(probs).retained_indices == ref_keep
            plain = plain_em(probs, tol=1e-8, max_iter=200)
            assert fit_mixture(probs).loglik >= plain.loglik - 1e-8
            with monkeypatch.context() as patched:
                patched.setattr(reasonconf.pruning, "TOL", 1e-12)
                patched.setattr(reasonconf.pruning, "MAX_MAPS", 100_000)
                tight = fit_mixture(probs)
            assert tight.loglik >= ref.loglik - 1e-9

    def test_converges_within_the_default_cap(self):
        fits = [fit_mixture(probs) for probs in SIMULATE_FAMILY]
        assert all(fit.converged for fit in fits)
        assert max(fit.n_iter for fit in fits) < reasonconf.pruning.MAX_MAPS

    @pytest.mark.parametrize("max_iter", [1, 2, 3, 24, 200])
    def test_n_iter_never_exceeds_max_iter(self, monkeypatch, max_iter):
        monkeypatch.setattr(reasonconf.pruning, "MAX_MAPS", max_iter)
        batches = SIMULATE_FAMILY[:8] + [bimodal_sample(seed=s)[0].tolist() for s in range(4)]
        for probs in batches:
            fit = fit_mixture(probs)
            assert fit.n_iter <= max_iter
            assert fit.converged or fit.n_iter == max_iter

    # (seed, EM sweeps of the unaccelerated fit, maps now): fits that plain
    # EM finishes within the first plain maps take exactly as many.
    @pytest.mark.parametrize(
        "seed,plain_sweeps,maps",
        [(0, 6, 6), (1, 6, 6), (2, 4, 4), (3, 5, 5), (4, 10, 9), (5, 3, 3), (12, 7, 7)],
    )
    def test_two_mode_fits_take_no_extra_maps(self, seed, plain_sweeps, maps):
        probs = two_mode_batch(seed)
        plain = plain_em(probs, tol=1e-8, max_iter=200)
        assert plain.n_iter == plain_sweeps
        fit = fit_mixture(probs)
        assert fit.converged
        assert fit.n_iter == maps <= plain_sweeps
        if maps == plain_sweeps:
            # No extrapolated point was taken: the fit is plain EM's, field for field.
            assert fit == plain
        else:
            assert fit.high_index == plain.high_index
            assert fit.loglik == pytest.approx(plain.loglik, rel=0, abs=1e-8)

    def test_weight_bounds_respected(self):
        for seed in range(4):
            values, _ = bimodal_sample(seed=seed, n=32)
            fit = fit_mixture(values.tolist())
            assert 0.2 <= fit.w1 <= 0.8
            assert fit.w1 + fit.w2 == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("seed", [0, 4, 123])
    def test_mixture_pdf_integrates_to_one(self, seed):
        values, _ = bimodal_sample(seed=seed, n=64)
        fit = fit_mixture(values.tolist())
        total, err = quad(lambda x: density(x, fit), 0.0, np.inf, limit=200)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_values_above_one_accepted(self):
        # The generating high component has mass above 1; the fit must not
        # reject those draws.
        values, _ = bimodal_sample(seed=2)
        assert values.max() > 1.0
        fit = fit_mixture(values.tolist())
        assert fit.loglik > -np.inf


class TestExtrapolate:
    """The SQUAREM point from three successive EM iterates of theta."""

    # Dyadic entries keep r = t1 - t0 and v = t2 - 2 t1 + t0 exact.
    T0 = np.array([0.5, 0.25, -1.0, 0.75, -3.0])
    D = np.array([0.015625, 0.125, -0.25, 0.0, 0.5])

    @staticmethod
    def iterates(t0, r, v):
        """t0, t1, t2 with t1 - t0 = r and t2 - 2 t1 + t0 = v."""
        t1 = t0 + r
        return t0, t1, t1 + r + v

    def test_zero_curvature_gives_t2(self):
        t0, t1, t2 = self.iterates(self.T0, self.D, np.zeros(5))
        point, alpha = _extrapolate(t0, t1, t2, 4.0)
        assert point is t2 and alpha == -1.0

    def test_short_step_gives_t2_itself(self):
        v = np.array([0.0, 0.0, 0.0, 1.0, 0.0])
        assert math.hypot(*self.D) < 1.0
        t0, t1, t2 = self.iterates(self.T0, self.D, v)
        point, alpha = _extrapolate(t0, t1, t2, 4.0)
        assert point is t2 and alpha == -1.0

    def test_step_held_at_the_cap(self):
        v = np.array([0.0, 0.0, 0.0, 2.0**-20, 0.0])
        point, alpha = _extrapolate(*self.iterates(self.T0, self.D, v), 4.0)
        assert alpha == -4.0
        assert point.tolist() == (self.T0 + 8.0 * self.D + 16.0 * v).tolist()

    def test_point_clipped_into_the_box(self):
        r = np.array([1.0, 10.0, 500.0, -10.0, -500.0])
        v = np.array([2.0**-20, 0.0, 0.0, 0.0, 0.0])
        point, alpha = _extrapolate(*self.iterates(self.T0, r, v), 4.0)
        assert alpha == -4.0
        w1, log_k1, log_lam1, log_k2, log_lam2 = point.tolist()
        assert w1 == WEIGHT_BOUNDS[1]
        assert SHAPE_MIN <= math.exp(log_k2) < math.exp(log_k1) <= SHAPE_MAX
        assert (log_lam1, log_lam2) == (700.0, -700.0)


class TestPHigh:
    def test_identical_components_give_half(self):
        fit = MixtureFit(
            comp1=WeibullParams(2.0, 0.5),
            comp2=WeibullParams(2.0, 0.5),
            w1=0.5,
            w2=0.5,
            high_index=1,
            loglik=0.0,
            converged=True,
        )
        for x in (0.01, 0.2, 0.5, 0.9):
            assert p_high(x, fit) == pytest.approx(0.5, abs=1e-12)

    def test_high_mode_scores_above_half(self):
        values, _ = bimodal_sample(seed=0)
        fit = fit_mixture(values.tolist())
        assert p_high(fit.high.mean(), fit) > 0.5

    def test_vanishing_input_scores_low(self):
        values, _ = bimodal_sample(seed=0)
        fit = fit_mixture(values.tolist())
        assert p_high(1e-6, fit) < 0.05

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            p_high(0.0, TRUE_BIMODAL)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, x):
        # The E-step formula has no value at a non-finite x.
        with pytest.raises(DomainError, match="positive and finite"):
            p_high(x, TRUE_BIMODAL)

    def test_bounded_everywhere(self):
        values, _ = bimodal_sample(seed=3)
        fit = fit_mixture(values.tolist())
        for x in np.geomspace(1e-12, 1.0, 60):
            assert 0.0 <= p_high(float(x), fit) <= 1.0

    def test_far_tail_posterior_is_exactly_one(self):
        # Far beyond both components' support both densities underflow to 0,
        # but their logs stay finite: -(1/0.01)^5 = -1e10 against -1e18, so
        # the responsibility of component 1 is exp(0) = 1 with no fallback.
        fit = MixtureFit(
            comp1=WeibullParams(5.0, 0.01),
            comp2=WeibullParams(6.0, 0.001),
            w1=0.5,
            w2=0.5,
            high_index=1,
            loglik=0.0,
            converged=True,
        )
        assert p_high(1.0, fit) == 1.0


class TestRejections:
    """Bad data and bad mixtures raise DomainError instead of giving nan."""

    @pytest.mark.parametrize(
        "probs",
        [[0.2, 0.0], [0.2, -0.1], [0.2, math.nan], [0.2, math.inf]],
        ids=["zero", "negative", "nan", "inf"],
    )
    def test_mixture_loglik_data(self, probs):
        with pytest.raises(DomainError, match="positive and finite"):
            mixture_loglik(probs, TRUE_BIMODAL)

    @pytest.mark.parametrize(
        "w1,w2", [(0.0, 1.0), (1.0, 0.0), (-0.5, 1.5), (1.5, -0.5), (math.nan, math.nan)]
    )
    def test_weights_outside_the_open_unit_interval(self, w1, w2):
        with pytest.raises(DomainError, match=r"must lie in \(0, 1\) and sum to 1"):
            MixtureFit(TRUE_BIMODAL.comp1, TRUE_BIMODAL.comp2, w1, w2, 1, 0.0, True)

    @pytest.mark.parametrize(
        "shape", [SHAPE_MIN / 2, SHAPE_MAX * 1.01, 1e306], ids=["low", "high", "1e306"]
    )
    @pytest.mark.parametrize("index", [1, 2])
    def test_shapes_outside_the_clamp(self, shape, index):
        comps = [TRUE_BIMODAL.comp1, TRUE_BIMODAL.comp2]
        comps[index - 1] = WeibullParams(shape, 0.5)
        with pytest.raises(DomainError, match="shapes must lie in"):
            MixtureFit(*comps, 0.5, 0.5, 1, 0.0, True)

    def test_clamp_edges_are_valid_mixtures(self):
        fit = MixtureFit(
            WeibullParams(SHAPE_MIN, 1e-300), WeibullParams(SHAPE_MAX, 1e300),
            0.2, 0.8, 2, 0.0, True,
        )
        # With every log-density finite, the posterior is defined everywhere.
        for x in (1e-300, 1e-5, 1.0, 1e300):
            assert 0.0 <= p_high(x, fit) <= 1.0


class TestPrune:
    def test_mean_rule_on_three_paths(self):
        report = prune([0.5, 0.3, 0.1])
        assert report.fallback_used
        assert report.retained_indices == (0, 1)
        assert report.removed_indices == (2,)

    def test_identical_probs_all_retained(self):
        report = prune([0.25] * 6)
        assert report.retained_indices == tuple(range(6))

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyBatchError):
            prune([])

    def test_bimodal_removes_only_low_component_points(self):
        # Seed chosen so the smallest high-component draw (0.244) sits well
        # above the crossover; with overlapping draws no classifier could
        # keep every generated-high point.
        values, from_high = bimodal_sample(seed=306)
        assert values[from_high].min() > 0.2
        report = prune(values.tolist())
        assert not report.fallback_used
        for i in report.removed_indices:
            assert not from_high[i]

    def test_partition_is_exact(self):
        values, _ = bimodal_sample(seed=5, n=40)
        report = prune(values.tolist())
        together = sorted(report.retained_indices + report.removed_indices)
        assert together == list(range(40))

    @given(
        st.lists(
            st.floats(min_value=1e-9, max_value=1.0), min_size=1, max_size=40
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_never_empty(self, probs):
        report = prune(probs)
        assert len(report.retained_indices) >= 1

    @given(
        st.lists(
            st.floats(min_value=1e-6, max_value=0.5), min_size=2, max_size=20
        ),
        st.floats(min_value=0.51, max_value=1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_new_max_stays_retained_and_retention_stays_nonempty(self, probs, new_max):
        # Adding a value above the running max raises the mean, which may
        # legitimately drop borderline members, but the new max itself is
        # always retained and retention never empties.
        before = prune(probs)
        after = prune(probs + [new_max])
        assert len(before.retained_indices) >= 1
        assert len(after.retained_indices) >= 1
        assert len(probs) in after.retained_indices
        for i, p in enumerate(probs):
            if p >= after.mean_threshold:
                assert i in after.retained_indices
