"""Weibull mixture fitting, the high-component posterior, and pruning."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import weibull_min

from reasonconf import (
    DomainError,
    EmptyBatchError,
    FitDegenerateError,
    FitConfig,
    MixtureFit,
    WeibullParams,
    fit_mixture,
    mixture_loglik,
    p_high,
    prune,
)


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
        lo, hi = FitConfig().weight_bounds
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

    def test_carried_exp_factor_changes_no_bit(self):
        # Each M-step solve starts from the factor exp(k * centered ln x)
        # kept from the previous sweep; it must land exactly where a solve
        # that recomputes the factor lands.
        from reasonconf.pruning import _ShapeWorkspace, _weighted_mle

        values, _ = bimodal_sample(seed=5, n=64)
        ws = _ShapeWorkspace(np.log(values))
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(6)))
        for k_start in (0.3, 1.0, 2.5, 40.0):
            r = rng.random(values.size)
            r_sum = float(r.sum())
            cold, cold_e = _weighted_mle(r, r_sum, ws, k_start)
            warm, warm_e = _weighted_mle(
                r, r_sum, ws, k_start, ws.exp_factor(k_start)
            )
            assert warm == cold
            np.testing.assert_array_equal(warm_e, cold_e)
            np.testing.assert_array_equal(cold_e, ws.exp_factor(cold.shape))

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

    def test_bounded_everywhere(self):
        values, _ = bimodal_sample(seed=3)
        fit = fit_mixture(values.tolist())
        for x in np.geomspace(1e-12, 1.0, 60):
            assert 0.0 <= p_high(float(x), fit) <= 1.0

    def test_underflow_falls_back_to_mean_split(self):
        # Far beyond both components' support the densities underflow.
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
        report = prune(probs, FitConfig(max_iter=16))
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
        cfg = FitConfig(max_iter=16)
        before = prune(probs, cfg)
        after = prune(probs + [new_max], cfg)
        assert len(before.retained_indices) >= 1
        assert len(after.retained_indices) >= 1
        assert len(probs) in after.retained_indices
        for i, p in enumerate(probs):
            if p >= after.mean_threshold:
                assert i in after.retained_indices
