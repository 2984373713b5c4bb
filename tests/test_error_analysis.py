"""Closed-form error splits against enumeration, plus diagnostics and rates."""

import math

import numpy as np
import pytest

from reasonconf import (
    AssumptionError,
    DomainError,
    RateFit,
    degeneration_diagnostic,
    empirical_prune_failure_rate,
    exact_estimator_moments,
    hoeffding_bound,
    model_error_comparison,
    monte_carlo_estimation_error,
    pc_closed_form,
    pc_confidence,
    ppl_closed_form,
    ppl_confidence,
    sc_closed_form,
    sc_confidence,
)

from conftest import label, oracle


def pc_exact_regime_moments(p, k, n, correct):
    """Independent reference for the probability-sum estimator when the
    target answer is backed by k equal-probability paths.

    By inclusion-exclusion over which of the k paths get sampled at least
    once (per-draw hit probability p/k):
      E[est]   = p (1 - alpha^n),                alpha = 1 - p/k
      E[est^2] = (p/k)^2 E[X^2], X = number of covered paths, with
      E[X^2]   = k (1 - alpha^n) + k (k-1) (1 - 2 alpha^n + beta^n),
                 beta = 1 - 2p/k
    and the reasoning error follows as E[est^2] - 2 I E[est] + I.
    """
    alpha_n = (1.0 - p / k) ** n
    mean = p * (1.0 - alpha_n)
    if k == 1:
        second = p * p * (1.0 - alpha_n)
    else:
        beta_n = (1.0 - 2.0 * p / k) ** n
        second = p * p * (
            (1.0 - alpha_n) / k + (1.0 - 1.0 / k) * (1.0 - 2.0 * alpha_n + beta_n)
        )
    ind = 1.0 if correct else 0.0
    total = second - 2.0 * ind * mean + ind
    model = (p - ind) ** 2
    return mean, second, total, total - model


class TestVoteClosedForm:
    def test_half_probability_ten_samples(self):
        out = sc_closed_form(0.5, 10, True)
        assert out.estimation_error == pytest.approx(0.025, abs=1e-15)
        assert out.model_error == pytest.approx(0.25, abs=1e-15)

    def test_zero_mass_boundary(self):
        assert sc_closed_form(0.0, 7, True) == sc_closed_form(0.0, 3, True)
        assert sc_closed_form(0.0, 7, True).estimation_error == 0.0
        assert sc_closed_form(0.0, 7, True).model_error == 1.0
        assert sc_closed_form(0.0, 7, False).model_error == 0.0

    def test_incorrect_answer_case(self):
        out = sc_closed_form(0.2, 4, False)
        assert out.estimation_error == pytest.approx(0.04, abs=1e-15)
        assert out.model_error == pytest.approx(0.04, abs=1e-15)
        assert out.total == pytest.approx(0.08, abs=1e-15)

    def test_matches_enumeration_everywhere(self):
        # Unbiased estimator: closed form and brute force agree in every
        # field, including the genuine mean squared deviation.
        for p in (0.1, 0.35, 0.6, 0.85):
            spec = oracle([p, 1.0 - p], ["A", "B"], "A")
            for n in range(1, 7):
                enum = exact_estimator_moments(spec, n, sc_confidence, label("A"))
                out = sc_closed_form(p, n, True)
                assert enum.estimation_error == pytest.approx(
                    out.estimation_error, abs=1e-12
                )
                assert enum.reasoning_error == pytest.approx(out.total, abs=1e-12)

    def test_strictly_decreasing_in_n(self):
        for p in (0.1, 0.5, 0.9):
            errors = [sc_closed_form(p, n, True).estimation_error for n in range(1, 30)]
            assert all(b < a for a, b in zip(errors, errors[1:]))


class TestPathProbClosedForm:
    def test_half_probability_two_samples(self):
        out = ppl_closed_form(0.5, 2, True)
        assert out.estimation_error == pytest.approx(0.1875, abs=1e-15)
        assert out.model_error == pytest.approx(0.25, abs=1e-15)

    def test_certain_path_boundary(self):
        assert ppl_closed_form(1.0, 5, True).estimation_error == 0.0
        assert ppl_closed_form(1.0, 5, False).model_error == 1.0

    def test_incorrect_path_negative_estimation_term(self):
        out = ppl_closed_form(0.5, 2, False)
        assert out.estimation_error == pytest.approx(-0.0625, abs=1e-15)
        assert out.model_error == pytest.approx(0.25, abs=1e-15)
        assert out.total == pytest.approx(0.1875, abs=1e-15)

    @pytest.mark.parametrize("p,truth", [(0.5, "A"), (0.5, "Z"), (0.25, "A")])
    def test_matches_enumeration_residual(self, p, truth):
        # The closed form's estimation term is the residual of the full
        # error after removing the model part; brute force reproduces it
        # and the total exactly.
        spec = oracle([p, 1.0 - p], ["A", "B"], truth)
        for n in range(1, 7):
            enum = exact_estimator_moments(spec, n, ppl_confidence, spec.paths[0])
            out = ppl_closed_form(p, n, truth == "A")
            assert enum.decomposition_estimation_error == pytest.approx(
                out.estimation_error, abs=1e-12
            )
            assert enum.reasoning_error == pytest.approx(out.total, abs=1e-12)

    def test_three_path_oracle_cross_check(self):
        spec = oracle([0.5, 0.3, 0.2], ["A", "B", "C"], "A")
        for n in (1, 3, 5):
            enum = exact_estimator_moments(spec, n, ppl_confidence, spec.paths[1])
            out = ppl_closed_form(0.3, n, False)
            assert enum.reasoning_error == pytest.approx(out.total, abs=1e-12)


class TestProbSumClosedForm:
    def test_direct_evaluation(self):
        out = pc_closed_form(0.6, 2, 3, True)
        alpha_n = 0.7**3
        assert out.estimation_error == pytest.approx(
            alpha_n * 0.6 * (2.0 - (1.0 + alpha_n) * 0.6), abs=1e-15
        )
        assert out.estimation_error == pytest.approx(0.24576636, abs=1e-8)
        assert out.model_error == pytest.approx(0.16, abs=1e-15)

    def test_zero_mass_boundary(self):
        out = pc_closed_form(0.0, 2, 4, True)
        assert out.estimation_error == 0.0
        assert out.model_error == 1.0

    def test_mass_exceeding_path_count_rejected(self):
        with pytest.raises(DomainError):
            pc_closed_form(1.0, 0, 3, True)

    def test_k_one_form(self):
        # At k = 1 the bracket picks up an extra alpha^n p next to the
        # plain path-probability form.
        p, n = 0.5, 2
        alpha_n = (1.0 - p) ** n
        out = pc_closed_form(p, 1, n, True)
        assert out.estimation_error == pytest.approx(
            alpha_n * p * (2.0 - (1.0 + alpha_n) * p), abs=1e-15
        )

    def test_estimation_magnitude_vanishes(self):
        values = [
            abs(pc_closed_form(0.6, 2, n, True).estimation_error)
            for n in (1, 4, 16, 64, 256)
        ]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-30

    def test_gap_to_enumeration_is_squared_decay_factor(self):
        # The closed form drops the squared bias of the truncated estimator:
        # on single-path-per-answer oracles its estimation term sits exactly
        # alpha^(2n) p^2 below the brute-force residual.
        for p in (0.3, 0.5, 0.8):
            spec = oracle([p, 1.0 - p], ["A", "B"], "A")
            for n in (1, 2, 4):
                enum = exact_estimator_moments(spec, n, pc_confidence, label("A"))
                out = pc_closed_form(p, 1, n, True)
                gap = enum.decomposition_estimation_error - out.estimation_error
                assert gap == pytest.approx((1.0 - p) ** (2 * n) * p * p, abs=1e-12)

    def test_regime_reference_matches_enumeration_exactly(self):
        # Dual route: the inclusion-exclusion reference in this module's
        # header against ordered-outcome enumeration.
        for p, k in ((0.6, 2), (0.9, 3), (0.5, 2)):
            probs = [p / k] * k + [1.0 - p]
            answers = ["A"] * k + ["B"]
            spec = oracle(probs, answers, "A")
            for n in (1, 3, 5):
                enum = exact_estimator_moments(spec, n, pc_confidence, label("A"))
                mean, second, total, residual = pc_exact_regime_moments(p, k, n, True)
                assert enum.expectation == pytest.approx(mean, abs=1e-12)
                assert enum.second_moment == pytest.approx(second, abs=1e-12)
                assert enum.reasoning_error == pytest.approx(total, abs=1e-12)


class TestDegenerationDiagnostic:
    def test_small_mass_long_budget_is_linear(self):
        out = degeneration_diagnostic(0.001, 100)
        assert out.alpha_n == pytest.approx(0.999**100, abs=1e-15)
        assert out.alpha_n == pytest.approx(0.904792, abs=1e-6)
        assert out.linear_approx == pytest.approx(1.0 / 1.1, abs=1e-12)
        assert 0.95 <= out.ratio <= 1.05
        assert out.regime == "linear"

    def test_half_mass_is_exponential(self):
        out = degeneration_diagnostic(0.5, 20)
        assert out.alpha_n == pytest.approx(0.5**20, rel=1e-12)
        assert out.ratio < 1e-4
        assert out.regime == "exponential"

    def test_zero_budget_boundary(self):
        out = degeneration_diagnostic(0.3, 0)
        assert out.alpha_n == 1.0
        assert out.linear_approx == 1.0
        assert out.regime == "linear"

    def test_whole_small_p_range_within_five_percent(self):
        for n in range(0, 101):
            out = degeneration_diagnostic(0.001, n)
            assert abs(out.ratio - 1.0) <= 0.05


class TestHoeffdingBound:
    def test_spot_value(self):
        # 2 * 3 * 2^2 * (1 - 0.2/0.3)^2 = 8/3, so the bound is 1 - e^(-8/3)
        # = 0.9305165...
        value = hoeffding_bound(2, 3, 0.7, 0.2)
        assert value == pytest.approx(1.0 - math.exp(-8.0 / 3.0), abs=1e-15)
        assert value == pytest.approx(0.9305165, abs=1e-6)

    def test_threshold_at_per_path_mean_is_vacuous(self):
        assert hoeffding_bound(2, 3, 0.7, 0.3) == 0.0

    def test_threshold_above_per_path_mean_returns_zero(self):
        assert hoeffding_bound(2, 3, 0.7, 0.9) == 0.0

    def test_many_samples_approach_one(self):
        assert hoeffding_bound(2, 10_000, 0.7, 0.2) == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_k_hat(self):
        values = [hoeffding_bound(2, kh, 0.7, 0.2) for kh in (1, 2, 4, 8)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            hoeffding_bound(0, 3, 0.7, 0.2)
        with pytest.raises(DomainError):
            hoeffding_bound(2, 3, 1.2, 0.2)
        with pytest.raises(DomainError):
            hoeffding_bound(2, 3, 0.7, 0.0)


class TestEmpiricalPruneFailureRate:
    def test_deterministic_oracle_never_fails(self):
        spec = oracle([1.0], ["A"], "A")
        assert empirical_prune_failure_rate(spec, 4, 500, seed=1) == 0.0

    def test_too_few_trials_rejected(self):
        spec = oracle([1.0], ["A"], "A")
        with pytest.raises(DomainError):
            empirical_prune_failure_rate(spec, 4, 0, seed=1)

    def test_two_answer_oracle_within_bound(self):
        # Correct answer mass 0.6 over two 0.3-paths; threshold below the
        # per-path mean keeps the guarantee informative.  The weakest
        # nontrivial bound (one matching sample) still dominates the
        # observed rate.
        spec = oracle([0.3, 0.3, 0.4], ["A", "A", "B"], "A")
        rate = empirical_prune_failure_rate(spec, 8, 1000, seed=3, tau=0.2)
        failure_bound = 1.0 - hoeffding_bound(2, 1, 0.7, 0.2)
        stderr = math.sqrt(max(rate * (1 - rate), 1e-12) / 1000)
        assert rate <= failure_bound + 3 * stderr

    def test_default_threshold_is_truth_mass(self):
        # tau defaults to the full answer mass 0.6, above the per-path mean
        # 0.3, so every trial with a matching sample fails the comparison.
        spec = oracle([0.3, 0.3, 0.4], ["A", "A", "B"], "A")
        rate = empirical_prune_failure_rate(spec, 8, 400, seed=5)
        assert rate == 1.0


class TestModelErrorComparison:
    def test_two_equal_correct_paths(self):
        sc_err, ppl_err = model_error_comparison(
            [0.3, 0.3], [label("A"), label("A")], label("A")
        )
        assert sc_err == pytest.approx(0.16, abs=1e-15)
        assert ppl_err == pytest.approx(0.98, abs=1e-15)
        assert sc_err < ppl_err

    def test_single_correct_path_equality(self):
        sc_err, ppl_err = model_error_comparison([0.3], [label("A")], label("A"))
        assert sc_err == ppl_err == pytest.approx(0.49, abs=1e-15)

    def test_all_incorrect_distinct_equality(self):
        sc_err, ppl_err = model_error_comparison(
            [0.3, 0.2], [label("B"), label("C")], label("A")
        )
        assert sc_err == ppl_err == pytest.approx(0.13, abs=1e-15)

    def test_duplicate_incorrect_answer_rejected(self):
        with pytest.raises(AssumptionError):
            model_error_comparison(
                [0.3, 0.2], [label("B"), label("B")], label("A")
            )

    def test_random_instances_ordering(self):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(17)))
        strict_seen = 0
        for _ in range(100):
            n_correct = int(rng.integers(1, 5))
            n_wrong = int(rng.integers(0, 6))
            probs = list(rng.uniform(0.01, 0.9 / max(n_correct, 1), n_correct))
            answers = [label("y")] * n_correct
            probs += list(rng.uniform(0.01, 0.2, n_wrong))
            answers += [label(f"w{i}") for i in range(n_wrong)]
            sc_err, ppl_err = model_error_comparison(probs, answers, label("y"))
            assert sc_err <= ppl_err + 1e-12
            if n_correct >= 2:
                assert sc_err < ppl_err
                strict_seen += 1
        assert strict_seen > 0


class TestRateFit:
    def test_recovers_power_law(self):
        ns = [4, 8, 16, 32, 64]
        errors = [3.7 / n for n in ns]
        fit = RateFit.fit(ns, errors, "loglog")
        assert fit.slope == pytest.approx(-1.0, abs=1e-12)
        assert fit.residual < 1e-12

    def test_recovers_exponential_rate(self):
        ns = [4, 8, 16, 32]
        errors = [2.0 * 0.8**n for n in ns]
        fit = RateFit.fit(ns, errors, "semilog")
        assert fit.slope == pytest.approx(math.log(0.8), abs=1e-12)

    def test_drops_nonpositive_values(self):
        ns = [4, 8, 16, 32, 64, 128]
        errors = [1.0 / n for n in ns[:4]] + [0.0, 0.0]
        fit = RateFit.fit(ns, errors, "loglog")
        assert fit.ns == (4, 8, 16, 32)

    def test_too_few_positive_points_rejected(self):
        with pytest.raises(ValueError):
            RateFit.fit([4, 8, 16, 32], [0.1, 0.2, 0.0, 0.0], "loglog")

    def test_requires_increasing_n(self):
        with pytest.raises(ValueError):
            RateFit.fit([4, 4, 8, 16], [1, 1, 1, 1], "loglog")

    def test_vote_monte_carlo_slope(self):
        spec = oracle([0.5, 0.5], ["A", "B"], "A")
        ns = [4, 8, 16, 32, 64]
        errors = [
            monte_carlo_estimation_error(
                spec, "SC", label("A"), n, trials=20_000, seed=21
            ).estimation_error
            for n in ns
        ]
        fit = RateFit.fit(ns, errors, "loglog")
        assert fit.slope == pytest.approx(-1.0, abs=0.1)
