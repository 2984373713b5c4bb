"""Closed-form error splits against enumeration, Monte Carlo error, rate fits."""

import math
from dataclasses import fields

import numpy as np
import pytest

import reasonconf.error_analysis as error_analysis
from reasonconf import (
    DomainError,
    MCErrorEstimate,
    RateFit,
    exact_estimator_moments,
    monte_carlo_estimation_error,
    pc_closed_form,
    pc_confidence,
    ppl_closed_form,
    ppl_confidence,
    sample_count_matrix,
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

    @pytest.mark.parametrize(
        "p,n,message",
        [(1.5, 4, r"probability must lie in \[0, 1\]"), (0.5, 0, "n must be a positive")],
        ids=["p-above-one", "n-zero"],
    )
    def test_out_of_domain_rejected(self, p, n, message):
        with pytest.raises(DomainError, match=message):
            sc_closed_form(p, n, True)


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


class TestPathProbDecayFactor:
    """PPL's estimation term over p(2I - p) is the decay factor (1 - p)^n."""

    @staticmethod
    def factor(p, n, correct=True):
        ind = 1.0 if correct else 0.0
        return ppl_closed_form(p, n, correct).estimation_error / (p * (2.0 * ind - p))

    def test_small_mass_long_budget_is_near_linear(self):
        factor = self.factor(0.001, 100)
        assert factor == pytest.approx(0.999**100, rel=1e-12)
        assert factor == pytest.approx(0.904792, abs=1e-6)
        assert abs(factor * (1.0 + 100 * 0.001) - 1.0) <= 0.05

    def test_half_mass_is_exponential(self):
        factor = self.factor(0.5, 20)
        assert factor == pytest.approx(0.5**20, rel=1e-12)
        assert factor * (1.0 + 20 * 0.5) < 1e-4

    @pytest.mark.parametrize("p", [0.001, 0.5])
    def test_incorrect_path_shares_the_factor(self, p):
        for n in range(1, 11):
            assert self.factor(p, n, False) == pytest.approx(
                self.factor(p, n, True), rel=1e-12
            )

    def test_factor_falls_strictly_in_n(self):
        factors = [self.factor(0.01, n) for n in range(1, 51)]
        assert all(0.0 < b < a < 1.0 for a, b in zip(factors, factors[1:]))


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

    def test_zero_path_count_rejected(self):
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

    @pytest.mark.parametrize(
        "errors,transform,message",
        [([1.0] * 4, "linear", "unknown transform"), ([1.0] * 3, "loglog", "lengths differ")],
        ids=["unknown-transform", "length-mismatch"],
    )
    def test_malformed_arguments_rejected(self, errors, transform, message):
        with pytest.raises(ValueError, match=message):
            RateFit.fit([4, 8, 16, 32], errors, transform)

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


# The truth's paths 1 and 3 each sit between paths of other answers, so a
# draw over the target merges paths on both sides of it.
INTERLEAVED = oracle([0.1, 0.3, 0.15, 0.25, 0.2], ["B", "A", "C", "A", "D"], "A")
# The truth owns every path, and the probabilities sum to 1 + 9e-13,
# inside the oracle's 1e-12 tolerance.
OVERFULL = oracle([0.25, 0.25, 0.5 + 9e-13], ["A", "A", "A"], "A")
MC_FNS = {"SC": sc_confidence, "PC": pc_confidence, "PPL": ppl_confidence}


class TestMonteCarloDrawsOnlyTheTargetsPaths:
    """Monte Carlo draws the target's paths plus one merged "rest" category."""

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("kind", ["SC", "PC", "PPL"])
    def test_interleaved_target_agrees_with_enumeration(self, kind, n):
        target = INTERLEAVED.paths[3] if kind == "PPL" else label("A")
        enum = exact_estimator_moments(INTERLEAVED, n, MC_FNS[kind], target)
        mc = monte_carlo_estimation_error(
            INTERLEAVED, kind, target, n, trials=100_000, seed=23
        )
        assert abs(mc.estimation_error - enum.estimation_error) <= 5 * mc.stderr
        assert mc.true_prob == pytest.approx(enum.true_prob, abs=1e-15)

    def test_target_owning_every_path_with_excess_mass(self):
        sc = monte_carlo_estimation_error(OVERFULL, "SC", label("A"), 4, 1000, seed=3)
        assert sc.true_prob > 1.0
        # Every draw lands on the target, so each trial's vote fraction is 1.
        assert sc.estimation_error == pytest.approx((1.0 - sc.true_prob) ** 2)
        pc = monte_carlo_estimation_error(OVERFULL, "PC", label("A"), 4, 50_000, seed=3)
        enum = exact_estimator_moments(OVERFULL, 4, pc_confidence, label("A"))
        assert abs(pc.estimation_error - enum.estimation_error) <= 5 * pc.stderr

    def test_rpc_has_no_monte_carlo_route(self):
        # RPC's pruning reads the whole batch, so it has no per-target draw.
        with pytest.raises(ValueError, match="no fast Monte Carlo route"):
            monte_carlo_estimation_error(INTERLEAVED, "RPC", label("A"), 4, 1000, seed=5)

    @pytest.mark.parametrize("kind", ["SC", "PC"])
    def test_absent_target_has_zero_error(self, kind):
        mc = monte_carlo_estimation_error(INTERLEAVED, kind, label("Z"), 4, 1000, seed=5)
        assert (mc.true_prob, mc.estimation_error, mc.stderr) == (0.0, 0.0, 0.0)
        assert not mc.is_correct

    def test_rest_last_is_the_full_draw_when_it_stands_for_one_path(self):
        spec = oracle([0.3, 0.3, 0.4], ["A", "A", "B"], "A")
        mc = monte_carlo_estimation_error(spec, "PC", label("A"), 8, 1000, seed=11)
        full = sample_count_matrix(spec.path_probs, 8, 1000, 11)[:, :2]
        estimates = ((full > 0) * np.array([0.3, 0.3])).sum(axis=1)
        assert mc.estimation_error == float(np.mean((estimates - 0.6) ** 2))

    def test_no_draw_is_wider_than_the_target_plus_one(self, monkeypatch):
        widths = []

        def recording(probs, n, trials, seed):
            counts = sample_count_matrix(probs, n, trials, seed)
            widths.append(counts.shape[1])
            return counts

        monkeypatch.setattr(error_analysis, "sample_count_matrix", recording)
        for kind in ("SC", "PC", "PPL"):
            target = INTERLEAVED.paths[3] if kind == "PPL" else label("A")
            monte_carlo_estimation_error(INTERLEAVED, kind, target, 4, 200, seed=1)
        # SC: the target's mass and the rest; PC: the truth's two paths and
        # the rest; PPL: its one path and the rest.
        assert widths == [2, 3, 2]

    def test_estimate_carries_no_trial_count(self):
        # The caller passes ``trials`` in, so the result does not echo it.
        assert [f.name for f in fields(MCErrorEstimate)] == [
            "true_prob",
            "is_correct",
            "estimation_error",
            "reasoning_error",
            "stderr",
        ]
