"""Synthetic sampler: exact expectations by enumeration, seeded sampling."""

import itertools
import math
import time

import numpy as np
import pytest

from reasonconf import (
    EnumerationTooLargeError,
    InvalidSampleSizeError,
    ReasonConfError,
    SampleBatch,
    derive_seed,
    exact_estimator_moments,
    monte_carlo_estimation_error,
    oracle_from_json,
    pc_confidence,
    ppl_confidence,
    rpc_confidence,
    sample_batch,
    sample_count_matrix,
    sc_confidence,
)
from reasonconf.oracle import target_paths

from conftest import label, oracle, path


class TestOracleSpec:
    def test_probs_must_sum_to_one(self):
        with pytest.raises(ReasonConfError):
            oracle([0.5, 0.4], ["A", "B"], "A")

    def test_lengths_must_agree(self):
        with pytest.raises(ReasonConfError):
            oracle([0.5, 0.5], ["A"], "A")

    @pytest.mark.parametrize(
        "doc,message",
        [
            ({"path_probs": [1.0], "path_answers": ["A"]}, "missing key 'truth'"),
            ({"path_probs": [], "path_answers": [], "truth": "A"}, "at least one path"),
            ({"path_probs": [1.5, -0.5], "path_answers": ["A", "B"], "truth": "A"}, r"1.5 outside \(0, 1\]"),
            ({"path_probs": [0.0, 1.0], "path_answers": ["A", "B"], "truth": "A"}, r"0.0 outside \(0, 1\]"),
        ],
        ids=["missing-key", "no-paths", "above-one", "zero"],
    )
    def test_invalid_document_rejected(self, doc, message):
        with pytest.raises(ReasonConfError, match=message):
            oracle_from_json(doc)

    def test_json_round_trip(self):
        spec = oracle_from_json(
            {"path_probs": [0.6, 0.4], "path_answers": ["A", "B"], "truth": "A"}
        )
        assert spec.truth == label("A")
        assert target_paths(spec, label("A"))[1] == pytest.approx(0.6, abs=1e-15)


class TestTrueAnswerProb:
    def test_sums_matching_paths(self):
        spec = oracle([0.6, 0.3, 0.1], ["A", "A", "B"], "A")
        assert target_paths(spec, label("A"))[1] == pytest.approx(0.9, abs=1e-12)

    def test_absent_answer_is_zero(self):
        spec = oracle([0.6, 0.3, 0.1], ["A", "A", "B"], "A")
        assert target_paths(spec, label("C"))[1] == 0.0

    def test_single_path(self):
        spec = oracle([1.0], ["A"], "A")
        assert target_paths(spec, label("A"))[1] == 1.0


class TestTargetPaths:
    """The key type decides which oracle paths a target stands for."""

    def test_path_target_stands_for_itself(self):
        spec = oracle([0.6, 0.3, 0.1], ["A", "A", "B"], "A")
        assert target_paths(spec, spec.paths[1]) == ((1,), 0.3, True)
        assert target_paths(spec, spec.paths[2]) == ((2,), 0.1, False)

    def test_answer_target_stands_for_its_paths(self):
        spec = oracle([0.6, 0.3, 0.1], ["A", "A", "B"], "A")
        indices, mass, is_correct = target_paths(spec, label("A"))
        assert (indices, is_correct) == ((0, 1), True)
        assert mass == pytest.approx(0.9, abs=1e-15)
        assert target_paths(spec, label("B")) == ((2,), 0.1, False)

    def test_absent_answer_that_is_the_truth(self):
        spec = oracle([0.7, 0.3], ["A", "B"], "C")
        assert target_paths(spec, label("C")) == ((), 0.0, True)

    def test_absent_answer_that_is_not_the_truth(self):
        spec = oracle([0.7, 0.3], ["A", "B"], "C")
        assert target_paths(spec, label("D")) == ((), 0.0, False)

    def test_path_outside_the_oracle_stands_for_no_path(self):
        # Equal text and answer are not enough: a path is all its fields.
        spec = oracle([0.6, 0.4], ["A", "B"], "A")
        assert target_paths(spec, path("t0", 0.5, "A")) == ((), 0.0, True)
        assert target_paths(spec, path("elsewhere", 0.4, "B")) == ((), 0.0, False)


class TestSampleBatch:
    def test_degenerate_oracle_yields_copies(self):
        spec = oracle([1.0], ["A"], "A")
        b = sample_batch(spec, 5, seed=3)
        assert b.n == 5
        assert all(p.text == "t0" for p in b.paths)

    def test_fixed_seed_is_reproducible(self):
        spec = oracle([0.6, 0.3, 0.1], ["A", "A", "B"], "A")
        b1 = sample_batch(spec, 50, seed=11)
        b2 = sample_batch(spec, 50, seed=11)
        assert [p.text for p in b1.paths] == [p.text for p in b2.paths]

    def test_law_of_large_numbers(self):
        # Binomial stderr at n=1e5 is ~0.00158; 0.01 is about six sigma.
        spec = oracle([0.5, 0.5], ["A", "B"], "A")
        b = sample_batch(spec, 100_000, seed=7)
        freq = sum(1 for p in b.paths if p.text == "t0") / b.n
        assert abs(freq - 0.5) < 0.01

    def test_zero_samples_rejected(self):
        spec = oracle([1.0], ["A"], "A")
        with pytest.raises(InvalidSampleSizeError):
            sample_batch(spec, 0, seed=1)

    @pytest.mark.parametrize(
        "draw",
        [
            lambda n: sample_count_matrix([0.5, 0.5], n, trials=10, seed=1),
            lambda n: exact_estimator_moments(
                oracle([0.5, 0.5], ["A", "B"], "A"), n, sc_confidence, label("A")
            ),
        ],
        ids=["sample_count_matrix", "exact_estimator_moments"],
    )
    def test_zero_sample_size_rejected_by_count_routes(self, draw):
        with pytest.raises(InvalidSampleSizeError, match="got 0$"):
            draw(0)

    def test_paths_carry_exact_probs(self):
        spec = oracle([0.6, 0.3, 0.1], ["A", "A", "B"], "A")
        b = sample_batch(spec, 20, seed=5)
        by_text = {f"t{i}": q for i, q in enumerate(spec.path_probs)}
        assert all(p.path_prob == by_text[p.text] for p in b.paths)


class TestExactEstimatorMoments:
    def test_vote_estimator_single_draw(self):
        # Two outcomes: draw t0 (prob 0.9, est 1.0) or t1 (prob 0.1, est 0.0).
        # E = 0.9, E[(est-p)^2] = 0.9*0.01 + 0.1*0.81 = 0.09 = p(1-p).
        spec = oracle([0.9, 0.1], ["A", "B"], "A")
        enum = exact_estimator_moments(spec, 1, sc_confidence, label("A"))
        assert enum.expectation == pytest.approx(0.9, abs=1e-12)
        assert enum.estimation_error == pytest.approx(0.09, abs=1e-12)

    def test_deterministic_oracle_has_zero_error(self):
        spec = oracle([1.0], ["A"], "A")
        for n in (1, 3, 5):
            enum = exact_estimator_moments(spec, n, pc_confidence, label("A"))
            assert enum.expectation == pytest.approx(1.0, abs=1e-15)
            assert enum.estimation_error == pytest.approx(0.0, abs=1e-15)

    def test_path_probability_estimator_two_coin_paths(self):
        # Outcomes over two draws from a fair two-path oracle, target t0:
        #   (t0,t0) 0.25 -> 0.5; (t0,t1) 0.25 -> 0.5; (t1,t0) 0.25 -> 0.5;
        #   (t1,t1) 0.25 -> 0.0
        # E = 0.375, E[est^2] = 0.1875, E[(est-0.5)^2] = 0.0625,
        # E[(est-1)^2] = 0.75*0.25 + 0.25*1 = 0.4375, model = 0.25,
        # so the decomposition residual is 0.1875.
        spec = oracle([0.5, 0.5], ["A", "B"], "A")
        enum = exact_estimator_moments(spec, 2, ppl_confidence, spec.paths[0])
        assert enum.true_prob == pytest.approx(0.5, abs=1e-15)
        assert enum.is_correct
        assert enum.expectation == pytest.approx(0.375, abs=1e-12)
        assert enum.second_moment == pytest.approx(0.1875, abs=1e-12)
        assert enum.estimation_error == pytest.approx(0.0625, abs=1e-12)
        assert enum.reasoning_error == pytest.approx(0.4375, abs=1e-12)
        assert enum.decomposition_estimation_error == pytest.approx(0.1875, abs=1e-12)

    def test_enumeration_cap(self):
        spec = oracle([0.1] * 10, [f"a{i}" for i in range(10)], "a0")
        with pytest.raises(EnumerationTooLargeError):
            exact_estimator_moments(spec, 8, sc_confidence, label("a0"))

    @pytest.mark.parametrize(
        "m,n,allowed",
        [(10, 7, True), (3163, 2, False), (2, 23, True), (2, 24, False)],
    )
    def test_enumeration_cap_boundary(self, m, n, allowed):
        # M^n = 10^7 is allowed and 3163^2 = 10004569 is not; for M = 2,
        # n = 23 gives 2^23 < 10^7 and n = 24 is past the cap by bit length.
        spec = oracle([1.0 / m] * m, ["A"] * m, "A")
        if allowed:
            enum = exact_estimator_moments(spec, n, lambda batch: {}, label("A"))
            assert len(enum.outcome_probs) == math.comb(n + m - 1, n)
        else:
            with pytest.raises(EnumerationTooLargeError):
                exact_estimator_moments(spec, n, sc_confidence, label("A"))

    @pytest.mark.parametrize(
        "probs,n,allowed",
        [
            ((0.3, 0.3, 0.4), 30_000_000, False),
            ((1.0,), 1_000_000, True),
            ((1.0,), 10_000_001, False),
        ],
    )
    def test_cap_check_and_weights_stay_cheap_for_huge_n(self, probs, n, allowed):
        # The cap check must not build 3^n, nor the weight n!: at these n
        # either costs tens of seconds.  One path has one outcome, an
        # n-tuple whose cost grows with n, so n itself is held to the cap.
        spec = oracle(probs, ["A"] * len(probs), "A")
        start = time.perf_counter()
        if allowed:
            enum = exact_estimator_moments(spec, n, sc_confidence, label("A"))
            assert enum.outcome_probs == (1.0,)
        else:
            with pytest.raises(EnumerationTooLargeError, match=rf"\b{n}\b"):
                exact_estimator_moments(spec, n, sc_confidence, label("A"))
        assert time.perf_counter() - start < 5.0

    @pytest.mark.parametrize("kind", ["SC", "PPL", "RPC"])
    def test_one_estimator_call_per_count_vector(self, kind):
        # Nothing but the count vectors is evaluated: no probe batches.
        spec = oracle((0.4, 0.3, 0.2, 0.1), ("A", "B", "A", "C"), "A")
        calls = []

        def counting(batch):
            calls.append(batch.n)
            return _ESTIMATORS[kind](batch)

        target = spec.paths[0] if kind == "PPL" else label("A")
        for n in range(1, 6):
            calls.clear()
            exact_estimator_moments(spec, n, counting, target)
            assert calls == [n] * math.comb(n + spec.num_paths - 1, n)

    def test_key_type_resolves_mismatched_targets(self):
        # A path target on an answer-keyed estimator stands for that path;
        # the estimator never files a value under it.
        spec = oracle([0.6, 0.4], ["A", "B"], "A")
        enum = exact_estimator_moments(spec, 2, sc_confidence, spec.paths[1])
        assert (enum.true_prob, enum.is_correct, enum.expectation) == (0.4, False, 0.0)

    def test_estimator_with_several_keys_per_path(self):
        spec = oracle([0.6, 0.4], ["A", "B"], "A")

        def doubled(batch):
            return {**sc_confidence(batch), label("any"): 1.0}

        enum = exact_estimator_moments(spec, 2, doubled, label("A"))
        assert enum.expectation == pytest.approx(0.6, abs=1e-15)

    def test_absent_target_scores_zero_mass(self):
        spec = oracle([0.7, 0.3], ["A", "B"], "C")
        enum = exact_estimator_moments(spec, 2, sc_confidence, label("C"))
        assert enum.true_prob == 0.0
        assert enum.is_correct
        assert enum.expectation == 0.0
        # Estimating 0 for an answer of mass 0 is exact; all error is model.
        assert enum.estimation_error == 0.0
        assert enum.reasoning_error == pytest.approx(1.0, abs=1e-15)


def _small_oracles():
    """All-answer-shape oracles with up to three paths."""
    specs = []
    for probs in [(1.0,)]:
        specs.append(oracle(probs, ["A"], "A"))
        specs.append(oracle(probs, ["A"], "B"))
    for probs in [(0.3, 0.7), (0.5, 0.5), (0.9, 0.1)]:
        for answers in [("A", "B"), ("A", "A")]:
            for truth in ("A", "B"):
                specs.append(oracle(probs, answers, truth))
    for probs in [(0.6, 0.3, 0.1), (0.25, 0.7, 0.05)]:
        for answers in [("A", "B", "C"), ("A", "A", "B"), ("A", "B", "B")]:
            for truth in ("A", "C"):
                specs.append(oracle(probs, answers, truth))
    for truth in ("A", "D"):
        specs.append(oracle((0.4, 0.3, 0.2, 0.1), ("A", "B", "A", "C"), truth))
    return specs


_ESTIMATORS = {
    "SC": sc_confidence,
    "PPL": ppl_confidence,
    "PC": pc_confidence,
    "RPC": lambda b: rpc_confidence(b)[0],
}


def _ordered_outcomes(spec, n, estimator):
    """Reference enumeration: every one of the M^n ordered outcomes, with
    its probability and the estimator's full confidence map."""
    paths = spec.paths
    weights, confs = [], []
    for idx in itertools.product(range(spec.num_paths), repeat=n):
        weights.append(math.prod(spec.path_probs[i] for i in idx))
        batch = SampleBatch(paths=tuple(paths[i] for i in idx))
        confs.append(estimator(batch))
    return weights, confs


class TestCountVectorEnumeration:
    @pytest.mark.parametrize("kind", list(_ESTIMATORS))
    def test_matches_ordered_outcome_enumeration(self, kind):
        estimator = _ESTIMATORS[kind]
        # The truth label does not change what the estimator sees.
        outcomes = {}
        for spec in _small_oracles():
            m = spec.num_paths
            targets = (
                set(spec.path_answers)
                | set(spec.paths)
                | {spec.truth, label("zz-absent")}
            )
            for n in range(1, 7):
                key = (spec.path_probs, spec.path_answers, n)
                if key not in outcomes:
                    outcomes[key] = _ordered_outcomes(spec, n, estimator)
                weights, confs = outcomes[key]
                for target in targets:
                    enum = exact_estimator_moments(spec, n, estimator, target)
                    assert len(enum.outcome_probs) == math.comb(n + m - 1, n)
                    assert math.fsum(enum.outcome_probs) == pytest.approx(
                        1.0, abs=1e-12
                    )
                    values = [conf.get(target, 0.0) for conf in confs]
                    ind = 1.0 if enum.is_correct else 0.0
                    reference = [
                        math.fsum(w * f(v) for w, v in zip(weights, values))
                        for f in (
                            lambda v: v,
                            lambda v: v * v,
                            lambda v: (v - enum.true_prob) ** 2,
                            lambda v: (v - ind) ** 2,
                        )
                    ]
                    got = [
                        enum.expectation,
                        enum.second_moment,
                        enum.estimation_error,
                        enum.reasoning_error,
                    ]
                    assert got == pytest.approx(reference, abs=1e-12)


class TestEstimatorsIgnoreSampleOrder:
    """Count-vector enumeration scores one ordering per multiset of paths,
    which is exact only if reordering a batch leaves every estimate alone."""

    def test_permuted_batches_score_alike(self):
        rng = np.random.default_rng(2025)
        for _ in range(500):
            k = int(rng.integers(1, 8))
            distinct = [
                path(f"t{i}", float(q), str(a))
                for i, (q, a) in enumerate(
                    zip(rng.uniform(0.01, 0.9, k), rng.choice(list("ABC"), k))
                )
            ]
            idx = rng.integers(0, k, size=int(rng.integers(k + 1, 2 * k + 4)))
            batch = SampleBatch(paths=tuple(distinct[i] for i in idx))
            shuffled = SampleBatch(
                paths=tuple(distinct[i] for i in rng.permutation(idx))
            )
            assert sc_confidence(shuffled) == sc_confidence(batch)
            assert ppl_confidence(shuffled) == ppl_confidence(batch)
            for fn, tol in ((pc_confidence, 1e-15), (_ESTIMATORS["RPC"], 1e-12)):
                want, got = fn(batch), fn(shuffled)
                assert got.keys() == want.keys()
                assert all(abs(got[a] - want[a]) <= tol for a in want)


class TestVoteEstimatorIsUnbiased:
    def test_expectation_matches_mass_everywhere(self):
        for spec in _small_oracles():
            targets = set(spec.path_answers) | {spec.truth, label("zz-absent")}
            for n in range(1, 7):
                for target in targets:
                    enum = exact_estimator_moments(spec, n, sc_confidence, target)
                    assert enum.expectation == pytest.approx(
                        target_paths(spec, target)[1], abs=1e-12
                    )

    def test_decomposition_identity_for_votes(self):
        # Unbiasedness kills the cross term, so the reasoning error is the
        # exact sum of estimation and model errors.
        for spec in _small_oracles()[:8]:
            for n in (1, 3, 5):
                enum = exact_estimator_moments(spec, n, sc_confidence, spec.truth)
                assert enum.reasoning_error == pytest.approx(
                    enum.estimation_error + enum.model_error, abs=1e-12
                )


class TestMonteCarloAgreesWithEnumeration:
    @pytest.mark.parametrize(
        "kind,target",
        [
            ("SC", "A"),
            ("PC", "A"),
            ("PPL", 0),
            ("PC", "B"),
            ("SC", "C"),
            ("PPL", 2),
        ],
    )
    def test_mean_squared_error_within_five_stderr(self, kind, target):
        spec = oracle([0.5, 0.25, 0.25], ["A", "A", "B"], "A")
        fns = {"SC": sc_confidence, "PC": pc_confidence, "PPL": ppl_confidence}
        target = spec.paths[target] if kind == "PPL" else label(target)
        enum = exact_estimator_moments(spec, 4, fns[kind], target)
        mc = monte_carlo_estimation_error(
            spec, kind, target, 4, trials=100_000, seed=19
        )
        # An absent answer has zero error and zero standard error.
        assert abs(mc.estimation_error - enum.estimation_error) <= 5 * mc.stderr
        assert mc.true_prob == pytest.approx(enum.true_prob, abs=1e-15)
        assert mc.is_correct == enum.is_correct
        assert mc.model_error == pytest.approx(enum.model_error, abs=1e-15)

    def test_object_path_agrees_with_count_path(self):
        # The vectorized count route and the object route draw different
        # streams, so agreement is distributional: compare means against
        # their pooled standard error.
        spec = oracle([0.5, 0.25, 0.25], ["A", "A", "B"], "A")
        p = target_paths(spec, label("A"))[1]
        trials = 4000
        sq = []
        for t in range(trials):
            b = sample_batch(spec, 4, derive_seed(99, t))
            est = sc_confidence(b).get(label("A"), 0.0)
            sq.append((est - p) ** 2)
        slow_mean = float(np.mean(sq))
        slow_err = float(np.std(sq) / math.sqrt(trials))
        fast = monte_carlo_estimation_error(
            spec, "SC", label("A"), 4, trials=trials, seed=98
        )
        pooled = math.hypot(slow_err, fast.stderr)
        assert abs(slow_mean - fast.estimation_error) < 5 * pooled

    @pytest.mark.parametrize("trials", [0, -3])
    def test_trials_below_one_rejected(self, trials):
        # No trial gives no mean to report.
        spec = oracle([0.5, 0.25, 0.25], ["A", "A", "B"], "A")
        with pytest.raises(InvalidSampleSizeError, match=f"got {trials}$"):
            monte_carlo_estimation_error(spec, "SC", label("A"), 4, trials, seed=1)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, 3) == derive_seed(7, 3)

    def test_distinct_across_indices(self):
        seeds = {derive_seed(7, i) for i in range(100)}
        assert len(seeds) == 100

    def test_multi_index(self):
        assert derive_seed(7, 1, 2) != derive_seed(7, 2, 1)
