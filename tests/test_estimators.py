"""The four estimators and their structural relations."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from reasonconf import (
    ESTIMATOR_KINDS,
    EmptyBatchError,
    SampleBatch,
    estimate,
    pc_confidence,
    ppl_confidence,
    rpc_confidence,
    sc_confidence,
    select_answer,
    selection_for_scoring,
    unique_paths,
)

from conftest import batch, label


class TestVoteFractions:
    def test_basic_counts(self):
        b = batch(("t1", 0.4, "A"), ("t2", 0.3, "A"), ("t3", 0.1, "B"))
        conf = sc_confidence(b)
        assert conf[label("A")] == pytest.approx(2 / 3, abs=1e-15)
        assert conf[label("B")] == pytest.approx(1 / 3, abs=1e-15)

    def test_single_vote(self):
        conf = sc_confidence(batch(("t1", 0.4, "A")))
        assert conf == {label("A"): 1.0}

    def test_uniform_votes(self):
        b = batch(
            ("t1", 0.25, "A"), ("t2", 0.25, "B"), ("t3", 0.25, "C"), ("t4", 0.25, "D")
        )
        conf = sc_confidence(b)
        assert all(v == 0.25 for v in conf.values())

    def test_values_sum_to_one_for_power_of_two_n(self):
        b = batch(
            ("t1", 0.4, "A"), ("t2", 0.3, "A"), ("t3", 0.1, "B"), ("t4", 0.1, "C")
        )
        assert math.fsum(sc_confidence(b).values()) == 1.0

    @given(st.lists(st.sampled_from("ABCD"), min_size=1, max_size=21))
    def test_values_sum_to_one_within_rounding(self, answers):
        b = batch(*[(f"t{i}", 0.5, a) for i, a in enumerate(answers)])
        assert math.fsum(sc_confidence(b).values()) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_empty_batch_rejected(self):
        with pytest.raises(EmptyBatchError):
            sc_confidence(SampleBatch(paths=(), problem_id="x"))


class TestPathProbabilityPassthrough:
    def test_unique_paths_keep_own_probability(self):
        b = batch(("t1", 0.3, "A"), ("t2", 0.1, "B"))
        conf = ppl_confidence(b)
        assert conf == {b.paths[0]: 0.3, b.paths[1]: 0.1}

    def test_duplicates_collapse_without_summing(self):
        b = batch(("t1", 0.2, "A"), ("t1", 0.2, "A"), ("t1", 0.2, "A"))
        conf = ppl_confidence(b)
        assert conf == {b.paths[0]: 0.2}
        assert next(iter(conf)) is b.paths[0]

    def test_single_certain_path(self):
        b = batch(("t1", 1.0, "A"))
        assert ppl_confidence(b) == {b.paths[0]: 1.0}


class TestProbabilitySums:
    def test_grouped_sum_over_unique_paths(self):
        b = batch(("t1", 0.3, "A"), ("t2", 0.2, "A"), ("t3", 0.1, "B"))
        conf = pc_confidence(b)
        assert conf[label("A")] == pytest.approx(0.5, abs=1e-15)
        assert conf[label("B")] == pytest.approx(0.1, abs=1e-15)

    def test_dedup_before_summing(self):
        b = batch(("t1", 0.3, "A"), ("t1", 0.3, "A"))
        assert pc_confidence(b) == {label("A"): 0.3}

    def test_single_certain_path(self):
        assert pc_confidence(batch(("t1", 1.0, "A"))) == {label("A"): 1.0}

    def test_equals_grouped_path_values_exactly(self):
        b = batch(
            ("t1", 0.31, "A"), ("t2", 0.17, "A"), ("t3", 0.11, "B"),
            ("t4", 0.07, "A"), ("t1", 0.31, "A"),
        )
        pc = pc_confidence(b)
        ppl = ppl_confidence(b)
        regrouped = {}
        for p in unique_paths(b):
            regrouped[p.answer] = regrouped.get(p.answer, 0.0) + ppl[p]
        assert regrouped == pc

    @given(st.floats(min_value=0.01, max_value=1.0))
    def test_scaling_probs_scales_confidence(self, c):
        base = [("t1", 0.5, "A"), ("t2", 0.25, "A"), ("t3", 0.125, "B")]
        scaled = [(t, q * c, a) for t, q, a in base]
        conf_base = pc_confidence(batch(*base))
        conf_scaled = pc_confidence(batch(*scaled))
        for key, value in conf_base.items():
            assert conf_scaled[key] == pytest.approx(c * value, rel=1e-12)
        assert select_answer(pc_confidence(batch(*base)))[0] == select_answer(
            pc_confidence(batch(*scaled))
        )[0]


class TestPrunedProbabilitySums:
    def test_mean_guard_keeps_top_two_of_three(self):
        # Three unique paths make the mixture fit degenerate, so only the
        # mean rule applies: mean = 0.3 keeps 0.5 and 0.3.
        b = batch(("t1", 0.5, "A"), ("t2", 0.3, "B"), ("t3", 0.1, "C"))
        conf, report = rpc_confidence(b)
        assert report.fallback_used
        assert conf == {label("A"): 0.5, label("B"): 0.3}

    def test_identical_probs_prune_nothing(self):
        b = batch(("t1", 0.2, "A"), ("t2", 0.2, "B"), ("t3", 0.2, "C"))
        conf, report = rpc_confidence(b)
        assert report.removed_indices == ()
        assert conf == pc_confidence(b)

    def test_single_path(self):
        conf, report = rpc_confidence(batch(("t1", 0.4, "A")))
        assert conf == {label("A"): 0.4}
        assert report.retained_indices == (0,)

    def test_retained_is_nonempty_subset_with_smaller_entries(self):
        b = batch(
            ("t1", 0.5, "A"), ("t2", 0.04, "B"), ("t3", 0.05, "B"),
            ("t4", 0.3, "A"), ("t5", 0.03, "C"), ("t6", 0.06, "C"),
        )
        conf, report = rpc_confidence(b)
        pc = pc_confidence(b)
        assert len(report.retained_indices) >= 1
        uniques = unique_paths(b)
        assert set(report.retained_indices) <= set(range(len(uniques)))
        for key, value in conf.items():
            assert value <= pc[key] + 1e-15

    def test_distinct_answer_batches_select_like_path_estimator(self):
        b = batch(("t1", 0.5, "A"), ("t2", 0.3, "B"), ("t3", 0.1, "C"))
        pc_pick = selection_for_scoring(pc_confidence(b))
        ppl_pick = selection_for_scoring(ppl_confidence(b))
        assert pc_pick[0] == ppl_pick[0]


class TestDispatch:
    def test_kinds_route_to_matching_estimators(self):
        b = batch(("t1", 0.3, "A"), ("t2", 0.2, "A"), ("t3", 0.1, "B"))
        assert estimate("SC", b) == sc_confidence(b)
        assert estimate("PC", b) == pc_confidence(b)
        assert estimate("PPL", b) == ppl_confidence(b)
        assert estimate("RPC", b) == rpc_confidence(b)[0]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            estimate("VOTE", batch(("t1", 0.3, "A")))

    def test_path_selection_maps_to_answer(self):
        b = batch(("t1", 0.5, "A"), ("t2", 0.3, "B"))
        answer, value = selection_for_scoring(ppl_confidence(b))
        assert answer == label("A")
        assert value == 0.5

    def test_selected_confidence_is_capped_at_one(self):
        # Ingested paths' probabilities need not sum to 1 across paths.
        b = batch(("t1", 0.8, "A"), ("t2", 0.7, "A"), ("t3", 0.9, "B"))
        assert pc_confidence(b)[label("A")] == pytest.approx(1.5)
        assert selection_for_scoring(pc_confidence(b)) == (label("A"), 1.0)


class TestConfidenceMaps:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=7),
                st.floats(min_value=1e-12, max_value=1.0),
                st.sampled_from("ABC"),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_every_value_is_positive(self, specs):
        b = batch(*[(f"t{t}", q, a) for t, q, a in specs])
        for kind in ESTIMATOR_KINDS:
            conf = estimate(kind, b)
            assert conf and all(v > 0.0 for v in conf.values()), kind
