"""Core path/answer types: probability derivation, dedup, grouping, selection."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from reasonconf import (
    AnswerLabel,
    InvalidPathError,
    NoCandidatesError,
    ReasoningPath,
    canonicalize_answer,
    derive_path_prob,
    select_answer,
    unique_paths,
)

from conftest import batch, label


def derive(logprobs, mode):
    """derive_path_prob on a token list, summed as ingestion sums it."""
    return derive_path_prob(math.fsum(logprobs), len(logprobs), mode)


class TestDerivePathProb:
    def test_joint_is_exp_of_sum(self):
        assert derive([-0.5, -0.5], "joint") == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_length_normalized_is_exp_of_mean(self):
        assert derive([-0.5, -0.5], "length_normalized") == pytest.approx(
            math.exp(-0.5), abs=1e-12
        )

    def test_zero_logprob_gives_one(self):
        assert derive([0.0], "joint") == 1.0
        assert derive([0.0], "length_normalized") == 1.0

    def test_empty_sequence_rejected(self):
        with pytest.raises(InvalidPathError):
            derive_path_prob(0.0, 0, "joint")

    def test_unknown_mode_rejected(self):
        with pytest.raises(InvalidPathError):
            derive([-1.0], "geometric")

    def test_extreme_joint_underflow_clamped(self):
        p = derive([-1000.0] * 50, "joint")
        assert p == 1e-300

    @given(
        st.lists(st.floats(min_value=-30, max_value=0), min_size=1, max_size=8),
        st.integers(min_value=0, max_value=7),
        st.floats(min_value=0.01, max_value=5.0),
    )
    def test_monotone_in_each_entry(self, logprobs, pos, bump):
        pos = pos % len(logprobs)
        raised = list(logprobs)
        raised[pos] = min(0.0, raised[pos] + bump)
        for mode in ("joint", "length_normalized"):
            assert derive(raised, mode) >= derive(logprobs, mode)

    @given(st.lists(st.floats(min_value=-5, max_value=-0.001), min_size=1, max_size=8))
    def test_equals_one_only_when_all_zero(self, logprobs):
        assert derive(logprobs, "joint") < 1.0
        assert derive([0.0] * len(logprobs), "joint") == 1.0


class TestAnswerLabel:
    def test_canonicalization_strips_boxed_and_casefolds(self):
        assert canonicalize_answer("  \\boxed{42} ") == label("42")
        assert canonicalize_answer("\\boxed{\\boxed{X}}") == label("x")
        assert canonicalize_answer("Yes") == canonicalize_answer("  yes ")

    def test_class_id_overrides_string_match(self):
        a = AnswerLabel("def f(): return 1", class_id=7)
        b = AnswerLabel("def g(): return 1", class_id=7)
        c = AnswerLabel("def f(): return 1", class_id=9)
        assert a == b
        assert a != c
        assert hash(a) == hash(b)

    def test_canonical_comparison_when_class_missing(self):
        assert AnswerLabel("42") == AnswerLabel("42")
        assert AnswerLabel("42") != AnswerLabel("43")

    def test_empty_label_rejected(self):
        with pytest.raises(InvalidPathError):
            AnswerLabel("")


class TestReasoningPathInvariants:
    def test_requires_prob_in_unit_interval(self):
        with pytest.raises(InvalidPathError):
            ReasoningPath(text="t", answer=label("a"), path_prob=0.0)
        with pytest.raises(InvalidPathError):
            ReasoningPath(text="t", answer=label("a"), path_prob=1.5)


class TestUniquePaths:
    def test_dedup_keeps_first_occurrence(self):
        b = batch(("ta", 0.4, "A"), ("ta", 0.4, "A"), ("tb", 0.2, "B"))
        assert [p.text for p in unique_paths(b)] == ["ta", "tb"]

    def test_singleton_identity(self):
        b = batch(("ta", 0.4, "A"))
        assert [p.text for p in unique_paths(b)] == ["ta"]

    def test_order_preserved(self):
        b = batch(
            ("ta", 0.4, "A"), ("tb", 0.2, "B"), ("ta", 0.4, "A"), ("tc", 0.1, "C")
        )
        assert [p.text for p in unique_paths(b)] == ["ta", "tb", "tc"]

    def test_idempotent(self):
        b = batch(("ta", 0.4, "A"), ("tb", 0.2, "B"), ("ta", 0.4, "A"))
        once = unique_paths(b)
        again = unique_paths(
            type(b)(paths=tuple(once), problem_id=b.problem_id)
        )
        assert [p.text for p in again] == [p.text for p in once]


class TestSelectAnswer:
    def test_argmax(self):
        conf = {label("A"): 0.5, label("B"): 0.1}
        assert select_answer(conf) == (label("A"), 0.5)

    def test_tie_goes_to_earliest_inserted(self):
        conf = {label("A"): 0.3, label("B"): 0.3}
        assert select_answer(conf)[0] == label("A")

    def test_singleton(self):
        conf = {label("A"): 1.0}
        assert select_answer(conf) == (label("A"), 1.0)

    def test_empty_map_rejected(self):
        with pytest.raises(NoCandidatesError):
            select_answer({})

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=6
        ),
        st.floats(min_value=0.001, max_value=1000.0),
    )
    def test_scale_invariance(self, values, c):
        entries = {label(f"a{i}"): v for i, v in enumerate(values)}
        scaled = {k: c * v for k, v in entries.items()}
        assert select_answer(entries)[0] == select_answer(scaled)[0]
