"""Accuracy, calibration error, reliability bins, budget curves."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reasonconf import (
    BudgetCurve,
    BudgetPoint,
    DomainError,
    EmptyInputError,
    budget_curve,
    budget_to_match,
    ece,
    reliability_bins,
)
from reasonconf.cli import main


class TestAccuracy:
    """The accuracy ``metrics`` prints: the share of rows marked correct."""

    @staticmethod
    def metrics_accuracy(tmp_path, capsys, correct):
        results = tmp_path / "results.json"
        rows = [{"confidence": 0.6, "correct": c} for c in correct]
        results.write_text(json.dumps(rows))
        code = main(["metrics", "--input", str(results), "--format", "json"])
        captured = capsys.readouterr()
        return json.loads(captured.out)["accuracy"] if code == 0 else captured.err

    def test_half_right(self, tmp_path, capsys):
        assert self.metrics_accuracy(tmp_path, capsys, [True, False]) == 0.5

    def test_all_right(self, tmp_path, capsys):
        assert self.metrics_accuracy(tmp_path, capsys, [True] * 4) == 1.0

    def test_all_wrong(self, tmp_path, capsys):
        assert self.metrics_accuracy(tmp_path, capsys, [False] * 3) == 0.0

    def test_empty_rejected(self, tmp_path, capsys):
        assert self.metrics_accuracy(tmp_path, capsys, []).startswith("error: ")


class TestEce:
    def test_single_item(self):
        assert ece([(0.8, True)], bins=10) == pytest.approx(0.2, abs=1e-15)

    def test_three_item_hand_case(self):
        # 0.9-items land in bin (0.8, 0.9]: count 2, conf 0.9, acc 0.5.
        # 0.1-item lands in bin (0.0, 0.1]: count 1, conf 0.1, acc 0.
        # ece = (2/3)|0.5 - 0.9| + (1/3)|0 - 0.1| = 0.3.
        scored = [(0.9, True), (0.9, False), (0.1, False)]
        assert ece(scored, bins=10) == pytest.approx(0.3, abs=1e-15)

    def test_perfectly_calibrated_is_zero(self):
        scored = [(0.3, True)] * 3 + [(0.3, False)] * 7
        scored += [(0.8, True)] * 8 + [(0.8, False)] * 2
        assert ece(scored, bins=10) == 0.0

    def test_bounded_by_one(self):
        scored = [(1.0, False), (0.0, True), (0.5, False)]
        assert 0.0 <= ece(scored, bins=10) <= 1.0

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            ece([], bins=10)

    def test_confidence_one_falls_in_last_bin(self):
        bins = reliability_bins([(1.0, True)], bins=10)
        assert bins.counts[-1] == 1

    def test_confidence_zero_falls_in_first_bin(self):
        bins = reliability_bins([(0.0, False)], bins=10)
        assert bins.counts[0] == 1

    def test_out_of_range_confidence_rejected(self):
        with pytest.raises(DomainError):
            ece([(1.2, True)], bins=10)


class TestReliabilityBins:
    def test_hand_case_bin_stats(self):
        scored = [(0.9, True), (0.9, False), (0.1, False)]
        bins = reliability_bins(scored, bins=10)
        assert bins.counts[8] == 2
        assert bins.mean_confidence[8] == pytest.approx(0.9, abs=1e-15)
        assert bins.empirical_accuracy[8] == pytest.approx(0.5, abs=1e-15)
        assert bins.counts[0] == 1

    def test_single_bin_gives_global_stats(self):
        scored = [(0.2, True), (0.4, False), (0.6, True), (0.8, False)]
        bins = reliability_bins(scored, bins=1)
        assert bins.counts == (4,)
        assert bins.mean_confidence[0] == pytest.approx(0.5, abs=1e-15)
        assert bins.empirical_accuracy[0] == pytest.approx(0.5, abs=1e-15)

    def test_empty_bins_present_with_zero_count(self):
        bins = reliability_bins([(0.95, True)], bins=10)
        assert len(bins.counts) == 10
        assert sum(1 for c in bins.counts if c == 0) == 9

    def test_counts_sum_to_total(self):
        scored = [(i / 20, i % 3 == 0) for i in range(21)]
        bins = reliability_bins(scored, bins=7)
        assert bins.total_count == 21

    def test_ece_recomputable_exactly(self):
        scored = [(0.9, True), (0.9, False), (0.1, False), (0.55, True)]
        bins = reliability_bins(scored, bins=10)
        assert bins.ece() == ece(scored, bins=10)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1.0), st.booleans()
            ),
            min_size=1,
            max_size=60,
        ),
        st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_and_bounds(self, scored, bins):
        rb = reliability_bins(scored, bins)
        assert rb.total_count == len(scored)
        value = ece(scored, bins)
        assert 0.0 <= value <= 1.0
        assert abs(rb.ece() - value) <= 1e-12

    def test_zero_when_every_bin_calibrated(self):
        scored = []
        for conf, n_true, n_total in [(0.25, 1, 4), (0.75, 3, 4)]:
            scored += [(conf, True)] * n_true + [(conf, False)] * (n_total - n_true)
        assert ece(scored, bins=4) == 0.0


class TestBudgetCurve:
    def _curve(self):
        return budget_curve(
            "M",
            [(8, [0.4, 0.4]), (16, [0.5, 0.5]), (32, [0.5, 0.54])],
        )

    def test_first_crossing(self):
        assert budget_to_match(self._curve(), 0.5) == 16

    def test_unreachable_reference(self):
        assert budget_to_match(self._curve(), 0.9) is None

    def test_zero_reference_gives_smallest_n(self):
        assert budget_to_match(self._curve(), 0.0) == 8

    def test_monotone_in_reference(self):
        curve = self._curve()
        previous = -1
        for ref in (0.0, 0.3, 0.41, 0.5, 0.52):
            n = budget_to_match(curve, ref)
            assert n is not None and n >= previous
            previous = n

    def test_requires_increasing_n(self):
        with pytest.raises(DomainError):
            BudgetCurve(
                method="M",
                points=(
                    BudgetPoint(8, 0.5, 0.0),
                    BudgetPoint(8, 0.6, 0.0),
                ),
                repeats=2,
            )

    def test_mean_and_std_aggregation(self):
        curve = budget_curve("M", [(4, [0.0, 1.0])])
        assert curve.points[0].mean_accuracy == 0.5
        assert curve.points[0].std_accuracy == 0.5
