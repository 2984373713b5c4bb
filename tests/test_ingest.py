"""JSONL ingestion and deterministic export."""

import json
import logging
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from reasonconf import (
    ParseError,
    ReasonConfError,
    ReasoningPath,
    ResultRow,
    derive_path_prob,
    load_jsonl,
    render_results,
)
from reasonconf.ingest import parse_record
from reasonconf.paths import PROB_FLOOR

from conftest import label


def write_jsonl(tmp_path, records, name="paths.jsonl"):
    dest = tmp_path / name
    dest.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    return str(dest)


GOOD = [
    {
        "problem_id": "p1",
        "text": "step one. answer 4",
        "token_logprobs": [-0.2, -0.4],
        "answer": "\\boxed{4}",
    },
    {
        "problem_id": "p1",
        "text": "other path",
        "token_logprobs": [-1.0],
        "answer": "5",
    },
    {
        "problem_id": "p2",
        "text": "only path",
        "token_logprobs": [-0.5, -0.1, -0.2],
        "answer": "Yes",
        "ext_score": 0.7,
    },
]


class TestLoadJsonl:
    def test_groups_by_problem_in_file_order(self, tmp_path):
        batches = load_jsonl(write_jsonl(tmp_path, GOOD), "length_normalized")
        assert set(batches) == {"p1", "p2"}
        assert batches["p1"].n == 2
        assert [p.text for p in batches["p1"].paths] == [
            "step one. answer 4",
            "other path",
        ]

    def test_answers_canonicalized(self, tmp_path):
        batches = load_jsonl(write_jsonl(tmp_path, GOOD), "length_normalized")
        assert batches["p1"].paths[0].answer == label("4")
        assert batches["p2"].paths[0].answer == label("yes")

    def test_derived_prob_matches_mode_exactly(self, tmp_path):
        for mode in ("joint", "length_normalized"):
            batches = load_jsonl(write_jsonl(tmp_path, GOOD), mode)
            path = batches["p1"].paths[0]
            assert path.path_prob == derive_path_prob(math.fsum([-0.2, -0.4]), 2, mode)

    def test_empty_file_gives_empty_mapping(self, tmp_path):
        dest = tmp_path / "empty.jsonl"
        dest.write_text("")
        assert load_jsonl(str(dest), "joint") == {}

    def test_positive_logprob_aborts_strict(self, tmp_path):
        bad = GOOD + [
            {
                "problem_id": "p3",
                "text": "bad",
                "token_logprobs": [0.5],
                "answer": "x",
            }
        ]
        with pytest.raises(ReasonConfError, match="line 4"):
            load_jsonl(write_jsonl(tmp_path, bad), "joint")

    def test_lenient_mode_skips_bad_lines(self, tmp_path):
        bad = GOOD + [
            {
                "problem_id": "p3",
                "text": "bad",
                "token_logprobs": [],
                "answer": "x",
            }
        ]
        batches = load_jsonl(write_jsonl(tmp_path, bad), "joint", strict=False)
        assert set(batches) == {"p1", "p2"}

    def test_blank_lines_are_skipped_but_counted(self, tmp_path):
        lines = ["", json.dumps(GOOD[0]), "   ", json.dumps(GOOD[1]), "\t", json.dumps(GOOD[2])]
        dest = tmp_path / "blanks.jsonl"
        dest.write_text("\n".join(lines) + "\n\n")
        assert load_jsonl(str(dest), "joint") == load_jsonl(write_jsonl(tmp_path, GOOD), "joint")
        # Line numbers in messages still count the blank lines.
        dest.write_text("\n".join(lines + ["", "{not json}"]) + "\n")
        with pytest.raises(ReasonConfError, match="line 8: invalid JSON"):
            load_jsonl(str(dest), "joint")

    def test_invalid_json_line_reported_with_number(self, tmp_path):
        dest = tmp_path / "broken.jsonl"
        dest.write_text(json.dumps(GOOD[0]) + "\n{not json}\n")
        with pytest.raises(ReasonConfError, match="line 2"):
            load_jsonl(str(dest), "joint")

    def _with_bad_bytes(self, tmp_path):
        """GOOD's first two records around a line encoded as Latin-1."""
        records = [GOOD[0], dict(GOOD[0], text="café"), GOOD[1]]
        dest = tmp_path / "latin1.jsonl"
        dest.write_bytes(
            b"".join(
                json.dumps(r, ensure_ascii=False).encode(encoding) + b"\n"
                for r, encoding in zip(records, ["utf-8", "latin-1", "utf-8"])
            )
        )
        return str(dest)

    def test_bytes_not_utf8_abort_strict_with_the_line(self, tmp_path):
        with pytest.raises(ReasonConfError, match="line 2: line is not valid UTF-8"):
            load_jsonl(self._with_bad_bytes(tmp_path), "joint")

    def test_bytes_not_utf8_skipped_and_counted_lenient(self, tmp_path, caplog):
        with caplog.at_level(logging.WARNING):
            batches = load_jsonl(self._with_bad_bytes(tmp_path), "joint", strict=False)
        assert [p.text for p in batches["p1"].paths] == [GOOD[0]["text"], GOOD[1]["text"]]
        assert "skipped 1 malformed line(s)" in caplog.text

    def test_non_ascii_utf8_text_parses(self, tmp_path):
        dest = tmp_path / "utf8.jsonl"
        record = dict(GOOD[0], text="café ∑ 🙂", answer="\\boxed{é}")
        dest.write_text(json.dumps(record, ensure_ascii=False) + "\n", encoding="utf-8")
        path = load_jsonl(str(dest), "joint")["p1"].paths[0]
        assert (path.text, path.answer) == ("café ∑ 🙂", label("é"))

    def test_missing_file_raises_oserror(self):
        with pytest.raises(OSError):
            load_jsonl("/nonexistent/path.jsonl", "joint")

    def test_mixed_class_id_presence_rejected(self, tmp_path):
        mixed = [
            dict(GOOD[0], class_id=1),
            GOOD[1],
            dict(GOOD[2], problem_id="p1", class_id=2),
        ]
        source = write_jsonl(tmp_path, mixed)
        with pytest.raises(ReasonConfError, match=r"1 malformed line\(s\): line 2: "
                           "problem 'p1' mixes records with and without class_id"):
            load_jsonl(source, "joint")
        batches = load_jsonl(source, "joint", strict=False)
        assert [p.answer.class_id for p in batches["p1"].paths] == [1, 2]

    def test_answer_empty_once_canonicalized_is_a_line_error(self, tmp_path):
        blank = GOOD[:2] + [dict(GOOD[1], answer="\\boxed{ }")]
        source = write_jsonl(tmp_path, blank)
        with pytest.raises(ReasonConfError, match="line 3: answer label is empty"):
            load_jsonl(source, "joint")
        assert load_jsonl(source, "joint", strict=False)["p1"].n == 2
        coded = write_jsonl(tmp_path, [dict(obj, class_id=4) for obj in blank])
        assert load_jsonl(coded, "joint")["p1"].paths[2].answer.class_id == 4

    def test_class_id_carried_through(self, tmp_path):
        coded = [
            {
                "problem_id": "p1",
                "text": "def f(): ...",
                "token_logprobs": [-0.1],
                "answer": "def f(): ...",
                "class_id": 3,
            }
        ]
        batches = load_jsonl(write_jsonl(tmp_path, coded), "joint")
        assert batches["p1"].paths[0].answer.class_id == 3


def _joint_prob(logprob_sum):
    return min(1.0, max(PROB_FLOOR, math.exp(logprob_sum)))


class TestParseRecord:
    def test_every_field_of_good_records(self, monkeypatch):
        sums = []
        fsum = math.fsum
        monkeypatch.setattr(math, "fsum", lambda xs: sums.append(xs) or fsum(xs))
        for mode in ("joint", "length_normalized"):
            sums.clear()
            parsed = [parse_record(obj, i, mode) for i, obj in enumerate(GOOD, start=1)]
            # Each line's tokens are summed exactly once.
            assert sums == [obj["token_logprobs"] for obj in GOOD]
            assert parsed == [
                ("p1", ReasoningPath("step one. answer 4", label("4"),
                                     derive_path_prob(-0.2 + -0.4, 2, mode))),
                ("p1", ReasoningPath("other path", label("5"), derive_path_prob(-1.0, 1, mode))),
                ("p2", ReasoningPath("only path", label("yes"),
                                     derive_path_prob(fsum([-0.5, -0.1, -0.2]), 3, mode))),
            ]
            problem_id, coded = parse_record(dict(GOOD[0], class_id=3), 1, mode)
            assert (problem_id, coded.answer.class_id) == ("p1", 3)
            assert coded.path_prob == parsed[0][1].path_prob

    def test_unknown_field_rejected(self):
        obj = dict(GOOD[0], extra=1)
        with pytest.raises(ParseError):
            parse_record(obj, 1, "joint")

    def test_blank_answer_rejected(self):
        obj = dict(GOOD[0], answer="   ")
        with pytest.raises(ParseError):
            parse_record(obj, 1, "joint")

    def test_ext_score_out_of_range_rejected(self):
        obj = dict(GOOD[0], ext_score=1.5)
        with pytest.raises(ParseError):
            parse_record(obj, 1, "joint")

    @pytest.mark.parametrize(
        "field,value",
        [
            ("token_logprobs", [-0.1, float("nan")]),
            ("token_logprobs", [float("-inf"), -0.2]),
            ("token_logprobs", [float("inf"), float("-inf")]),
            ("token_logprobs", [-0.1, False]),
            ("token_logprobs", [True]),
            ("token_logprobs", [-(10**400)]),
            ("token_logprobs", [-0.3, "-0.1"]),
            ("class_id", True),
            ("ext_score", True),
            ("problem_id", None),
            ("problem_id", 7),
            ("text", ["a"]),
        ],
    )
    def test_non_finite_bool_or_non_number_rejected(self, tmp_path, field, value):
        # Each record reaches parse_record through the JSON decoder, so
        # NaN and the infinities arrive as the tokens NaN/Infinity.
        bad = GOOD + [dict(GOOD[0], **{field: value})]
        with pytest.raises(ReasonConfError, match="line 4"):
            load_jsonl(write_jsonl(tmp_path, bad), "joint")
        batches = load_jsonl(write_jsonl(tmp_path, bad), "joint", strict=False)
        assert sum(batch.n for batch in batches.values()) == 3

    def test_integer_past_the_digit_limit_rejected(self, tmp_path):
        dest = tmp_path / "huge.jsonl"
        good = json.dumps(GOOD[0])
        huge = good.replace("-0.2", "-" + "9" * 5000)
        dest.write_text(good + "\n" + huge + "\n")
        with pytest.raises(ReasonConfError, match="line 2"):
            load_jsonl(str(dest), "joint")
        assert load_jsonl(str(dest), "joint", strict=False)["p1"].n == 1

    @given(
        st.lists(
            st.one_of(
                st.floats(),
                st.integers(),
                st.integers(min_value=-(10**320), max_value=-(10**300)),
                st.booleans(),
                st.none(),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_accepted_exactly_when_every_token_is_a_finite_number_at_most_zero(
        self, tokens
    ):
        def acceptable(token):
            if type(token) not in (int, float):
                return False
            try:
                return math.isfinite(float(token)) and token <= 0
            except OverflowError:
                return False

        obj = json.loads(json.dumps(dict(GOOD[0], token_logprobs=tokens)))
        if all(acceptable(t) for t in tokens):
            floats = [float(t) for t in tokens]
            try:
                expected = math.fsum(floats)
            except OverflowError:
                expected = -math.inf
            _, joint = parse_record(obj, 1, "joint")
            assert joint.path_prob == _joint_prob(expected)
            _, normalized = parse_record(obj, 1, "length_normalized")
            assert normalized.path_prob == _joint_prob(expected / len(tokens))
        else:
            with pytest.raises(ParseError):
                parse_record(obj, 1, "joint")

    def test_sum_past_the_float_range_is_floor(self, tmp_path):
        overflow = dict(GOOD[0], token_logprobs=[-1e308, -1e308])
        source = write_jsonl(tmp_path, [overflow, GOOD[1]])
        for mode in ("joint", "length_normalized"):
            assert parse_record(overflow, 1, mode)[1].path_prob == PROB_FLOOR
            assert load_jsonl(source, mode)["p1"].paths[0].path_prob == PROB_FLOOR


ROWS = [
    ResultRow("p1", "SC", 8, "4", 0.625, True),
    ResultRow("p2", "PC", 8, "no", 0.4125, False),
]


class TestExport:
    def test_csv_single_row(self):
        text = render_results(ROWS[:1], "csv")
        lines = text.splitlines()
        assert lines[0] == "problem_id,method,n,selected_answer,confidence,correct"
        assert lines[1] == "p1,SC,8,4,0.625,true"

    def test_csv_header_only_for_empty(self):
        assert render_results([], "csv").splitlines() == [
            "problem_id,method,n,selected_answer,confidence,correct"
        ]

    def test_json_round_trips_keys(self):
        objs = json.loads(render_results(ROWS, "json"))
        assert [o["problem_id"] for o in objs] == ["p1", "p2"]
        assert list(objs[0]) == [
            "problem_id",
            "method",
            "n",
            "selected_answer",
            "confidence",
            "correct",
        ]

    def test_bytes_identical_across_runs(self):
        for fmt in ("csv", "json"):
            a = render_results(ROWS, fmt).encode("utf-8")
            b = render_results(list(ROWS), fmt).encode("utf-8")
            assert a == b

    def test_unknown_format_rejected(self):
        with pytest.raises(ReasonConfError):
            render_results(ROWS, "xml")
