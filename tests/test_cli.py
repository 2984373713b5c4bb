"""CLI contract: every command deterministic, validated config, clean exits."""

import json
import logging
import math

import pytest

import reasonconf.oracle
from reasonconf.cli import RunConfig, decompose_rows, main
from reasonconf import ConfigError
from reasonconf.oracle import oracle_from_json


@pytest.fixture
def oracle_file(tmp_path):
    dest = tmp_path / "oracle.json"
    dest.write_text(
        json.dumps(
            {
                "path_probs": [0.3, 0.3, 0.4],
                "path_answers": ["A", "A", "B"],
                "truth": "A",
            }
        )
    )
    return str(dest)


@pytest.fixture
def config_file(tmp_path):
    dest = tmp_path / "config.json"
    dest.write_text(
        json.dumps(
            {
                "seed": 5,
                "methods": ["SC", "PC", "RPC"],
                "n_grid": [4, 8, 16, 32],
                "repeats": 2,
                "trials": 1500,
            }
        )
    )
    return str(dest)


@pytest.fixture
def jsonl_file(tmp_path):
    records = [
        {"problem_id": "p1", "text": "a", "token_logprobs": [-0.2, -0.3], "answer": "4"},
        {"problem_id": "p1", "text": "b", "token_logprobs": [-0.9], "answer": "4"},
        {"problem_id": "p1", "text": "c", "token_logprobs": [-1.8], "answer": "5"},
        {"problem_id": "p2", "text": "d", "token_logprobs": [-0.1], "answer": "yes"},
    ]
    dest = tmp_path / "paths.jsonl"
    dest.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    return str(dest)


def run_twice(tmp_path, argv_builder):
    outputs = []
    for tag in ("first", "second"):
        out = tmp_path / f"{tag}.out"
        code = main(argv_builder(str(out)))
        assert code == 0
        outputs.append(out.read_bytes())
    return outputs


class TestDeterminism:
    def test_simulate(self, tmp_path, oracle_file, config_file):
        a, b = run_twice(
            tmp_path,
            lambda out: [
                "simulate", "--oracle", oracle_file, "--config", config_file,
                "--out", out,
            ],
        )
        assert a == b
        assert a.startswith(b"method,n,seed,accuracy,ece\n")

    def test_convergence(self, tmp_path, oracle_file, config_file):
        a, b = run_twice(
            tmp_path,
            lambda out: [
                "convergence", "--oracle", oracle_file, "--config", config_file,
                "--out", out,
            ],
        )
        assert a == b
        assert b"ratefit" in a

    def test_decompose(self, tmp_path, oracle_file, config_file):
        a, b = run_twice(
            tmp_path,
            lambda out: [
                "decompose", "--oracle", oracle_file, "--config", config_file,
                "--out", out,
            ],
        )
        assert a == b

    def test_estimate(self, tmp_path, jsonl_file):
        a, b = run_twice(
            tmp_path,
            lambda out: ["estimate", "--input", jsonl_file, "--out", out],
        )
        assert a == b

    def test_fit_mixture(self, tmp_path):
        probs = tmp_path / "probs.json"
        probs.write_text(json.dumps({"probs": [0.6, 0.5, 0.55, 0.05, 0.08, 0.07]}))
        a, b = run_twice(
            tmp_path,
            lambda out: ["fit-mixture", "--input", str(probs), "--out", out],
        )
        assert a == b

    def test_metrics(self, tmp_path, jsonl_file):
        results = tmp_path / "results.json"
        assert (
            main(
                [
                    "estimate", "--input", jsonl_file, "--format", "json",
                    "--out", str(results),
                ]
            )
            == 0
        )
        a, b = run_twice(
            tmp_path,
            lambda out: [
                "metrics", "--input", str(results), "--format", "json",
                "--out", out,
            ],
        )
        assert a == b

    def test_config(self, tmp_path, config_file):
        a, b = run_twice(
            tmp_path,
            lambda out: ["config", "--config", config_file, "--out", out],
        )
        assert a == b


class TestRunConfig:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.from_doc({"sampling": 3})

    def test_unknown_fit_key_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.from_doc({"fit": {"iterations": 3}})

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.from_doc({"methods": ["SC", "VOTE"]})

    def test_defaults(self):
        cfg = RunConfig.from_doc({})
        assert cfg.methods == ("SC", "PPL", "PC", "RPC")
        assert cfg.n_grid == (64, 128)
        assert cfg.repeats == 10
        assert cfg.fit.weight_bounds == (0.2, 0.8)

    def test_seed_override(self, tmp_path, config_file):
        cfg = RunConfig.load(config_file, seed_override=99)
        assert cfg.seed == 99


class TestErrorHandling:
    def test_bad_config_exits_nonzero(self, tmp_path, oracle_file, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        code = main(
            ["simulate", "--oracle", oracle_file, "--config", str(cfg)]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_missing_oracle_exits_nonzero(self, capsys):
        assert main(["simulate", "--oracle", "/nonexistent.json"]) == 1

    def test_no_partial_output_on_failure(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        code = main(
            ["simulate", "--oracle", "/nonexistent.json", "--out", str(out)]
        )
        assert code == 1
        assert not out.exists()

    def test_lenient_flag_skips_bad_lines(self, tmp_path, capsys):
        dest = tmp_path / "dirty.jsonl"
        dest.write_text(
            json.dumps(
                {
                    "problem_id": "p1",
                    "text": "a",
                    "token_logprobs": [-0.2],
                    "answer": "4",
                }
            )
            + "\nnot json\n"
        )
        out = tmp_path / "out.csv"
        assert (
            main(
                ["estimate", "--input", str(dest), "--lenient", "--out", str(out)]
            )
            == 0
        )
        assert main(["estimate", "--input", str(dest)]) == 1

    @pytest.mark.parametrize(
        "flag,doc",
        [
            ("--config", {"seed": "abc"}),
            ("--config", {"repeats": "x"}),
            ("--config", {"n_grid": 5}),
            ("--config", {"truths": [1]}),
            ("--config", {"fit": 3}),
            ("--config", {"fit": {"weight_bounds": [0.5]}}),
            ("--config", {"trials": -5}),
            ("--config", {"trials": 0}),
            ("--config", {"bins": 0}),
            ("--oracle", [1]),
            ("--oracle", {"path_probs": ["x"], "path_answers": ["A"], "truth": "A"}),
            ("--oracle", {"path_probs": 1, "path_answers": ["A"], "truth": "A"}),
        ],
    )
    def test_malformed_document_is_an_error_line(
        self, tmp_path, oracle_file, capsys, flag, doc
    ):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        files = {"--oracle": oracle_file, flag: str(bad)}
        argv = ["convergence"] + [arg for pair in files.items() for arg in pair]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""

    def test_print_defaults(self, capsys):
        assert main(["config", "--print-defaults"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["repeats"] == 10
        assert doc["fit"]["weight_bounds"] == [0.2, 0.8]


class TestEstimateOutputs:
    def test_report_written_for_rpc(self, tmp_path, jsonl_file):
        out = tmp_path / "rows.csv"
        report = tmp_path / "reports.json"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"methods": ["RPC"], "truths": {"p1": "4"}}))
        assert (
            main(
                [
                    "estimate", "--input", jsonl_file, "--config", str(cfg),
                    "--out", str(out), "--report", str(report),
                ]
            )
            == 0
        )
        reports = json.loads(report.read_text())
        assert set(reports) == {"p1", "p2"}
        assert "retained_indices" in reports["p1"]

    def test_one_row_per_problem_method(self, tmp_path, jsonl_file, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"methods": ["SC", "PC"]}))
        assert main(["estimate", "--input", jsonl_file, "--config", str(cfg)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 + 4  # header + 2 problems x 2 methods

    @pytest.mark.parametrize("mode", ["joint", "length_normalized"])
    def test_sum_past_the_float_range_scores(self, tmp_path, mode, capsys):
        dest = tmp_path / "overflow.jsonl"
        records = [
            {"problem_id": "p1", "text": "a", "token_logprobs": [-1e308, -1e308], "answer": "4"},
            {"problem_id": "p1", "text": "b", "token_logprobs": [-0.5], "answer": "5"},
        ]
        dest.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"prob_mode": mode, "methods": ["PPL", "PC"]}))
        assert main(["estimate", "--input", str(dest), "--config", str(cfg)]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert [row.split(",")[3] for row in rows] == ["5", "5"]

    @pytest.mark.parametrize("mode", ["joint", "length_normalized"])
    def test_empty_path_text_scores(self, tmp_path, mode, capsys):
        dest = tmp_path / "empty_text.jsonl"
        records = [
            {"problem_id": "p1", "text": "", "token_logprobs": [-0.1], "answer": "4"},
            {"problem_id": "p1", "text": "b", "token_logprobs": [-0.5], "answer": "5"},
        ]
        dest.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"prob_mode": mode, "methods": ["PPL"]}))
        assert main(["estimate", "--input", str(dest), "--config", str(cfg)]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert [row.split(",")[:4] for row in rows] == [["p1", "PPL", "2", "4"]]
        assert float(rows[0].split(",")[4]) == pytest.approx(math.exp(-0.1))

    def test_truths_score_correctness(self, tmp_path, jsonl_file, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"methods": ["SC"], "truths": {"p1": "4"}}))
        assert main(["estimate", "--input", jsonl_file, "--config", str(cfg)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        by_problem = {line.split(",")[0]: line for line in lines}
        assert by_problem["p1"].endswith("true")
        assert by_problem["p2"].endswith("false")


class TestDecomposeFallback:
    @pytest.mark.parametrize(
        "doc",
        [
            # Many paths at small n: PC and PPL are far from unbiased.
            {
                "path_probs": [0.125] * 4 + [0.05] * 10,
                "path_answers": ["T"] * 4 + [f"w{i}" for i in range(10)],
                "truth": "T",
            },
            # No path carries the truth, so PPL targets a wrong path.
            {"path_probs": [0.5, 0.3, 0.2], "path_answers": ["B", "C", "D"], "truth": "A"},
        ],
    )
    def test_monte_carlo_total_is_reasoning_error(self, monkeypatch, doc):
        oracle = oracle_from_json(doc)
        cfg = RunConfig.from_doc(
            {"seed": 3, "methods": ["SC", "PPL", "PC"], "n_grid": [3], "trials": 20000}
        )
        exact = {row[0]: row[4] for row in decompose_rows(oracle, cfg)}
        monkeypatch.setattr(reasonconf.oracle, "ENUMERATION_CAP", 1)
        rows = decompose_rows(oracle, cfg)
        # (est - I)^2 lies in [0, 1], so one trial's standard deviation is <= 0.5.
        bound = 5 * 0.5 / math.sqrt(cfg.trials)
        assert [row[0] for row in rows] == ["PC", "PPL", "SC"]
        for method, _, _, _, total, is_exact in rows:
            assert not is_exact
            assert abs(total - exact[method]) < bound, method


class TestWarnings:
    def test_rpc_rows_past_the_cap_warn(self, caplog):
        oracle = oracle_from_json(
            {"path_probs": [0.3, 0.3, 0.4], "path_answers": ["A", "A", "B"], "truth": "A"}
        )
        cfg = RunConfig.from_doc(
            {"methods": ["PC", "RPC"], "n_grid": [4, 20], "trials": 1000}
        )
        with caplog.at_level(logging.WARNING, logger="reasonconf"):
            rows = decompose_rows(oracle, cfg)
        assert [(row[0], row[1]) for row in rows] == [("PC", 4), ("PC", 20), ("RPC", 4)]
        messages = [r.getMessage() for r in caplog.records]
        assert len(messages) == 1
        assert "RPC" in messages[0] and "n=20" in messages[0]

    def test_lenient_skips_warn(self, tmp_path, capsys, caplog):
        good = json.dumps(
            {"problem_id": "p1", "text": "a", "token_logprobs": [-0.2], "answer": "4"}
        )
        dest = tmp_path / "dirty.jsonl"
        dest.write_text("\n".join([good, "not json", good, "{}", "[1]"]) + "\n")
        with caplog.at_level(logging.WARNING, logger="reasonconf"):
            assert main(["estimate", "--input", str(dest), "--lenient"]) == 0
        out = capsys.readouterr().out
        assert "skipped" not in out
        messages = [r.getMessage() for r in caplog.records]
        assert len(messages) == 1
        assert "skipped 3 malformed line(s)" in messages[0]
        assert messages[0].endswith("line(s) 2, 4, 5")
