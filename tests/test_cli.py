"""CLI contract: every command deterministic, validated config, clean exits."""

import json
import logging
import math
import os
import re
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

import reasonconf.oracle
import reasonconf.pruning
from reasonconf.cli import (
    RunConfig,
    _report_doc,
    decompose_rows,
    main,
    simulate_rows,
)
from reasonconf import ConfigError, fit_mixture, load_jsonl, prune, unique_paths
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
        assert a.startswith(b"method,n,repeat,accuracy,ece\n")

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

    def test_fit_section_is_an_unknown_key(self):
        # The mixture fit has no settings: its cap and tolerance are constants.
        with pytest.raises(ConfigError, match=r"^unknown config keys: \['fit'\]$"):
            RunConfig.from_doc({"fit": {"max_iter": 200}})

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.from_doc({"methods": ["SC", "VOTE"]})

    def test_defaults(self):
        cfg = RunConfig.from_doc({})
        assert cfg.methods == ("SC", "PPL", "PC", "RPC")
        assert cfg.n_grid == (64, 128)
        assert cfg.repeats == 10
        assert "fit" not in cfg.to_doc()

    def test_seed_override(self, tmp_path, config_file):
        cfg = RunConfig.load(config_file, seed_override=99)
        assert cfg.seed == 99

    def test_seed_bound_is_zero(self):
        assert RunConfig.from_doc({"seed": 0}).seed == 0
        with pytest.raises(ConfigError, match=r"^malformed config: seed -1 is negative$"):
            RunConfig.from_doc({"seed": -1})
        with pytest.raises(ConfigError, match=r"^malformed config: seed -7 is negative$"):
            RunConfig.load(None, seed_override=-7)

    @pytest.mark.parametrize("methods", [[], ["PC", "SC", "PC"]])
    def test_methods_must_be_nonempty_and_distinct(self, methods):
        with pytest.raises(
            ConfigError, match=r"^methods must be non-empty and hold no repeats$"
        ):
            RunConfig.from_doc({"methods": methods})

    @pytest.mark.parametrize("n_grid", [[], [4, 4], [8, 4]])
    def test_n_grid_must_be_nonempty_and_increasing(self, n_grid):
        with pytest.raises(
            ConfigError, match=r"^n_grid must be non-empty and strictly increasing$"
        ):
            RunConfig.from_doc({"n_grid": n_grid})

    def test_single_entry_lists_are_accepted(self):
        cfg = RunConfig.from_doc({"methods": ["RPC"], "n_grid": [1]})
        assert (cfg.methods, cfg.n_grid) == (("RPC",), (1,))


class TestErrorHandling:
    def test_bad_config_exits_nonzero(self, tmp_path, oracle_file, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        code = main(
            ["simulate", "--oracle", oracle_file, "--config", str(cfg)]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "convergence"])
    def test_negative_seed_is_an_error_line(self, oracle_file, capsys, command):
        assert main([command, "--oracle", oracle_file, "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: malformed config: seed -1 is negative\n"
        assert captured.out == ""

    def test_config_command_rejects_negative_seed(self, tmp_path, capsys):
        # `config` echoes the effective configuration; a negative seed is
        # not one, so nothing is printed back.
        bad = tmp_path / "neg.json"
        bad.write_text(json.dumps({"seed": -5}))
        assert main(["config", "--config", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: malformed config: seed -5 is negative\n"
        assert captured.out == ""

    def test_log_level_variable_is_not_read(self):
        # REASONCONF_LOG_LEVEL once set the log level; an unknown level
        # made every command fail.  The program now reads no environment.
        # A fresh process is used because logging.basicConfig only acts on
        # a root logger without handlers, and pytest installs some.
        src = str(Path(__file__).resolve().parent.parent / "src")
        code = "import sys; from reasonconf.cli import main; sys.exit(main(sys.argv[1:]))"
        outputs = []
        for extra in ({}, {"REASONCONF_LOG_LEVEL": "loud"}):
            env = {k: v for k, v in os.environ.items() if k != "REASONCONF_LOG_LEVEL"}
            env.update(PYTHONPATH=src, **extra)
            proc = subprocess.run(
                [sys.executable, "-c", code, "config", "--print-defaults"],
                env=env,
                capture_output=True,
                timeout=120,
            )
            assert proc.returncode == 0, proc.stderr.decode(errors="replace")
            assert proc.stderr == b""
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1] != b""

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

    # Each case names its id, so adding or removing a case leaves every
    # other id in place.  The ids keep the names pytest gave the cases by
    # position.
    @pytest.mark.parametrize(
        "flag,doc",
        [
            pytest.param("--config", {"seed": "abc"}, id="--config-doc0"),
            pytest.param("--config", {"repeats": "x"}, id="--config-doc1"),
            pytest.param("--config", {"n_grid": 5}, id="--config-doc2"),
            pytest.param("--config", {"truths": [1]}, id="--config-doc3"),
            pytest.param("--config", {"fit": 3}, id="--config-doc4"),
            pytest.param("--config", {"trials": -5}, id="--config-doc6"),
            pytest.param("--config", {"trials": 0}, id="--config-doc7"),
            pytest.param("--config", {"bins": 0}, id="--config-doc8"),
            pytest.param("--oracle", [1], id="--oracle-doc9"),
            pytest.param("--oracle", {"path_probs": ["x"], "path_answers": ["A"], "truth": "A"}, id="--oracle-doc10"),
            pytest.param("--oracle", {"path_probs": 1, "path_answers": ["A"], "truth": "A"}, id="--oracle-doc11"),
            pytest.param("--config", {"truths": {"p1": None}}, id="--config-doc12"),
            pytest.param("--config", {"truths": {"p1": 42}}, id="--config-doc13"),
            pytest.param("--config", {"seed": True}, id="--config-doc14"),
            pytest.param("--config", {"n_grid": [4.9]}, id="--config-doc15"),
            pytest.param("--config", {"repeats": 2.7}, id="--config-doc16"),
            pytest.param("--config", {"trials": True}, id="--config-doc17"),
            pytest.param("--config", {"bins": 1.5}, id="--config-doc18"),
            pytest.param("--config", {"seed": math.inf}, id="--config-doc19"),
            pytest.param("--oracle", {"path_probs": [True], "path_answers": ["A"], "truth": "A"}, id="--oracle-doc20"),
            pytest.param("--oracle", {"path_probs": ["0.5", 0.5], "path_answers": ["A", "B"], "truth": "A"}, id="--oracle-doc21"),
            pytest.param("--oracle", {"path_probs": [1.0], "path_answers": [None], "truth": "A"}, id="--oracle-doc22"),
            pytest.param("--oracle", {"path_probs": [1.0], "path_answers": [1], "truth": "1"}, id="--oracle-doc23"),
            pytest.param("--oracle", {"path_probs": [1.0], "path_answers": ["A"], "truth": None}, id="--oracle-doc24"),
            pytest.param("--oracle", {"path_probs": [10**400], "path_answers": ["A"], "truth": "A"}, id="--oracle-doc25"),
            pytest.param("--config", {"seed": "5"}, id="--config-doc38"),
            pytest.param("--config", {"seed": -1}, id="--config-doc39"),
            pytest.param("--config", {"methods": []}, id="--config-doc40"),
            pytest.param("--config", {"methods": ["SC", "SC"]}, id="--config-doc41"),
            pytest.param("--config", {"n_grid": []}, id="--config-doc42"),
            pytest.param("--config", {"n_grid": [4, 4]}, id="--config-doc43"),
            pytest.param("--config", {"n_grid": [8, 4, 16, 32, 64]}, id="--config-doc44"),
            pytest.param("--config", {"prob_mode": "geometric"}, id="--config-doc45"),
            pytest.param("--config", {"n_grid": [0, 4]}, id="--config-doc46"),
            pytest.param("--config", {"n_grid": [-4]}, id="--config-doc47"),
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
        if flag == "--oracle":
            assert captured.err.startswith("error: malformed oracle document: ")
        assert captured.err.startswith("error: ")
        assert captured.out == ""

    @pytest.mark.parametrize(
        "command,doc",
        [
            ("fit-mixture", {"probs": ["x", 1]}),
            ("metrics", [{"confidence": "abc", "correct": True, "selected_answer": "a"}]),
            ("metrics", [1]),
            ("metrics", [{"confidence": True, "correct": "false"}, {"confidence": 0.2, "correct": "no"}]),
            ("metrics", [{"confidence": 0.7, "correct": 1}]),
            ("metrics", [{"confidence": "0.7", "correct": True}]),
            ("metrics", [{"correct": True}]),
            ("metrics", {"confidence": 0.7, "correct": True}),
            ("fit-mixture", {"probs": [True, 0.5, 0.2, 0.1, 0.05]}),
            ("fit-mixture", {"probs": [0.9, 0.5, 0.2, 0.1, None]}),
            ("fit-mixture", {"probs": 0.5}),
            ("fit-mixture", {"prob": [0.9, 0.5, 0.2, 0.1]}),
            ("fit-mixture", [0.9, 0.5, 0.2, 10**400]),
        ],
    )
    def test_malformed_input_is_an_error_line(self, tmp_path, capsys, command, doc):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main([command, "--input", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""

    @pytest.mark.parametrize("n_records", [1, 4])
    def test_fit_mixture_reads_no_dump(self, tmp_path, jsonl_file, capsys, n_records):
        dump = tmp_path / "dump.jsonl"
        dump.write_text("".join(Path(jsonl_file).read_text().splitlines(True)[:n_records]))
        assert main(["fit-mixture", "--input", str(dump)]) == 1
        captured = capsys.readouterr()
        assert re.fullmatch(r"error: malformed probs document: [^\n]*\n", captured.err)
        assert captured.out == ""

    @pytest.mark.parametrize(
        "command,flag,kind",
        [
            ("config", "--config", "config"),
            ("simulate", "--oracle", "oracle"),
            ("metrics", "--input", "results"),
            ("fit-mixture", "--input", "probs"),
        ],
        ids=["config", "oracle", "results", "probs"],
    )
    def test_integer_past_the_digit_limit_is_an_error_line(
        self, tmp_path, capsys, command, flag, kind
    ):
        big = tmp_path / "big.json"
        big.write_text('{"seed": %s}' % ("9" * 5000))
        assert main([command, flag, str(big)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(rf"error: malformed {kind} document: [^\n]*digits[^\n]*\n", captured.err)

    @pytest.mark.parametrize(
        "bad,message",
        [
            ({"answer": "\\boxed{ }"}, "line 2: answer label is empty"),
            ({"class_id": 4}, "line 2: problem 'p1' mixes records with and without class_id"),
        ],
        ids=["empty-answer", "class-id-mismatch"],
    )
    def test_line_errors_abort_strict_and_are_skipped_lenient(
        self, tmp_path, capsys, bad, message
    ):
        good = {"problem_id": "p1", "text": "a", "token_logprobs": [-0.2], "answer": "4"}
        dest = tmp_path / "dirty.jsonl"
        dest.write_text(
            "".join(json.dumps(r) + "\n" for r in [good, dict(good, text="b", **bad), good])
        )
        assert main(["estimate", "--input", str(dest)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: 1 malformed line(s): {message}")
        assert captured.err.count("\n") == 1 and captured.out == ""
        assert main(["estimate", "--input", str(dest), "--lenient"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert {row.split(",")[2] for row in rows} == {"2"}

    def test_metrics_reads_only_confidence_and_correct(self, tmp_path, capsys):
        results = tmp_path / "results.json"
        results.write_text(
            json.dumps(
                [{"confidence": 0.7, "correct": True}, {"confidence": 0.2, "correct": False}]
            )
        )
        assert main(["metrics", "--input", str(results), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["accuracy"] == 0.5
        assert doc["bins"]["counts"][1] == doc["bins"]["counts"][6] == 1

    def test_metrics_csv_has_one_row_per_bin(self, tmp_path, capsys):
        results = tmp_path / "results.json"
        results.write_text(
            json.dumps(
                [{"confidence": 0.7, "correct": True}, {"confidence": 0.2, "correct": False}]
            )
        )
        assert main(["metrics", "--input", str(results), "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "bin_low,bin_high,count,mean_confidence,empirical_accuracy"
        # Bins are right-closed, so 0.7 lands in (0.6, 0.7].
        assert lines[7] == "0.6,0.7,1,0.7,1.0"
        assert lines[11:] == ["# accuracy=0.5", "# ece=0.25"]

    def test_print_defaults(self, capsys):
        assert main(["config", "--print-defaults"]) == 0
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert doc["repeats"] == 10
        assert "fit" not in doc
        assert out.encode("utf-8") == (GOLDEN / "config_defaults.json").read_bytes()

    @pytest.mark.parametrize("flag,value", [("--config", "c.json"), ("--seed", "3")])
    def test_fit_mixture_takes_no_config(self, tmp_path, capsys, flag, value):
        probs = tmp_path / "p.json"
        probs.write_text(json.dumps({"probs": [0.6, 0.5, 0.55, 0.05, 0.08, 0.07]}))
        with pytest.raises(SystemExit) as exc:
            main(["fit-mixture", flag, value, "--input", str(probs)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"unrecognized arguments: {flag} {value}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("pid", ["p1", "p9"], ids=["in_dump", "not_in_dump"])
    def test_truth_that_canonicalizes_to_nothing_is_named(self, tmp_path, capsys, pid):
        dump = tmp_path / "one.jsonl"
        dump.write_text(
            json.dumps({"problem_id": "p1", "text": "a", "token_logprobs": [-0.2], "answer": "4"})
            + "\n"
        )
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"truths": {pid: "\\boxed{ }"}}))
        assert main(["estimate", "--input", str(dump), "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: malformed config: truths[{pid!r}] canonicalizes to an empty answer\n"
        )
        assert captured.out == ""

    def test_config_prints_truths_canonicalized(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"truths": {"p1": " \\boxed{870}", "p2": "\\boxed{ YES }"}}))
        assert main(["config", "--config", str(cfg)]) == 0
        assert json.loads(capsys.readouterr().out)["truths"] == {"p1": "870", "p2": "yes"}


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

    @pytest.mark.parametrize(
        "probs",
        [[0.9, 0.85, 0.8, 0.3, 0.05, 0.04, 0.03, 0.02], [0.5, 0.3, 0.1]],
        ids=["fitted", "fallback"],
    )
    def test_report_doc_is_the_asdict_document(self, probs):
        report = prune(probs)
        assert (report.fit is None) == (len(probs) < 4)
        expected = asdict(report)
        if expected["fit"] is None:
            del expected["fit"]
        assert json.dumps(_report_doc(report), sort_keys=True) == json.dumps(
            expected, sort_keys=True
        )

    def test_fit_mixture_prints_the_fit_the_report_holds(self, tmp_path, capsys):
        # One serializer: fit-mixture's document is asdict of the fit, and
        # the same fit in a pruning report is the same JSON text.
        probs = [0.9, 0.85, 0.8, 0.3, 0.05, 0.04, 0.03, 0.02]
        dest = tmp_path / "probs.json"
        dest.write_text(json.dumps({"probs": probs}))
        assert main(["fit-mixture", "--input", str(dest)]) == 0
        expected = {"fit": asdict(fit_mixture(probs))}
        printed = capsys.readouterr().out
        assert printed == json.dumps(expected, indent=2, sort_keys=True) + "\n"
        report_fit = {"fit": _report_doc(prune(probs))["fit"]}
        assert json.dumps(report_fit, indent=2, sort_keys=True) + "\n" == printed

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


class TestDecomposeModelError:
    """decompose's model_error column is (p - I)^2 of each method's target."""

    CFG = RunConfig(methods=("SC", "PPL", "PC", "RPC"), n_grid=(1, 2, 3))

    def model_errors(self, doc):
        by_method = {}
        for method, _, _, model, _, _ in decompose_rows(oracle_from_json(doc), self.CFG):
            by_method.setdefault(method, []).append(model)
        return by_method

    def test_constant_in_n_and_shared_by_the_answer_methods(self):
        errors = self.model_errors(
            {"path_probs": [0.3, 0.3, 0.4], "path_answers": ["A", "A", "B"], "truth": "A"}
        )
        for method, values in errors.items():
            assert len(values) == 3 and len(set(values)) == 1, method
        # SC, PC and RPC all target the truth's whole mass 0.6.
        assert errors["SC"] == errors["PC"] == errors["RPC"]
        assert errors["SC"][0] == pytest.approx(0.16, abs=1e-12)

    def test_ppl_pays_for_splitting_the_truth_over_paths(self):
        errors = self.model_errors(
            {
                "path_probs": [0.2, 0.2, 0.2, 0.4],
                "path_answers": ["T", "T", "T", "B"],
                "truth": "T",
            }
        )
        assert errors["SC"][0] == pytest.approx(0.16, abs=1e-12)
        assert errors["PPL"][0] == pytest.approx(0.64, abs=1e-12)

    def test_single_correct_path_gives_equal_errors(self):
        errors = self.model_errors(
            {"path_probs": [0.3, 0.7], "path_answers": ["A", "B"], "truth": "A"}
        )
        assert errors["SC"][0] == errors["PPL"][0] == pytest.approx(0.49, abs=1e-12)

    def test_absent_truth(self):
        # SC scores the truth, at mass 0; PPL falls back to path 0, a wrong path.
        errors = self.model_errors(
            {"path_probs": [0.5, 0.3, 0.2], "path_answers": ["B", "C", "D"], "truth": "A"}
        )
        assert errors["SC"][0] == 1.0
        assert errors["PPL"][0] == pytest.approx(0.25, abs=1e-12)


class TestSimulateRows:
    def test_repeat_column_is_the_repeat_index(self):
        spec = oracle_from_json(
            {"path_probs": [0.3, 0.3, 0.4], "path_answers": ["A", "A", "B"], "truth": "A"}
        )
        cfg = RunConfig(methods=("SC", "PPL"), n_grid=(2, 4), repeats=3)
        rows = simulate_rows(spec, cfg)
        assert [row[:3] for row in rows] == [
            (method, n, r) for method in ("PPL", "SC") for n in (2, 4) for r in range(3)
        ]


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

    @pytest.mark.parametrize("command", ["simulate", "estimate"])
    def test_capped_fits_warn(self, tmp_path, capsys, caplog, monkeypatch, command):
        probs = [0.3, 0.2, 0.15, 0.12, 0.1, 0.06, 0.04, 0.03]
        answers = ["A", "B", "A", "C", "B", "A", "C", "D"]
        oracle = tmp_path / "oracle.json"
        oracle.write_text(
            json.dumps({"path_probs": probs, "path_answers": answers, "truth": "A"})
        )
        dump = tmp_path / "paths.jsonl"
        dump.write_text(
            "".join(
                json.dumps(
                    {
                        "problem_id": f"p{i % 2}",
                        "text": f"t{i}",
                        "token_logprobs": [math.log(p)],
                        "answer": a,
                    }
                )
                + "\n"
                for i, (p, a) in enumerate(zip(probs + probs[::-1], answers * 2))
            )
        )
        source = {"simulate": ["--oracle", str(oracle)], "estimate": ["--input", str(dump)]}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_grid": [16, 32], "repeats": 2}))
        outputs = []
        for max_maps in (reasonconf.pruning.MAX_MAPS, 1):
            monkeypatch.setattr(reasonconf.pruning, "MAX_MAPS", max_maps)
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="reasonconf"):
                assert main([command, "--config", str(cfg)] + source[command]) == 0
            outputs.append(capsys.readouterr().out)
            messages = [r.getMessage() for r in caplog.records]
            if max_maps != 1:
                assert messages == []
        # One map never converges: every fit stops at the cap.
        assert len(messages) == 1
        match = re.fullmatch(
            r"(\d+) of (\d+) mixture fits stopped at the EM map cap", messages[0]
        )
        assert match and match.group(1) == match.group(2) != "0"
        assert "mixture fits" not in outputs[1]


GOLDEN = Path(__file__).resolve().parent / "golden"


def _golden_inputs(tmp_path, mode):
    """A two-problem dump and a config for the pinned ``estimate`` outputs.

    ``p1`` has five unique paths and repeats one, with answers in varied
    ``\\boxed{}`` padding; every ``p2`` record carries a ``class_id``, and
    three of its answer strings share class 7.
    """

    def record(pid, text, logprobs, answer, class_id=None):
        rec = {"problem_id": pid, "text": text, "token_logprobs": logprobs, "answer": answer}
        if class_id is not None:
            rec["class_id"] = class_id
        return rec

    records = [
        record("p1", "add the units: 4", [-1.2], "\\boxed{4}"),
        record("p1", "carry the one: 14", [-1.6, -1.9], "14"),
        record("p1", "count again: 4", [-0.9, -0.8], "  \\boxed{ 4 }\n"),
        record("p1", "add the units: 4", [-1.2], "\\boxed{4}"),
        record("p1", "guess: 5", [-2.6, -3.1, -2.2], "5"),
        record("p1", "subtract: 2", [-1.4, -0.9], "\\boxed{2}"),
        record("p1", "recount: 4", [-2.0], "4"),
        record("p2", "def f(x): return x + 1", [-1.0], "def f(x): return x + 1", 7),
        record("p2", "def f(x): return 1 + x", [-0.9, -1.1, -1.3], "def f(x): return 1 + x", 7),
        record("p2", "def f(x): return x", [-1.7, -2.0], "def f(x): return x", 3),
        record("p2", "def f(x): return x - 1", [-2.8], "def f(x): return x - 1", 5),
        record("p2", "lambda x: x + 1", [-1.6, -1.5, -1.9, -1.4], "lambda x: x + 1", 7),
    ]
    dump = tmp_path / "golden.jsonl"
    dump.write_text("".join(json.dumps(r) + "\n" for r in records))
    cfg = tmp_path / "golden_cfg.json"
    cfg.write_text(
        json.dumps({"prob_mode": mode, "truths": {"p1": "\\boxed{4}", "p2": "def f(x): return x"}})
    )
    return str(dump), str(cfg)


class TestEstimateGolden:
    """``estimate``'s output bytes, pinned by the files under ``tests/golden``."""

    @pytest.mark.parametrize("mode", ["joint", "length_normalized"])
    def test_csv_bytes(self, tmp_path, capsys, mode):
        dump, cfg = _golden_inputs(tmp_path, mode)
        assert main(["estimate", "--input", dump, "--config", cfg]) == 0
        expected = (GOLDEN / f"estimate_{mode}.csv").read_bytes()
        assert capsys.readouterr().out.encode("utf-8") == expected

    @pytest.mark.parametrize("mode", ["joint", "length_normalized"])
    def test_json_and_report_bytes(self, tmp_path, capsys, mode):
        dump, cfg = _golden_inputs(tmp_path, mode)
        report = tmp_path / "report.json"
        argv = ["estimate", "--input", dump, "--config", cfg, "--format", "json"]
        assert main(argv + ["--report", str(report)]) == 0
        expected = (GOLDEN / f"estimate_{mode}.json").read_bytes()
        assert capsys.readouterr().out.encode("utf-8") == expected
        assert report.read_bytes() == (GOLDEN / f"estimate_{mode}_report.json").read_bytes()

    @pytest.mark.parametrize("mode", ["joint", "length_normalized"])
    def test_report_fit_is_the_fit_of_unique_path_probs(self, tmp_path, mode):
        dump, cfg = _golden_inputs(tmp_path, mode)
        report = tmp_path / "report.json"
        assert main(["estimate", "--input", dump, "--config", cfg, "--report", str(report)]) == 0
        fits = {pid: doc["fit"] for pid, doc in json.loads(report.read_text()).items()}
        batches = load_jsonl(dump, mode)
        assert set(fits) == set(batches) == {"p1", "p2"}
        for pid, batch in batches.items():
            probs = [path.path_prob for path in unique_paths(batch)]
            assert fits[pid] == asdict(fit_mixture(probs))

    @pytest.mark.parametrize("mode", ["joint", "length_normalized"])
    def test_class_id_truth_is_judged_by_class(self, tmp_path, capsys, mode):
        dump, _ = _golden_inputs(tmp_path, mode)
        cfg = tmp_path / "cfg.json"
        for truth, correct in [("lambda x: x + 1", True), ("lambda x: x", False)]:
            cfg.write_text(json.dumps({"prob_mode": mode, "truths": {"p2": truth}}))
            assert main(["estimate", "--input", dump, "--config", str(cfg), "--format", "json"]) == 0
            rows = [r for r in json.loads(capsys.readouterr().out) if r["problem_id"] == "p2"]
            assert len(rows) == 4
            assert all(r["correct"] is correct for r in rows)


class TestConvergenceGolden:
    """``convergence``'s output bytes, pinned by ``tests/golden/convergence.txt``.

    The truth's paths 1 and 4 sit between other answers' paths, so every
    Monte Carlo draw merges paths on both sides of its target; a change to
    the random stream shows in this file's diff.
    """

    def test_stdout_bytes(self, tmp_path, capsys):
        oracle = tmp_path / "oracle.json"
        oracle.write_text(
            json.dumps(
                {
                    "path_probs": [0.1, 0.25, 0.15, 0.05, 0.2, 0.25],
                    "path_answers": ["B", "A", "C", "D", "A", "E"],
                    "truth": "A",
                }
            )
        )
        cfg = tmp_path / "config.json"
        cfg.write_text(
            json.dumps(
                {"seed": 11, "methods": ["SC", "PPL", "PC"], "n_grid": [2, 4, 8, 16], "trials": 2000}
            )
        )
        assert main(["convergence", "--oracle", str(oracle), "--config", str(cfg)]) == 0
        expected = (GOLDEN / "convergence.txt").read_bytes()
        assert capsys.readouterr().out.encode("utf-8") == expected
