"""Acceptance suite: one test per exit criterion, each at its stated
tolerance and runtime budget, printing one pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from reasonconf import (
    RateFit,
    budget_curve,
    budget_to_match,
    derive_seed,
    ece,
    empirical_prune_failure_rate,
    estimate,
    exact_estimator_moments,
    fit_mixture,
    hoeffding_bound,
    mixture_loglik,
    model_error_comparison,
    monte_carlo_estimation_error,
    p_high,
    pc_closed_form,
    pc_confidence,
    ppl_closed_form,
    ppl_confidence,
    reliability_bins,
    rpc_confidence,
    sample_batch,
    sc_closed_form,
    sc_confidence,
    selection_for_scoring,
)
from reasonconf.pruning import FitConfig, MixtureFit, WeibullParams
from reasonconf.cli import main

from conftest import batch, label, oracle


@contextmanager
def criterion(name: str, budget_s: float):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL ({time.time() - start:.1f}s)")
        raise
    elapsed = time.time() - start
    assert elapsed < budget_s, f"{name} took {elapsed:.1f}s, budget {budget_s}s"
    print(f"[acceptance] {name}: PASS ({elapsed:.1f}s)")


def small_oracle_family():
    specs = []
    for truth in ("A", "B"):
        specs.append(oracle((1.0,), ["A"], truth))
    for probs in [(0.3, 0.7), (0.5, 0.5), (0.9, 0.1)]:
        for answers in [("A", "B"), ("A", "A")]:
            for truth in ("A", "B"):
                specs.append(oracle(probs, answers, truth))
    for probs in [(0.6, 0.3, 0.1), (0.25, 0.7, 0.05), (1 / 3, 1 / 3, 1 / 3)]:
        for answers in [("A", "B", "C"), ("A", "A", "B"), ("A", "B", "B")]:
            for truth in ("A", "C"):
                specs.append(oracle(probs, answers, truth))
    return specs


def test_c01_decomposition_identity():
    """Vote-fraction error splits exactly into variance plus squared bias."""
    with criterion("C1 decomposition identity", budget_s=5.0):
        checked = 0
        for spec in small_oracle_family():
            targets = set(spec.path_answers) | {spec.truth, label("zz-absent")}
            for n in range(1, 7):
                for target in targets:
                    enum = exact_estimator_moments(spec, n, sc_confidence, target)
                    drift = abs(
                        enum.reasoning_error
                        - enum.estimation_error
                        - enum.model_error
                    )
                    assert drift <= 1e-12, (spec, n, target, drift)
                    checked += 1
        assert checked >= 400


@pytest.mark.parametrize(
    "kind",
    [
        "SC",
        "PPL",
        pytest.param(
            "PC",
            marks=pytest.mark.xfail(
                strict=True,
                reason=(
                    "known defect in the probability-sum closed form: its "
                    "estimation term omits the squared bias of the truncated "
                    "estimator, so exact enumeration exceeds it by "
                    "alpha^(2n) p^2 on k=1 oracles (plus a cross-path "
                    "covariance term for k >= 2), orders of magnitude above "
                    "1e-9 at n <= 6; no sampling model can realize the "
                    "stated moment pair once alpha^n > 1/2 (its implied "
                    "variance turns negative)"
                ),
            ),
        ),
    ],
)
def test_c02_closed_form_equivalence(kind):
    """Each closed form against brute-force enumeration, >= 20 grid points.

    The probability-sum leg is expected to fail: the closed form is an
    approximation whose error term is checked exactly in
    test_error_analysis.TestProbSumClosedForm instead.
    """
    with criterion(f"C2 closed-form equivalence [{kind}]", budget_s=30.0):
        points = 0
        if kind == "SC":
            for p in (0.1, 0.3, 0.5, 0.7, 0.9):
                spec = oracle([p, 1.0 - p], ["A", "B"], "A")
                for n in range(1, 7):
                    for target, correct in ((label("A"), True), (label("B"), False)):
                        enum = exact_estimator_moments(spec, n, sc_confidence, target)
                        mass = p if correct else 1.0 - p
                        out = sc_closed_form(mass, n, correct)
                        assert abs(enum.estimation_error - out.estimation_error) <= 1e-9
                        assert abs(enum.model_error - out.model_error) <= 1e-9
                        assert abs(enum.reasoning_error - out.total) <= 1e-9
                        points += 1
        elif kind == "PPL":
            for p in (0.1, 0.3, 0.5, 0.7, 0.9):
                for truth in ("A", "Z"):
                    spec = oracle([p, 1.0 - p], ["A", "B"], truth)
                    for n in range(1, 7):
                        enum = exact_estimator_moments(
                            spec, n, ppl_confidence, spec.paths[0]
                        )
                        out = ppl_closed_form(p, n, truth == "A")
                        assert (
                            abs(enum.decomposition_estimation_error - out.estimation_error)
                            <= 1e-9
                        )
                        assert abs(enum.reasoning_error - out.total) <= 1e-9
                        points += 1
        else:
            for k in (1, 2, 3):
                for p in (0.3, 0.6, 0.9):
                    probs = [p / k] * k + [1.0 - p]
                    answers = ["A"] * k + ["B"]
                    spec = oracle(probs, answers, "A")
                    for n in (2, 4, 6):
                        enum = exact_estimator_moments(
                            spec, n, pc_confidence, label("A")
                        )
                        out = pc_closed_form(p, k, n, True)
                        assert (
                            abs(enum.decomposition_estimation_error - out.estimation_error)
                            <= 1e-9
                        ), (p, k, n)
                        assert abs(enum.reasoning_error - out.total) <= 1e-9, (p, k, n)
                        points += 1
        assert points >= 20


def test_c03_convergence_rates():
    """Monte Carlo error decays at the closed-form rates: slope -1 for the
    vote estimator (log-log), ln 0.7 for the probability sum (semilog)."""
    with criterion("C3 convergence rates", budget_s=120.0):
        ns = [4, 8, 16, 32, 64, 128, 256, 512]
        seed = 2025
        sc_spec = oracle([0.5, 0.5], ["A", "B"], "A")
        sc_errors = [
            monte_carlo_estimation_error(
                sc_spec, "SC", label("A"), n, 100_000, derive_seed(seed, 1, n)
            ).estimation_error
            for n in ns
        ]
        sc_fit = RateFit.fit(ns, sc_errors, "loglog")
        assert abs(sc_fit.slope - (-1.0)) <= 0.1, sc_fit

        # Answer mass 0.6 over two equal paths: per-sample miss 0.7.  Points
        # where every trial covered both paths measure an exact zero and
        # drop out of the fit.
        pc_spec = oracle([0.3, 0.3, 0.4], ["A", "A", "B"], "A")
        pc_errors = [
            monte_carlo_estimation_error(
                pc_spec, "PC", label("A"), n, 100_000, derive_seed(seed, 3, n)
            ).estimation_error
            for n in ns
        ]
        pc_fit = RateFit.fit(ns, pc_errors, "semilog")
        target = math.log(0.7)
        assert abs(pc_fit.slope - target) <= 0.1 * abs(target), pc_fit


def test_c04_degeneration():
    """Tiny answer mass: the exponential factor matches 1/(1+np) within 5%."""
    from reasonconf import degeneration_diagnostic

    with criterion("C4 degeneration", budget_s=1.0):
        for n in range(0, 101):
            out = degeneration_diagnostic(0.001, n)
            assert abs(out.ratio - 1.0) <= 0.05, (n, out)
            assert out.regime == "linear"
        at_hundred = degeneration_diagnostic(0.001, 100)
        assert at_hundred.alpha_n == pytest.approx(0.904792, abs=1e-6)
        assert at_hundred.linear_approx == pytest.approx(0.909091, abs=1e-6)


def test_c05_pruning_guarantee():
    """Observed pruning failure rates stay under the exponential bound."""
    with criterion("C5 pruning guarantee", budget_s=60.0):
        spot = hoeffding_bound(2, 3, 0.7, 0.2)
        assert abs(spot - (1.0 - math.exp(-8.0 / 3.0))) <= 1e-6

        # (spec, n, tau, k, alpha); tau < 1 - alpha keeps the bound
        # informative, and the bound is evaluated at k_hat = 1, its weakest
        # nontrivial value.
        cases = [
            (oracle([0.3, 0.3, 0.4], ["A", "A", "B"], "A"), 8, 0.2, 2, 0.7),
            (oracle([0.45, 0.15, 0.4], ["A", "A", "B"], "A"), 8, 0.2, 2, 0.7),
            (oracle([0.5, 0.3, 0.2], ["A", "B", "C"], "A"), 6, 0.3, 1, 0.5),
        ]
        for spec, n, tau, k, alpha in cases:
            rate = empirical_prune_failure_rate(spec, n, 1000, seed=31, tau=tau)
            failure_bound = 1.0 - hoeffding_bound(k, 1, alpha, tau)
            stderr = math.sqrt(max(rate * (1.0 - rate), 1e-12) / 1000)
            assert rate <= failure_bound + 3 * stderr, (tau, rate, failure_bound)


def test_c06_mixture_fit_recovery():
    """Seeded bimodal draws: posterior recovers the generating component."""
    with criterion("C6 mixture fit recovery", budget_s=5.0):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(306)))
        from_high = rng.random(128) < 0.5
        values = np.where(
            from_high, 0.8 * rng.weibull(2.0, 128), 0.1 * rng.weibull(1.5, 128)
        )
        fit = fit_mixture(values.tolist())
        posterior = np.array([p_high(float(v), fit) for v in values])
        agreement = float(np.mean((posterior >= 0.5) == from_high))
        assert agreement >= 0.9, agreement

        generating = MixtureFit(
            comp1=WeibullParams(2.0, 0.8),
            comp2=WeibullParams(1.5, 0.1),
            w1=0.5,
            w2=0.5,
            high_index=1,
            loglik=0.0,
            converged=True,
        )
        true_loglik = mixture_loglik(values.tolist(), generating)
        assert fit.loglik >= true_loglik - 0.01 * 128


def test_c07_pruning_safety():
    """Retention never empties; pruned sums never exceed unpruned sums."""
    with criterion("C7 pruning safety", budget_s=30.0):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(77)))
        answers = [f"a{i}" for i in range(8)]

        def random_batch():
            size = int(rng.integers(1, 129))
            probs = rng.uniform(1e-6, 1.0, size)
            if rng.random() < 0.2:
                # duplicated texts exercise the dedup path
                names = [f"t{rng.integers(0, max(2, size // 2))}" for _ in range(size)]
            else:
                names = [f"t{i}" for i in range(size)]
            # duplicates must agree on their probability, like real dumps
            seen = {}
            triples = []
            for name, p in zip(names, probs):
                p = seen.setdefault(name, float(p))
                triples.append((name, p, answers[int(rng.integers(0, 8))]))
            seen_ans = {}
            triples = [
                (t, p, seen_ans.setdefault(t, a)) for t, p, a in triples
            ]
            return batch(*triples)

        light = FitConfig(max_iter=24)
        checked_light = 0
        for _ in range(10_000):
            b = random_batch()
            conf, report = rpc_confidence(b, light)
            assert len(report.retained_indices) >= 1
            pc = pc_confidence(b)
            for key, value in conf.items():
                assert value <= pc[key] + 1e-15
            checked_light += 1

        # The asserted property is config-independent; a default-config
        # subsample guards the standard path too.
        for _ in range(400):
            b = random_batch()
            conf, report = rpc_confidence(b)
            assert len(report.retained_indices) >= 1
            pc = pc_confidence(b)
            for key, value in conf.items():
                assert value <= pc[key] + 1e-15

        assert checked_light == 10_000


def test_c08_model_error_ordering():
    """Vote model error never exceeds path-probability model error."""
    with criterion("C8 model-error ordering", budget_s=5.0):
        sc_err, ppl_err = model_error_comparison(
            [0.3, 0.3], [label("A"), label("A")], label("A")
        )
        assert sc_err == pytest.approx(0.16, abs=1e-12)
        assert ppl_err == pytest.approx(0.98, abs=1e-12)

        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(41)))
        strict_cases = 0
        for _ in range(100):
            n_correct = int(rng.integers(1, 5))
            n_wrong = int(rng.integers(0, 6))
            probs = list(rng.uniform(0.01, 0.9 / n_correct, n_correct))
            answers = [label("y")] * n_correct
            probs += list(rng.uniform(0.01, 0.2, n_wrong))
            answers += [label(f"w{i}") for i in range(n_wrong)]
            sc_err, ppl_err = model_error_comparison(probs, answers, label("y"))
            assert sc_err <= ppl_err + 1e-12
            if n_correct >= 2:
                assert sc_err < ppl_err
                strict_cases += 1
        assert strict_cases >= 20


def test_c09_calibration():
    """Hand-binned calibration error values and exact recomputability."""
    with criterion("C9 calibration", budget_s=5.0):
        hand = [(0.9, True), (0.9, False), (0.1, False)]
        assert ece(hand, bins=10) == 0.3

        calibrated = [(0.3, True)] * 3 + [(0.3, False)] * 7
        calibrated += [(0.8, True)] * 8 + [(0.8, False)] * 2
        assert ece(calibrated, bins=10) == 0.0

        for scored in (hand, calibrated):
            bins = reliability_bins(scored, bins=10)
            assert abs(bins.ece() - ece(scored, bins=10)) <= 1e-12


def test_c10_directional_method_ordering():
    """Pruned probability sums dominate voting where mass concentrates on
    few correct paths, and need at most half the voting budget to match."""
    with criterion("C10 directional ordering", budget_s=120.0):
        # Misaligned: correct mass 0.4 in two strong paths; wrong mass
        # spread over twelve weak paths that voting happily counts.
        mis = oracle(
            [0.2, 0.2] + [0.05] * 12,
            ["T", "T"] + ["W1"] * 6 + ["W2"] * 6,
            "T",
        )

        def accuracy_over_seeds(spec, method, n, seeds, base):
            hits = 0
            for r in range(seeds):
                b = sample_batch(spec, n, derive_seed(base, n, r))
                conf = estimate(method, b)
                answer, _ = selection_for_scoring(method, conf)
                hits += answer == spec.truth
            return hits / seeds

        rpc_acc = accuracy_over_seeds(mis, "RPC", 16, 200, base=1000)
        sc_acc = accuracy_over_seeds(mis, "SC", 16, 200, base=1000)
        assert rpc_acc >= sc_acc, (rpc_acc, sc_acc)

        # Aligned: dominant correct answer; the pruned estimator reaches
        # the voting estimator's 64-sample accuracy on a quarter budget.
        ali = oracle(
            [0.25, 0.25] + [0.05] * 10,
            ["T", "T"] + [f"W{i}" for i in range(10)],
            "T",
        )
        ns = (4, 8, 16, 32, 64)
        curves = {}
        for method in ("SC", "RPC"):
            per_n = []
            for n in ns:
                accs = [
                    accuracy_over_seeds(ali, method, n, 1, base=derive_seed(2000, n, r))
                    for r in range(10)
                ]
                per_n.append((n, accs))
            curves[method] = budget_curve(method, per_n)
        reference = curves["SC"].points[-1].mean_accuracy
        needed = budget_to_match(curves["RPC"], reference)
        assert needed is not None and needed <= 32, (reference, needed)


def test_c11_cli_determinism(tmp_path):
    """Every command, run twice on identical inputs, emits identical bytes."""
    with criterion("C11 CLI determinism", budget_s=120.0):
        oracle_file = tmp_path / "oracle.json"
        oracle_file.write_text(
            json.dumps(
                {
                    "path_probs": [0.3, 0.3, 0.4],
                    "path_answers": ["A", "A", "B"],
                    "truth": "A",
                }
            )
        )
        config_file = tmp_path / "config.json"
        config_file.write_text(
            json.dumps(
                {
                    "seed": 9,
                    "methods": ["SC", "PPL", "PC", "RPC"],
                    "n_grid": [4, 8, 16, 32],
                    "repeats": 3,
                    "trials": 2000,
                    "truths": {"p1": "4"},
                }
            )
        )
        jsonl_file = tmp_path / "paths.jsonl"
        jsonl_file.write_text(
            "\n".join(
                json.dumps(r)
                for r in [
                    {
                        "problem_id": "p1",
                        "text": "a",
                        "token_logprobs": [-0.2, -0.3],
                        "answer": "4",
                    },
                    {
                        "problem_id": "p1",
                        "text": "b",
                        "token_logprobs": [-0.9],
                        "answer": "4",
                    },
                    {
                        "problem_id": "p1",
                        "text": "c",
                        "token_logprobs": [-1.8],
                        "answer": "5",
                    },
                ]
            )
            + "\n"
        )
        probs_file = tmp_path / "probs.json"
        probs_file.write_text(
            json.dumps({"probs": [0.6, 0.5, 0.55, 0.05, 0.08, 0.07]})
        )
        results_file = tmp_path / "results.json"
        assert (
            main(
                [
                    "estimate", "--input", str(jsonl_file), "--config",
                    str(config_file), "--format", "json", "--out",
                    str(results_file),
                ]
            )
            == 0
        )

        commands = {
            "simulate": ["simulate", "--oracle", str(oracle_file), "--config", str(config_file)],
            "convergence": ["convergence", "--oracle", str(oracle_file), "--config", str(config_file)],
            "decompose": ["decompose", "--oracle", str(oracle_file), "--config", str(config_file)],
            "estimate": ["estimate", "--input", str(jsonl_file), "--config", str(config_file)],
            "fit-mixture": ["fit-mixture", "--input", str(probs_file)],
            "metrics": ["metrics", "--input", str(results_file), "--format", "json"],
            "config": ["config", "--config", str(config_file)],
        }
        for name, argv in commands.items():
            first = tmp_path / f"{name}-1.out"
            second = tmp_path / f"{name}-2.out"
            assert main(argv + ["--out", str(first)]) == 0, name
            assert main(argv + ["--out", str(second)]) == 0, name
            assert first.read_bytes() == second.read_bytes(), name
