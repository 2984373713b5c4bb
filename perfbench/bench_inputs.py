"""Seeded workload inputs: a JSONL dump, oracle specs and run configs.

Everything here depends only on the seed and the size preset, uses numpy's
PCG64 through ``SeedSequence``, and imports nothing from ``reasonconf``: the
program under test sees only the files written here.  Generation runs
before any timed region.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

import numpy as np

# Sizes per preset.  "full" is what the benchmark measures; "toy" keeps the
# smoke test fast while exercising the same code paths.
SIZES = {
    "full": {
        "ingest_problems": 40,
        "ingest_n": 64,
        "ingest_tokens": 256,
        "sim_paths": 500,
        "sim_sigma": 1.5,
        "sim_n_grid": [64, 256],
        "exact_paths": 5,
        "exact_n_grid": [4, 5],
        "mc_paths": 200,
        "mc_n_grid": [8, 16, 32, 64],
        "mc_trials": 5000,
    },
    "toy": {
        "ingest_problems": 3,
        "ingest_n": 16,
        "ingest_tokens": 24,
        "sim_paths": 40,
        "sim_sigma": 1.5,
        "sim_n_grid": [16, 32],
        "exact_paths": 4,
        "exact_n_grid": [2, 3],
        "mc_paths": 20,
        "mc_n_grid": [2, 4, 8, 16],
        "mc_trials": 500,
    },
}

_WORKLOAD_TAG = {
    "ingest_score": 1,
    "simulate_prune": 2,
    "exact_analysis": 3,
    "mc_convergence": 4,
}


def _rng(seed: int, workload: str) -> np.random.Generator:
    ss = np.random.SeedSequence([int(seed), _WORKLOAD_TAG[workload]])
    return np.random.Generator(np.random.PCG64(ss))


@dataclass
class ExpectedPath:
    """What the checks need to know about one generated record."""

    text: str
    answer: str  # canonical form: boxed wrapper stripped, case-folded
    prob: float  # length-normalized probability of the written log-probs


@dataclass
class Inputs:
    """Files written for one run, plus the facts the output checks use."""

    config_path: Path
    oracle_path: Path = None
    jsonl_path: Path = None
    # ingest_score: per problem, the generated records in file order and
    # the canonical true answer.
    expected: Dict[str, List[ExpectedPath]] = field(default_factory=dict)
    truths: Dict[str, str] = field(default_factory=dict)


def _normalized(raw: np.ndarray) -> List[float]:
    """Probabilities summing to 1 within the oracle's 1e-12 tolerance."""
    probs = [float(q) for q in raw / raw.sum()]
    probs[int(np.argmax(raw))] += 1.0 - math.fsum(probs)
    return probs


def _lognormal_profile(m: int, sigma: float) -> np.ndarray:
    """The m mid-stratum quantiles of a log-normal distribution.

    Independent draws would let the largest few values, and with them the
    cost of sampling and of the mixture fit, swing from seed to seed (by
    about 5% of the mean EM sweep count); the quantile profile keeps the
    shape fixed, and the seed decides the path order, the answers and the
    sampled batches.
    """
    normal = statistics.NormalDist()
    return np.exp(sigma * np.asarray([normal.inv_cdf((i + 0.5) / m) for i in range(m)]))


def _write_json(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path


def _length_normalized_prob(logprobs: List[float]) -> float:
    return min(1.0, max(1e-300, math.exp(math.fsum(logprobs) / len(logprobs))))


def ingest_inputs(seed: int, size: str, workdir: Path) -> Inputs:
    """A dump of many problems with n paths each.

    Per problem about 20% of the n records repeat an earlier record of the
    same problem verbatim (same text, log-probs and answer).  Unique paths
    fall into two well-separated probability modes: a high mode (per-token
    mean log-prob near -0.3, path probability ~0.74) that mostly carries the
    true answer, and a low mode (near -2.5, ~0.08) of mostly wrong answers.
    Answers are written inside ``\\boxed{}`` with varying padding.
    """
    cfg = SIZES[size]
    rng = _rng(seed, "ingest_score")
    n = cfg["ingest_n"]
    tokens = cfg["ingest_tokens"]
    out = Inputs(
        config_path=workdir / "config.json",
        jsonl_path=workdir / "paths.jsonl",
    )
    with open(out.jsonl_path, "w", encoding="utf-8") as fh:
        for p in range(cfg["ingest_problems"]):
            pid = f"prob{p:04d}"
            truth = f"{int(rng.integers(0, 1000))}"
            wrong = [f"{truth}{k}" for k in range(1, 6)]
            n_unique = n - int(round(0.2 * n))
            uniques = []
            for j in range(n_unique):
                high = rng.random() < 0.45
                if high:
                    scale = float(rng.normal(0.3, 0.03))
                    is_truth = rng.random() < 0.8
                else:
                    scale = float(rng.normal(2.5, 0.2))
                    is_truth = rng.random() < 0.15
                answer = truth if is_truth else wrong[int(rng.integers(0, len(wrong)))]
                length = int(rng.integers(tokens - tokens // 8, tokens + tokens // 8 + 1))
                lps = [round(-float(v), 6) for v in rng.exponential(scale, length)]
                text = (
                    f"Problem {pid}, attempt {j}: "
                    + " ".join(f"step{int(s)}" for s in rng.integers(0, 10**6, 12))
                    + f" so the answer is {answer}."
                )
                uniques.append((text, lps, answer))
            order = list(range(n_unique))
            order += [int(i) for i in rng.integers(0, n_unique, n - n_unique)]
            rng.shuffle(order)
            out.truths[pid] = truth
            records = []
            for idx in order:
                text, lps, answer = uniques[idx]
                wrapper = "\\boxed{%s}" if rng.random() < 0.7 else "  \\boxed{ %s }\n"
                records.append(
                    {
                        "problem_id": pid,
                        "text": text,
                        "token_logprobs": lps,
                        "answer": wrapper % answer,
                    }
                )
                # Canonical form is case-folded; all generated answers are digits.
                out.expected.setdefault(pid, []).append(
                    ExpectedPath(text, answer, _length_normalized_prob(lps))
                )
            for rec in records:
                fh.write(json.dumps(rec) + "\n")
    _write_json(
        out.config_path,
        {
            "seed": int(seed),
            "methods": ["SC", "PPL", "PC", "RPC"],
            "truths": {pid: f"\\boxed{{{t}}}" for pid, t in out.truths.items()},
        },
    )
    return out


def _oracle_doc(probs: List[float], answers: List[str], truth: str) -> dict:
    return {"path_probs": probs, "path_answers": answers, "truth": truth}


def simulate_inputs(seed: int, size: str, workdir: Path) -> Inputs:
    """A many-path oracle with log-normally spread probabilities.

    There is no clean two-mode split, which is what makes the mixture EM
    run long.  Answers are dealt out in order of decreasing probability:
    every fifth path from the second most likely one carries the true
    answer, the others cycle through ten wrong answers.  The truth then
    holds more than twice the mass of any wrong answer but never the single
    most likely path, so selection accuracy stays well inside (0, 1).
    """
    cfg = SIZES[size]
    rng = _rng(seed, "simulate_prune")
    m = cfg["sim_paths"]
    probs = _normalized(rng.permutation(_lognormal_profile(m, cfg["sim_sigma"])))
    wrong = [f"w{k}" for k in rng.permutation(10)]
    answers = ["t"] * m
    dealt = 0
    for rank, i in enumerate(np.argsort(-np.asarray(probs), kind="stable")):
        if rank % 5 != 1:
            answers[int(i)] = wrong[dealt % len(wrong)]
            dealt += 1
    out = Inputs(
        config_path=workdir / "config.json",
        oracle_path=workdir / "oracle.json",
    )
    _write_json(out.oracle_path, _oracle_doc(probs, answers, "t"))
    _write_json(
        out.config_path,
        {
            "seed": int(seed),
            "methods": ["SC", "PPL", "PC", "RPC"],
            "n_grid": cfg["sim_n_grid"],
            "repeats": 1,
        },
    )
    return out


def exact_inputs(seed: int, size: str, workdir: Path) -> Inputs:
    """A handful of paths, so every ordered outcome can be enumerated.

    Paths 0 and 1 carry the true answer, the rest distinct wrong answers;
    no probability is below 0.026 (0.03 before normalizing).
    """
    cfg = SIZES[size]
    rng = _rng(seed, "exact_analysis")
    m = cfg["exact_paths"]
    probs = _normalized(0.03 + rng.dirichlet(np.ones(m)))
    answers = ["A", "A"] + [chr(ord("B") + k) for k in range(m - 2)]
    out = Inputs(
        config_path=workdir / "config.json",
        oracle_path=workdir / "oracle.json",
    )
    _write_json(out.oracle_path, _oracle_doc(probs, answers, "A"))
    _write_json(
        out.config_path,
        {"seed": int(seed), "methods": ["SC", "PPL", "PC"], "n_grid": cfg["exact_n_grid"]},
    )
    return out


def mc_inputs(seed: int, size: str, workdir: Path) -> Inputs:
    """A ~200-path oracle and a large Monte Carlo trial count.

    Paths are stored in decreasing probability.  The multinomial sampler
    stops at the last path that received a draw, so a seeded path order
    would make its cost vary from seed to seed; a fixed order does not.
    Answers cycle through ten labels, so the true answer (that of path 0)
    owns every tenth path, and path 0 is the PPL target: its miss
    probability (1 - q)^n stays well inside (0, 1) over the n grid.
    """
    cfg = SIZES[size]
    rng = _rng(seed, "mc_convergence")
    m = cfg["mc_paths"]
    probs = _normalized(_lognormal_profile(m, 1.0)[::-1])
    labels = [f"a{k}" for k in rng.permutation(10)]
    answers = [labels[i % len(labels)] for i in range(m)]
    out = Inputs(
        config_path=workdir / "config.json",
        oracle_path=workdir / "oracle.json",
    )
    _write_json(out.oracle_path, _oracle_doc(probs, answers, answers[0]))
    _write_json(
        out.config_path,
        {
            "seed": int(seed),
            "methods": ["SC", "PPL", "PC"],
            "n_grid": cfg["mc_n_grid"],
            "trials": cfg["mc_trials"],
        },
    )
    return out


GENERATORS = {
    "ingest_score": ingest_inputs,
    "simulate_prune": simulate_inputs,
    "exact_analysis": exact_inputs,
    "mc_convergence": mc_inputs,
}


def make_inputs(workload: str, seed: int, size: str, workdir: Path) -> Inputs:
    workdir.mkdir(parents=True, exist_ok=True)
    return GENERATORS[workload](seed, size, workdir)


def request_seed(seed: int, index: int) -> int:
    """Config seed of the index-th simulation request of a run."""
    ss = np.random.SeedSequence([int(seed), 2, int(index)])
    return int(ss.generate_state(1, dtype=np.uint64)[0] >> 1)
