"""Synthetic sampler with a fully known distribution.

The oracle is a categorical distribution over finitely many abstract paths,
each mapped to an answer.  Because every probability is known exactly, the
moments of any estimator that depends only on the multiset of sampled paths
can be computed by exhaustive enumeration of sample count vectors, each
weighted by its multinomial probability, and compared against closed-form
claims or Monte Carlo runs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations_with_replacement
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    EnumerationTooLargeError,
    InvalidSampleSizeError,
    ReasonConfError,
)
from .paths import AnswerLabel, ConfidenceMap, ReasoningPath, SampleBatch, ScoredKey

ENUMERATION_CAP = 10_000_000

EstimatorFn = Callable[[SampleBatch], ConfidenceMap]


@dataclass(frozen=True)
class OracleSpec:
    """A finite path set with exact probabilities and a designated truth.

    ``path_probs`` must sum to 1 within 1e-12.  The truth label may or may
    not appear among the path answers (a model can be wrong everywhere).
    """

    path_probs: Tuple[float, ...]
    path_answers: Tuple[AnswerLabel, ...]
    truth: AnswerLabel

    def __post_init__(self):
        if len(self.path_probs) == 0:
            raise ReasonConfError("oracle needs at least one path")
        if len(self.path_probs) != len(self.path_answers):
            raise ReasonConfError("path_probs and path_answers lengths differ")
        for q in self.path_probs:
            if not (0.0 < q <= 1.0):
                raise ReasonConfError(f"path probability {q} outside (0, 1]")
        total = math.fsum(self.path_probs)
        if abs(total - 1.0) > 1e-12:
            raise ReasonConfError(f"path probabilities sum to {total}, not 1")

    @property
    def num_paths(self) -> int:
        return len(self.path_probs)

    @cached_property
    def paths(self) -> Tuple[ReasoningPath, ...]:
        """One ReasoningPath per abstract path, built once per oracle.

        Texts are unique per index, so text-dedup coincides with abstract
        path identity.  The carried path_prob is the exact sampling
        probability, not a value re-derived from log-probs.
        """
        return tuple(
            ReasoningPath(text=f"t{i}", answer=a, path_prob=q)
            for i, (q, a) in enumerate(zip(self.path_probs, self.path_answers))
        )


def oracle_from_json(doc: dict) -> OracleSpec:
    """Build an oracle from its JSON document form.

    Schema: ``{"path_probs": [...], "path_answers": ["A", ...], "truth": "A"}``.
    Answer strings are used verbatim as labels.
    """
    try:
        probs = tuple(float(q) for q in doc["path_probs"])
        answers = tuple(AnswerLabel(str(a)) for a in doc["path_answers"])
        truth = AnswerLabel(str(doc["truth"]))
    except KeyError as exc:
        raise ReasonConfError(f"oracle document missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ReasonConfError(f"malformed oracle document: {exc}") from exc
    return OracleSpec(path_probs=probs, path_answers=answers, truth=truth)


def load_oracle(path: str) -> OracleSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return oracle_from_json(json.load(fh))


def true_answer_prob(oracle: OracleSpec, ans: AnswerLabel) -> float:
    """Exact probability mass of an answer: sum over its paths, 0 if absent."""
    return target_paths(oracle, oracle.path_answers, ans)[1]


def target_paths(
    oracle: OracleSpec, labels: Sequence[ScoredKey], target: ScoredKey
) -> Tuple[Tuple[int, ...], float, bool]:
    """The oracle paths a target stands for, their mass, and correctness.

    ``labels[i]`` is the key an estimator files oracle path i under: the
    path's answer for the answer-keyed estimators, the path itself for PPL.
    The target stands for every path filed under it; it is correct when
    the first such path carries the truth, or, if it stands for no path,
    when the target is the truth itself.
    """
    indices = tuple(i for i, key in enumerate(labels) if key == target)
    mass = math.fsum(oracle.path_probs[i] for i in indices)
    if indices:
        is_correct = oracle.path_answers[indices[0]] == oracle.truth
    else:
        is_correct = target == oracle.truth
    return indices, mass, is_correct


def sample_batch(oracle: OracleSpec, n: int, seed: int) -> SampleBatch:
    """Draw n i.i.d. paths from the oracle's categorical distribution.

    Uses numpy's PCG64 stream seeded through SeedSequence, so batches are
    bit-reproducible across platforms for a fixed seed.  Each drawn path
    carries its exact probability and answer.
    """
    if n < 1:
        raise InvalidSampleSizeError(f"sample size must be >= 1, got {n}")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    paths = oracle.paths
    idx = rng.choice(oracle.num_paths, size=n, p=np.asarray(oracle.path_probs))
    return SampleBatch(paths=tuple(paths[i] for i in idx), problem_id="oracle")


def sample_count_matrix(
    oracle: OracleSpec, n: int, trials: int, seed: int
) -> np.ndarray:
    """Per-trial sample counts, shape (trials, num_paths).

    Row t holds how many of the n draws in trial t landed on each path;
    equivalent in distribution to counting ``sample_batch`` draws, but
    vectorized for large Monte Carlo runs.
    """
    if n < 1:
        raise InvalidSampleSizeError(f"sample size must be >= 1, got {n}")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    return rng.multinomial(n, np.asarray(oracle.path_probs), size=trials)


def indicator(is_correct: bool) -> float:
    """I, the correctness indicator of a target: 1.0 if correct, else 0.0."""
    return 1.0 if is_correct else 0.0


@dataclass(frozen=True)
class TargetErrors:
    """An estimator's squared errors for one target, on either route.

    ``true_prob`` is the target's exact probability p and ``is_correct``
    its correctness I.  ``estimation_error`` is the mean squared deviation
    from the true confidence, E[(est - p)^2]; ``reasoning_error`` is the
    mean squared deviation from correctness, E[(est - I)^2];
    ``model_error`` is (p - I)^2.
    """

    true_prob: float
    is_correct: bool
    estimation_error: float
    reasoning_error: float

    @property
    def model_error(self) -> float:
        return (self.true_prob - indicator(self.is_correct)) ** 2


@dataclass(frozen=True)
class OutcomeEnumeration(TargetErrors):
    """Exact moments of an estimator over every sample count vector.

    ``outcome_probs`` holds the multinomial probability of each distinct
    count vector (how many of the n draws landed on each path).  For a
    biased estimator ``estimation_error`` and ``reasoning_error`` are
    linked through the signed residual ``decomposition_estimation_error``
    = reasoning_error - model_error, which is what the closed forms for
    the probability-sum estimators call their estimation term.
    """

    outcome_probs: Tuple[float, ...]
    expectation: float
    second_moment: float

    def __post_init__(self):
        total = math.fsum(self.outcome_probs)
        if abs(total - 1.0) > 1e-9:
            raise ReasonConfError(f"outcome probabilities sum to {total}, not 1")

    @property
    def decomposition_estimation_error(self) -> float:
        return self.reasoning_error - self.model_error


def _estimator_key(estimator: EstimatorFn, path: ReasoningPath) -> Optional[ScoredKey]:
    """The key under which an estimator files a lone path, if any."""
    conf = estimator(SampleBatch(paths=(path,), problem_id="probe"))
    if not conf:
        return None
    if len(conf) != 1:
        raise ReasonConfError("estimator produced multiple entries for one path")
    return next(iter(conf))


def exact_estimator_moments(
    oracle: OracleSpec,
    n: int,
    estimator: EstimatorFn,
    target: ScoredKey,
) -> OutcomeEnumeration:
    """Average the estimator exactly over all C(n+M-1, n) count vectors.

    The estimator must depend only on the multiset of sampled paths, not
    on their order; SC, PPL, PC and RPC all do.  Then the n!/prod(c_i!)
    orderings of a count vector c share one value, so each count vector is
    evaluated once, on its non-decreasing ordering, and weighted by its
    multinomial probability n!/prod(c_i!) * prod(q_i^c_i).  The value is
    read off for ``target``.  The estimator is probed with one-path batches
    to learn the key it files each oracle path under, and
    :func:`target_paths` turns those keys into the target's true
    probability and correctness, so the computation works for answer-keyed
    estimators (target an answer) and PPL (target an oracle path) alike.

    Raises EnumerationTooLargeError when the M^n ordered outcomes the
    count vectors stand for exceed 10^7.
    """
    if n < 1:
        raise InvalidSampleSizeError(f"enumeration needs n >= 1, got {n}")
    m = oracle.num_paths
    if m**n > ENUMERATION_CAP:
        raise EnumerationTooLargeError(
            f"{m}^{n} ordered outcomes exceed the cap of {ENUMERATION_CAP}"
        )

    paths = oracle.paths
    keys = [_estimator_key(estimator, path) for path in paths]
    _, true_prob, is_correct = target_paths(oracle, keys, target)
    ind = indicator(is_correct)

    outcome_probs: List[float] = []
    values: List[float] = []
    for idx in combinations_with_replacement(range(m), n):
        orderings = math.factorial(n)
        for i in range(m):
            orderings //= math.factorial(idx.count(i))
        weight = orderings * math.prod(oracle.path_probs[i] for i in idx)
        batch = SampleBatch(paths=tuple(paths[i] for i in idx), problem_id="enum")
        outcome_probs.append(weight)
        values.append(estimator(batch).get(target, 0.0))

    expectation = math.fsum(p * v for p, v in zip(outcome_probs, values))
    second = math.fsum(p * v * v for p, v in zip(outcome_probs, values))
    estimation = math.fsum(
        p * (v - true_prob) ** 2 for p, v in zip(outcome_probs, values)
    )
    reasoning = math.fsum(
        p * (v - ind) ** 2 for p, v in zip(outcome_probs, values)
    )
    return OutcomeEnumeration(
        true_prob=true_prob,
        is_correct=is_correct,
        estimation_error=estimation,
        reasoning_error=reasoning,
        outcome_probs=tuple(outcome_probs),
        expectation=expectation,
        second_moment=second,
    )


def derive_seed(seed: int, *indices: int) -> int:
    """Deterministic sub-seed for one cell of a run seeded by ``seed``.

    Mixes (seed, *indices) through numpy's SeedSequence so per-cell streams
    are independent and reproducible across platforms.
    """
    entropy = (int(seed),) + tuple(int(i) for i in indices)
    ss = np.random.SeedSequence(entropy=entropy)
    return int(ss.generate_state(1, dtype=np.uint64)[0])
