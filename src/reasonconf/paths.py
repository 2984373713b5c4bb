"""Core types for sampled reasoning paths and answer-level confidence.

A sampled path carries its text, the extracted answer label, and one
scalar probability; ingested paths derive it from their token log-probs.
Batches preserve sampling order, which is the tie-breaking order
everywhere downstream.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, List, Literal, Optional, Tuple, Union

from .errors import EmptyBatchError, InvalidPathError, NoCandidatesError

ProbMode = Literal["joint", "length_normalized"]

PROB_FLOOR = 1e-300

_BOXED_RE = re.compile(r"^\\boxed\{(.*)\}$", re.DOTALL)


@dataclass(frozen=True)
class AnswerLabel:
    """A canonical answer, optionally tagged with an equivalence-class id.

    A label is its key: its class id when it carries one, otherwise its
    canonical string.  Equality and the hash both use that key, so a label
    with a class id never equals one without.  The key and its hash are
    computed once, at construction.
    """

    canonical: str
    class_id: Optional[int] = None
    _key: Union[int, str] = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.canonical and self.class_id is None:
            raise InvalidPathError("answer label is empty")
        key = self.canonical if self.class_id is None else self.class_id
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, AnswerLabel):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.class_id is not None:
            return f"AnswerLabel({self.canonical!r}, class_id={self.class_id})"
        return f"AnswerLabel({self.canonical!r})"


def canonicalize_answer(text: str, class_id: Optional[int] = None) -> AnswerLabel:
    """Build a label from raw answer text.

    Trims whitespace, strips any surrounding ``\\boxed{...}`` wrappers, and
    case-folds.  ``class_id`` is attached unchanged and, when present, is
    the label's key in comparisons.
    """
    out = text.strip()
    while True:
        m = _BOXED_RE.match(out)
        if m is None:
            break
        out = m.group(1).strip()
    return AnswerLabel(canonical=out.casefold(), class_id=class_id)


@dataclass(frozen=True)
class ReasoningPath:
    """One sampled reasoning path.

    ``path_prob`` is the scalar probability attached to the path; ingested
    paths derive it from their token log-probs via :func:`make_path`,
    synthetic paths carry their exact sampling probability.
    """

    text: str
    answer: AnswerLabel
    path_prob: float

    def __post_init__(self):
        if not (0.0 < self.path_prob <= 1.0):
            raise InvalidPathError(f"path_prob {self.path_prob} outside (0, 1]")


def derive_path_prob(logprob_sum: float, n_tokens: int, mode: ProbMode) -> float:
    """Collapse a path's token log-probabilities into one probability.

    ``logprob_sum`` is the sum of the path's ``n_tokens`` natural-log
    token probabilities (``-inf`` when it lies past the float range).
    ``joint`` exponentiates the sum (the sequence generation probability);
    ``length_normalized`` exponentiates the mean (geometric mean per token),
    which keeps long paths away from underflow.  The result is clamped to
    [1e-300, 1].
    """
    if n_tokens < 1:
        raise InvalidPathError("cannot derive a probability from zero tokens")
    if mode == "joint":
        log_p = logprob_sum
    elif mode == "length_normalized":
        log_p = logprob_sum / n_tokens
    else:
        raise InvalidPathError(f"unknown probability mode {mode!r}")
    return min(1.0, max(PROB_FLOOR, math.exp(log_p)))


def make_path(
    text: str, logprob_sum: float, n_tokens: int, answer: AnswerLabel, mode: ProbMode
) -> ReasoningPath:
    """Construct a path with its probability derived in the given mode."""
    return ReasoningPath(text, answer, derive_path_prob(logprob_sum, n_tokens, mode))


@dataclass(frozen=True)
class SampleBatch:
    """The n sampled paths for one problem, in sampling order."""

    paths: Tuple[ReasoningPath, ...]
    problem_id: str = ""

    @property
    def n(self) -> int:
        return len(self.paths)

    def require_nonempty(self):
        if not self.paths:
            raise EmptyBatchError(f"batch {self.problem_id!r} has no paths")


# Confidence per scored key: an answer label for SC, PC and RPC, the
# first-occurrence path itself for PPL.  Keys are inserted in sampling
# order; that order is the tie-break used by :func:`select_answer`.
ScoredKey = Union[AnswerLabel, ReasoningPath]
ConfidenceMap = Dict[ScoredKey, float]


def unique_paths(batch: SampleBatch) -> List[ReasoningPath]:
    """Deduplicate by exact text, keeping first occurrences in sampling order."""
    seen = set()
    out: List[ReasoningPath] = []
    for path in batch.paths:
        if path.text not in seen:
            seen.add(path.text)
            out.append(path)
    return out


def select_answer(conf: ConfidenceMap) -> Tuple[ScoredKey, float]:
    """Return the highest-confidence key; ties go to the earliest-inserted.

    Insertion order equals first-occurrence sampling order for every map
    the estimators build, so selection is deterministic given a seed.
    """
    if not conf:
        raise NoCandidatesError("cannot select from an empty confidence map")
    return max(conf.items(), key=itemgetter(1))
