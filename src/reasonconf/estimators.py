"""The four confidence estimators over a sample batch.

SC votes, PPL passes each unique path's own probability through, PC sums
unique-path probabilities per answer, and RPC runs PC on the subset that
survives reasoning pruning.
"""

from __future__ import annotations

from typing import Dict, Iterable, Literal, Tuple

from .errors import ReasonConfError
from .paths import (
    AnswerLabel,
    ConfidenceMap,
    ReasoningPath,
    SampleBatch,
    select_answer,
    unique_paths,
)
from .pruning import FitConfig, PruningReport, prune

EstimatorKind = Literal["SC", "PPL", "PC", "RPC"]

ESTIMATOR_KINDS: Tuple[EstimatorKind, ...] = ("SC", "PPL", "PC", "RPC")


def path_identity(path: ReasoningPath) -> AnswerLabel:
    """The label PPL files a path under: its exact text."""
    return AnswerLabel(canonical=path.text)


def sc_confidence(batch: SampleBatch) -> ConfidenceMap:
    """Vote fraction per observed answer; values sum to 1."""
    batch.require_nonempty()
    counts: Dict[AnswerLabel, int] = {}
    for path in batch.paths:
        counts[path.answer] = counts.get(path.answer, 0) + 1
    n = batch.n
    return ConfidenceMap(
        entries={ans: c / n for ans, c in counts.items()}, kind="SC"
    )


def ppl_confidence(batch: SampleBatch) -> ConfidenceMap:
    """Each unique path's own probability, keyed by path identity.

    Duplicates collapse to a single entry (the probability is not summed);
    paths never sampled are implicitly 0.  Values are deliberately not
    renormalized over the batch.
    """
    batch.require_nonempty()
    entries: Dict[AnswerLabel, float] = {}
    for path in unique_paths(batch):
        entries[path_identity(path)] = path.path_prob
    return ConfidenceMap(entries=entries, kind="PPL")


def _answer_sums(paths: Iterable[ReasoningPath]) -> Dict[AnswerLabel, float]:
    """Per answer, the sum of the given paths' probabilities, in path order."""
    entries: Dict[AnswerLabel, float] = {}
    for path in paths:
        entries[path.answer] = entries.get(path.answer, 0.0) + path.path_prob
    return entries


def pc_confidence(batch: SampleBatch) -> ConfidenceMap:
    """Per answer, the sum of probabilities of unique paths mapping to it."""
    batch.require_nonempty()
    return ConfidenceMap(entries=_answer_sums(unique_paths(batch)), kind="PC")


def rpc_confidence(
    batch: SampleBatch, config: FitConfig = FitConfig()
) -> Tuple[ConfidenceMap, PruningReport]:
    """PC restricted to the unique paths that survive reasoning pruning.

    The mixture is fitted to the deduplicated path probabilities; a
    degenerate fit is non-fatal and falls back to the mean rule, so the
    retained set is never empty.
    """
    batch.require_nonempty()
    uniques = unique_paths(batch)
    report = prune([p.path_prob for p in uniques], config)
    retained = (uniques[i] for i in report.retained_indices)
    return ConfidenceMap(entries=_answer_sums(retained), kind="RPC"), report


def estimate(
    kind: EstimatorKind, batch: SampleBatch, config: FitConfig = FitConfig()
) -> ConfidenceMap:
    """Uniform dispatch over the estimator kinds."""
    if kind == "SC":
        return sc_confidence(batch)
    if kind == "PPL":
        return ppl_confidence(batch)
    if kind == "PC":
        return pc_confidence(batch)
    if kind == "RPC":
        return rpc_confidence(batch, config)[0]
    raise ValueError(f"unknown estimator kind {kind!r}")


def selection_for_scoring(
    kind: EstimatorKind, conf: ConfidenceMap, batch: SampleBatch
) -> Tuple[AnswerLabel, float]:
    """Selected answer and its confidence, suitable for accuracy scoring.

    PPL selects over paths, so the winning path identity is mapped back to
    that path's answer; the other estimators already select answers.
    """
    label, value = select_answer(conf)
    if kind != "PPL":
        return label, value
    for path in unique_paths(batch):
        if path_identity(path) == label:
            return path.answer, value
    raise ReasonConfError("selected path identity not present in batch")
