"""Shared helpers for the test suite."""

from reasonconf import AnswerLabel, OracleSpec, ReasoningPath, SampleBatch


def label(text: str) -> AnswerLabel:
    return AnswerLabel(canonical=text)


def path(text: str, prob: float, answer: str) -> ReasoningPath:
    return ReasoningPath(text=text, answer=label(answer), path_prob=prob)


def batch(*specs, problem_id="test") -> SampleBatch:
    """Batch from (text, prob, answer) triples in sampling order."""
    return SampleBatch(
        paths=tuple(path(*spec) for spec in specs), problem_id=problem_id
    )


def oracle(probs, answers, truth) -> OracleSpec:
    return OracleSpec(
        path_probs=tuple(probs),
        path_answers=tuple(label(a) for a in answers),
        truth=label(truth),
    )
