"""
Tour of the four confidence estimators
======================================

A batch of sampled reasoning paths, scored four ways: vote fractions (SC),
raw per-path probabilities (PPL), per-answer probability sums over unique
paths (PC), and the probability sums after low-probability paths are pruned
(RPC).
"""

from reasonconf import (
    AnswerLabel,
    ReasoningPath,
    SampleBatch,
    estimate,
    rpc_confidence,
    selection_for_scoring,
)


def path(text, prob, answer):
    return ReasoningPath(text=text, answer=AnswerLabel(answer), path_prob=prob)


# Eight samples for one problem. The answer "42" is backed by two strong
# distinct derivations (one of them sampled three times); "41" by one
# middling path sampled twice; the rest are weak one-offs.
batch = SampleBatch(
    paths=(
        path("derivation A", 0.30, "42"),
        path("derivation B", 0.25, "42"),
        path("derivation A", 0.30, "42"),
        path("slip in step 2", 0.18, "41"),
        path("derivation A", 0.30, "42"),
        path("slip in step 2", 0.18, "41"),
        path("wild guess", 0.02, "7"),
        path("truncated output", 0.01, "-1"),
    ),
    problem_id="demo",
)

for kind in ("SC", "PPL", "PC", "RPC"):
    conf = estimate(kind, batch)
    print(f"{kind} confidence map:")
    for key, value in conf.items():
        name = key.text if kind == "PPL" else key.canonical
        print(f"  {name!r}: {value:.4f}")
    answer, value = selection_for_scoring(kind, conf)
    print(f"  -> selects {answer.canonical!r} at {value:.4f}\n")

# The pruning report shows what RPC removed and why.
conf, report = rpc_confidence(batch)
print("pruning report:")
print(f"  mean threshold: {report.mean_threshold:.4f}")
print(f"  retained unique-path indices: {report.retained_indices}")
print(f"  removed unique-path indices:  {report.removed_indices}")
print(f"  mixture fit used: {not report.fallback_used}")

# Note the differences: SC counts the duplicated derivation three times,
# PPL refuses to aggregate derivations A and B at all, PC adds each unique
# derivation once, and RPC additionally drops the two noise paths.
