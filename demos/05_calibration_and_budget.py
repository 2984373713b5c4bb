"""
Calibration and sampling-budget comparison
==========================================

End-to-end protocol on a synthetic problem: repeatedly sample, estimate,
select, and score each method; then measure calibration (ECE over
reliability bins) and the budget each method needs to match the vote
estimator's best accuracy.
"""

from reasonconf import (
    AnswerLabel,
    OracleSpec,
    budget_curve,
    budget_to_match,
    derive_seed,
    ece,
    estimate,
    reliability_bins,
    sample_batch,
    selection_for_scoring,
)

# The correct answer holds 0.5 of the mass in two strong paths; ten weak
# wrong answers split the rest.
oracle = OracleSpec(
    path_probs=(0.25, 0.25) + (0.05,) * 10,
    path_answers=tuple(
        AnswerLabel(a) for a in ["T", "T"] + [f"W{i}" for i in range(10)]
    ),
    truth=AnswerLabel("T"),
)

METHODS = ("SC", "PC", "RPC")
NS = (4, 8, 16, 32, 64)
REPEATS = 20

curves = {}
scored = {m: [] for m in METHODS}
for method in METHODS:
    per_n = []
    for n in NS:
        accuracies = []
        for r in range(REPEATS):
            batch = sample_batch(oracle, n, derive_seed(123, n, r))
            conf = estimate(method, batch)
            answer, value = selection_for_scoring(method, conf)
            correct = answer == oracle.truth
            accuracies.append(1.0 if correct else 0.0)
            scored[method].append((value, correct))
        per_n.append((n, accuracies))
    curves[method] = budget_curve(method, per_n)

print(f"{'n':>4}" + "".join(f"{m:>8}" for m in METHODS))
for i, n in enumerate(NS):
    row = "".join(f"{curves[m].points[i].mean_accuracy:>8.2f}" for m in METHODS)
    print(f"{n:>4}{row}")

reference = curves["SC"].points[-1].mean_accuracy
print(f"\nvote estimator accuracy at n={NS[-1]}: {reference:.2f}")
for method in ("PC", "RPC"):
    needed = budget_to_match(curves[method], reference)
    print(f"  {method} matches it with n = {needed}")

print("\ncalibration over all scored selections (10 bins):")
for method in METHODS:
    bins = reliability_bins(scored[method], bins=10)
    print(f"  {method}: ece = {ece(scored[method], bins=10):.4f} "
          f"over {bins.total_count} selections")
