"""
Exact error decomposition on a synthetic sampler
================================================

With a finite path set and known probabilities, the expected squared error
of every estimator can be computed exactly by enumerating all ordered
sample outcomes, then compared with the closed forms.
"""

from reasonconf import (
    AnswerLabel,
    OracleSpec,
    exact_estimator_moments,
    pc_confidence,
    ppl_confidence,
    sc_closed_form,
    sc_confidence,
    ppl_closed_form,
    pc_closed_form,
)

# Correct answer A carries 0.6 of the mass over two equally likely paths;
# the remaining 0.4 sits on one wrong path.
oracle = OracleSpec(
    path_probs=(0.3, 0.3, 0.4),
    path_answers=(AnswerLabel("A"), AnswerLabel("A"), AnswerLabel("B")),
    truth=AnswerLabel("A"),
)
target = AnswerLabel("A")

print("vote fractions: exact enumeration vs closed form")
print(f"{'n':>3} {'est err (enum)':>16} {'est err (form)':>16} {'model':>8}")
for n in (1, 2, 4, 8):
    enum = exact_estimator_moments(oracle, n, sc_confidence, target)
    form = sc_closed_form(0.6, n, True)
    print(
        f"{n:>3} {enum.estimation_error:>16.10f} "
        f"{form.estimation_error:>16.10f} {form.model_error:>8.4f}"
    )

# The unbiased vote estimator satisfies total = estimation + model exactly.
enum = exact_estimator_moments(oracle, 4, sc_confidence, target)
drift = enum.reasoning_error - enum.estimation_error - enum.model_error
print(f"\ndecomposition drift at n=4: {drift:.2e}")

# The probability-sum estimator is biased: its closed form's estimation
# term is the residual total - model, not the mean squared deviation, and
# the closed form itself drops a squared-bias term (alpha^(2n) p^2 at k=1).
print("\nprobability sums: enumeration residual vs closed form")
print(f"{'n':>3} {'residual (enum)':>16} {'est term (form)':>16} {'gap':>12}")
for n in (1, 2, 4, 8):
    enum = exact_estimator_moments(oracle, n, pc_confidence, target)
    form = pc_closed_form(0.6, 2, n, True)
    gap = enum.decomposition_estimation_error - form.estimation_error
    print(
        f"{n:>3} {enum.decomposition_estimation_error:>16.10f} "
        f"{form.estimation_error:>16.10f} {gap:>12.2e}"
    )

# Per-path confidence: exact match between enumeration and the closed form.
single = OracleSpec(
    path_probs=(0.5, 0.5),
    path_answers=(AnswerLabel("A"), AnswerLabel("B")),
    truth=AnswerLabel("A"),
)
print("\nper-path probability estimator, target = the correct path")
for n in (1, 2, 4):
    enum = exact_estimator_moments(single, n, ppl_confidence, single.paths[0])
    form = ppl_closed_form(0.5, n, True)
    print(
        f"  n={n}: enumeration total {enum.reasoning_error:.10f}, "
        f"closed form {form.total:.10f}"
    )
