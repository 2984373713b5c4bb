"""
Estimation-error convergence rates
==================================

Monte Carlo measurement of how fast each estimator's squared error shrinks
with the sampling budget n: the vote fraction decays like 1/n (log-log
slope -1), the per-answer probability sum decays exponentially at the
per-sample miss rate.
"""

import math

from reasonconf import (
    AnswerLabel,
    OracleSpec,
    RateFit,
    derive_seed,
    monte_carlo_estimation_error,
)

TRIALS = 50_000
NS = [4, 8, 16, 32, 64, 128]

vote_oracle = OracleSpec(
    path_probs=(0.5, 0.5),
    path_answers=(AnswerLabel("A"), AnswerLabel("B")),
    truth=AnswerLabel("A"),
)
# Answer mass 0.6 split over two equal paths: each draw misses a given
# target path with probability 0.7, so the error decays like 0.7^n.
sum_oracle = OracleSpec(
    path_probs=(0.3, 0.3, 0.4),
    path_answers=(AnswerLabel("A"), AnswerLabel("A"), AnswerLabel("B")),
    truth=AnswerLabel("A"),
)

print(f"{'n':>5} {'vote est err':>14} {'prob-sum est err':>18}")
vote_errors, sum_errors = [], []
for n in NS:
    vote = monte_carlo_estimation_error(
        vote_oracle, "SC", AnswerLabel("A"), n, TRIALS, derive_seed(5, 1, n)
    )
    psum = monte_carlo_estimation_error(
        sum_oracle, "PC", AnswerLabel("A"), n, TRIALS, derive_seed(5, 3, n)
    )
    vote_errors.append(vote.estimation_error)
    sum_errors.append(psum.estimation_error)
    print(f"{n:>5} {vote.estimation_error:>14.3e} {psum.estimation_error:>18.3e}")

vote_fit = RateFit.fit(NS, vote_errors, "loglog")
print(f"\nvote fraction log-log slope: {vote_fit.slope:+.4f} (ideal -1)")

# Budgets where every trial covered both target paths measure exactly zero
# and are dropped before the log-space fit.
sum_fit = RateFit.fit(NS, sum_errors, "semilog")
print(
    f"probability sum semilog slope: {sum_fit.slope:+.4f} "
    f"(ideal ln 0.7 = {math.log(0.7):+.4f}, fitted on n={sum_fit.ns})"
)
