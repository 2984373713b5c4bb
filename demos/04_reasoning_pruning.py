"""
Mixture modeling and path pruning
=================================

Path probabilities from a batch typically show a high mode (plausible
derivations) and a low mode (noise). A two-component Weibull mixture
fitted by bounded, SQUAREM-accelerated EM separates them; paths are kept
when their posterior of belonging to the high component reaches 0.5 or
they clear the batch mean.
"""

import numpy as np

from reasonconf import fit_mixture, mixture_loglik, p_high, prune

rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(306)))

# Synthetic batch: half the paths from a high component around 0.7, half
# from a low component around 0.09.
from_high = rng.random(128) < 0.5
probs = np.where(from_high, 0.8 * rng.weibull(2.0, 128), 0.1 * rng.weibull(1.5, 128))

fit = fit_mixture(probs.tolist())
print("fitted mixture:")
print(f"  component 1: shape {fit.comp1.shape:.3f}, scale {fit.comp1.scale:.3f}")
print(f"  component 2: shape {fit.comp2.shape:.3f}, scale {fit.comp2.scale:.3f}")
print(f"  weights: {fit.w1:.3f} / {fit.w2:.3f}  (bounded to [0.2, 0.8])")
print(f"  high component: #{fit.high_index} (mean {fit.high.mean():.3f})")
print(f"  log-likelihood {fit.loglik:.2f} after {fit.n_iter} EM maps")

# The posterior is a soft classifier over probability values.
print("\nposterior of the high component:")
for x in (0.02, 0.08, 0.2, 0.35, 0.6, 0.9):
    print(f"  p_high({x:.2f}) = {p_high(x, fit):.3f}")

# Agreement with the actual generating component.
posterior = np.array([p_high(float(v), fit) for v in probs])
agreement = np.mean((posterior >= 0.5) == from_high)
print(f"\nclassification agreement with the generating component: {agreement:.1%}")

report = prune(probs.tolist())
kept = len(report.retained_indices)
print(f"pruning keeps {kept}/128 paths (mean threshold {report.mean_threshold:.3f})")

# Sanity anchor: the fitted likelihood cannot sit below the generating
# parameters' likelihood on the same data.
from reasonconf.pruning import MixtureFit, WeibullParams

generating = MixtureFit(
    comp1=WeibullParams(2.0, 0.8),
    comp2=WeibullParams(1.5, 0.1),
    w1=0.5,
    w2=0.5,
    high_index=1,
    loglik=0.0,
    converged=True,
)
print(
    f"loglik fitted {fit.loglik:.2f} vs generating parameters "
    f"{mixture_loglik(probs.tolist(), generating):.2f}"
)
