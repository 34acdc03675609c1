"""Fit an additive GP and inspect its per-factor posteriors.

The model is f(x) = f1(x0, x1) + f2(x1, x2): two squared-exponential
factors sharing coordinate x1.  Each factor keeps its own posterior mean
and variance, asked for here as a one-row batch.  The factor means always
sum to the posterior mean of the full objective, which the dense-inverse
oracle of fgbo.selftest computes from the whole Gram matrix.
"""

import numpy as np

from fgbo.gp import ObservationSet, fit
from fgbo.kernels import AdditiveKernel, FactorKernel
from fgbo.selftest import dense_posterior

rng = np.random.default_rng(0)

kernel = AdditiveKernel(
    factors=(
        FactorKernel(subset=(0, 1), signal_variance=1.0, lengthscales=(0.3, 0.3)),
        FactorKernel(subset=(1, 2), signal_variance=0.5, lengthscales=(0.4, 0.2)),
    )
)

# observations of a toy additive truth, with a little noise
X = rng.uniform(size=(40, 3))
truth = np.sin(3 * X[:, 0]) * X[:, 1] + np.cos(4 * X[:, 2]) * X[:, 1]
y = truth + 0.05 * rng.standard_normal(40)

observations = ObservationSet(X, y, noise_variance=0.01)
posterior = fit(kernel, observations)

x = rng.uniform(size=(1, 3))
print(f"query point x = {np.round(x[0], 3)}")
total = 0.0
for i, f in enumerate(kernel.factors):
    (mean,), (var,) = posterior.factor_mean_var_batch(i, f.restrict(x))
    total += mean
    print(f"  factor {i} on {f.subset}: mean {mean:+.4f}  sd {np.sqrt(var):.4f}")

full_mean, full_var = dense_posterior(kernel, observations, x)
print(f"sum of factor means   {total:+.4f}")
print(f"dense oracle for f    {full_mean:+.4f}  sd {np.sqrt(full_var):.4f}")
print(f"additivity gap        {abs(total - full_mean):.2e}")
