"""Recover an unknown additive decomposition from data by MCMC.

Data are drawn from a GP whose kernel decomposes as {0,1} + {2,3}.  The
Metropolis-Hastings sampler walks the space of covering decompositions
scored by GP marginal likelihood; most posterior samples should land on
the generating structure.
"""

import numpy as np

from fgbo.decomposition import (
    Decomposition,
    McmcConfig,
    SharedHypers,
    induced_kernel,
    sample_posterior,
)
from fgbo.gp import ObservationSet
from fgbo.kernels import gram

rng = np.random.default_rng(42)
truth = Decomposition(d=4, subsets=((0, 1), (2, 3)), max_factor_size=2)
hypers = SharedHypers(total_signal_variance=2.0, lengthscales=0.25)

X = rng.uniform(size=(60, 4))
K = gram(induced_kernel(truth.subsets, hypers), X)
L = np.linalg.cholesky(K + 1e-10 * np.eye(60))
y = L @ rng.standard_normal(60) + 0.05 * rng.standard_normal(60)

samples = sample_posterior(
    ObservationSet(X, y, noise_variance=0.01),
    McmcConfig(
        max_factor_size=2, chain_length=6000, burn_in=3000, thinning=300,
        num_samples=10, size_penalty=3.0,
    ),
    rng,
    hypers=hypers,
)

print(f"truth: {truth.subsets}")
hits = 0
for i, dec in enumerate(samples):
    mark = "  <- exact" if dec.subsets == truth.subsets else ""
    hits += dec.subsets == truth.subsets
    print(f"sample {i}: {dec.subsets}{mark}")
print(f"\n{hits}/10 posterior samples recover the generating decomposition")
