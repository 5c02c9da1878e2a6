"""Preamble detection at the signal level.

The pairwise maximum-likelihood comparison between the true active set
and a neighbouring hypothesis (one user dropped, or one virtual user
added) has error probability exactly Q(sqrt(snr/2)).  This script
measures both error types empirically on a random non-orthogonal pool
and prints them next to the Gaussian tail, then shows the pool-wide
union bound 1 - exp(-L * eps) that motivates per-preamble error targets.
"""

import math

import numpy as np

from cra import (
    SparseScene,
    gen_pool,
    ml_fa_trial,
    ml_md_trial,
    qfunc,
    support_error_prob,
)

pool = gen_pool(31, 310, seed=0)
trials = 200_000

print(f"{'snr':>5} {'miss rate':>10} {'fa rate':>9} {'Q(sqrt(snr/2))':>15}")
for i, snr in enumerate([0.0, 1.0, 4.0, 16.0]):
    scene = SparseScene(support=(0,),
                        coefficients=np.array([math.sqrt(snr)], dtype=complex),
                        noise_var=1.0)
    # seed 0 is the pool's own stream
    md = ml_md_trial(pool, scene, 0, np.random.default_rng(1 + i), trials)
    fa = ml_fa_trial(pool, scene, 1, snr, np.random.default_rng(100 + i),
                     trials)
    print(f"{snr:>5.0f} {md:>10.4f} {fa:>9.4f} "
          f"{qfunc(math.sqrt(snr / 2.0)):>15.4f}")

# with 310 preambles, even a 1% per-preamble error rate makes some error
# in the pool almost certain
print()
for eps in [0.001, 0.01, 0.02]:
    print(f"per-preamble error {eps:g}: "
          f"pool-wide error ~ {support_error_prob(310, eps):.3f}")
