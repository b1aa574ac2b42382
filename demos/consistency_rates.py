"""Estimator consistency under a slowly growing penalty weight.

The consistency experiment weights the penalty by lam_n = lam0 * n^r at
every n of its grid.  As long as that weight grows strictly slower than n
(here lam_n = sqrt(n)), the penalized estimator stays consistent: the median
l2 estimation error keeps shrinking at the usual 1/sqrt(n) pace.  Push the
weight to lam_n ~ 5n instead and the error stalls above a floor.
"""

import numpy as np

from gausspen import PenaltySpec, SimSpec, run_consistency_experiment

N_GRID = [100, 400, 1600, 6400]


def main():
    good = SimSpec(
        beta_true=[1.0, -2.0], C=np.eye(2), sigma=1.0,
        lambda0=1.0, r=0.5, penalty=PenaltySpec("gaussian", kappa=10.0),
        replicates=100, seed=1,
    )
    table = run_consistency_experiment(good, N_GRID)
    print("lam_n = sqrt(n): median ||estimate - beta||_2")
    for n, err in table:
        print(f"  n={n:5d}  {err:.5f}")
    ratios = [b / a for (_, a), (_, b) in zip(table, table[1:])]
    print("  step ratios (1/2 expected):", " ".join(f"{r:.3f}" for r in ratios))

    bad = SimSpec(
        beta_true=[1.0, -2.0], C=np.eye(2), sigma=1.0,
        lambda0=5.0, r=0.999, penalty=PenaltySpec("gaussian", kappa=10.0),
        replicates=100, seed=1,
    )
    table = run_consistency_experiment(bad, N_GRID)
    print("\nlam_n ~ 5n (too fast): the error no longer vanishes")
    for n, err in table:
        print(f"  n={n:5d}  {err:.5f}")


if __name__ == "__main__":
    main()
