"""Monte Carlo check of the sqrt(n)-scaled asymptotic bias.

The penalized least-squares estimator is asymptotically biased, but the
bias of the bounded exponential penalty is  -lam0*kappa*C^{-1}(beta*e^{-kappa beta^2}),
which dies off exponentially in the signal size.  A ridge penalty pays
-lam0*C^{-1}*beta instead: the stronger the signal, the bigger the distortion.
The bias experiment takes its sample size n at the call and weights the
penalty by lam_n = lam0 * sqrt(n).
"""

import numpy as np

from gausspen import SimSpec, ridge_rootn_bias, run_bias_experiment, theoretical_rootn_bias


def experiment(beta, kappa):
    spec = SimSpec(
        beta_true=[beta], C=np.eye(1), sigma=1.0, lambda0=1.0, kappa=kappa,
        replicates=300, seed=42,
    )
    return run_bias_experiment(spec, 1600)


def main():
    print("empirical vs theoretical mean of sqrt(n)*(estimate - beta), 300 replicates\n")
    print(f"{'beta':>5} {'kappa':>6} {'empirical':>11} {'theory':>11} {'z':>6}")
    for beta, kappa in [(1.0, 1.0), (0.5, 10.0), (3.0, 10.0), (5.0, 10.0)]:
        report = experiment(beta, kappa)
        print(
            f"{beta:5.1f} {kappa:6.1f} {report.empirical_mean[0]:11.5f} "
            f"{report.theoretical_bias[0]:11.5f} {report.z_scores[0]:6.2f}"
        )

    print("\nbias magnitude as the signal grows (lam0 = 1):")
    print(f"{'beta':>5} {'bounded penalty':>16} {'ridge':>8}")
    for beta in (0.3, 1.0, 2.0, 3.0):
        bounded = abs(theoretical_rootn_bias(np.eye(1), [beta], 1.0, 10.0)[0])
        ridge = abs(ridge_rootn_bias(np.eye(1), [beta], 1.0)[0])
        print(f"{beta:5.1f} {bounded:16.3e} {ridge:8.2f}")


if __name__ == "__main__":
    main()
