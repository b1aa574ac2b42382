"""Monte Carlo check of the sqrt(n)-scaled asymptotic bias.

Under lam_n = lam0 * sqrt(n), the penalized least-squares estimator is
asymptotically biased by the mean of its sqrt(n) limit law,
-(lam0 / 2) * C^{-1} P'(beta), with P' the penalty's slope at the true
coefficients.  For the bounded exponential penalty that is
-lam0*kappa*C^{-1}(beta*e^{-kappa beta^2}), which dies off exponentially in
the signal size.  A ridge penalty pays -lam0*C^{-1}*beta instead: the
stronger the signal, the bigger the distortion.  Lasso pays a constant
lam0/2, and SCAD and MCP nothing once the signal clears their threshold.
The bias experiment takes its sample size n at the call.
"""

import numpy as np

from gausspen import PenaltySpec, SimSpec, run_bias_experiment, theoretical_rootn_bias

FAMILIES = [PenaltySpec("gaussian", kappa=10.0), PenaltySpec("ridge"), PenaltySpec("lasso"),
            PenaltySpec("scad"), PenaltySpec("mcp")]


def experiment(beta, penalty):
    spec = SimSpec(
        beta_true=beta, C=np.eye(len(beta)), sigma=1.0, lambda0=1.0, penalty=penalty,
        replicates=300, seed=42,
    )
    return run_bias_experiment(spec, 1600)


def main():
    print("empirical vs theoretical mean of sqrt(n)*(estimate - beta), 300 replicates\n")
    print(f"{'beta':>5} {'kappa':>6} {'empirical':>11} {'theory':>11} {'z':>6}")
    for beta, kappa in [(1.0, 1.0), (0.5, 10.0), (3.0, 10.0), (5.0, 10.0)]:
        report = experiment([beta], PenaltySpec("gaussian", kappa=kappa))
        print(
            f"{beta:5.1f} {kappa:6.1f} {report.empirical_mean[0]:11.5f} "
            f"{report.theoretical_bias[0]:11.5f} {report.z_scores[0]:6.2f}"
        )

    print("\nevery family at beta = (0.3, -0.5, 1, 2.5): largest |z| over the coordinates")
    for penalty in FAMILIES:
        report = experiment([0.3, -0.5, 1.0, 2.5], penalty)
        print(f"{penalty.label():>18} {report.z_scores.max():6.2f}")

    print("\nbias magnitude as the signal grows (lam0 = 1):")
    print(f"{'beta':>5}" + "".join(f" {penalty.label():>18}" for penalty in FAMILIES))
    for beta in (0.3, 1.0, 2.0, 3.0, 4.0):
        biases = [abs(theoretical_rootn_bias(np.eye(1), [beta], 1.0, penalty)[0])
                  for penalty in FAMILIES]
        print(f"{beta:5.1f}" + "".join(f" {bias:18.3e}" for bias in biases))


if __name__ == "__main__":
    main()
