"""Monte Carlo checks of the penalized estimator's large-sample behavior.

Two regimes are exercised for the Gaussian-penalized least-squares estimator:

* consistency when the penalty weight grows strictly slower than n
  (instantiated as lam_n = lam0 * n^r with r < 1), and
* the sqrt(n) limit law, whose mean -- the asymptotic bias -- has the closed
  form  -lam0 * kappa * C^{-1} (beta * exp(-kappa beta^2))  and vanishes
  exponentially fast in |beta|.

``lam_n`` follows the raw sum-of-squares convention (loss = sum of squared
residuals); :func:`gausspen.regression.fit` normalizes the loss by 1/n, so a
weight ``lam_n`` is passed to the solver as ``lam_n / n``.

Each replicate derives its randomness from (seed, replicate_index), so
reports are bit-reproducible and independent of execution order.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, ExperimentError
from .penalties import PenaltySpec
from .regression import LinearProblem, fit_batch

#: largest tolerated fraction of diverged replicates before the report aborts
MAX_FAILED_FRACTION = 0.05


@dataclass
class SimSpec:
    """One simulated-regression configuration.

    ``lambda_rule`` selects how the penalty weight scales with n:
    ``"o_of_n"`` uses lam_n = lam0 * n^r (r < 1), ``"sqrt_n"`` uses
    lam_n = lam0 * sqrt(n).
    """

    beta_true: np.ndarray
    C: np.ndarray
    sigma: float
    n: int
    lambda_rule: str = "sqrt_n"
    lambda0: float = 1.0
    r: float = 0.5
    kappa: float = 10.0
    replicates: int = 100
    seed: int = 0

    def __post_init__(self):
        self.beta_true = np.asarray(self.beta_true, dtype=float).ravel()
        self.C = np.asarray(self.C, dtype=float)
        p = self.beta_true.shape[0]
        if self.C.shape != (p, p):
            raise ConfigurationError("C must be p x p for a length-p beta_true")
        if np.abs(self.C - self.C.T).max() > 1e-12:
            raise ConfigurationError("C must be symmetric")
        if np.linalg.eigvalsh(self.C).min() <= 0:
            raise ConfigurationError("C must be positive definite")
        if self.sigma <= 0:
            raise ConfigurationError("sigma must be positive")
        if self.n < 1:
            raise ConfigurationError("n must be >= 1")
        if self.replicates < 1:
            raise ConfigurationError("replicates must be >= 1")
        if self.lambda_rule not in ("o_of_n", "sqrt_n"):
            raise ConfigurationError(f"unknown lambda rule {self.lambda_rule!r}")
        if self.lambda_rule == "o_of_n" and not self.r < 1.0:
            raise ConfigurationError("o_of_n rule requires exponent r < 1")
        if self.lambda0 < 0:
            raise ConfigurationError("lambda0 must be nonnegative")

    @property
    def p(self):
        return self.beta_true.shape[0]

    def lambda_n(self):
        """Penalty weight at sample size n (sum-of-squares loss convention)."""
        if self.lambda_rule == "sqrt_n":
            return self.lambda0 * math.sqrt(self.n)
        return self.lambda0 * self.n**self.r


@dataclass
class BiasReport:
    """Aggregated sqrt(n)-scaled estimation errors across replicates.

    ``replicates_unconverged`` counts used replicates whose fit stopped
    before its gradient tolerance was met.
    """

    empirical_mean: np.ndarray
    empirical_se: np.ndarray
    theoretical_bias: np.ndarray
    z_scores: np.ndarray
    replicates_used: int = 0
    replicates_failed: int = 0
    replicates_unconverged: int = 0


def simulate_linear_data(spec, replicate_index):
    """Draw one replicate: rows ~ N(0, C), y = X beta + N(0, sigma^2) noise,
    then center the covariate columns and the response.

    Deterministic given (spec.seed, replicate_index).
    """
    columns, y = _draw(spec, _cholesky(spec.C), replicate_index)
    return LinearProblem(columns.T, y, centered=True)


def _cholesky(C):
    try:
        return np.linalg.cholesky(C)
    except np.linalg.LinAlgError:
        raise ConfigurationError("C must be positive definite") from None


def _draw(spec, chol, replicate_index):
    """One centered replicate as ``(X', y)``, with ``chol`` the Cholesky
    factor of ``spec.C``.

    One ``standard_normal(n*p + n)`` call gives the same stream as drawing
    the ``(n, p)`` design noise and then the n response noises.  The design
    is built transposed, ``(p, n)``, so its column means are contiguous row
    reductions, and both arrays are centered in place.
    """
    n, p = spec.n, spec.p
    noise = np.random.default_rng([spec.seed, replicate_index]).standard_normal(n * p + n)
    # an overflow shows up as a non-finite draw, which the caller rejects
    with np.errstate(over="ignore", invalid="ignore"):
        columns = chol @ noise[:n * p].reshape(n, p).T
        y = noise[n * p:]
        y *= spec.sigma
        y += spec.beta_true @ columns
        columns -= columns.mean(axis=1, keepdims=True)
        y -= y.mean()
    return columns, y


def theoretical_rootn_bias(C, beta_true, lambda0, kappa):
    """Mean of the sqrt(n) limit law: -lam0*kappa*C^{-1}(beta*exp(-kappa beta^2)).

    The limit criterion is a convex quadratic in the local parameter whose
    linear term carries the penalty slope at beta; its argmin has this mean
    because the Gaussian noise term is centered.
    """
    C = np.asarray(C, dtype=float)
    beta_true = np.asarray(beta_true, dtype=float).ravel()
    slope = beta_true * np.exp(-kappa * beta_true**2)
    try:
        return -lambda0 * kappa * np.linalg.solve(C, slope)
    except np.linalg.LinAlgError:
        raise ConfigurationError("C must be invertible") from None


def ridge_rootn_bias(C, beta_true, lambda0):
    """Ridge analogue of the limit-law mean, -lam0 * C^{-1} beta: grows
    linearly in beta where the Gaussian penalty's bias decays exponentially.
    Provided for comparison plots only."""
    C = np.asarray(C, dtype=float)
    beta_true = np.asarray(beta_true, dtype=float).ravel()
    return -lambda0 * np.linalg.solve(C, beta_true)


def fit_replicates(spec, n=None, start_at_ols=True):
    """Draw every replicate of ``spec`` at sample size ``n`` (default
    ``spec.n``) and fit them all in one batched descent.

    ``C`` is factored once per cell.  Each draw is reduced at once to its
    sufficient statistics X'X, X'y and y'y, and its design is dropped, so
    memory stays O(replicates * p^2).  The unpenalized starts then come from
    one batched solve of the normal equations.  With ``start_at_ols`` every
    replicate starts at its unpenalized solution; otherwise the origin is
    tried as well and the lower objective wins.  Returns the
    :class:`~gausspen.regression.BatchFit`, one row per replicate.  Draws
    that overflow, so that a statistic is not finite, are a
    :class:`ConfigurationError`.
    """
    local = spec if n is None else replace(spec, n=n)
    reps, p = local.replicates, local.p
    chol = _cholesky(local.C)
    gram, xty, yty = np.empty((reps, p, p)), np.empty((reps, p)), np.empty(reps)
    with np.errstate(over="ignore", invalid="ignore"):
        for rep in range(reps):
            columns, y = _draw(local, chol, rep)
            gram[rep], xty[rep], yty[rep] = columns @ columns.T, columns @ y, y @ y
    if not (np.isfinite(gram).all() and np.isfinite(xty).all() and np.isfinite(yty).all()):
        raise ConfigurationError(
            f"simulated data overflow at n = {local.n}: X'X, X'y or y'y is not finite")
    if local.n > p:
        ols = np.linalg.solve(gram, xty[:, :, None])
    else:
        # a centered design with n <= p rows has rank below p, so X'X is
        # singular; its pseudo-inverse gives the minimum-norm start
        ols = np.linalg.pinv(gram, hermitian=True) @ xty[:, :, None]
    ols = ols[:, :, 0]
    starts = ols[:, None] if start_at_ols else np.stack([np.zeros_like(ols), ols], axis=1)
    pen = PenaltySpec("gaussian", kappa=local.kappa)
    return fit_batch(gram, xty, yty, local.n, pen, local.lambda_n() / local.n, starts)


def run_bias_experiment(spec):
    """Monte Carlo check of the sqrt(n) limit law's mean.

    Fits the penalized estimator per replicate (started at the unpenalized
    solution), aggregates sqrt(n)*(beta_hat - beta), and compares against
    :func:`theoretical_rootn_bias` coordinate by coordinate via z-scores.

    Diverged replicates are dropped and counted; more than
    ``MAX_FAILED_FRACTION`` of them raises :class:`ExperimentError`.
    """
    if spec.lambda_rule != "sqrt_n":
        raise ConfigurationError("bias experiment requires the sqrt_n lambda rule")
    batch = fit_replicates(spec)
    failed = int(batch.failed.sum())
    if failed > MAX_FAILED_FRACTION * spec.replicates:
        raise ExperimentError(f"{failed}/{spec.replicates} replicates diverged")
    used = ~batch.failed
    errors = math.sqrt(spec.n) * (batch.beta_hat[used] - spec.beta_true)
    mean = errors.mean(axis=0)
    if len(errors) >= 2:
        se = errors.std(axis=0, ddof=1) / math.sqrt(len(errors))
    else:
        se = np.full(spec.p, np.nan)
    theo = theoretical_rootn_bias(spec.C, spec.beta_true, spec.lambda0, spec.kappa)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.abs(mean - theo) / se
    unconverged = int(np.count_nonzero(~batch.converged[used]))
    return BiasReport(mean, se, theo, z, len(errors), failed, unconverged)


def run_consistency_experiment(spec, n_grid):
    """Median l2 estimation error across an increasing grid of sample sizes.

    Returns a list of (n, median ||beta_hat - beta||_2) pairs; under
    lam_n = o(n) the medians shrink toward zero as n grows.
    """
    n_grid = [int(n) for n in n_grid]
    if any(b <= a for a, b in zip(n_grid, n_grid[1:])) or not n_grid:
        raise ConfigurationError("n grid must be nonempty and strictly increasing")
    table = []
    for n in n_grid:
        # the default two starts (origin and the unpenalized solution): the
        # experiment wants the argmin, not a basin-local solution
        batch = fit_replicates(spec, n=n, start_at_ols=False)
        failed = int(batch.failed.sum())
        errs = [float(np.linalg.norm(beta_hat - spec.beta_true))
                for beta_hat in batch.beta_hat[~batch.failed]]
        if failed > MAX_FAILED_FRACTION * spec.replicates:
            raise ExperimentError(f"{failed}/{spec.replicates} replicates diverged at n={n}")
        table.append((n, float(np.median(errs))))
    return table
