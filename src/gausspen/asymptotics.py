"""Monte Carlo checks of the penalized estimator's large-sample behavior.

Two regimes are exercised for least squares under any penalty of the table
in :mod:`~gausspen.penalties`:

* consistency when the penalty weight grows strictly slower than n
  (instantiated as lam_n = lam0 * n^r with r < 1), and
* the sqrt(n) limit law, whose mean -- the asymptotic bias -- is
  -(lam0 / 2) * C^{-1} P'(beta) wherever no coordinate of beta sits at a
  kink (Knight & Fu 2000, "Asymptotics for lasso-type estimators"): for the
  Gaussian penalty it vanishes exponentially fast in |beta|, for ridge it
  grows with it.

A :class:`SimSpec` holds what the two experiments share: the model, the
penalty and the replicates.  Each experiment takes its own sample sizes and
its own weight rule: :func:`run_bias_experiment` one n with
lam_n = lam0 * sqrt(n), :func:`run_consistency_experiment` a grid of n with
lam_n = lam0 * n^r.  ``lam_n`` follows the raw sum-of-squares convention
(loss = sum of squared residuals); the solver normalizes the loss by 1/n, so
a weight ``lam_n`` is passed to it as ``lam_n / n``.

Each replicate derives its randomness from (seed, replicate_index), so
reports are bit-reproducible and independent of execution order.  That one
stream serves every sample size: the draw at n is a prefix of the draw at
any larger n, so a grid of sample sizes draws each replicate once, at its
largest n.  No replicate is kept as a design: :func:`fit_replicates` reduces
each draw at once to X'X, X'y and y'y.
"""

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, ExperimentError
from .penalties import PenaltySpec, grad_array
from .regression import fit_batch

#: largest tolerated fraction of diverged replicates before the report aborts
MAX_FAILED_FRACTION = 0.05


@dataclass
class SimSpec:
    """One simulated-regression configuration, at every sample size: the
    model (``beta_true``, ``C``, ``sigma``), the penalty weight (``lambda0``
    and the exponent ``r < 1`` of the consistency rule), the penalty shape
    (``penalty``, a :class:`~gausspen.penalties.PenaltySpec`, by default the
    Gaussian of kappa 10) and the replicates.  The sample sizes are the
    experiment's."""

    beta_true: np.ndarray
    C: np.ndarray
    sigma: float
    lambda0: float = 1.0
    r: float = 0.5
    penalty: PenaltySpec = PenaltySpec()
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
        _cholesky(self.C)  # or "C must be positive definite"
        if self.sigma <= 0:
            raise ConfigurationError("sigma must be positive")
        if self.replicates < 1:
            raise ConfigurationError("replicates must be >= 1")
        if not self.r < 1.0:
            raise ConfigurationError("exponent r must be < 1")
        if self.lambda0 < 0:
            raise ConfigurationError("lambda0 must be nonnegative")

    @property
    def p(self):
        return self.beta_true.shape[0]


@dataclass
class BiasReport:
    """Aggregated sqrt(n)-scaled estimation errors across replicates.

    ``replicates_unconverged`` counts used replicates whose fit stopped
    before its gradient tolerance was met, and ``stop_reasons`` counts the
    used replicates by the reason their fit stopped
    (:data:`~gausspen.regression.STOP_REASONS`).
    """

    empirical_mean: np.ndarray
    empirical_se: np.ndarray
    theoretical_bias: np.ndarray
    z_scores: np.ndarray
    replicates_used: int = 0
    replicates_failed: int = 0
    replicates_unconverged: int = 0
    stop_reasons: dict = field(default_factory=dict)


def _cholesky(C):
    try:
        return np.linalg.cholesky(C)
    except np.linalg.LinAlgError:
        raise ConfigurationError("C must be positive definite") from None


def _noise(spec, replicate_index, n):
    """The replicate's noise at n: one ``standard_normal(n*p + n)`` call,
    whose first ``m*p + m`` values are its noise at any m < n, to the bit."""
    return np.random.default_rng([spec.seed, replicate_index]).standard_normal(n * spec.p + n)


def _draw(spec, chol, noise, n):
    """One centered replicate at sample size n as ``(X', y)``, from the
    first ``n*p + n`` values of its :func:`_noise` (left unchanged), with
    ``chol`` the Cholesky factor of ``spec.C``.

    The first ``n*p`` values are the ``(n, p)`` design noise and the next n
    the response noise, the same stream as drawing the two one after the
    other.  The design is built transposed, ``(p, n)``, so its column means
    are contiguous row reductions.
    """
    p = spec.p
    columns = chol @ noise[:n * p].reshape(n, p).T
    y = spec.sigma * noise[n * p:n * p + n]
    y += spec.beta_true @ columns
    columns -= columns.mean(axis=1, keepdims=True)
    y -= y.mean()
    return columns, y


def theoretical_rootn_bias(C, beta_true, lambda0, penalty):
    """Mean of the sqrt(n) limit law under lam_n = lam0 * sqrt(n):
    -(lam0 / 2) * C^{-1} P'(beta), with P' from ``penalty``'s table entry.

    The limit criterion u'Cu + lam0 * u'P'(beta) - 2u'W is a convex
    quadratic in the local parameter u; its argmin has this mean because the
    Gaussian noise term W is centered.  A penalty with a kink at 0 and a zero
    coordinate of beta puts |u_j| in the criterion instead, whose argmin has
    no closed-form mean: that is a :class:`ConfigurationError`.
    """
    C = np.asarray(C, dtype=float)
    beta_true = np.asarray(beta_true, dtype=float).ravel()
    if penalty.slope_at_zero() > 0 and not beta_true.all():
        raise ConfigurationError(
            f"the sqrt(n) limit law of {penalty.label()} has no closed-form mean "
            "where a coordinate of beta is 0")
    try:
        return -(lambda0 / 2) * np.linalg.solve(C, grad_array(penalty, beta_true))
    except np.linalg.LinAlgError:
        raise ConfigurationError("C must be invertible") from None


def fit_replicates(spec, n_grid, lam_n, start_at_ols=True):
    """Fit every replicate of ``spec`` at every n of ``n_grid``, with penalty
    weight ``lam_n(n)``, in one batched descent; returns the
    :class:`~gausspen.regression.BatchFit`, one row per (n, replicate),
    n-major.

    ``n_grid`` is a list of sample sizes that is nonempty, starts at 1 or above
    and strictly increases.  ``C`` is factored here, and in ``SimSpec``.  Each
    replicate is drawn once, at the largest n, and a smaller n takes a prefix of
    its noise.  Each draw is reduced at once to X'X, X'y and y'y and its design
    dropped.  Checked per n in grid order, a draw that overflows, so that a
    statistic is not finite, is a :class:`ConfigurationError`, and after the
    descent more than ``MAX_FAILED_FRACTION`` of the replicates failed is an
    :class:`ExperimentError`.  With ``start_at_ols`` every problem starts at its
    unpenalized solution, from one batched solve of the normal equations per n;
    otherwise the origin is tried as well and the lower objective wins.
    """
    if not n_grid or n_grid[0] < 1 or any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise ConfigurationError("n grid must be nonempty, strictly increasing and at least 1")
    reps, p, grid = spec.replicates, spec.p, len(n_grid)
    lam = [lam_n(n) / n for n in n_grid]
    chol = _cholesky(spec.C)
    gram, xty, yty = np.empty((grid, reps, p, p)), np.empty((grid, reps, p)), np.empty((grid, reps))
    # a draw that overflows is not finite, and is rejected below without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for rep in range(reps):
            noise = _noise(spec, rep, n_grid[-1])
            for i, n in enumerate(n_grid):
                columns, y = _draw(spec, chol, noise, n)
                gram[i, rep], xty[i, rep], yty[i, rep] = columns @ columns.T, columns @ y, y @ y
    ols = []
    for n, G, c, t in zip(n_grid, gram, xty, yty):
        if not (np.isfinite(G).all() and np.isfinite(c).all() and np.isfinite(t).all()):
            raise ConfigurationError(
                f"simulated data overflow at n = {n}: X'X, X'y or y'y is not finite")
        # a centered design with n <= p rows has rank below p, so X'X is
        # singular; its pseudo-inverse gives the minimum-norm start
        ols.append(np.linalg.solve(G, c[:, :, None]) if n > p
                   else np.linalg.pinv(G, hermitian=True) @ c[:, :, None])
    ols = np.concatenate(ols)[:, :, 0]
    starts = ols[:, None] if start_at_ols else np.stack([np.zeros_like(ols), ols], axis=1)
    batch = fit_batch(gram.reshape(-1, p, p), xty.reshape(-1, p), yty.ravel(),
                      np.repeat(n_grid, reps), spec.penalty, np.repeat(lam, reps), starts)
    for n, failed in zip(n_grid, batch.failed.reshape(grid, reps).sum(axis=1)):
        if failed > MAX_FAILED_FRACTION * reps:
            raise ExperimentError(f"{failed}/{reps} replicates diverged at n={n}")
    return batch


def run_bias_experiment(spec, n):
    """Monte Carlo check of the sqrt(n) limit law's mean at sample size n,
    under lam_n = lam0 * sqrt(n).

    Computes :func:`theoretical_rootn_bias` first, so a penalty and beta
    without a closed-form limit mean fail before any draw.  Then fits the
    penalized estimator per replicate (started at the unpenalized solution),
    aggregates sqrt(n)*(beta_hat - beta), and compares against the limit
    mean coordinate by coordinate via z-scores.

    Diverged replicates are dropped and counted; :func:`fit_replicates`
    raises :class:`ExperimentError` when there are too many of them.
    """
    theo = theoretical_rootn_bias(spec.C, spec.beta_true, spec.lambda0, spec.penalty)
    batch = fit_replicates(spec, [n], lambda n: spec.lambda0 * math.sqrt(n))
    used = ~batch.failed
    errors = math.sqrt(n) * (batch.beta_hat[used] - spec.beta_true)
    mean = errors.mean(axis=0)
    if len(errors) >= 2:
        se = errors.std(axis=0, ddof=1) / math.sqrt(len(errors))
    else:
        se = np.full(spec.p, np.nan)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.abs(mean - theo) / se
    unconverged = int(np.count_nonzero(~batch.converged[used]))
    return BiasReport(mean, se, theo, z, len(errors), int(batch.failed.sum()), unconverged,
                      dict(Counter(batch.stop_reason[used].tolist())))


def run_consistency_experiment(spec, n_grid):
    """Median l2 estimation error across an increasing grid of sample sizes,
    under lam_n = lam0 * n^r.

    Returns a list of (n, median ||beta_hat - beta||_2) pairs; as r < 1,
    lam_n = o(n) and the medians shrink toward zero as n grows.
    """
    n_grid = [int(n) for n in n_grid]
    # the default two starts (origin and the unpenalized solution): the
    # experiment wants the argmin, not a basin-local solution
    batch = fit_replicates(spec, n_grid, lambda n: spec.lambda0 * n**spec.r, start_at_ols=False)
    shape = (len(n_grid), spec.replicates)
    table = []
    for n, beta_hats, failed in zip(n_grid, batch.beta_hat.reshape(*shape, spec.p),
                                    batch.failed.reshape(shape)):
        errs = [float(np.linalg.norm(beta_hat - spec.beta_true)) for beta_hat in beta_hats[~failed]]
        # np.median's value, bit for bit, without its first-call import of numpy.ma
        errs.sort()
        mid = len(errs) // 2
        table.append((n, errs[mid] if len(errs) % 2 else (errs[mid - 1] + errs[mid]) / 2))
    return table
