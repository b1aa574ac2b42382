"""Penalized least squares by gradient descent, and the 1-D orthonormal-design
objective whose two-minima structure drives the penalty's phase transition.

The solver minimizes

    F(beta) = (1/n) * ||y - X beta||^2 + lam * sum_j P(beta_j)

with Armijo backtracking; the penalty families here are smooth enough (or use
the opt-in zero subgradient at the origin) that plain gradient steps suffice.
For an orthonormal design (X'X = I) the problem separates per coordinate into

    f(b) = -2 * beta_ols * b + b^2 + lam_1d * (1 - exp(-kappa b^2)),

where ``lam_1d = n * lam`` under the 1/n loss normalization above.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from .errors import ConfigurationError, DivergenceError
from .penalties import grad_array, value_array

GRID_POINTS = 20001  # dense f' sign-scan resolution for the 1-D analyzer


@dataclass
class LinearProblem:
    """A design matrix / response pair.

    ``centered=True`` asserts that every column of X and y itself have mean
    zero (within 1e-8), the normalization under which the asymptotic results
    are stated.
    """

    X: np.ndarray
    y: np.ndarray
    centered: bool = False

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.y = np.asarray(self.y, dtype=float).ravel()
        if self.X.ndim != 2 or self.X.shape[0] < 1 or self.X.shape[1] < 1:
            raise ConfigurationError("X must be a nonempty n x p matrix")
        if self.y.shape[0] != self.X.shape[0]:
            raise ConfigurationError("y length must match the number of rows of X")
        if not (np.all(np.isfinite(self.X)) and np.all(np.isfinite(self.y))):
            raise ConfigurationError("design and response must be finite")
        if self.centered:
            col_means = np.abs(self.X.mean(axis=0))
            if col_means.max() > 1e-8 or abs(self.y.mean()) > 1e-8:
                raise ConfigurationError("centered problem has nonzero column or response means")

    @property
    def n(self):
        return self.X.shape[0]

    @property
    def p(self):
        return self.X.shape[1]


@dataclass
class FitResult:
    """Solver output: estimate, per-iteration objective trace, diagnostics."""

    beta_hat: np.ndarray
    objective_trace: list = field(default_factory=list)
    converged: bool = False
    grad_norm_final: float = math.inf
    iterations: int = 0


@dataclass
class MinimaProfile:
    """All local minima of the 1-D orthonormal objective at one lambda.

    ``minima`` holds (location, value, second_derivative) triples;
    ``global_index`` points at the smallest value, ties broken toward the
    smaller |location|.
    """

    lam: float
    minima: list
    global_index: int

    @property
    def global_minimum(self):
        return self.minima[self.global_index]


def fit(problem, spec, lam, step_init=1.0, backtrack=0.5, grad_tol=1e-8,
        max_iter=100_000, start=None):
    """Minimize (1/n)||y - X beta||^2 + lam * sum_j P(beta_j).

    By default two starts are tried (the origin and the unpenalized
    least-squares solution, the two basins the nonconvex penalty creates)
    and the lower objective wins; pass ``start`` to run a single descent
    from a chosen point.

    Returns a :class:`FitResult`; ``converged`` is False (not an error) when
    ``max_iter`` is exhausted before the gradient tolerance is met.
    """
    if lam < 0:
        raise ConfigurationError("lam must be nonnegative")
    X, y, n = problem.X, problem.y, problem.n
    gram = X.T @ X
    xty = X.T @ y
    yty = float(y @ y)

    def objective(beta):
        quad = beta @ gram @ beta - 2.0 * (xty @ beta) + yty
        return quad / n + lam * float(np.sum(value_array(spec, beta)))

    def gradient(beta):
        return (2.0 / n) * (gram @ beta - xty) + lam * grad_array(spec, beta, zero_at_kink=True)

    if start is not None:
        starts = [np.asarray(start, dtype=float).copy()]
    else:
        ols = np.linalg.lstsq(X, y, rcond=None)[0]
        starts = [np.zeros(problem.p), ols]

    best = None
    for beta0 in starts:
        result = _descend(objective, gradient, beta0, step_init, backtrack, grad_tol, max_iter)
        if best is None or result.objective_trace[-1][1] < best.objective_trace[-1][1]:
            best = result
    return best


def _descend(objective, gradient, beta0, step_init, backtrack, grad_tol, max_iter):
    beta = beta0.copy()
    f = objective(beta)
    if not math.isfinite(f):
        raise DivergenceError("objective is non-finite at the start point")
    trace = [(0, f)]
    trial = step_init
    g = gradient(beta)
    gnorm = float(np.linalg.norm(g))
    it = 0
    while gnorm > grad_tol and it < max_iter:
        gsq = gnorm * gnorm
        # Armijo backtracking with strict decrease; the strictness stops the
        # search once no representable progress exists at this precision
        t = trial
        accepted = False
        while t >= 1e-20:
            candidate = beta - t * g
            f_new = objective(candidate)
            if math.isfinite(f_new) and f_new < f - 1e-4 * t * gsq:
                accepted = True
                break
            t *= backtrack
        if not accepted:
            break
        g_new = gradient(candidate)
        # Barzilai-Borwein trial step for the next iteration: quasi-Newton
        # scaling that keeps plain gradient steps fast near the optimum
        s = candidate - beta
        yv = g_new - g
        sy = float(s @ yv)
        trial = float(s @ s) / sy if sy > 0 else t * 2.0
        trial = min(max(trial, 1e-12), 1e12)
        beta, f, g = candidate, f_new, g_new
        gnorm = float(np.linalg.norm(g))
        it += 1
        trace.append((it, f))
    return FitResult(beta, trace, gnorm <= grad_tol, gnorm, it)


def orthonormal_objective(beta_ols, beta, lam, kappa):
    """The per-coordinate orthonormal-design objective
    -2*beta_ols*beta + beta^2 + lam*(1 - exp(-kappa*beta^2))."""
    for v in (beta_ols, beta, lam, kappa):
        if not math.isfinite(v):
            raise ConfigurationError("orthonormal objective requires finite inputs")
    return -2.0 * beta_ols * beta + beta * beta - lam * math.expm1(-kappa * beta * beta)


def _ortho_derivatives(beta_ols, lam, kappa):
    def fprime(b):
        return -2.0 * beta_ols + 2.0 * b + 2.0 * lam * kappa * b * np.exp(-kappa * b * b)

    def fsecond(b):
        e = np.exp(-kappa * b * b)
        return 2.0 + 2.0 * lam * kappa * e * (1.0 - 2.0 * kappa * b * b)

    return fprime, fsecond


def solve_orthonormal(beta_ols, lam, kappa):
    """Locate every local minimum of the 1-D orthonormal objective.

    Scans f' for sign changes on a dense grid over
    [-|beta_ols|-1, |beta_ols|+1] (outside which f' keeps a constant sign),
    polishes each bracketed root to |f'| <= 1e-10, and classifies minima by
    f'' > 0.  A single minimum is a perfectly valid profile.
    """
    if kappa <= 0:
        raise ConfigurationError("kappa must be positive")
    if lam < 0:
        raise ConfigurationError("lam must be nonnegative")
    fprime, fsecond = _ortho_derivatives(beta_ols, lam, kappa)
    hi = abs(beta_ols) + 1.0
    grid = np.linspace(-hi, hi, GRID_POINTS)
    fp = fprime(grid)

    roots = []
    for i in np.nonzero(fp == 0.0)[0]:
        roots.append(float(grid[i]))
    sign_change = np.nonzero((fp[:-1] * fp[1:]) < 0.0)[0]
    for i in sign_change:
        roots.append(brentq(fprime, grid[i], grid[i + 1], xtol=1e-14, rtol=8.9e-16))

    minima = []
    for r in sorted(roots):
        curvature = float(fsecond(r))
        if curvature > 0.0:
            minima.append((r, orthonormal_objective(beta_ols, r, lam, kappa), curvature))
    if not minima:
        # coercive objective always has a minimum; only reachable if the grid
        # degenerates, which the bounds above prevent
        raise DivergenceError("no local minimum found on the search interval")
    global_index = min(
        range(len(minima)), key=lambda i: (minima[i][1], abs(minima[i][0]))
    )
    return MinimaProfile(float(lam), minima, global_index)


def lambda_phase_scan(beta_ols, kappa, lambda_grid):
    """Profile every lambda in an increasing grid and estimate the crossing
    lambda* at which the global minimum jumps basins.

    Returns ``(profiles, lambda_star)``; ``lambda_star`` is None when the two
    local minima never trade places inside the grid span.
    """
    lambda_grid = [float(v) for v in lambda_grid]
    if not lambda_grid:
        raise ConfigurationError("lambda grid must be nonempty")
    if any(b <= a for a, b in zip(lambda_grid, lambda_grid[1:])):
        raise ConfigurationError("lambda grid must be strictly increasing")
    profiles = [solve_orthonormal(beta_ols, lam, kappa) for lam in lambda_grid]

    def profile_gap(profile):
        # inner-minus-outer objective values; negative once the near-zero
        # minimum has become global
        if len(profile.minima) >= 2:
            inner = min(profile.minima, key=lambda m: abs(m[0]))
            outer = max(profile.minima, key=lambda m: abs(m[0]))
            return inner[1] - outer[1]
        # single minimum: classify by which basin it occupies
        loc = profile.minima[profile.global_index][0]
        return 1.0 if abs(loc) > abs(beta_ols) / 2.0 else -1.0

    def value_gap(lam):
        return profile_gap(solve_orthonormal(beta_ols, lam, kappa))

    gaps = [profile_gap(profile) for profile in profiles]
    lambda_star = None
    for (lo, glo), (hi_, ghi) in zip(zip(lambda_grid, gaps), zip(lambda_grid[1:], gaps[1:])):
        if glo > 0.0 and ghi <= 0.0:
            lambda_star = brentq(value_gap, lo, hi_, xtol=1e-10)
            break
    return profiles, lambda_star
