import math
import pathlib
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gausspen.cli import run_ortho_scan
from gausspen.config import parse_config
from gausspen.errors import ConfigurationError, DivergenceError
from gausspen.penalties import FAMILIES, PenaltySpec, grad_array, value_array
from gausspen.regression import (
    GRAD_TOL,
    LinearProblem,
    _brentq,
    fit,
    fit_batch,
    lambda_phase_scan,
    orthonormal_objective,
    solve_orthonormal,
)


def random_orthonormal_problem(rng, n=20, p=4, scale=2.0):
    Q, _ = np.linalg.qr(rng.standard_normal((n, p)))
    y = scale * rng.standard_normal(n)
    return LinearProblem(Q, y), Q.T @ y


# --- LinearProblem -----------------------------------------------------------


def test_problem_validation():
    with pytest.raises(ConfigurationError):
        LinearProblem(np.ones((3, 2)), np.ones(5))
    with pytest.raises(ConfigurationError):
        LinearProblem(np.array([[np.inf, 1.0]]), np.ones(1))
    with pytest.raises(ConfigurationError):
        LinearProblem(np.ones((4, 1)), np.ones(4), centered=True)
    X = np.array([[1.0], [-1.0]])
    LinearProblem(X, np.array([0.5, -0.5]), centered=True)  # mean-zero: fine


# --- fit ---------------------------------------------------------------------


def test_unpenalized_matches_normal_equations():
    rng = np.random.default_rng(0)
    for trial in range(5):
        X = rng.standard_normal((40, 3))
        y = X @ rng.standard_normal(3) + 0.3 * rng.standard_normal(40)
        problem = LinearProblem(X, y)
        result = fit(problem, PenaltySpec("none"), 0.0)
        expected = np.linalg.solve(X.T @ X, X.T @ y)
        assert np.abs(result.beta_hat - expected).max() < 1e-6


def objective(problem, spec, lam, beta):
    residual = problem.y - problem.X @ beta
    return residual @ residual / problem.n + lam * value_array(spec, beta).sum()


def test_objective_is_value_at_beta_hat():
    # the solver carries F as a sum of per-step differences, never forming
    # it; recomputed from beta_hat it must agree, smooth and kinked alike,
    # and be no higher than at the start
    for family in FAMILIES:
        spec = PenaltySpec(family)
        for seed in range(16):
            rng = np.random.default_rng([seed, 7])
            n, p = rng.integers(10, 40), rng.integers(1, 5)
            X = rng.standard_normal((n, p))
            problem = LinearProblem(X, X @ rng.uniform(-3.0, 3.0, p) + rng.standard_normal(n))
            lam = rng.uniform(0.0, 1.0)
            start = rng.uniform(-4.0, 4.0, p)
            started = fit(problem, spec, lam, start=start)
            for result in (fit(problem, spec, lam), started):
                want = objective(problem, spec, lam, result.beta_hat)
                assert abs(result.objective - want) <= 1e-12 * max(1.0, abs(want))
                assert result.converged == (result.grad_norm_final <= 1e-8)
            assert started.objective <= objective(problem, spec, lam, start)


def test_negative_lambda_rejected():
    problem = LinearProblem(np.ones((2, 1)), np.ones(2))
    with pytest.raises(ConfigurationError):
        fit(problem, PenaltySpec("none"), -0.1)


def test_fit_orthonormal_matches_one_dim_oracle():
    # per coordinate the n-normalized problem equals the 1-D objective with
    # the penalty weight scaled by n
    rng = np.random.default_rng(2)
    spec = PenaltySpec("gaussian", kappa=10.0)
    problem, beta_ols = random_orthonormal_problem(rng)
    lam = 0.5 / problem.n
    result = fit(problem, spec, lam, start=beta_ols)
    for j in range(problem.p):
        profile = solve_orthonormal(beta_ols[j], problem.n * lam, 10.0)
        closest = min(abs(m[0] - result.beta_hat[j]) for m in profile.minima)
        assert closest < 1e-6


def test_fit_vanishing_penalty_keeps_large_ols():
    # beta_ols = 3 per coordinate: the penalty gradient ~ exp(-90) vanishes
    rng = np.random.default_rng(3)
    n, p = 16, 3
    Q, _ = np.linalg.qr(rng.standard_normal((n, p)))
    beta_ols = np.full(p, 3.0)
    y = Q @ beta_ols  # exact representation: X'y = beta_ols
    problem = LinearProblem(Q, y)
    result = fit(problem, PenaltySpec("gaussian", kappa=10.0), 0.1 / n, start=beta_ols)
    assert np.abs(result.beta_hat - 3.0).max() < 1e-4


def test_multistart_picks_lower_objective():
    # a problem whose origin basin wins: large penalty, modest signal
    rng = np.random.default_rng(4)
    n, p = 16, 2
    Q, _ = np.linalg.qr(rng.standard_normal((n, p)))
    beta_ols = np.full(p, 1.2)
    y = Q @ beta_ols
    problem = LinearProblem(Q, y)
    spec = PenaltySpec("gaussian", kappa=10.0)
    lam_1d = 4.0
    default = fit(problem, spec, lam_1d / n)
    from_ols = fit(problem, spec, lam_1d / n, start=beta_ols)
    assert default.objective <= from_ols.objective + 1e-12


def sufficient_statistics(problems):
    gram = np.stack([pr.X.T @ pr.X for pr in problems])
    xty = np.stack([pr.X.T @ pr.y for pr in problems])
    yty = np.array([pr.y @ pr.y for pr in problems])
    return gram, xty, yty


def random_problems(rng, count, n, p):
    problems = []
    for _ in range(count):
        X = rng.standard_normal((n, p))
        y = X @ rng.uniform(-3.0, 3.0, size=p) + rng.standard_normal(n)
        problems.append(LinearProblem(X, y))
    return problems


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(1, 4),
    p=st.integers(1, 4),
    extra_rows=st.integers(1, 8),
    family=st.sampled_from(["none", "ridge", "gaussian", "lasso", "scad", "bridge"]),
    kappa=st.floats(0.5, 20.0),
    lam=st.floats(0.0, 2.0),
    start_kinds=st.lists(st.sampled_from(["zero", "ols", "random", "both"]),
                         min_size=4, max_size=4),
)
def test_batch_rows_match_scalar_fit(seed, count, p, extra_rows, family, kappa, lam,
                                     start_kinds):
    # row r of one batched solve is fit() on problem r, whatever else the
    # batch holds; "both" is fit()'s default origin-then-OLS pair
    rng = np.random.default_rng(seed)
    spec = PenaltySpec(family, kappa=kappa)
    problems = random_problems(rng, count, p + extra_rows, p)
    kinds = start_kinds[:count]
    k = 2 if "both" in kinds else 1
    starts, scalar_fits = np.zeros((count, k, p)), []
    for i, (problem, kind) in enumerate(zip(problems, kinds)):
        ols = np.linalg.lstsq(problem.X, problem.y, rcond=None)[0]
        start = {"zero": np.zeros(p), "ols": ols, "random": rng.uniform(-4.0, 4.0, p)}.get(kind)
        if kind == "both":
            starts[i] = [np.zeros(p), ols]
            scalar_fits.append(fit(problem, spec, lam))
        else:
            starts[i] = start  # a duplicated start ties, and ties go to the first
            scalar_fits.append(fit(problem, spec, lam, start=start))
    batch = fit_batch(*sufficient_statistics(problems), p + extra_rows, spec, lam, starts)
    assert not batch.failed.any()
    for i, scalar in enumerate(scalar_fits):
        assert np.abs(batch.beta_hat[i] - scalar.beta_hat).max() <= 1e-12
        assert abs(batch.objective[i] - scalar.objective) <= 1e-12
        assert batch.converged[i] == scalar.converged
        assert batch.iterations[i] == scalar.iterations


def test_kinked_penalty_descent_stops():
    # a descent toward a kink at 0 lands on it and stops, converged, instead
    # of creeping toward it in round-off-sized decreases to max_iter
    rng = np.random.default_rng(0)
    X = rng.standard_normal((50, 5))
    y = X @ np.array([2.0, 0.0, 0.0, 0.1, -1.0]) + rng.standard_normal(50)
    for family in ("lasso", "scad", "laplace"):
        spec, problem = PenaltySpec(family, epsilon=0.5), LinearProblem(X, y)
        result = fit(problem, spec, 0.1, start=np.zeros(5))
        assert result.converged
        assert result.iterations < 1000
        assert result.objective <= objective(problem, spec, 0.1, np.zeros(5))


KINKED_SPECS = [PenaltySpec("lasso"), PenaltySpec("bridge", q=0.5), PenaltySpec("bridge", q=1.0),
                PenaltySpec("elastic_net", mix=0.5), PenaltySpec("scad"), PenaltySpec("mcp"),
                PenaltySpec("laplace"), PenaltySpec("laplace", epsilon=0.5),
                PenaltySpec("arctan")]


def sparse_problem(rng, n, p):
    # half the true coefficients (rounded down) are 0
    beta = rng.uniform(-3.0, 3.0, p)
    beta[rng.permutation(p)[:p // 2]] = 0.0
    X = rng.standard_normal((n, p))
    return LinearProblem(X, X @ beta + rng.standard_normal(n))


@pytest.mark.parametrize("spec", KINKED_SPECS, ids=PenaltySpec.label)
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(10, 59), p=st.integers(1, 5),
       lam=st.floats(0.0, 2.0, exclude_max=True))
def test_kinked_fit_meets_kkt(spec, seed, n, p, lam):
    # a converged fit is first-order stationary: at a zero the loss slope
    # s = 2X'(Xb - y)/n is within the kink lam * P'(0+), elsewhere the
    # gradient is within GRAD_TOL (plus the round-off of recomputing it)
    problem = sparse_problem(np.random.default_rng(seed), n, p)
    result = fit(problem, spec, lam)
    assert result.converged
    b = result.beta_hat
    s = (2.0 / n) * (problem.X.T @ (problem.X @ b - problem.y))
    zero = b == 0.0
    kink = lam * spec.slope_at_zero() if lam > 0.0 else 0.0
    assert (np.abs(s[zero]) <= kink + 1e-9).all()
    g = s + lam * grad_array(spec, b)
    assert (np.abs(g[~zero]) <= GRAD_TOL + 1e-12).all()


def _scan_argmin(z, lam, spec):
    # the minimizer of b^2 - 2zb + lam P(b), by a coarse scan of
    # [-|z| - 1, |z| + 1] refined around its best point
    def best(grid):
        return grid[np.argmin(grid * grid - 2.0 * z * grid + lam * value_array(spec, grid))]
    coarse = best(np.linspace(-abs(z) - 1.0, abs(z) + 1.0, 40_001))
    return best(np.linspace(coarse - 1e-3, coarse + 1e-3, 200_001))


def test_orthonormal_kinked_fits_match_thresholding():
    # X'X = nI separates F into b_j^2 - 2 z_j b_j + lam P(b_j) with z = X'y/n:
    # soft thresholding at lam/2 for lasso; for SCAD (a = 3.7) and MCP (b = 3)
    # with lam < 1 each coordinate objective is convex, and a scan finds it
    for seed in range(12):
        rng = np.random.default_rng([seed, 11])
        n, p = int(rng.integers(10, 40)), int(rng.integers(1, 6))
        Q, _ = np.linalg.qr(rng.standard_normal((n, p)))
        X = math.sqrt(n) * Q
        beta = rng.uniform(-1.5, 1.5, p) * (rng.random(p) < 0.5)
        problem = LinearProblem(X, X @ beta + 0.3 * rng.standard_normal(n))
        z = X.T @ problem.y / n
        lam = rng.uniform(0.0, 1.0)
        soft = np.sign(z) * np.maximum(np.abs(z) - lam / 2.0, 0.0)
        lasso = fit(problem, PenaltySpec("lasso"), lam)
        assert lasso.converged
        assert np.abs(lasso.beta_hat - soft).max() <= 1e-12
        assert np.array_equal(lasso.beta_hat == 0.0, soft == 0.0)
        for spec in (PenaltySpec("scad", a=3.7), PenaltySpec("mcp", b=3.0)):
            result = fit(problem, spec, lam)
            assert result.converged
            # the same threshold: P'(0+) = 1 for both
            assert np.array_equal(result.beta_hat == 0.0, soft == 0.0)
            for j in range(p):
                assert abs(result.beta_hat[j] - _scan_argmin(z[j], lam, spec)) <= 2e-8


def test_tiny_problems_converge_for_every_family():
    # tiny problems, n < p among them, on which kinked descents used to run
    # to MAX_ITER and take seconds to minutes per fit
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n, p = int(rng.integers(3, 30)), int(rng.integers(1, 6))
        X = rng.standard_normal((n, p))
        problem = LinearProblem(X, X @ rng.uniform(-3.0, 3.0, p) + rng.standard_normal(n))
        lam = rng.uniform(0.0, 2.0)
        for family in FAMILIES:
            result = fit(problem, PenaltySpec(family), lam)
            assert result.converged and result.iterations < 1000, (seed, family)


def test_batch_isolates_non_finite_start():
    rng = np.random.default_rng(8)
    problems = random_problems(rng, 3, 10, 2)
    spec = PenaltySpec("gaussian", kappa=5.0)
    stats = sufficient_statistics(problems)
    starts = rng.uniform(-2.0, 2.0, size=(3, 1, 2))
    clean = fit_batch(*stats, 10, spec, 0.1, starts)
    for bad_start in ([1e200, 1e200], [np.nan, 0.0], [np.inf, 1.0]):
        spoiled = starts.copy()
        spoiled[1, 0] = bad_start
        batch = fit_batch(*stats, 10, spec, 0.1, spoiled)
        assert list(batch.failed) == [False, True, False]
        for i in (0, 2):
            assert np.array_equal(batch.beta_hat[i], clean.beta_hat[i])
            assert batch.objective[i] == clean.objective[i]
            assert batch.iterations[i] == clean.iterations[i]
        with pytest.raises(DivergenceError):
            fit(problems[1], spec, 0.1, start=bad_start)


# --- orthonormal objective and minima profiles --------------------------------


def test_orthonormal_objective_examples():
    assert orthonormal_objective(3.0, 0.0, 7.0, 10.0) == 0.0
    assert orthonormal_objective(3.0, 3.0, 0.0, 10.0) == -9.0
    value = orthonormal_objective(3.0, 3.0, 15.1, 10.0)
    assert value == pytest.approx(-9.0 + 15.1 * (1.0 - math.exp(-90.0)))
    assert value == pytest.approx(6.1)


def test_single_minimum_low_lambda():
    profile = solve_orthonormal(3.0, 0.1, 10.0)
    assert len(profile.minima) == 1
    location, _, curvature = profile.minima[0]
    assert abs(location - 3.0) < 1e-6
    assert curvature > 0


def test_two_minima_high_lambda():
    profile = solve_orthonormal(3.0, 15.1, 10.0)
    assert len(profile.minima) == 2
    inner, outer = sorted(profile.minima, key=lambda m: abs(m[0]))
    assert abs(inner[0]) < 0.05
    assert abs(inner[0] - 3.0 / (1.0 + 10.0 * 15.1)) < 5e-3  # first-order location
    assert abs(outer[0] - 3.0) < 1e-3
    assert profile.minima[profile.global_index] == inner


def test_zero_beta_ols_single_minimum_at_zero():
    for lam in (0.0, 1.0, 50.0):
        profile = solve_orthonormal(0.0, lam, 10.0)
        assert len(profile.minima) == 1
        assert abs(profile.minima[0][0]) < 1e-10


def test_stationarity_certificate():
    rng = np.random.default_rng(5)
    for _ in range(50):
        beta_ols = rng.uniform(-4.0, 4.0)
        lam = rng.uniform(0.0, 20.0)
        kappa = rng.uniform(0.5, 20.0)
        profile = solve_orthonormal(beta_ols, lam, kappa)
        for location, _, curvature in profile.minima:
            fprime = (
                -2.0 * beta_ols
                + 2.0 * location
                + 2.0 * lam * kappa * location * math.exp(-kappa * location * location)
            )
            assert abs(fprime) <= 1e-8
            assert curvature > 0


def test_close_roots_near_bifurcation():
    # at b0 = 3, kappa = 10 the inner minimum and its neighbouring maximum
    # are born together at lam_birth; just past it they lie closer together
    # than a 20001-point grid over [-4, 4] can separate
    lam_birth = 2.0437468982690925
    assert len(solve_orthonormal(3.0, lam_birth * (1.0 - 1e-8), 10.0).minima) == 1
    profile = solve_orthonormal(3.0, lam_birth * (1.0 + 1e-8), 10.0)
    assert len(profile.minima) == 2
    assert abs(profile.minima[0][0] - 0.2328) < 1e-3
    # the locations scipy's brentq gave, to the bit
    assert [m[0] for m in profile.minima] == [
        float.fromhex("0x1.dcc6b3ce77229p-3"), float.fromhex("0x1.8000000000000p+1")]


def _ortho_fprime(beta_ols, lam, kappa, b):
    return -2.0 * beta_ols + 2.0 * b + 2.0 * lam * kappa * b * np.exp(-kappa * b * b)


@given(st.floats(-5.0, 5.0), st.floats(0.1, 100.0), st.floats(0.0, 50.0))
def test_solve_orthonormal_finds_every_minimum(beta_ols, kappa, lam):
    profile = solve_orthonormal(beta_ols, lam, kappa)
    values = [value for _, value, _ in profile.minima]
    for location, value, curvature in profile.minima:
        assert abs(_ortho_fprime(beta_ols, lam, kappa, location)) <= 1e-9
        assert curvature > 0.0
        assert value == orthonormal_objective(beta_ols, location, lam, kappa)
    assert values[profile.global_index] == min(values)
    # every - to + sign change of f' on a dense grid encloses a minimum
    hi = abs(beta_ols) + 1.0
    signs = np.sign(_ortho_fprime(beta_ols, lam, kappa, np.linspace(-hi, hi, 20001)))
    signs = signs[signs != 0.0]
    assert len(profile.minima) >= np.count_nonzero((signs[:-1] < 0.0) & (signs[1:] > 0.0))


@settings(max_examples=500, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False),
       st.floats(min_value=0.0, allow_infinity=False),
       st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
def test_solve_orthonormal_any_finite_input(beta_ols, lam, kappa):
    # a finite input is either out of range, a config error, or profiled with
    # finite minima, each within the root tolerance of a - to + sign change of f'
    try:
        profile = solve_orthonormal(beta_ols, lam, kappa)
    except ConfigurationError:
        hi = abs(beta_ols) + 1.0
        assert not (math.isfinite(2.0 * hi * hi) and math.isfinite(4.0 * lam * kappa * hi))
        return
    values = [value for _, value, _ in profile.minima]
    for location, value, curvature in profile.minima:
        assert all(math.isfinite(v) for v in (location, value, curvature))
        assert curvature > 0.0
        assert value == orthonormal_objective(beta_ols, location, lam, kappa)
        d = 2.0 * (min(1e-14, 1e-6 / math.sqrt(kappa)) + 8.9e-16 * abs(location))
        with np.errstate(over="ignore", invalid="ignore"):
            below, above = _ortho_fprime(beta_ols, lam, kappa, np.array([location - d, location + d]))
        assert below <= 0.0 <= above
    assert values[profile.global_index] == min(values)


def test_solve_orthonormal_overflow_is_config_error():
    # values near -beta_ols^2 = -1e400; lam * kappa = 1e310
    for beta_ols, lam, kappa in ((1e200, 1.0, 10.0), (3.0, 1e300, 1e10)):
        with pytest.raises(ConfigurationError, match="out of range"):
            solve_orthonormal(beta_ols, lam, kappa)
    for bad in (math.nan, math.inf):
        with pytest.raises(ConfigurationError, match="out of range"):
            solve_orthonormal(3.0, 1.0, bad)
        with pytest.raises(ConfigurationError, match="out of range"):
            solve_orthonormal(bad, 1.0, 10.0)


def test_phase_scan_bifurcation_and_crossing():
    grid = np.arange(0.1, 15.2, 1.0)
    profiles, lambda_star = lambda_phase_scan(3.0, 10.0, grid)
    assert len(profiles) == 16
    counts = [len(p.minima) for p in profiles]
    # one bifurcation only: counts step from 1 to 2 exactly once
    assert counts[0] == 1 and counts[-1] == 2
    assert sum(1 for a, b in zip(counts, counts[1:]) if a != b) == 1
    assert all(a <= b for a, b in zip(counts, counts[1:]))
    # global argmin: near 3 for weak penalties, near 0 for strong ones
    assert abs(profiles[0].minima[profiles[0].global_index][0] - 3.0) < 1e-4
    assert abs(profiles[-1].minima[profiles[-1].global_index][0]) < 0.05
    assert 8.5 <= lambda_star <= 9.3


def test_lambda_star_of_shipped_config_is_pinned():
    # the crossing scipy's brentq gave on configs/ortho_scan.cfg, to the bit
    path = pathlib.Path(__file__).parents[1] / "configs" / "ortho_scan.cfg"
    _, _, rows = run_ortho_scan(parse_config(str(path)), 1)
    assert rows[-1][:2] == ("lambda_star", float.fromhex("0x1.1cc8299c2761ap+3"))


def _bits(profile):
    return (profile.lam.hex(), [tuple(v.hex() for v in m) for m in profile.minima],
            profile.global_index)


@settings(max_examples=100, deadline=None)
@given(st.floats(-5.0, 5.0), st.floats(0.1, 100.0), st.lists(st.floats(0.01, 0.999), max_size=5),
       st.lists(st.floats(1.001, 30.0), min_size=1, max_size=5))
def test_phase_scan_profiles_match_single_solves(beta_ols, kappa, below, above):
    # the grid holds 0 and lambdas on both sides of 2 lam kappa e^{-3/2} = 1,
    # above which each lambda has two knots and up to five pieces
    lam_knots = math.exp(1.5) / (2.0 * kappa)
    grid = sorted({0.0, *(m * lam_knots for m in below + above)})
    profiles, _ = lambda_phase_scan(beta_ols, kappa, grid)
    assert [_bits(p) for p in profiles] == [
        _bits(solve_orthonormal(beta_ols, lam, kappa)) for lam in grid]


def test_phase_scan_no_crossing():
    profiles, lambda_star = lambda_phase_scan(3.0, 10.0, [0.1, 0.4, 0.7])
    assert lambda_star is None
    assert all(len(p.minima) == 1 for p in profiles)


def test_phase_scan_grid_validation():
    with pytest.raises(ConfigurationError):
        lambda_phase_scan(3.0, 10.0, [])
    with pytest.raises(ConfigurationError):
        lambda_phase_scan(3.0, 10.0, [1.0, 1.0])


def test_oracle_equivalence_random_triples():
    # per-coordinate fit() solutions against dense-grid minima, 100 triples
    rng = np.random.default_rng(6)
    spec_cache = {}
    for _ in range(100):
        beta_ols = rng.uniform(-3.5, 3.5)
        lam_1d = rng.uniform(0.0, 12.0)
        kappa = rng.uniform(1.0, 15.0)
        n = 8
        # X = I: the simplest orthonormal design, y = beta_ols on one coord
        X = np.eye(n)
        y = np.zeros(n)
        y[0] = beta_ols
        problem = LinearProblem(X, y)
        spec = spec_cache.setdefault(kappa, PenaltySpec("gaussian", kappa=kappa))
        result = fit(problem, spec, lam_1d / n, start=np.full(n, beta_ols))
        assert result.converged
        profile = solve_orthonormal(beta_ols, lam_1d, kappa)
        closest = min(abs(m[0] - result.beta_hat[0]) for m in profile.minima)
        assert closest < 1e-6


# --- the bracketing root finder ----------------------------------------------------

_ROOT_FUNCTIONS = {
    # monotone
    "tanh": lambda x, r, s: math.tanh(s * (x - r)),
    "cubic": lambda x, r, s: s * (x - r) ** 3,
    "expm1": lambda x, r, s: math.expm1(min(s * (x - r), 700.0)),
    # not monotone
    "sine": lambda x, r, s: math.sin(s * x + r),
    "wiggle": lambda x, r, s: (x - r) * ((x + r) ** 2 - s),
}


def _batch(g):
    """A ``_brentq`` function of x alone, for every bracket of a batch."""
    return lambda x, i: np.array([g(v) for v in x.tolist()])


_BRACKETS = st.tuples(st.sampled_from(sorted(_ROOT_FUNCTIONS)), st.floats(-10.0, 10.0),
                      st.floats(0.01, 50.0), st.floats(-1e3, 1e3), st.floats(-1e3, 1e3))
_XTOLS = st.sampled_from([2e-12, 1e-14, 1e-6, 0.1])
_RTOLS = st.sampled_from([4 * sys.float_info.epsilon, 8.9e-16, 1e-8])


def _brackets_a_root(name, r, s, a, b):
    fa, fb = _ROOT_FUNCTIONS[name](a, r, s), _ROOT_FUNCTIONS[name](b, r, s)
    return fa == 0.0 or fb == 0.0 or (fa < 0.0) != (fb < 0.0)


@settings(max_examples=300, deadline=None)
@given(_BRACKETS, _XTOLS, _RTOLS)
def test_brentq_returns_a_bracketed_sign_change(bracket, xtol, rtol):
    name, r, s, a, b = bracket
    seen = {}

    def f(x):
        seen[x] = _ROOT_FUNCTIONS[name](x, r, s)
        return seen[x]

    assume(_brackets_a_root(*bracket))
    # Brent's method may need more than the default 100 steps (a triple root
    # converges slowly); its worst case over these brackets is a few thousand
    x = float(_brentq(_batch(f), np.array([a]), np.array([b]), xtol=xtol, rtol=rtol,
                      maxiter=10_000)[0])
    assert min(a, b) <= x <= max(a, b)
    # f(x) = 0, or an evaluated point within xtol + rtol|x| has the other sign
    assert seen[x] == 0.0 or any(
        abs(y - x) <= xtol + rtol * abs(x) and fy != 0.0 and (fy < 0.0) != (seen[x] < 0.0)
        for y, fy in seen.items())


@settings(max_examples=200, deadline=None)
@given(st.lists(_BRACKETS, min_size=1, max_size=8), _XTOLS, _RTOLS)
def test_brentq_batch_matches_each_bracket_alone(brackets, xtol, rtol):
    brackets = [bracket for bracket in brackets if _brackets_a_root(*bracket)]
    assume(brackets)

    def f(x, i):
        return np.array([_ROOT_FUNCTIONS[brackets[k][0]](v, *brackets[k][1:3])
                         for v, k in zip(x.tolist(), i.tolist())])

    ends = np.array([bracket[3:] for bracket in brackets])
    batch = _brentq(f, ends[:, 0], ends[:, 1], xtol=xtol, rtol=rtol, maxiter=10_000)
    for k in range(len(brackets)):
        alone = _brentq(lambda x, i: f(x, i + k), ends[k:k + 1, 0], ends[k:k + 1, 1],
                        xtol=xtol, rtol=rtol, maxiter=10_000)
        assert float(batch[k]).hex() == float(alone[0]).hex()


def test_brentq_error_contract():
    with pytest.raises(ValueError, match="different signs"):
        _brentq(_batch(lambda x: x * x + 1.0), np.array([-1.0]), np.array([1.0]))
    with pytest.raises(ValueError, match="NaN"):
        _brentq(_batch(lambda x: math.nan), np.array([0.0]), np.array([1.0]))
    with pytest.raises(ValueError, match="NaN"):
        _brentq(_batch(lambda x: math.nan if 0.0 < x < 10.0 else x - 5.0),
                np.array([0.0]), np.array([10.0]))
    with pytest.raises(RuntimeError, match="no convergence after 1 iterations"):
        _brentq(_batch(lambda x: x ** 3 - 2.0), np.array([0.0]), np.array([10.0]), maxiter=1)
    # a zero at an end is the root
    assert _brentq(_batch(lambda x: x), np.array([0.0]), np.array([1.0]))[0] == 0.0
    # one bad bracket fails the batch; the others keep their own roots
    with pytest.raises(ValueError, match="different signs"):
        _brentq(_batch(lambda x: x * x - 1.0), np.array([0.0, 2.0]), np.array([2.0, 3.0]))
    roots = _brentq(_batch(lambda x: x * x - 1.0), np.array([1.0, 0.0, -3.0]),
                    np.array([3.0, 3.0, 0.0]))
    assert roots[0] == 1.0 and abs(roots[1] - 1.0) < 1e-11 and abs(roots[2] + 1.0) < 1e-11
