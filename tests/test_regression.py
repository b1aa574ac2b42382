import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import traced_peak
from gausspen import regression
from gausspen.cli import run_ortho_scan
from gausspen.config import parse_config
from gausspen.errors import ConfigurationError, DivergenceError
from gausspen.penalties import FAMILIES, PenaltySpec, grad_array, penalty_bounds, value_array
from gausspen.regression import (
    GRAD_TOL,
    MAX_ITER,
    LinearProblem,
    _brentq,
    _brentq_scalar,
    _profiles,
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
        LinearProblem(np.ones((2, 1)), np.array([0.5, np.nan]))


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
    # batch holds; "both" is the origin-then-OLS pair, fit()'s default for a
    # nonconvex penalty at lam > 0, where a convex fit starts at OLS alone
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
            if lam > 0 and penalty_bounds(spec).convexity_radius < math.inf:
                scalar_fits.append(fit(problem, spec, lam))
            else:  # the lower objective of the two, ties to the origin
                assert (fit(problem, spec, lam).beta_hat.tobytes()
                        == fit(problem, spec, lam, start=ols).beta_hat.tobytes())
                scalar_fits.append(min((fit(problem, spec, lam, start=s) for s in starts[i]),
                                       key=lambda result: result.objective))
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


# (rows past p, lam) per problem of a batch; n > p, as with n <= p and lam
# near 0 some kinked descents take 10^4 to 10^5 steps
BATCH_ROWS = st.lists(st.tuples(st.integers(1, 40),
                                st.sampled_from([0.0, 0.0, 0.3]) | st.floats(0.0, 2.0)),
                      min_size=1, max_size=5)


def batch_problems(seed, p, rows, two_starts, scale=1.0):
    """The problems of ``rows``, their responses times ``scale``, with their
    ``n`` and ``lam`` and the zero and least-squares starts, or the latter alone."""
    rng = np.random.default_rng(seed)
    ns, lams = [p + extra for extra, _ in rows], [lam for _, lam in rows]
    problems = [LinearProblem(pr.X, scale * pr.y)
                for n in ns for pr in random_problems(rng, 1, n, p)]
    starts = np.stack([[np.zeros(p), np.linalg.lstsq(pr.X, pr.y, rcond=None)[0]]
                       for pr in problems])[:, (0 if two_starts else 1):]
    return problems, ns, lams, starts


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 10), rows=BATCH_ROWS,
       two_starts=st.booleans())
def test_batch_with_per_problem_n_and_lam_matches_each_alone(family, seed, p, rows, two_starts):
    # problems of differing n and lam in one batch, lam = 0 rows of kinked
    # families among them, are bit for bit each problem's batch of one
    spec = PenaltySpec(family)
    problems, ns, lams, starts = batch_problems(seed, p, rows, two_starts)
    rows = list(zip(ns, lams))
    stats = sufficient_statistics(problems)
    batch = fit_batch(*stats, ns, spec, lams, starts)
    for i, (n, lam) in enumerate(rows):
        alone = fit_batch(*(s[i:i + 1] for s in stats), n, spec, lam, starts[i:i + 1])
        assert batch.beta_hat[i].tobytes() == alone.beta_hat[0].tobytes()
        assert batch.objective[i].tobytes() == alone.objective[0].tobytes()
        assert batch.iterations[i] == alone.iterations[0]
        assert batch.converged[i] == alone.converged[0]


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 10), rows=BATCH_ROWS,
       two_starts=st.booleans(), exponent=st.integers(0, 120))
def test_every_descent_stops_and_reports_convergence_only_within_grad_tol(family, seed, p, rows,
                                                                          two_starts, exponent):
    # responses up to 1e120: from about 1e8 on the round-off of the gradient,
    # bounded by (2/n) 16 eps (||X'X||_F ||b|| + ||X'y||), is above GRAD_TOL,
    # where a descent that stopped only within GRAD_TOL could run for many
    # minutes.  A converged row is within GRAD_TOL, no row takes more than
    # MAX_ITER steps, a row stopped at that round-off floor reports that it
    # did not converge, and from 1e20 on every row stops at the floor if not
    # within GRAD_TOL
    problems, ns, lams, starts = batch_problems(seed, p, rows, two_starts, 10.0 ** exponent)
    gram, xty, yty = sufficient_statistics(problems)
    batch = fit_batch(gram, xty, yty, ns, PenaltySpec(family), lams, starts)
    assert not batch.failed.any()
    gnorm = batch.grad_norm_final
    assert (gnorm[batch.converged] <= GRAD_TOL).all()
    assert (batch.iterations <= MAX_ITER).all()
    floor = 32.0 * np.finfo(float).eps / np.array(ns) * (
        np.linalg.norm(gram, axis=(1, 2)) * np.linalg.norm(batch.beta_hat, axis=1)
        + np.linalg.norm(xty, axis=1))
    at_floor = (gnorm <= floor) & (gnorm > GRAD_TOL)
    assert not batch.converged[at_floor].any()
    # one stop reason per row, "converged" exactly where converged is
    assert np.array_equal(batch.stop_reason == "converged", batch.converged)
    assert at_floor[batch.stop_reason == "round-off floor"].all()
    if exponent >= 20:
        assert (at_floor | batch.converged).all()


# (rows up to p, lam) per problem of a batch: n <= p, where X'X is singular
NLEP_ROWS = st.lists(st.tuples(st.integers(0, 9),
                               st.sampled_from([0.0, 1e-6, 0.3]) | st.floats(0.0, 2.0)),
                     min_size=1, max_size=4)


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 9), rows=NLEP_ROWS,
       two_starts=st.booleans())
def test_batch_of_rank_deficient_problems_stops_and_matches_each_alone(family, seed, p, rows,
                                                                       two_starts):
    # n <= p: none, ridge and the Gaussian at any lam, and every other family
    # at lam = 0, all rows that try Newton points on a singular X'X.  Every
    # row stops, with one stop reason, nothing raises, a converged row is
    # within GRAD_TOL, and each problem is bit for bit its batch of one
    smooth = family in ("none", "ridge", "gaussian")
    ns = [1 + extra % p for extra, _ in rows]
    lams = [lam if smooth else 0.0 for _, lam in rows]
    rng = np.random.default_rng(seed)
    problems = [random_problems(rng, 1, n, p)[0] for n in ns]
    starts = np.stack([[np.zeros(p), np.linalg.lstsq(pr.X, pr.y, rcond=None)[0]]
                       for pr in problems])[:, (0 if two_starts else 1):]
    stats = sufficient_statistics(problems)
    spec = PenaltySpec(family)
    batch = fit_batch(*stats, ns, spec, lams, starts)
    assert not batch.failed.any()
    assert set(batch.stop_reason) <= set(regression.STOP_REASONS) - {"unusable start"}
    assert (batch.grad_norm_final[batch.converged] <= GRAD_TOL).all()
    assert list(batch.converged) == [reason == "converged" for reason in batch.stop_reason]
    for i, (n, lam) in enumerate(zip(ns, lams)):
        alone = fit_batch(*(s[i:i + 1] for s in stats), n, spec, lam, starts[i:i + 1])
        for field in ("beta_hat", "objective", "grad_norm_final", "iterations", "stop_reason"):
            assert getattr(batch, field)[i].tobytes() == getattr(alone, field)[0].tobytes()


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


# a start value spoiled by one of these, or left as it is (None)
SPOILERS = st.sampled_from([None] * 3 + [np.nan, np.inf, -np.inf, 1e200])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 4),
       family=st.sampled_from(["ridge", "gaussian", "lasso", "scad", "bridge", "laplace"]),
       rows=st.lists(st.tuples(st.integers(1, 30), st.sampled_from([0.0, 0.3]) | st.floats(0.0, 2.0),
                               st.tuples(SPOILERS, SPOILERS)), min_size=1, max_size=4),
       two_starts=st.booleans(), whole=st.booleans())
def test_batch_retires_spoiled_starts_and_keeps_every_other_row(seed, p, family, rows, two_starts,
                                                                 whole):
    # a start that is not finite (NaN, +-inf) or whose objective overflows
    # (1e200) stops its row at once and fails its problem; every problem
    # with usable starts only is bit for bit its own batch of one
    rng = np.random.default_rng(seed)
    spec = PenaltySpec(family)
    ns, lams = [p + extra for extra, _, _ in rows], [lam for _, lam, _ in rows]
    problems = [random_problems(rng, 1, n, p)[0] for n in ns]
    starts = np.stack([[np.zeros(p), np.linalg.lstsq(pr.X, pr.y, rcond=None)[0]]
                       for pr in problems])[:, (0 if two_starts else 1):]
    spoiled = []
    for i, (_, _, bad) in enumerate(rows):
        bad = bad[-starts.shape[1]:]
        for j, value in enumerate(bad):
            if value is not None:  # the whole start, or its first coordinate
                starts[i, j, slice(None) if whole else 0] = value
        spoiled.append(any(value is not None for value in bad))
    stats = sufficient_statistics(problems)
    batch = fit_batch(*stats, ns, spec, lams, starts)
    assert list(batch.failed) == spoiled
    for i, (n, lam) in enumerate(zip(ns, lams)):
        if spoiled[i]:
            assert np.isnan(batch.beta_hat[i]).all()
            assert np.isnan(batch.objective[i]) and np.isnan(batch.grad_norm_final[i])
            assert batch.iterations[i] == 0 and not batch.converged[i]
            continue
        alone = fit_batch(*(s[i:i + 1] for s in stats), n, spec, lam, starts[i:i + 1])
        for field in ("beta_hat", "objective", "grad_norm_final", "iterations", "converged"):
            assert getattr(batch, field)[i].tobytes() == getattr(alone, field)[0].tobytes()


@pytest.mark.parametrize("family", ["ridge", "lasso"])
def test_descent_reads_its_live_rows_gram_each_pass(family):
    # 2,000 problems of p = 10 with two starts: the callers' X'X stack is
    # 1.6 MB.  The descent keeps no X'X of its own: each pass reads the live
    # rows' X'X from that stack into one product stack, freed with the pass.
    # So fit_batch's own peak (the callers' stacks are made before tracing)
    # stays below one X'X per row plus 20 p-vectors per row, the pass's
    # per-row vectors.  A private gathered stack, compacted as rows retire,
    # would add one more X'X per row and its smaller copy at each retirement.
    m, n, p = 2000, 40, 10
    rng = np.random.default_rng(0)
    X = rng.standard_normal((m, n, p))
    y = X @ rng.uniform(-3.0, 3.0, p) + rng.standard_normal((m, n))
    gram, xty, yty = X.transpose(0, 2, 1) @ X, np.einsum("mnp,mn->mp", X, y), (y * y).sum(axis=1)
    ols = np.linalg.solve(gram, xty[:, :, None])[:, :, 0]
    starts = np.stack([np.zeros_like(ols), ols], axis=1)
    rows = 2 * m
    peak = traced_peak(fit_batch, gram, xty, yty, n, PenaltySpec(family), 0.1, starts)
    assert peak < rows * p * p * 8 + 20 * rows * p * 8


@pytest.mark.parametrize("family, rows, response, lam, start, iterations", [
    # the BB ratio is inf/inf, a NaN trial step: MCP is flat out there, so its
    # first step, to the mirror image of the start about the response, is
    # accepted on the Wolfe test with a change in F of 0, and s's = s'y = inf
    ("mcp", [[1.0]], [1.3e154], 0.1, 6e153, 1),
    ("gaussian", [[1.0], [2.0]], [1.0, 2.0], 1e308, 0.2, 0),  # an inf gradient: it stops at pass 0
], ids=["nan-step", "zero-step"])
def test_descent_stops_when_its_trial_step_is_not_positive(tmp_path, family, rows, response, lam,
                                                           start, iterations):
    # such a row backtracked forever; in a child process a hang fails the test
    code = ("from gausspen.penalties import PenaltySpec\n"
            "from gausspen.regression import LinearProblem, fit\n"
            f"problem = LinearProblem({rows!r}, {response!r})\n"
            f"r = fit(problem, PenaltySpec({family!r}), {lam!r}, start=[{start!r}])\n"
            "print(r.converged, r.iterations, r.grad_norm_final)")
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).parents[1] / "src"))
    result = subprocess.run([sys.executable, "-W", "error", "-c", code], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False", str(iterations), "inf"]


def test_descent_with_a_non_finite_gradient_stops_at_pass_0(monkeypatch):
    # the bridge slope of q = 0.01 overflows at b = 5e-324: no trial point
    # b - t g is finite, so the row can never move; it stops before its first
    # pass evaluates one, with its start's outputs, not after some 1,075
    # backtracking passes that end only when its step underflows to 0
    rng = np.random.default_rng(0)
    X = rng.standard_normal((6, 2))
    problem = LinearProblem(X, X @ [1.0, -2.0] + rng.standard_normal(6))
    spec, start = PenaltySpec("bridge", q=0.01), [5e-324, 1.0]
    evaluations = []

    def counted(spec, beta):
        evaluations.append(beta.shape)
        return value_array(spec, beta)

    monkeypatch.setattr(regression, "value_array", counted)
    result = fit(problem, spec, 0.5, start=start)
    assert evaluations == [(1, 2)]  # the start's objective, and no trial point's
    assert result.beta_hat.tolist() == start
    residual = problem.y - X @ start
    objective = residual @ residual / 6 + 0.5 * value_array(spec, start).sum()
    assert result.objective == pytest.approx(objective, rel=1e-12)
    assert result.grad_norm_final == math.inf
    assert result.iterations == 0 and not result.converged


def test_gaussian_start_far_out_converges_in_one_newton_step():
    # the start 1e154 of the nan-step case above: P'' is 0 out there, so the
    # Newton point is the least-squares solution 0, reached in one step
    result = fit(LinearProblem([[1.0]], [0.0]), PenaltySpec("gaussian", kappa=10.0), 0.1,
                 start=[1e154])
    assert (result.converged, result.iterations, result.beta_hat.tolist()) == (True, 1, [0.0])


@pytest.mark.parametrize("spec, x, y, start, lam, step", [
    # a Newton row: X'X = 1e-312 is positive definite, and d = 1e308 is finite,
    # but the Newton point, the least-squares solution 2e308, is not
    (PenaltySpec("gaussian", kappa=10.0), 1e-156, 2e152, 1e308, 0.1, 1.0),
    # a kinked BB row: a gradient of 3.7e296 from the penalty, and a first
    # trial step of 1e12, the largest a Barzilai-Borwein ratio gives
    (PenaltySpec("laplace", epsilon=1e-300), 1.0, 0.0, 1e-300, 1e-3, 1e12),
], ids=["newton", "kinked"])
def test_trial_point_that_overflows_backtracks_unevaluated(monkeypatch, spec, x, y, start, lam,
                                                          step):
    # a finite gradient whose trial point is not finite: the row backtracks in
    # place, so its penalty is evaluated at its start again, never out there
    # (value_array would raise), and it is bit for bit its batch of one
    monkeypatch.setattr(regression, "STEP_INIT", step)
    evaluations = []

    def recorded(spec, beta):
        evaluations.append(beta.copy())
        return value_array(spec, beta)

    monkeypatch.setattr(regression, "value_array", recorded)
    # the row and an ordinary problem, with n = 1
    gram, xty = np.array([[[x * x]], [[2.0]]]), np.array([[x * y], [1.0]])
    yty = np.array([y * y, 1.0])
    starts = np.array([[[start]], [[0.3]]])
    batch = fit_batch(gram, xty, yty, 1, spec, lam, starts)
    assert evaluations[1][0].tolist() == [start]  # pass 0's trial point was the start
    assert all(np.isfinite(points).all() for points in evaluations)
    alone = fit_batch(gram[:1], xty[:1], yty[:1], 1, spec, lam, starts[:1])
    for field in ("beta_hat", "objective", "grad_norm_final", "iterations", "converged",
                  "stop_reason"):
        assert getattr(batch, field)[0].tobytes() == getattr(alone, field)[0].tobytes()


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
    _, _, columns = run_ortho_scan(parse_config(str(path)), 1)
    kinds, lams = list(columns)[:2]
    assert (kinds[-1], lams[-1]) == ("lambda_star", float.fromhex("0x1.1cc8299c2761ap+3"))


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


def _profile_or_error(solve, *args):
    try:
        return _bits(solve(*args))
    except ConfigurationError as err:
        return str(err)


@settings(max_examples=500, deadline=None)
@given(st.floats(), st.floats(), st.floats())
def test_solve_orthonormal_matches_a_batch_of_one(beta_ols, lam, kappa):
    # the scalar solve of one lambda and the batched solve of a grid are each
    # other's reference: the same profile to the bit, or the same error, for
    # every float input
    assert _profile_or_error(solve_orthonormal, beta_ols, lam, kappa) == _profile_or_error(
        lambda *args: _profiles(*args)[0], beta_ols, [lam], kappa)


@settings(max_examples=50, deadline=None)
@given(st.floats(0.1, 100.0), st.booleans(), st.floats(1e-3, 1e3), st.floats(0.0, 1e-6),
       st.floats(30.0, 300.0))
@example(3.0, False, 10.0, 1.0, 100.0)  # ran out of Brent's default 100 steps
def test_lambda_star_of_a_very_wide_grid_step(size, negative, kappa, lo, exponent):
    # a grid step at least 1e30 wide, which Brent may bisect down to 1e-10
    beta_ols = -size if negative else size
    hi = lo + 10.0**exponent
    _, lambda_star = lambda_phase_scan(beta_ols, kappa, [lo, hi])
    assert lo <= lambda_star <= hi
    # the gap between the two minima changes sign within Brent's tolerance
    # of lambda*, so a narrow step around it finds the same crossing
    tol = 2.0 * (1e-10 + 4.0 * sys.float_info.epsilon * lambda_star)
    _, again = lambda_phase_scan(beta_ols, kappa, [max(lo, lambda_star - tol), lambda_star + tol])
    assert again is not None and abs(again - lambda_star) <= tol


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
    # the scalar port, over Python floats, is the reference for every bracket
    for k, (name, r, s, a, b) in enumerate(brackets):
        alone = _brentq_scalar(lambda x: _ROOT_FUNCTIONS[name](x, r, s), a, b,
                               xtol=xtol, rtol=rtol, maxiter=10_000)
        assert float(batch[k]).hex() == alone.hex()


def test_brentq_underflowed_divisor_bisects():
    # with values near 1e-200, the extrapolation's divisor underflows to 0;
    # in C (and numpy) the step is then inf or NaN and Brent bisects
    def f(x):
        return 1e-200 * (x ** 3 - 2.0)

    root = _brentq_scalar(f, 0.0, 10.0)
    assert root.hex() == float(_brentq(_batch(f), np.array([0.0]), np.array([10.0]))[0]).hex()
    assert abs(root - 2.0 ** (1.0 / 3.0)) < 1e-11


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
    # the scalar port keeps the same contract
    with pytest.raises(ValueError, match="different signs"):
        _brentq_scalar(lambda x: x * x + 1.0, -1.0, 1.0)
    with pytest.raises(ValueError, match="NaN"):
        _brentq_scalar(lambda x: math.nan if 0.0 < x < 10.0 else x - 5.0, 0.0, 10.0)
    with pytest.raises(RuntimeError, match="no convergence after 1 iterations"):
        _brentq_scalar(lambda x: x ** 3 - 2.0, 0.0, 10.0, maxiter=1)
    assert _brentq_scalar(lambda x: x, 0.0, 1.0) == 0.0
