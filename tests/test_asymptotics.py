import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import run_cli
from gausspen import asymptotics
from gausspen.asymptotics import (
    SimSpec,
    _cholesky,
    _draw,
    _noise,
    fit_replicates,
    run_bias_experiment,
    run_consistency_experiment,
    theoretical_rootn_bias,
)
from gausspen.cli import main
from gausspen.errors import ConfigurationError, ExperimentError
from gausspen.penalties import FAMILIES, PARAMETER, PenaltySpec, grad_array
from gausspen.regression import fit_batch


def limit_criterion(u, C, beta, lam0, penalty):
    # V(u) with the noise term at its mean (W = 0); the penalty enters
    # through its slope at beta, from the table
    u = np.asarray(u, dtype=float)
    slope_term = lam0 * np.sum(u * grad_array(penalty, beta))
    return float(u @ C @ u + slope_term)


def golden_min(fn, lo, hi, iters=160):
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - phi * (b - a), a + phi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = fn(d)
    return (a + b) / 2.0


def golden_then_polish(fn, lo, hi):
    # golden section localizes to ~sqrt(eps); bisecting the central
    # finite-difference slope then recovers full double precision
    v = golden_min(fn, lo, hi, iters=90)
    h = 1e-3

    def slope(x):
        return (fn(x + h) - fn(x - h)) / (2.0 * h)

    a, b = v - 1e-2, v + 1e-2
    while slope(a) > 0.0:
        a -= 1e-1
    while slope(b) < 0.0:
        b += 1e-1
    for _ in range(90):
        mid = 0.5 * (a + b)
        if slope(mid) > 0.0:
            b = mid
        else:
            a = mid
    return 0.5 * (a + b)


def minimize_limit_criterion(C, beta, lam0, penalty):
    """Value-only minimizer of V: 1-D searches along Cholesky-rotated
    coordinates, where the quadratic part separates exactly."""
    p = len(beta)
    L = np.linalg.cholesky(C)
    Linv_t = np.linalg.inv(L).T

    def as_u(v):
        return Linv_t @ v

    v = np.zeros(p)
    for k in range(p):
        def along(t, k=k):
            w = v.copy()
            w[k] = t
            return limit_criterion(as_u(w), C, beta, lam0, penalty)

        v[k] = golden_then_polish(along, -50.0, 50.0)
    return as_u(v)


# --- simulation --------------------------------------------------------------


def base_spec(**overrides):
    defaults = dict(
        beta_true=[1.0],
        C=np.eye(1),
        sigma=1.0,
        lambda0=1.0,
        penalty=PenaltySpec("gaussian", kappa=1.0),
        replicates=50,
        seed=123,
    )
    defaults.update(overrides)
    return SimSpec(**defaults)


# the weight rules of the two experiments, sum-of-squares convention
def sqrt_n(spec):
    return lambda n: spec.lambda0 * math.sqrt(n)


def o_of_n(spec):
    return lambda n: spec.lambda0 * n**spec.r


def draw(spec, n, rep):
    """Replicate ``rep`` of ``spec`` at n, as an (n, p) design and its response."""
    columns, y = _draw(spec, _cholesky(spec.C), _noise(spec, rep, n), n)
    return columns.T, y


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        base_spec(C=np.array([[1.0, 0.5], [0.4, 1.0]]), beta_true=[1.0, 1.0])
    with pytest.raises(ConfigurationError):
        base_spec(C=-np.eye(1))
    with pytest.raises(ConfigurationError):
        base_spec(sigma=0.0)
    with pytest.raises(ConfigurationError):
        base_spec(r=1.0)
    for n in (0, -5):
        with pytest.raises(ConfigurationError):
            run_bias_experiment(base_spec(), n)
        with pytest.raises(ConfigurationError):
            fit_replicates(base_spec(), [n], sqrt_n(base_spec()))
        with pytest.raises(ConfigurationError):
            run_consistency_experiment(base_spec(), [n, 100])
    for grid in ([], [100, 100], [400, 100]):
        with pytest.raises(ConfigurationError):
            run_consistency_experiment(base_spec(), grid)


def test_simulated_data_is_centered_and_deterministic():
    spec = base_spec(beta_true=[0.5, -1.0], C=np.eye(2))
    X, y = draw(spec, 300, 7)
    X_again, y_again = draw(spec, 300, 7)
    assert np.array_equal(X, X_again) and np.array_equal(y, y_again)
    assert not np.array_equal(X, draw(spec, 300, 8)[0])
    assert np.abs(X.mean(axis=0)).max() < 1e-12
    assert abs(y.mean()) < 1e-12


def _statistics(columns, y):
    return columns @ columns.T, columns @ y, y @ y


def _two_call_statistics(spec, n, rep):
    # the draw as first written: the (n, p) noise, then the n response
    # noises, a row-major design and copying centering
    rng = np.random.default_rng([spec.seed, rep])
    X = rng.standard_normal((n, spec.p)) @ np.linalg.cholesky(spec.C).T
    y = X @ spec.beta_true + spec.sigma * rng.standard_normal(n)
    X, y = X - X.mean(axis=0), y - y.mean()
    return X.T @ X, X.T @ y, y @ y


def _assert_statistics_close(got, want):
    # round-off relative to the Cauchy-Schwarz scale of each entry
    gram, xty, yty = got
    scale = np.sqrt(np.diag(want[0]))
    np.testing.assert_allclose(gram, want[0], rtol=0, atol=1e-12 * np.outer(scale, scale).max())
    np.testing.assert_allclose(xty, want[1], rtol=0, atol=1e-12 * scale.max() * math.sqrt(want[2]))
    assert yty == pytest.approx(want[2], rel=1e-12)


def _random_covariance(rng, p):
    A = rng.standard_normal((p, p))
    C = A @ A.T + 0.1 * np.eye(p)
    return (C + C.T) / 2.0


@settings(max_examples=60, deadline=None)
@given(p=st.integers(1, 5), n=st.integers(2, 300), seed=st.integers(0, 2**32 - 1),
       rep=st.integers(0, 1000), sigma=st.floats(0.01, 100.0),
       beta_scale=st.floats(0.0, 100.0))
def test_draw_statistics_match_row_major_draw(p, n, seed, rep, sigma, beta_scale):
    rng = np.random.default_rng(seed)
    C = _random_covariance(rng, p)
    beta = beta_scale * rng.uniform(-1.0, 1.0, p)
    spec = base_spec(beta_true=beta, C=C, sigma=sigma, seed=seed)
    got = _statistics(*_draw(spec, _cholesky(spec.C), _noise(spec, rep, n), n))
    X, y = draw(spec, n, rep)
    _assert_statistics_close(got, (X.T @ X, X.T @ y, y @ y))
    _assert_statistics_close(got, _two_call_statistics(spec, n, rep))


@pytest.mark.parametrize("n, p", [(1, 1), (7, 3), (6400, 3), (101, 10)])
def test_one_call_stream_matches_two_calls(n, p):
    # the draw takes the design noise and the response noise from one
    # standard_normal(n*p + n) call; numpy yields the same bits as the
    # (n, p) call followed by the n call
    rng = np.random.default_rng([11, 4])
    Z, e = rng.standard_normal((n, p)), rng.standard_normal(n)
    noise = np.random.default_rng([11, 4]).standard_normal(n * p + n)
    assert noise[:n * p].tobytes() == Z.tobytes()
    assert noise[n * p:].tobytes() == e.tobytes()
    # with C = I, beta = 0 and sigma = 1 the draw is that noise, centered
    spec = base_spec(beta_true=np.zeros(p), C=np.eye(p), sigma=1.0, seed=11)
    columns, y = _draw(spec, _cholesky(spec.C), _noise(spec, 4, n), n)
    Zt = np.ascontiguousarray(Z.T)
    assert columns.tobytes() == (Zt - Zt.mean(axis=1, keepdims=True)).tobytes()
    assert y.tobytes() == (e - e.mean()).tobytes()


def _alone_statistics(spec, rep, n):
    # the draw at n alone, written out as it was before sample-size grids
    # shared one: its own n*p + n normals, the response noise scaled in place
    p = spec.p
    noise = np.random.default_rng([spec.seed, rep]).standard_normal(n * p + n)
    columns = np.linalg.cholesky(spec.C) @ noise[:n * p].reshape(n, p).T
    y = noise[n * p:]
    y *= spec.sigma
    y += spec.beta_true @ columns
    columns -= columns.mean(axis=1, keepdims=True)
    y -= y.mean()
    return _statistics(columns, y)


@settings(max_examples=60, deadline=None)
@given(p=st.integers(1, 5), n=st.integers(1, 300), more=st.integers(1, 300),
       seed=st.integers(0, 2**32 - 1), rep=st.integers(0, 1000), sigma=st.floats(0.01, 100.0),
       beta_scale=st.floats(0.0, 100.0))
def test_prefix_of_larger_draw_is_draw_alone(p, n, more, seed, rep, sigma, beta_scale):
    # a replicate drawn once, at the grid's largest n, gives at every n the
    # statistics of its draw at that n alone, to the bit
    rng = np.random.default_rng(seed)
    C = _random_covariance(rng, p)
    spec = base_spec(beta_true=beta_scale * rng.uniform(-1.0, 1.0, p), C=C, sigma=sigma,
                     seed=seed)
    noise = _noise(spec, rep, n + more)
    for size in (n, n + more):
        got = _statistics(*_draw(spec, _cholesky(spec.C), noise, size))
        want = _alone_statistics(spec, rep, size)
        assert [np.asarray(v).tobytes() for v in got] == [np.asarray(v).tobytes() for v in want]


@settings(max_examples=25, deadline=None)
@given(p=st.integers(1, 4), extra=st.lists(st.integers(1, 200), min_size=1, max_size=4, unique=True),
       seed=st.integers(0, 2**32 - 1), lambda0=st.floats(0.0, 3.0), r=st.floats(0.0, 0.99),
       kappa=st.floats(0.5, 20.0), replicates=st.integers(1, 8))
# sizes at or below p take the pseudo-inverse start; drawn, such sizes with
# a penalty can take 10^4 descent steps, so they come in unpenalized here
@example(p=3, extra=[-2, 0, 40], seed=5, lambda0=0.0, r=0.5, kappa=10.0, replicates=6)
def test_consistency_grid_matches_per_n_fits(p, extra, seed, lambda0, r, kappa, replicates):
    # one draw per replicate and one descent for the whole grid give, at
    # each n, what a draw and a fit at that n alone give, to the bit
    rng = np.random.default_rng(seed)
    grid = sorted(p + e for e in extra)
    spec = base_spec(beta_true=rng.uniform(-2.0, 2.0, p), C=np.diag(rng.uniform(0.5, 2.0, p)),
                     lambda0=lambda0, r=r, penalty=PenaltySpec("gaussian", kappa=kappa),
                     replicates=replicates, seed=seed)
    batch = fit_replicates(spec, grid, o_of_n(spec), start_at_ols=False)
    table = run_consistency_experiment(spec, grid)
    for i, (n, (table_n, median)) in enumerate(zip(grid, table)):
        alone = fit_replicates(spec, [n], o_of_n(spec), start_at_ols=False)
        rows = slice(i * replicates, (i + 1) * replicates)
        assert batch.beta_hat[rows].tobytes() == alone.beta_hat.tobytes()
        assert batch.objective[rows].tobytes() == alone.objective.tobytes()
        assert np.array_equal(batch.iterations[rows], alone.iterations)
        assert np.array_equal(batch.converged[rows], alone.converged)
        errs = [float(np.linalg.norm(b - spec.beta_true)) for b in alone.beta_hat[~alone.failed]]
        assert (table_n, median) == (n, float(np.median(errs)))


def test_rank_deficient_grid_converges_on_every_winning_fit():
    # nine coefficients at n = 3 and 9 centred rows (X'X of rank 2 and 8) and
    # at n = 100, two starts each, the Gaussian of kappa 10 at a tiny weight:
    # a gradient descent stopped 23 of these 60 winning fits unconverged,
    # after up to 39,756 steps; the Newton trial converges on every one
    spec = base_spec(beta_true=[1, -0.5, 2, 0.3, 1.5, -1, 0.8, 2.5, -2], C=np.eye(9),
                     lambda0=1e-6, r=0.5, penalty=PenaltySpec("gaussian", kappa=10.0),
                     replicates=20, seed=1)
    batch = fit_replicates(spec, [3, 9, 100], o_of_n(spec), start_at_ols=False)
    assert batch.converged.all()
    assert set(batch.stop_reason) == {"converged"}
    assert batch.iterations.max() < 100


@pytest.mark.parametrize("beta", ["1e300", "1e308"])
@pytest.mark.parametrize("command, extra", [
    ("bias-mc", "n = 50\n"),
    ("consistency-mc", "exponent = 0.5\nn_grid = 50, 100\n"),
])
def test_overflowing_draw_is_config_error(tmp_path, capsys, command, extra, beta):
    # y = X beta is far from centered (1e300) or not finite (1e308): either
    # way a config error (exit 1), with no numpy warning on the way
    cfg = tmp_path / "big.cfg"
    cfg.write_text(f"[experiment]\ncommand = {command}\nseeds = 1\n\n[{command}]\n"
                   f"beta = {beta}\nc_diag = 4\nsigma = 1\nreplicates = 3\n{extra}")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command, extra", [
    ("bias-mc", "n = 50\n"),
    ("consistency-mc", "exponent = 0.5\nn_grid = 50, 100\n"),
])
def test_large_finite_beta_runs(tmp_path, command, extra):
    # the round-off of centering grows with the data, so a check of the
    # centered means against an absolute 1e-8 rejected this valid draw
    cfg = tmp_path / "large.cfg"
    cfg.write_text(f"[experiment]\ncommand = {command}\nseeds = 1\n\n[{command}]\n"
                   f"beta = 1e9, -5e8, 2e9\nsigma = 1\nreplicates = 3\n{extra}")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0


@settings(max_examples=30, deadline=None)
@given(mantissa=st.floats(1.0, 9.99), exponent=st.integers(-5, 308),
       sigma_exponent=st.integers(-3, 140))
# at |beta| near 5e95 the gradient's round-off (about 1e80) is far above
# GRAD_TOL: a descent that stopped only on GRAD_TOL, or on MAX_ITER accepted
# steps, ran here for many minutes
@example(mantissa=5.345348003139933, exponent=95, sigma_exponent=23)
def test_draw_runs_unless_it_overflows(tmp_path_factory, mantissa, exponent, sigma_exponent):
    # y'y of a 50-row draw is finite for |beta|, sigma below 1e150 and not
    # for |beta| from 1e160 on; the first runs, the second is a config error
    assume(exponent < 150 or exponent >= 160)
    out = tmp_path_factory.mktemp("draw")
    cfg = out / "draw.cfg"
    cfg.write_text(f"[experiment]\ncommand = bias-mc\nseeds = 1\n\n[bias-mc]\n"
                   f"beta = {mantissa}e{exponent}, 0\nsigma = 1e{sigma_exponent}\n"
                   f"replicates = 3\nn = 50\n")
    assert main(["bias-mc", "--config", str(cfg), "--out", str(out)]) == (
        0 if exponent < 150 else 1)


def test_bias_report_counts_its_replicates_by_stop_reason():
    # the draw of the example above: the gradient's round-off there, about
    # 1e80, stops two of the three fits short of GRAD_TOL
    spec = base_spec(beta_true=[5.345348003139933e95, 0.0], C=np.eye(2), sigma=1e23,
                     penalty=PenaltySpec("gaussian", kappa=10.0), replicates=3, seed=1)
    report = run_bias_experiment(spec, 50)
    assert report.stop_reasons == {"round-off floor": 2, "converged": 1}
    assert report.replicates_unconverged == 2


def test_rank_deficient_draws_start_at_minimum_norm():
    # n <= p: the centered design has rank below p, so X'X is singular; the
    # start is the minimum-norm least-squares solution, not a failed solve.
    # Unpenalized, that start is already stationary, so no step is taken
    spec = base_spec(beta_true=[1.0, 2.0, 0.5], C=np.eye(3), replicates=4, lambda0=0.0)
    batch = fit_replicates(spec, [2], sqrt_n(spec))
    assert not batch.failed.any()
    assert (batch.iterations == 0).all()
    for rep in range(4):
        X, y = draw(spec, 2, rep)
        ols = np.linalg.lstsq(X, y, rcond=None)[0]
        assert np.abs(batch.beta_hat[rep] - ols).max() <= 1e-12


def test_pure_noise_variance():
    spec = base_spec(beta_true=[0.0], sigma=2.0)
    _, y = draw(spec, 4000, 0)
    assert abs(y.mean()) < 1e-12
    assert y.var() == pytest.approx(4.0, rel=3.0 / math.sqrt(4000))


def test_gram_approaches_identity():
    spec = base_spec(beta_true=[0.0, 0.0, 0.0], C=np.eye(3))
    X, _ = draw(spec, 10_000, 1)
    gram = X.T @ X / 10_000
    assert np.linalg.norm(gram - np.eye(3)) < 0.05


# --- closed-form limit mean ----------------------------------------------------


def test_bias_zero_for_zero_beta():
    assert np.array_equal(
        theoretical_rootn_bias(np.eye(3), np.zeros(3), 2.0, PenaltySpec("gaussian", kappa=5.0)),
        np.zeros(3)
    )


def test_bias_scalar_value():
    value = theoretical_rootn_bias(np.eye(1), [1.0], 1.0, PenaltySpec("gaussian", kappa=1.0))
    assert value[0] == pytest.approx(-math.exp(-1.0), abs=1e-12)


def test_bias_underflows_for_large_beta():
    value = theoretical_rootn_bias(np.eye(1), [5.0], 1.0, PenaltySpec("gaussian", kappa=10.0))
    assert abs(value[0]) <= 1e-100


# a range inside each family parameter's validity rule
PARAMETER_RANGES = {"kappa": (0.2, 5.0), "q": (0.3, 2.0), "mix": (0.0, 1.0), "a": (2.1, 5.0),
                    "b": (0.5, 5.0), "epsilon": (0.1, 2.0), "gamma": (0.2, 5.0)}


@pytest.mark.parametrize("family", FAMILIES)
def test_bias_matches_numeric_minimizer(family):
    rng = np.random.default_rng(10)
    kinked = PenaltySpec(family).slope_at_zero() > 0
    for _ in range(50):
        p = int(rng.integers(1, 4))
        A = rng.standard_normal((p, p))
        C = A @ A.T + (0.5 + rng.uniform()) * np.eye(p)
        if kinked:  # nonzero, where the limit law has a closed-form mean
            beta = rng.choice([-1.0, 1.0], size=p) * rng.uniform(0.1, 2.0, size=p)
        else:
            beta = rng.uniform(-2.0, 2.0, size=p)
        lam0 = rng.uniform(0.0, 3.0)
        params = {}
        if family in PARAMETER:
            params[PARAMETER[family]] = rng.uniform(*PARAMETER_RANGES[PARAMETER[family]])
        penalty = PenaltySpec(family, **params)
        closed = theoretical_rootn_bias(C, beta, lam0, penalty)
        numeric = minimize_limit_criterion(C, beta, lam0, penalty)
        assert np.abs(closed - numeric).max() < 1e-8


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 5),
       lam0=st.just(0.0) | st.floats(1e-100, 100.0),
       beta=st.lists(st.floats(1e-100, 1e6) | st.floats(-1e6, -1e-100) | st.just(0.0),
                     min_size=5, max_size=5))
def test_ridge_bias_through_the_table_is_its_closed_form(seed, p, lam0, beta):
    # -(lam0 / 2) C^{-1} (2 beta) is -lam0 C^{-1} beta to the bit: halving
    # and doubling are exact away from underflow, which the ranges keep off
    C = _random_covariance(np.random.default_rng(seed), p)
    beta = np.array(beta[:p])
    got = theoretical_rootn_bias(C, beta, lam0, PenaltySpec("ridge"))
    assert got.tobytes() == (-lam0 * np.linalg.solve(C, beta)).tobytes()


@pytest.mark.parametrize("beta, kappa", [
    ([1.0], 1.0),  # configs/bias_mc.cfg
    ([0.3, -0.5, 1.0], 1.0),  # the benchmark's bias-mc workload
    ([5.0], 10.0),  # the acceptance suite's far case
])
def test_gaussian_bias_keeps_its_closed_form_bits(beta, kappa):
    # the table's Gaussian slope 2k*b*exp(-k*b*b), halved, gives these betas
    # the bits of the Gaussian closed form -lam0*kappa*C^{-1}(b*exp(-kappa*b^2))
    beta = np.array(beta)
    closed = -1.0 * kappa * np.linalg.solve(np.eye(beta.size), beta * np.exp(-kappa * beta**2))
    got = theoretical_rootn_bias(np.eye(beta.size), beta, 1.0, PenaltySpec("gaussian", kappa=kappa))
    assert got.tobytes() == closed.tobytes()


@pytest.mark.parametrize("family", [f for f in FAMILIES if PenaltySpec(f).slope_at_zero() > 0])
def test_kinked_family_with_a_zero_beta_fails_before_any_draw(monkeypatch, family):
    # at a kink the limit law's mean has no closed form: a config error,
    # raised before a single replicate is drawn
    def no_draw(*args):
        raise AssertionError("drew a replicate")

    monkeypatch.setattr(asymptotics, "_noise", no_draw)
    spec = base_spec(beta_true=[1.0, 0.0], C=np.eye(2), penalty=PenaltySpec(family))
    with pytest.raises(ConfigurationError, match="no closed-form mean"):
        run_bias_experiment(spec, 100)


def test_exponential_decay_ratio():
    # |bias| proportional to |beta| exp(-kappa beta^2) with C = I
    lam0, kappa = 1.3, 2.0
    ratios = []
    for beta in (0.5, 1.0, 2.0):
        bias = theoretical_rootn_bias(np.eye(1), [beta], lam0,
                                      PenaltySpec("gaussian", kappa=kappa))[0]
        ratios.append(abs(bias) / (beta * math.exp(-kappa * beta * beta)))
    assert max(ratios) - min(ratios) < 1e-8


def test_ridge_contrast():
    # Gaussian bias collapses by > 1e10 from beta=0.3 to beta=3 (kappa=10);
    # the ridge analogue grows linearly instead
    gauss, ridge = PenaltySpec("gaussian", kappa=10.0), PenaltySpec("ridge")
    g_small = abs(theoretical_rootn_bias(np.eye(1), [0.3], 1.0, gauss)[0])
    g_large = abs(theoretical_rootn_bias(np.eye(1), [3.0], 1.0, gauss)[0])
    assert g_small / g_large > 1e10
    r_small = abs(theoretical_rootn_bias(np.eye(1), [0.3], 1.0, ridge)[0])
    r_large = abs(theoretical_rootn_bias(np.eye(1), [3.0], 1.0, ridge)[0])
    assert r_large == pytest.approx(10.0 * r_small)


# --- Monte Carlo experiments ---------------------------------------------------


def test_bias_experiment_lambda0_zero_is_centered():
    spec = base_spec(lambda0=0.0, replicates=120)
    report = run_bias_experiment(spec, 200)
    assert np.array_equal(report.theoretical_bias, np.zeros(1))
    assert np.all(report.z_scores <= 3.0)


def test_bias_experiment_reproducible():
    spec = base_spec(replicates=30)
    a = run_bias_experiment(spec, 400)
    b = run_bias_experiment(spec, 400)
    assert (a.replicates_used, a.replicates_failed, a.replicates_unconverged) == (30, 0, 0)
    assert a.stop_reasons == {"converged": 30}
    assert np.array_equal(a.empirical_mean, b.empirical_mean)
    assert np.array_equal(a.empirical_se, b.empirical_se)
    assert np.array_equal(a.z_scores, b.z_scores)


def test_each_experiment_passes_its_own_weight(monkeypatch):
    # at r = 0.5 the two rules agree in exact arithmetic, but at n = 2921
    # sqrt(n) and n**0.5 differ in the last bit, and so, at lam0 = 1.3, do
    # the weights the solver gets: the bias experiment must keep sqrt and
    # the consistency experiment pow, or their CSVs change
    n, lam0 = 2921, 1.3
    assert lam0 * math.sqrt(n) / n != lam0 * n**0.5 / n
    passed = []

    def recording(gram, xty, yty, sizes, pen, lam, starts):
        passed.append(lam)
        return fit_batch(gram, xty, yty, sizes, pen, lam, starts)

    monkeypatch.setattr(asymptotics, "fit_batch", recording)
    spec = base_spec(lambda0=lam0, r=0.5, replicates=3)
    run_bias_experiment(spec, n)
    run_consistency_experiment(spec, [n])
    bias_lam, consistency_lam = passed
    assert np.asarray(bias_lam).tobytes() == np.full(3, lam0 * math.sqrt(n) / n).tobytes()
    assert np.asarray(consistency_lam).tobytes() == np.full(3, lam0 * n**0.5 / n).tobytes()


# Seed 1's replicate set at n = 1600 misses on coordinate 1 by itself: the
# unpenalized fit (family none, bias 0) is at z = 3.08 there.  These families
# miss there too, at z 3.04-3.37; bridge (2.99) and gaussian (2.21) pass.
_DRAW_MISSES_AT_1600 = ("none", "lasso", "ridge", "elastic_net", "scad", "mcp", "laplace",
                        "arctan")


@pytest.mark.parametrize("family, n", [
    pytest.param(family, n, marks=pytest.mark.xfail(
        strict=True, reason="seed 1's draw misses coordinate 1 at n = 1600 unpenalized too"))
    if n == 1600 and family in _DRAW_MISSES_AT_1600 else (family, n)
    for family in FAMILIES for n in (1600, 6400)])
def test_bias_experiment_matches_the_limit_law_for_every_family(family, n):
    # the acceptance suite's 3-SE rule, each family at its default parameter
    spec = base_spec(beta_true=[0.3, -0.5, 1.0, 2.5], C=np.eye(4), lambda0=1.0,
                     penalty=PenaltySpec(family), replicates=400, seed=1)
    report = run_bias_experiment(spec, n)
    assert (report.replicates_used, report.replicates_unconverged) == (400, 0)
    assert report.stop_reasons == {"converged": 400}
    assert np.all(report.z_scores <= 3.0), report.z_scores


def test_consistency_rate_matches_root_n():
    # unpenalized: median error should shrink like 1/sqrt(n)
    spec = base_spec(
        beta_true=[1.0, -2.0], C=np.eye(2), lambda0=0.0, replicates=200, seed=77,
    )
    table = run_consistency_experiment(spec, [250, 1000])
    ratio = table[1][1] / table[0][1]
    assert abs(ratio - 0.5) < 0.15


def test_consistency_violating_rule_has_error_floor():
    # lam_n ~ 5n is not o(n): the limit criterion keeps a penalty term whose
    # global argmin sits near 0, so the estimation error stalls above a
    # positive floor instead of vanishing
    spec = base_spec(
        beta_true=[1.0, -2.0], C=np.eye(2), lambda0=5.0, r=0.999,
        penalty=PenaltySpec("gaussian", kappa=10.0), replicates=60, seed=5,
    )
    table = run_consistency_experiment(spec, [100, 400, 1600])
    assert all(err > 2.0 for _, err in table)  # near ||beta|| = sqrt(5)


def test_consistency_replicates_all_converge():
    # the acceptance suite's consistency case at n = 1600: every replicate's
    # winning descent meets the gradient tolerance rather than stalling on
    # round-off just above it
    spec = base_spec(
        beta_true=[1.0, -2.0], C=np.eye(2), lambda0=1.0, r=0.5,
        penalty=PenaltySpec("gaussian", kappa=10.0), replicates=200, seed=11,
    )
    batch = fit_replicates(spec, [1600], o_of_n(spec), start_at_ols=False)
    assert not batch.failed.any()
    assert batch.converged.all()
    assert np.all(batch.grad_norm_final <= 1e-8)


def fail_replicates(monkeypatch, reps, at, count):
    """Make every fit_batch fail the first ``count`` replicates at grid index ``at``."""
    def failing(*args):
        batch = fit_batch(*args)
        rows = slice(at * reps, at * reps + count)
        batch.failed[rows], batch.beta_hat[rows] = True, np.nan
        return batch

    monkeypatch.setattr(asymptotics, "fit_batch", failing)


@pytest.mark.parametrize("count", [0, 2, 3, 40])
@pytest.mark.parametrize("at", [0, 2])
def test_too_many_failed_replicates_at_one_n_is_an_experiment_error(monkeypatch, at, count):
    # 40 replicates tolerate 5% of them, 2, failed at each n; past that, both
    # experiments raise the one error, which names the n where they failed
    n_grid, reps = [20, 50, 100], 40
    spec = base_spec(replicates=reps)
    message = f"^{count}/{reps} replicates diverged at n={n_grid[at]}$"
    fail_replicates(monkeypatch, reps, at, count)
    if count <= asymptotics.MAX_FAILED_FRACTION * reps:
        assert len(run_consistency_experiment(spec, n_grid)) == 3
    else:
        with pytest.raises(ExperimentError, match=message):
            run_consistency_experiment(spec, n_grid)
    fail_replicates(monkeypatch, reps, 0, count)  # the bias experiment's one n
    if count <= asymptotics.MAX_FAILED_FRACTION * reps:
        report = run_bias_experiment(spec, n_grid[at])
        assert (report.replicates_used, report.replicates_failed) == (reps - count, count)
    else:
        with pytest.raises(ExperimentError, match=message):
            run_bias_experiment(spec, n_grid[at])


def test_too_many_failed_replicates_exit_2(tmp_path, monkeypatch):
    # 2 of 20 replicates is 10%: a runtime error, before any file is written
    fail_replicates(monkeypatch, 20, 0, 2)
    cfg = tmp_path / "b.cfg"
    cfg.write_text("[experiment]\ncommand = bias-mc\nseeds = 1\n\n[bias-mc]\n"
                   "beta = 1\nsigma = 1\nreplicates = 20\nn = 50\n")
    code, err, out = run_cli(tmp_path, "bias-mc", "--config", cfg)
    assert (code, err) == (2, "runtime error: 2/20 replicates diverged at n=50\n")
    assert not out.exists()
