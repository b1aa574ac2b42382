"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the lines stream; the
Monte Carlo criteria are deterministic (fixed seeds throughout).
"""

import math
import struct
import time
from contextlib import contextmanager

import numpy as np
import pytest

from gausspen import data, mlp
from gausspen.asymptotics import SimSpec, run_bias_experiment, run_consistency_experiment
from gausspen.cli import lower_median, main
from gausspen.penalties import PenaltySpec, grad_array, penalty_bounds, value_array
from gausspen.regression import LinearProblem, fit, lambda_phase_scan, solve_orthonormal


@contextmanager
def criterion(number, title, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL - {title}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, f"criterion {number} took {elapsed:.1f}s"
    print(f"ACCEPTANCE {number} PASS - {title} ({elapsed:.2f}s)")


ALL_FAMILY_SPECS = [
    PenaltySpec("none"),
    PenaltySpec("lasso"),
    PenaltySpec("ridge"),
    PenaltySpec("bridge", q=1.5),
    PenaltySpec("elastic_net", mix=0.5),
    PenaltySpec("scad", a=3.7),
    PenaltySpec("mcp", b=5.0),
    PenaltySpec("laplace", epsilon=1e-7),
    PenaltySpec("arctan", gamma=1.0),
    PenaltySpec("arctan", gamma=100.0),
    PenaltySpec("gaussian", kappa=10.0),
]


def test_criterion_1_penalty_correctness():
    with criterion(1, "penalty correctness across families", 5.0):
        rng = np.random.default_rng(101)
        betas = rng.uniform(-4.0, 4.0, size=10_000)

        # symmetry, all families, every point
        for spec in ALL_FAMILY_SPECS:
            assert np.array_equal(value_array(spec, betas), value_array(spec, -betas))

        # Gaussian boundedness: sup equals 1 and is never exceeded
        gauss = PenaltySpec("gaussian", kappa=10.0)
        values = value_array(gauss, betas)
        assert np.all(values >= 0.0) and np.all(values <= 1.0)
        assert penalty_bounds(gauss).sup_value == 1.0
        assert np.all(value_array(gauss, rng.uniform(-1.5, 1.5, 10_000)) < 1.0)

        # Lipschitz bound sqrt(2 kappa) exp(-1/2)
        constant = math.sqrt(20.0) * math.exp(-0.5)
        x = rng.uniform(-6.0, 6.0, size=10_000)
        y = rng.uniform(-6.0, 6.0, size=10_000)
        assert np.all(
            np.abs(value_array(gauss, x) - value_array(gauss, y))
            <= constant * np.abs(x - y) + 1e-12
        )

        # near-origin ridge regime: 0 <= kappa b^2 - P <= kappa^2 b^4 / 2
        small = rng.uniform(-1e-2, 1e-2, size=10_000)
        gap = 10.0 * small**2 - value_array(gauss, small)
        assert np.all(gap >= 0.0)
        assert np.all(gap <= (10.0 * small**2) ** 2 / 2.0 + 1e-18)

        # analytic vs central finite-difference gradients, rel tol 1e-5
        h = 1e-6
        pts = rng.uniform(-4.0, 4.0, size=10_000)
        pts = pts[np.abs(pts) > 1e-3]
        for spec in ALL_FAMILY_SPECS:
            fd = (value_array(spec, pts + h) - value_array(spec, pts - h)) / (2 * h)
            analytic = grad_array(spec, pts)
            denom = np.maximum(np.abs(fd), 1e-4)
            assert np.max(np.abs(analytic - fd) / denom) < 1e-5, spec.label()


def test_criterion_2_orthonormal_phase_transition():
    with criterion(2, "two-minima phase transition at beta_ols=3, kappa=10", 10.0):
        low = solve_orthonormal(3.0, 0.1, 10.0)
        assert len(low.minima) == 1
        assert abs(low.minima[0][0] - 3.0) <= 1e-4

        high = solve_orthonormal(3.0, 15.1, 10.0)
        assert len(high.minima) == 2
        inner, outer = sorted(high.minima, key=lambda m: abs(m[0]))
        assert abs(inner[0]) < 0.05
        assert abs(outer[0] - 3.0) <= 1e-3
        assert high.global_index == high.minima.index(inner)

        _, lambda_star = lambda_phase_scan(3.0, 10.0, np.arange(0.1, 15.2, 1.0))
        assert lambda_star is not None
        assert 8.5 <= lambda_star <= 9.3


def test_criterion_3_rootn_bias():
    with criterion(3, "sqrt(n) bias matches -exp(-1), then vanishes at beta=5", 120.0):
        spec = SimSpec(beta_true=[1.0], C=np.eye(1), sigma=1.0, replicates=500, seed=20260809)
        report = run_bias_experiment(spec, 1600, PenaltySpec("gaussian", kappa=1.0), 1.0)
        target = -math.exp(-1.0)
        assert report.theoretical_bias[0] == pytest.approx(target, abs=1e-12)
        assert abs(report.empirical_mean[0] - target) <= 3.0 * report.empirical_se[0]

        spec_far = SimSpec(beta_true=[5.0], C=np.eye(1), sigma=1.0, replicates=500,
                           seed=20260809)
        far = run_bias_experiment(spec_far, 1600, PenaltySpec("gaussian", kappa=10.0), 1.0)
        assert abs(far.theoretical_bias[0]) < 1e-50  # exponentially vanished
        assert abs(far.empirical_mean[0]) <= 3.0 * far.empirical_se[0]


def test_criterion_4_consistency():
    with criterion(4, "consistency under lambda_n = sqrt(n)", 180.0):
        spec = SimSpec(beta_true=[1.0, -2.0], C=np.eye(2), sigma=1.0, replicates=200, seed=11)
        table = run_consistency_experiment(spec, [100, 400, 1600, 6400],
                                           PenaltySpec("gaussian", kappa=10.0), 1.0, 0.5)
        errors = [err for _, err in table]
        assert all(b < a for a, b in zip(errors, errors[1:]))
        assert errors[-1] < errors[0] / 4.0


def test_criterion_5_solver_oracle_equivalence():
    with criterion(5, "fit() matches the 1-D dense-grid oracle, 100 problems", 30.0):
        rng = np.random.default_rng(55)
        for _ in range(100):
            n, p = 12, 4
            Q, _ = np.linalg.qr(rng.standard_normal((n, p)))
            y = 2.5 * rng.standard_normal(n)
            beta_ols = Q.T @ y
            kappa = rng.uniform(1.0, 15.0)
            lam_1d = rng.uniform(0.0, 12.0)
            problem = LinearProblem(Q, y)
            spec = PenaltySpec("gaussian", kappa=kappa)
            result = fit(problem, spec, lam_1d / n, start=beta_ols)
            for j in range(p):
                profile = solve_orthonormal(beta_ols[j], lam_1d, kappa)
                closest = min(abs(m[0] - result.beta_hat[j]) for m in profile.minima)
                assert closest < 1e-6


def test_criterion_6_training_protocol_fidelity():
    with criterion(6, "training protocol: LR, init, early stop, cap, gradients", 60.0):
        # triangular schedule hits the exact endpoints
        config = mlp.TrainConfig()
        assert mlp.triangular_lr(0, config, 40) == 0.01
        assert mlp.triangular_lr(40, config, 40) == 0.25
        assert mlp.triangular_lr(80, config, 40) == 0.01

        # init variance 4/(n_i + n_{i-1}) within 5 percent
        weights = mlp.init_weights(mlp.MlpArchitecture((784, 1024, 10)), seed=1)
        assert weights[0][0].var() == pytest.approx(4.0 / 1808.0, rel=0.05)

        # early stopping fires exactly 20 epochs past the best epoch
        dataset = data.make_blobs(2, 40, 2, 6.0, seed=1)
        tr, va, te = data.split(dataset, (0.5, 0.25, 0.25), seed=1)
        plateau = mlp.TrainConfig(lr_min=1e-30, lr_max=2e-30, patience=20, seed=2,
                                  batch_size=16)
        run = mlp.train(tr, va, te, mlp.MlpArchitecture((2, 4, 2)), plateau)
        assert run.stop_reason == "patience"
        assert len(run.epoch_log) - run.best_epoch == 20

        # the 250-epoch cap is respected when patience never fires
        capped = mlp.TrainConfig(patience=999, max_epochs=250, seed=3, batch_size=16)
        run = mlp.train(tr, va, te, mlp.MlpArchitecture((2, 4, 2)), capped)
        assert run.stop_reason == "max_epochs"
        assert len(run.epoch_log) == 250

        # composite-objective backprop vs central finite differences; seeds
        # keep every ReLU pre-activation off its hinge by > 2e-3
        rng = np.random.default_rng(0)
        arch = mlp.MlpArchitecture((6, 12, 8, 3))
        weights = mlp.init_weights(arch, seed=0)
        x = rng.standard_normal((12, 6))
        labels = rng.integers(0, 3, size=12)
        penalty = PenaltySpec("gaussian", kappa=10.0)
        lam = 0.05
        _, cache = mlp.forward(weights, x)
        assert min(np.abs(z).min() for z in cache[1][:-1]) > 2e-3
        grads = mlp.backward(weights, cache, labels, penalty, lam)
        h = 1e-5
        checked = 0
        for li, (W, b) in enumerate(weights):
            for index in np.ndindex(*W.shape):
                if checked >= 120:
                    break
                bumped_up = [(Wi.copy(), bi.copy()) for Wi, bi in weights]
                bumped_up[li][0][index] += h
                up = mlp.composite_objective(bumped_up, x, labels, penalty, lam)
                bumped_down = [(Wi.copy(), bi.copy()) for Wi, bi in weights]
                bumped_down[li][0][index] -= h
                down = mlp.composite_objective(bumped_down, x, labels, penalty, lam)
                fd = (up - down) / (2 * h)
                assert grads[li][0][index] == pytest.approx(fd, rel=1e-4, abs=1e-8)
                checked += 1
        assert checked >= 100


def test_criterion_7_desk_scale_comparative_run():
    with criterion(7, "gaussian penalty beats or ties unpenalized on noisy blobs", 300.0):
        dataset = data.make_blobs(3, 60, 8, 3.0, seed=0)
        tr, va, te = data.split(dataset, (0.5, 0.25, 0.25), seed=0)
        tr = data.flip_labels(tr, 0.25, seed=0)
        arch = mlp.MlpArchitecture((8, 64, 64, 3))

        def median_error(penalty, lam):
            errs = []
            for seed in (1, 2, 3):
                cfg = mlp.TrainConfig(penalty=penalty, lam=lam, batch_size=32, seed=seed)
                errs.append(mlp.train(tr, va, te, arch, cfg).test_error_rate)
            return lower_median(errs)

        unpenalized = median_error(PenaltySpec("none"), 0.0)
        gauss = PenaltySpec("gaussian", kappa=10.0)
        grid = [float(v) for v in np.geomspace(1e-4, 1e-1, 5)]
        best = min(median_error(gauss, lam) for lam in grid)
        assert best <= unpenalized


def test_criterion_8_idx_roundtrip_and_deterministic_outputs(tmp_path):
    with criterion(8, "IDX byte round-trip and byte-identical reruns", 60.0):
        rng = np.random.default_rng(8)
        tensor = rng.integers(0, 256, size=(17, 9, 4)).astype(np.uint8)
        blob = data.serialize_idx(tensor)
        assert data.serialize_idx(data.parse_idx(blob)) == blob
        label_blob = bytes([0, 0, 8, 1]) + struct.pack(">I", 5) + bytes([3, 1, 4, 1, 5])
        assert data.serialize_idx(data.parse_idx(label_blob)) == label_blob

        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "[experiment]\ncommand = ortho-scan\n\n"
            "[ortho-scan]\nbeta_ols = 3\nkappa = 10\n"
            "lambda_min = 0.1\nlambda_max = 15.1\nlambda_step = 1.0\n"
        )
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["ortho-scan", "--config", str(cfg), "--out", str(out_a)]) == 0
        assert main(["ortho-scan", "--config", str(cfg), "--out", str(out_a)]) == 0
        assert main(["ortho-scan", "--config", str(cfg), "--out", str(out_b)]) == 0
        first = (out_a / "ortho_scan.csv").read_bytes()
        assert (out_b / "ortho_scan.csv").read_bytes() == first
