"""Output checks.  Every result the checkout writes is compared with what the
seed build (``gausspen_seed``, the package as of the commit that defined
this benchmark) wrote for the same config in the same run, within the
tolerances below, and with invariants that hold for any input.

An operation is one result row of a Monte Carlo or training CSV (a grid
cell or a median-over-seeds row), one lambda profile of ortho-scan, the
``lambda_star`` row, or one penalty-table row.  ``check`` returns one
failure message per failed operation.  Standard library only.
"""

import csv
import math
import os
import re
import struct

import workloads as W

# Tolerances against the seed build: loose enough for a solver that stops
# on another rule at the 1e-8 gradient level, or sums in another order;
# tight enough to catch a changed estimator.  Columns not listed must match
# exactly.
TOLERANCES = {
    "consistency_mc.csv": {"median_l2_error": 1e-6},
    "bias_mc.csv": {"empirical_mean": 1e-5, "empirical_se": 1e-5,
                    "theoretical_bias": 1e-12, "z_score": 1e-3},
    # a test error may differ by two test examples; best_epoch is checked
    # against its range only, since near-ties in validation loss may flip it
    "train_mlp.csv": {"test_error": 2.0 / W.MLP_TEST, "best_epoch": math.inf},
    "penalty_table.csv": {"value": 1e-12},
}
TOL_GLOBAL_MINIMUM = 1e-9    # location and value of each lambda's global minimum
TOL_STATIONARY = 1e-9        # |f'| at every reported minimum
TOL_LAMBDA_STAR = 1e-8
LAMBDA_STAR_RANGE = (8.5, 9.3)  # the acceptance suite's window at b0 = 3, kappa = 10
SCAN_BETA_OLS, SCAN_KAPPA = 3.0, 10.0


def read_csv(path):
    """Header and rows, each row a dict from column name to text."""
    with open(path, newline="") as handle:
        header, *rows = csv.reader(handle)
    return header, [dict(zip(header, row)) if len(row) == len(header) else {}
                    for row in rows]


def _differs(got, want, tol):
    if got == want:
        return False
    if tol is None or not got or not want:
        return True
    got, want = float(got), float(want)
    return not (math.isfinite(got) and abs(got - want) <= tol * max(1.0, abs(want)))


def compare_rows(new, seed, name):
    """One message per row of ``name`` that differs from the seed build's.

    The seed build's columns are matched by name; columns the checkout adds
    are left to the rerun-identity check.  A row missing or added fails.
    """
    header, rows = read_csv(os.path.join(new, name))
    seed_header, seed_rows = read_csv(os.path.join(seed, name))
    missing = [column for column in seed_header if column not in header]
    if missing:
        return [f"{name}: columns {missing} missing"] * len(seed_rows)
    fails = [f"{name}: {len(rows)} rows, seed build {len(seed_rows)}"] * abs(
        len(rows) - len(seed_rows))
    for row, want in zip(rows, seed_rows):
        if not row or any(_differs(row[column], want[column], TOLERANCES[name].get(column))
                          for column in seed_header):
            fails.append(f"{name}: row {row}, seed build {want}")
    return fails


def _slug(label, lam, seed):
    return re.sub(r"[^A-Za-z0-9.]+", "-", f"{label}_lam{lam:g}_seed{seed}").strip("-")


def _training_problem(out, row):
    """Why one train-mlp run row or its artifacts break the fixed-work
    contract, or None."""
    label, lam, seed = row["penalty"], row["lambda"], row["seed"]
    best, epochs, reason = row["best_epoch"], row["epochs"], row["stop_reason"]
    if epochs != str(W.MLP_MAX_EPOCHS) or reason != "max_epochs":
        return f"trained {epochs} epochs, stop reason {reason!r}"
    if not best.isdigit() or not 1 <= int(best) <= W.MLP_MAX_EPOCHS:
        return f"best epoch {best!r}"
    base = os.path.join(out, "train_mlp_runs", _slug(label, float(lam), seed))
    try:
        _, log = read_csv(base + "_epochs.csv")
        with open(base + ".mlpw", "rb") as handle:
            blob = handle.read()
    except OSError as exc:
        return f"missing artifact: {exc}"
    epochs = [row.get("epoch") for row in log]
    if epochs != [str(e) for e in range(1, W.MLP_MAX_EPOCHS + 1)]:
        return f"epoch log has epochs {epochs}"
    if not all(math.isfinite(float(v)) for row in log for v in row.values()):
        return "epoch log has a non-finite value"
    sizes = (W.MLP_DIMENSION, *W.MLP_HIDDEN, W.MLP_CLASSES)
    header = b"MLPW" + struct.pack(f"<II{len(sizes)}I", 1, len(sizes), *sizes)
    params = sum(a * b + b for a, b in zip(sizes[:-1], sizes[1:]))
    if not blob.startswith(header) or len(blob) != len(header) + 8 * params:
        return "checkpoint header or length does not match the architecture"
    return None


def check_mlp(new, seed):
    fails = compare_rows(new, seed, "train_mlp.csv")
    _, rows = read_csv(os.path.join(new, "train_mlp.csv"))
    for row in rows:
        problem = row.get("row") == "run" and _training_problem(new, row)
        if problem:
            run = [row["penalty"], row["lambda"], row["seed"]]
            fails.append(f"train_mlp.csv: run {run}: {problem}")
    return fails


def _profiles(out):
    """{lambda: [(location, value, curvature, is_global)]} and lambda_star."""
    _, rows = read_csv(os.path.join(out, "ortho_scan.csv"))
    profiles, lambda_star = {}, None
    for row in rows:
        kind, lam = row.get("row"), row.get("lambda")
        if kind == "minimum":
            profiles.setdefault(lam, []).append(
                (float(row["location"]), float(row["value"]),
                 float(row["second_derivative"]), row["is_global"] == "1"))
        elif kind == "lambda_star" and lam:
            lambda_star = float(lam)
    return profiles, lambda_star


def _global(minima):
    flagged = [m for m in minima if m[3]]
    return flagged[0] if len(flagged) == 1 else None


def _profile_problem(lam, minima, want):
    """Why one lambda profile is wrong, or None.  Every reported minimum must
    be a stationary point with the reported value and positive curvature,
    and the flagged global minimum must be the lowest and match the seed
    build's (non-global minima may differ: a finer root search finds more)."""
    b0, kappa = SCAN_BETA_OLS, SCAN_KAPPA
    for loc, val, curv, _ in minima:
        e = math.exp(-kappa * loc * loc)
        fprime = -2.0 * b0 + 2.0 * loc + 2.0 * lam * kappa * loc * e
        fsecond = 2.0 + 2.0 * lam * kappa * e * (1.0 - 2.0 * kappa * loc * loc)
        value = -2.0 * b0 * loc + loc * loc - lam * math.expm1(-kappa * loc * loc)
        if abs(fprime) > TOL_STATIONARY:
            return f"f'({loc!r}) = {fprime!r}"
        if not (curv > 0 and abs(curv - fsecond) <= 1e-9 * abs(fsecond)):
            return f"f''({loc!r}) reported {curv!r}, computed {fsecond!r}"
        if abs(val - value) > 1e-12 * max(1.0, abs(value)):
            return f"f({loc!r}) reported {val!r}, computed {value!r}"
    best = _global(minima)
    if best is None or best[1] > min(m[1] for m in minima):
        return "global minimum flag is not on the lowest minimum"
    if want is None or not (abs(best[0] - want[0]) <= TOL_GLOBAL_MINIMUM
                            and abs(best[1] - want[1]) <= TOL_GLOBAL_MINIMUM):
        return f"global minimum {best[:2]}, seed build {want and want[:2]}"
    return None


def check_scan(new, seed):
    fails = compare_rows(new, seed, "penalty_table.csv")
    profiles, lambda_star = _profiles(new)
    seed_profiles, seed_star = _profiles(seed)
    for lam, want in seed_profiles.items():
        problem = (_profile_problem(float(lam), profiles[lam], _global(want))
                   if lam in profiles else "profile missing")
        if problem:
            fails.append(f"ortho_scan.csv lambda {lam}: {problem}")
    lo, hi = LAMBDA_STAR_RANGE
    if lambda_star is None or not (lo <= lambda_star <= hi
                                   and abs(lambda_star - seed_star) <= TOL_LAMBDA_STAR):
        fails.append(f"ortho_scan.csv lambda_star {lambda_star!r}, seed build {seed_star!r}")
    return fails


CHECKS = {
    "mc-consistency": lambda new, seed: compare_rows(new, seed, "consistency_mc.csv"),
    "mc-bias": lambda new, seed: compare_rows(new, seed, "bias_mc.csv"),
    "mlp-train": check_mlp,
    "scan": check_scan,
}


def operations(workload, spec):
    """Operations one repetition of the workload attempts."""
    cells = len(spec["seeds"]) + 1  # one row per seed plus the median row
    if workload == "mc-consistency":
        return cells * len(W.CONSISTENCY_N_GRID)
    if workload == "mc-bias":
        return cells * len(W.BIAS_BETA.split(","))
    if workload == "mlp-train":
        return cells * W.MLP_PENALTIES * len(W.MLP_LAMBDAS)
    return W.SCAN_LAMBDA_POINTS + 1 + len(W.SCAN_FAMILIES) * W.SCAN_BETAS


def check(workload, spec, new, seed):
    """Failure messages for the checkout's output in ``new`` against the seed
    build's in ``seed``, at most one per operation; unreadable output fails
    every operation."""
    ops = operations(workload, spec)
    try:
        fails = CHECKS[workload](new, seed)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"] * ops
    return fails[:ops]
