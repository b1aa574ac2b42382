"""Command-line experiment runner.

    gausspen <command> --config <path> [--seed-list 1,2,3] [--out <dir>] [--jobs N]

Commands: penalty-table, ortho-scan, bias-mc, consistency-mc, train-mlp.
Each writes one CSV (header row; floats with 17 significant digits so values
round-trip exactly) into the output directory, chosen by --out, then the
config file's ``output`` key, then $GAUSSPEN_OUT, then the working directory.
Grid cells are independent; --jobs N > 1 computes them in a process pool but
rows are always written in deterministic grid order.  Exit codes: 0 success,
1 configuration error, 2 runtime error.
"""

import argparse
import math
import os
import re
import sys

import numpy as np

from . import asymptotics, data, mlp, penalties, regression
from .config import COMMANDS, MAX_GRID, parse_config, parse_seed_list
from .data import write_csv
from .errors import ConfigurationError


def lower_median(values):
    """Deterministic median: the lower of the two middles for even counts."""
    ordered = sorted(values)
    return ordered[(len(ordered) - 1) // 2]


def _map_cells(fn, cells, jobs):
    if jobs <= 1:
        return [fn(cell) for cell in cells]
    from concurrent.futures import ProcessPoolExecutor  # a serial run skips its import

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, cells))


# --- penalty-table ---------------------------------------------------------

def run_penalty_table(config, jobs):
    opts = config.options
    lo, hi = opts["beta_min"], opts["beta_max"]
    if not math.isfinite(hi - lo):
        raise ConfigurationError(
            f"[penalty-table] options `beta_min` = {lo!r} and `beta_max` = {hi!r} "
            "are further apart than the largest double")
    betas = np.linspace(lo, hi, opts["count"])
    # every value first, so a DomainError comes before any directory or file
    # is made; the rows themselves are streamed to the writer
    columns = [(spec.label(), penalties.value_array(spec, betas).tolist())
               for spec in config.penalties]
    betas = betas.tolist()
    rows = ((label, beta, value) for label, values in columns
            for beta, value in zip(betas, values))
    return "penalty_table.csv", ("penalty", "beta", "value"), rows


# --- ortho-scan ------------------------------------------------------------

def run_ortho_scan(config, jobs):
    opts = config.options
    grid = opts["lambda_values"]
    if grid is None:
        step = opts["lambda_step"]
        lo, hi = opts["lambda_min"], opts["lambda_max"]
        if lo > hi:
            raise ConfigurationError(
                f"[ortho-scan] option `lambda_min` = {lo!r} is above `lambda_max` = {hi!r}")
        hi += step / 2.0
        # np.arange's length, ceil((hi - lo) / step), bounded before it allocates
        if (hi - lo) / step > MAX_GRID:
            raise ConfigurationError(
                f"[ortho-scan] option `lambda_step` = {step!r} gives more than {MAX_GRID} "
                f"lambdas from {opts['lambda_min']!r} to {opts['lambda_max']!r}")
        grid = list(np.arange(lo, hi, step))
    profiles, lambda_star = regression.lambda_phase_scan(opts["beta_ols"], opts["kappa"], grid)
    rows = []
    for profile in profiles:
        for i, (loc, val, curv) in enumerate(profile.minima):
            rows.append(
                ("minimum", profile.lam, loc, val, curv, int(i == profile.global_index))
            )
    rows.append(("lambda_star", lambda_star, None, None, None, None))
    header = ("row", "lambda", "location", "value", "second_derivative", "is_global")
    return "ortho_scan.csv", header, rows


# --- bias-mc and consistency-mc --------------------------------------------

def _sim_spec(options, seed, lambda_rule, n):
    beta = np.asarray(options["beta"])
    c_diag = options["c_diag"]
    return asymptotics.SimSpec(
        beta_true=beta, C=np.diag(np.ones(beta.size) if c_diag is None else c_diag),
        sigma=options["sigma"], n=n, lambda_rule=lambda_rule, lambda0=options["lambda0"],
        r=options.get("exponent", asymptotics.SimSpec.r),  # only consistency-mc has one
        kappa=options["kappa"], replicates=options["replicates"], seed=seed,
    )


def _bias_cell(args):
    options, seed = args
    return asymptotics.run_bias_experiment(_sim_spec(options, seed, "sqrt_n", options["n"]))


def run_bias_mc(config, jobs):
    cells = [(config.options, seed) for seed in config.seeds]
    reports = _map_cells(_bias_cell, cells, jobs)
    p = reports[0].empirical_mean.size
    rows = []
    for seed, report in zip(config.seeds, reports):
        for j in range(p):
            rows.append(
                ("run", seed, j,
                 float(report.empirical_mean[j]), float(report.empirical_se[j]),
                 float(report.theoretical_bias[j]), float(report.z_scores[j]))
            )
    for j in range(p):
        med_mean = lower_median([float(r.empirical_mean[j]) for r in reports])
        med_z = lower_median([float(r.z_scores[j]) for r in reports])
        theo = float(reports[0].theoretical_bias[j])
        rows.append(("median", None, j, med_mean, None, theo, med_z))
    header = ("row", "seed", "coordinate", "empirical_mean", "empirical_se",
              "theoretical_bias", "z_score")
    return "bias_mc.csv", header, rows


def _consistency_cell(args):
    options, seed = args
    spec = _sim_spec(options, seed, "o_of_n", options["n_grid"][0])
    return asymptotics.run_consistency_experiment(spec, options["n_grid"])


def run_consistency_mc(config, jobs):
    n_grid = config.options["n_grid"]
    cells = [(config.options, seed) for seed in config.seeds]
    tables = _map_cells(_consistency_cell, cells, jobs)
    rows = []
    for seed, table in zip(config.seeds, tables):
        for n, err in table:
            rows.append(("run", seed, n, err))
    for i, n in enumerate(n_grid):
        rows.append(("median", None, n, lower_median([t[i][1] for t in tables])))
    return "consistency_mc.csv", ("row", "seed", "n", "median_l2_error"), rows


# --- train-mlp -------------------------------------------------------------

def _mlp_splits(options):
    dataset = data.make_blobs(
        num_classes=options["classes"], per_class=options["per_class"],
        dimension=options["dimension"], separation=options["separation"],
        seed=options["data_seed"],
    )
    train_set, val_set, test_set = data.split(dataset, options["fractions"], options["split_seed"])
    if options["label_noise"] > 0:
        train_set = data.flip_labels(train_set, options["label_noise"], options["noise_seed"])
    return train_set, val_set, test_set


def _slug(label, lam, seed):
    return re.sub(r"[^A-Za-z0-9.]+", "-", f"{label}_lam{lam:g}_seed{seed}").strip("-")


def _train_cell(args):
    splits, options, spec, lam, seed, artifacts_dir, slugs = args
    train_set = splits[0]
    arch = mlp.MlpArchitecture(
        (train_set.features.shape[1], *options["hidden"], train_set.num_classes)
    )
    fields = ("lr_min", "lr_max", "batch_size", "patience", "max_epochs")  # of TrainConfig
    cfg = mlp.TrainConfig(penalty=spec, lam=lam, seed=seed, **{k: options[k] for k in fields})
    run = mlp.train(*splits, arch, cfg)
    if artifacts_dir is not None:
        header = ("epoch", "train_objective", "total_val_loss", "lr_epoch_start")
        for slug in slugs:
            base = os.path.join(artifacts_dir, slug)
            mlp.save_weights(base + ".mlpw", run.weights)
            write_csv(base + "_epochs.csv", header, run.epoch_log)
    return run.test_error_rate, run.best_epoch, len(run.epoch_log), run.stop_reason


def run_train_mlp(config, jobs):
    artifacts_dir = None
    if config.options["save_artifacts"]:
        artifacts_dir = os.path.join(config.output, "train_mlp_runs")
        os.makedirs(artifacts_dir, exist_ok=True)
    # A cell with family none or lambda 0 trains exactly what an unpenalized
    # run trains, whatever its label and lambda: such cells share one run per
    # seed, and every cell still gets its own row and artifacts.
    unpenalized = penalties.PenaltySpec("none")
    runs = {}  # (spec, lam, seed) actually trained -> slugs of its grid cells
    grid = []  # (label, lam, seed, run key) in grid order
    for spec in config.penalties:
        for lam in config.lambda_grid:
            lam = float(lam)
            for seed in config.seeds:
                if spec.family == "none" or lam == 0.0:
                    key = (unpenalized, 0.0, seed)
                else:
                    key = (spec, lam, seed)
                runs.setdefault(key, []).append(_slug(spec.label(), lam, seed))
                grid.append((spec.label(), lam, seed, key))
    splits = _mlp_splits(config.options)
    cells = [(splits, config.options, *key, artifacts_dir, slugs)
             for key, slugs in runs.items()]
    results = dict(zip(runs, _map_cells(_train_cell, cells, jobs)))
    rows = []
    errors = {}  # (label, lam) -> test errors over seeds
    for label, lam, seed, key in grid:
        rows.append(("run", label, lam, seed, *results[key]))
        errors.setdefault((label, lam), []).append(results[key][0])
    for (label, lam), errs in errors.items():  # penalties and lambdas are distinct
        rows.append(("median", label, lam, None, lower_median(errs), None, None, None))
    header = ("row", "penalty", "lambda", "seed", "test_error", "best_epoch",
              "epochs", "stop_reason")
    return "train_mlp.csv", header, rows


# --- driver ----------------------------------------------------------------

RUNNERS = {
    "penalty-table": run_penalty_table,
    "ortho-scan": run_ortho_scan,
    "bias-mc": run_bias_mc,
    "consistency-mc": run_consistency_mc,
    "train-mlp": run_train_mlp,
}


def run(config, jobs=1):
    """Execute one experiment; returns the path of the CSV it wrote."""
    if config.command not in RUNNERS:
        raise ConfigurationError(f"unknown command {config.command!r}")
    name, header, rows = RUNNERS[config.command](config, jobs)
    os.makedirs(config.output, exist_ok=True)
    path = os.path.join(config.output, name)
    write_csv(path, header, rows)
    return path


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="gausspen",
        description="Penalty experiments: shapes, phase transitions, "
                    "asymptotic bias, consistency, and toy MLP training.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="experiment config file")
    parser.add_argument("--seed-list", help="comma-separated seeds, e.g. 1,2,3")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--jobs", type=int, default=1, help="worker processes")
    args = parser.parse_args(argv)

    try:
        seeds = parse_seed_list(args.seed_list) if args.seed_list else None
        config = parse_config(args.config, command=args.command, seed_list=seeds, out=args.out)
        path = run(config, jobs=max(1, args.jobs))
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
