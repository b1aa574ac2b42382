"""Command-line experiment runner.

    gausspen <command> --config <path> [--seed-list 1,2,3] [--out <dir>] [--jobs N]

Commands: penalty-table, ortho-scan, bias-mc, consistency-mc, train-mlp.
Each writes one CSV (header row; floats with 17 significant digits so values
round-trip exactly) into the output directory, chosen by --out, then the
config file's ``output`` key, then $GAUSSPEN_OUT, then the working directory.
Every file is written atomically by ``data.write_file``, which makes its
directory with it, so a command that fails before writing leaves no directory.
Grid cells are independent; --jobs N > 1 computes them in a pool of N worker
processes, or of one per cell if there are fewer cells, but rows are always
written in deterministic grid order; N must be a positive integer.  Exit
codes: 0 success (--help too), 1 configuration or usage error, 2 runtime error.
"""

import argparse
import os
import re
import sys

import numpy as np

from . import asymptotics, data, mlp, penalties, regression
from .config import COMMANDS, parse_config, parse_seed_list
from .data import write_csv
from .errors import ConfigurationError


def lower_median(values):
    """Deterministic median: the lower of the two middles for even counts."""
    ordered = sorted(values)
    return ordered[(len(ordered) - 1) // 2]


def _map_cells(fn, cells, jobs):
    """``fn(*cell)`` for each cell, in order.  A cell holds one call's
    arguments, built in the parent, so a pool worker only makes that call."""
    jobs = min(jobs, len(cells))  # a pool forks all its workers at once
    if jobs <= 1:
        return [fn(*cell) for cell in cells]
    from concurrent.futures import ProcessPoolExecutor  # a serial run skips its import

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, *zip(*cells)))


# --- penalty-table ---------------------------------------------------------

def run_penalty_table(config, jobs):
    opts = config.options
    betas = np.linspace(opts["beta_min"], opts["beta_max"], opts["count"])
    # every value first, so a DomainError comes before any file is written;
    # the beta column repeats the grid once per family, converted once
    values = np.concatenate([penalties.value_array(spec, betas) for spec in config.penalties])
    labels = []
    for spec in config.penalties:
        labels += [spec.label()] * betas.size
    columns = (labels, data.cell_texts(betas.tolist()) * len(config.penalties), values.tolist())
    return "penalty_table.csv", ("penalty", "beta", "value"), columns


# --- ortho-scan ------------------------------------------------------------

def run_ortho_scan(config, jobs):
    opts = config.options
    grid = opts["lambda_values"]
    if grid is None:
        step = opts["lambda_step"]  # parse_config has bounded the grid's length
        grid = list(np.arange(opts["lambda_min"], opts["lambda_max"] + step / 2.0, step))
    profiles, lambda_star = regression.lambda_phase_scan(opts["beta_ols"], opts["kappa"], grid)
    rows = []
    for profile in profiles:
        for i, (loc, val, curv) in enumerate(profile.minima):
            rows.append(
                ("minimum", profile.lam, loc, val, curv, int(i == profile.global_index))
            )
    rows.append(("lambda_star", lambda_star, None, None, None, None))
    header = ("row", "lambda", "location", "value", "second_derivative", "is_global")
    return "ortho_scan.csv", header, zip(*rows)


# --- bias-mc and consistency-mc --------------------------------------------

def _sim_spec(options, seed):
    beta = np.asarray(options["beta"])
    c_diag = options["c_diag"]
    return asymptotics.SimSpec(
        beta_true=beta, C=np.diag(np.ones(beta.size) if c_diag is None else c_diag),
        sigma=options["sigma"], lambda0=options["lambda0"],
        r=options.get("exponent", asymptotics.SimSpec.r),  # only consistency-mc has one
        penalty=penalties.PenaltySpec("gaussian", kappa=options["kappa"]),
        replicates=options["replicates"], seed=seed,
    )


def run_bias_mc(config, jobs):
    n = config.options["n"]
    cells = [(_sim_spec(config.options, seed), n) for seed in config.seeds]
    reports = _map_cells(asymptotics.run_bias_experiment, cells, jobs)
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
    return "bias_mc.csv", header, zip(*rows)


def run_consistency_mc(config, jobs):
    n_grid = config.options["n_grid"]
    cells = [(_sim_spec(config.options, seed), n_grid) for seed in config.seeds]
    tables = _map_cells(asymptotics.run_consistency_experiment, cells, jobs)
    rows = []
    for seed, table in zip(config.seeds, tables):
        for n, err in table:
            rows.append(("run", seed, n, err))
    for i, n in enumerate(n_grid):
        rows.append(("median", None, n, lower_median([t[i][1] for t in tables])))
    return "consistency_mc.csv", ("row", "seed", "n", "median_l2_error"), zip(*rows)


# --- train-mlp -------------------------------------------------------------

def _mlp_splits(options):
    dataset = data.make_blobs(
        num_classes=options["classes"], per_class=options["per_class"],
        dimension=options["dimension"], separation=options["separation"],
        seed=options["data_seed"],
    )
    train_set, val_set, test_set = data.split(dataset, options["fractions"], options["split_seed"])
    train_set = data.flip_labels(train_set, options["label_noise"], options["noise_seed"])
    return train_set, val_set, test_set


def _slug(label, lam, seed):
    # distinct lambdas, distinct names: float_text is one-to-one, and its
    # exponent keeps its sign ("1e+06" and "1e-06")
    text = f"{label}_lam{penalties.float_text(lam)}_seed{seed}"
    return re.sub(r"[^A-Za-z0-9.+]+", "-", text).strip("-")


def _train_cell(splits, arch, cfg, weights, artifacts_dir, slugs):
    run = mlp.train(*splits, arch, cfg, weights=weights)
    if artifacts_dir is not None:
        header = ("epoch", "train_objective", "total_val_loss", "lr_epoch_start")
        for slug in slugs:
            base = os.path.join(artifacts_dir, slug)
            mlp.save_weights(base + ".mlpw", run.weights)
            write_csv(base + "_epochs.csv", header, zip(*run.epoch_log))
    return run.test_error_rate, run.best_epoch, len(run.epoch_log), run.stop_reason


def run_train_mlp(config, jobs):
    # equal TrainConfigs share one run; each cell still gets its own row and artifacts
    options = config.options
    fields = ("lr_min", "lr_max", "batch_size", "patience", "max_epochs")  # of TrainConfig
    settings = {k: options[k] for k in fields}
    runs = {}  # TrainConfig actually trained -> slugs of its grid cells
    grid = []  # (label, lam, seed, run config) in grid order
    for spec in config.penalties:
        for lam in config.lambda_grid:
            lam = float(lam)
            for seed in config.seeds:
                cfg = mlp.TrainConfig(penalty=spec, lam=lam, seed=seed, **settings)
                runs.setdefault(cfg, []).append(_slug(spec.label(), lam, seed))
                grid.append((spec.label(), lam, seed, cfg))
    splits = _mlp_splits(options)
    # the sizes _mlp_problems checked; a noisy train split may lack a class
    arch = mlp.MlpArchitecture((options["dimension"], *options["hidden"], options["classes"]))
    save = options["save_artifacts"]  # the directory appears with its first file
    artifacts_dir = os.path.join(config.output, "train_mlp_runs") if save else None
    initial = {seed: mlp.init_weights(arch, seed) for seed in config.seeds}  # what train draws
    cells = [(splits, arch, cfg, initial[cfg.seed], artifacts_dir, slugs)
             for cfg, slugs in runs.items()]
    results = dict(zip(runs, _map_cells(_train_cell, cells, jobs)))
    rows = []
    errors = {}  # (label, lam) -> test errors over seeds
    for label, lam, seed, cfg in grid:
        rows.append(("run", label, lam, seed, *results[cfg]))
        errors.setdefault((label, lam), []).append(results[cfg][0])
    for (label, lam), errs in errors.items():  # penalties and lambdas are distinct
        rows.append(("median", label, lam, None, lower_median(errs), None, None, None))
    header = ("row", "penalty", "lambda", "seed", "test_error", "best_epoch",
              "epochs", "stop_reason")
    return "train_mlp.csv", header, zip(*rows)


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
    name, header, columns = RUNNERS[config.command](config, jobs)
    path = os.path.join(config.output, name)
    write_csv(path, header, columns)
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
    try:
        args = parser.parse_args(argv)
        if args.jobs < 1:
            parser.error(f"argument --jobs: {args.jobs} is not a positive integer")
    except SystemExit as exc:  # argparse's: 0 after --help, else a usage error
        return 1 if exc.code else 0

    try:
        seeds = parse_seed_list(args.seed_list) if args.seed_list is not None else None
        config = parse_config(args.config, command=args.command, seed_list=seeds, out=args.out)
        path = run(config, jobs=args.jobs)
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
