"""The benchmark's four workloads: config files generated from a seed, and
the work each one does, counted from its config.

``--seed`` picks the Monte Carlo / training seeds written into the config
(for ``scan``, the shift of its lambda and beta grids), returned as
``seeds``; the sizes are fixed, so every seed does the same amount of
work.  Each workload also has ``probe`` configs: the same commands at a
tiny size, which a fresh process runs once before the timed repetitions, so
that the first-call costs it defers past set-up are timed.  Standard
library only.
"""

import random

CONSISTENCY_BETA = "1.5, -0.8, 0, 2.5, -1.2, 0, 0.6, -2.0, 8.0, 1.0"
CONSISTENCY_N_GRID = (100, 400, 1600, 6400)
CONSISTENCY_REPLICATES = 12
CONSISTENCY_SEEDS = 1

BIAS_BETA = "0.3, -0.5, 1.0"
BIAS_N = 6400
BIAS_REPLICATES = 100
BIAS_SEEDS = 1

MLP_CLASSES = 10
MLP_PER_CLASS = 100
MLP_DIMENSION = 256
MLP_HIDDEN = (256, 256)
MLP_LAMBDAS = (1e-4, 1e-3)
MLP_PENALTIES = 2  # none and gaussian(kappa=10)
MLP_SEEDS = 1
MLP_MAX_EPOCHS = 2
MLP_TRAIN = MLP_CLASSES * MLP_PER_CLASS // 2  # fractions 0.5/0.25/0.25 split evenly per class
MLP_TEST = MLP_CLASSES * MLP_PER_CLASS // 4

SCAN_LAMBDA_POINTS = 376
SCAN_LAMBDA_STEP = 0.04
SCAN_BETAS = 1001
# the nine non-trivial families, with the hyperparameters tabulated
SCAN_FAMILIES = (
    ("lasso", ""),
    ("ridge", ""),
    ("bridge", "q = 0.5"),
    ("elastic_net", "mix = 0.5"),
    ("scad", "a = 3.7"),
    ("mcp", "b = 3"),
    ("laplace", "epsilon = 0.5"),
    ("arctan", "gamma = 1"),
    ("gaussian", "kappa = 10"),
)


def _seeds(seed, count):
    return sorted(random.Random(seed).sample(range(1_000_000), count))


def _join(values):
    return ", ".join(str(v) for v in values)


def _consistency_config(seeds, replicates, n_grid):
    return f"""[experiment]
command = consistency-mc
seeds = {_join(seeds)}

[consistency-mc]
beta = {CONSISTENCY_BETA}
sigma = 1
kappa = 10
lambda0 = 1
exponent = 0.5
replicates = {replicates}
n_grid = {_join(n_grid)}
"""


def consistency(seed):
    seeds = _seeds(seed, CONSISTENCY_SEEDS)
    text = _consistency_config(seeds, CONSISTENCY_REPLICATES, CONSISTENCY_N_GRID)
    probe = _consistency_config(seeds, 1, CONSISTENCY_N_GRID[:1])
    items = len(seeds) * len(CONSISTENCY_N_GRID) * CONSISTENCY_REPLICATES
    return {"configs": {"consistency-mc": text}, "probe": {"consistency-mc": probe},
            "items": items, "seeds": seeds}


def _bias_config(seeds, replicates):
    return f"""[experiment]
command = bias-mc
seeds = {_join(seeds)}

[bias-mc]
beta = {BIAS_BETA}
sigma = 1
kappa = 1
lambda0 = 1
n = {BIAS_N}
replicates = {replicates}
"""


def bias(seed):
    seeds = _seeds(seed, BIAS_SEEDS)
    return {"configs": {"bias-mc": _bias_config(seeds, BIAS_REPLICATES)},
            "probe": {"bias-mc": _bias_config(seeds, 1)},
            "items": len(seeds) * BIAS_REPLICATES, "seeds": seeds}


def _mlp_config(seeds, per_class, max_epochs):
    # patience above max_epochs: every run trains exactly max_epochs epochs
    return f"""[experiment]
command = train-mlp
seeds = {_join(seeds)}

[penalty:none]
family = none

[penalty:gaussian]
family = gaussian
kappa = 10

[lambda]
values = {_join(MLP_LAMBDAS)}

[train-mlp]
save_artifacts = true
classes = {MLP_CLASSES}
per_class = {per_class}
dimension = {MLP_DIMENSION}
separation = 3.0
label_noise = 0.1
fractions = 0.5, 0.25, 0.25
hidden = {_join(MLP_HIDDEN)}
batch_size = 32
patience = {max_epochs + 100}
max_epochs = {max_epochs}
"""


def mlp(seed):
    seeds = _seeds(seed, MLP_SEEDS)
    runs = MLP_PENALTIES * len(MLP_LAMBDAS) * len(seeds)
    return {"configs": {"train-mlp": _mlp_config(seeds, MLP_PER_CLASS, MLP_MAX_EPOCHS)},
            "probe": {"train-mlp": _mlp_config(seeds, 4, 1)},
            "items": runs * MLP_TRAIN * MLP_MAX_EPOCHS, "seeds": seeds}


def _scan_configs(shift, lambda_points, betas):
    lam_min = 0.01 + shift * SCAN_LAMBDA_STEP
    lam_max = lam_min + SCAN_LAMBDA_STEP * (lambda_points - 1)
    beta_max = 3.0 + shift
    ortho = f"""[experiment]
command = ortho-scan

[ortho-scan]
beta_ols = 3
kappa = 10
lambda_min = {lam_min!r}
lambda_max = {lam_max!r}
lambda_step = {SCAN_LAMBDA_STEP}
"""
    table = ["[experiment]", "command = penalty-table", ""]
    for family, params in SCAN_FAMILIES:
        table += [f"[penalty:{family}]", f"family = {family}", params, ""]
    table += ["[penalty-table]", f"beta_min = {-beta_max!r}", f"beta_max = {beta_max!r}",
              f"count = {betas}", ""]
    return {"ortho-scan": ortho, "penalty-table": "\n".join(table)}


def scan(seed):
    shift = random.Random(seed).random()
    items = SCAN_LAMBDA_POINTS + len(SCAN_FAMILIES) * SCAN_BETAS
    return {"configs": _scan_configs(shift, SCAN_LAMBDA_POINTS, SCAN_BETAS),
            "probe": _scan_configs(shift, 3, 3), "items": items, "seeds": [shift]}


WORKLOADS = {
    "mc-consistency": consistency,
    "mc-bias": bias,
    "mlp-train": mlp,
    "scan": scan,
}
