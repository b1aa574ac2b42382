import math
import os
import pathlib
import re
import subprocess
import sys

import pytest

from gausspen import cli, mlp, penalties
from gausspen.cli import lower_median, main, write_csv
from gausspen.config import loggrid, parse_config, parse_seed_list
from gausspen.errors import ConfigurationError, DomainError
from gausspen.penalties import PenaltySpec


def write_config(path, text):
    path.write_text(text)
    return str(path)


# --- loggrid ---------------------------------------------------------------------


def test_loggrid_examples():
    grid = loggrid(0.01, 1.0, 3)
    assert grid == pytest.approx([0.01, 0.1, 1.0], rel=1e-12)
    assert loggrid(1.0, 1.0001, 2) == pytest.approx([1.0, 1.0001])
    grid = loggrid(1e-4, 1e2, 7)
    ratios = [b / a for a, b in zip(grid, grid[1:])]
    assert all(abs(r - 10.0) < 1e-12 * 10.0 for r in ratios)
    assert grid[0] == 1e-4 and grid[-1] == 1e2


def test_loggrid_validation():
    with pytest.raises(ConfigurationError):
        loggrid(0.0, 1.0, 3)
    with pytest.raises(ConfigurationError):
        loggrid(2.0, 1.0, 3)
    with pytest.raises(ConfigurationError):
        loggrid(0.1, 1.0, 1)


def test_lower_median():
    assert lower_median([3.0, 1.0, 2.0]) == 2.0
    assert lower_median([4.0, 1.0, 3.0, 2.0]) == 2.0  # lower of the two middles
    assert lower_median([7.0]) == 7.0


# --- config parsing ----------------------------------------------------------------


def test_parse_config_full(tmp_path):
    path = write_config(
        tmp_path / "exp.cfg",
        """
[experiment]
command = train-mlp
seeds = 4, 5
output = results

[penalty:g]
family = gaussian
kappa = 10

[penalty:base]
family = none

[lambda]
log_min = 0.001
log_max = 0.1
count = 3

[train-mlp]
classes = 2
per_class = 30
""",
    )
    config = parse_config(path)
    assert config.command == "train-mlp"
    assert config.seeds == [4, 5]
    assert config.output == "results"
    assert [p.family for p in config.penalties] == ["gaussian", "none"]
    assert config.lambda_grid == pytest.approx([0.001, 0.01, 0.1])
    assert config.options["classes"] == 2


def test_parse_config_reports_all_problems(tmp_path):
    path = write_config(
        tmp_path / "bad.cfg",
        """
[experiment]
command = no-such-thing
seeds = 1, x

[penalty:broken]
family = gaussian
kappa = -3

[penalty:anon]
kappa = 5
""",
    )
    with pytest.raises(ConfigurationError) as err:
        parse_config(path)
    message = str(err.value)
    assert "no-such-thing" in message
    assert "kappa" in message
    assert "family" in message
    assert "seed" in message


def test_parse_config_command_mismatch(tmp_path):
    path = write_config(tmp_path / "c.cfg", "[experiment]\ncommand = ortho-scan\n")
    with pytest.raises(ConfigurationError):
        parse_config(path, command="bias-mc")


def test_parse_config_missing_file():
    with pytest.raises(ConfigurationError):
        parse_config("/nonexistent/path.cfg")


def test_seed_list_parsing():
    assert parse_seed_list("1,2,3") == [1, 2, 3]
    with pytest.raises(ConfigurationError):
        parse_seed_list("1,-2")
    with pytest.raises(ConfigurationError):
        parse_seed_list("a,b")
    with pytest.raises(ConfigurationError, match=r"'1,2,1' .*\(1 is repeated\)"):
        parse_seed_list("1,2,1")


def test_output_dir_env_fallback(tmp_path, monkeypatch):
    path = write_config(tmp_path / "c.cfg", "[experiment]\ncommand = ortho-scan\n")
    monkeypatch.setenv("GAUSSPEN_OUT", "/env/dir")
    assert parse_config(path).output == "/env/dir"
    assert parse_config(path, out="/cli/dir").output == "/cli/dir"


# --- CSV writer ---------------------------------------------------------------------


def test_write_csv_17_digit_roundtrip(tmp_path):
    path = tmp_path / "x.csv"
    value = 1.0 / 3.0
    write_csv(path, ("a", "b"), [(value, "tag")])
    line = path.read_text().splitlines()[1]
    assert float(line.split(",")[0]) == value


def test_write_csv_failure_keeps_earlier_file(tmp_path):
    path = tmp_path / "x.csv"
    write_csv(path, ("a",), [(1.0,)])
    before = path.read_bytes()

    def rows():
        yield (2.0,)
        raise RuntimeError("row source failed")

    with pytest.raises(RuntimeError):
        write_csv(path, ("a",), rows())
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["x.csv"]


# --- end-to-end commands --------------------------------------------------------------


ORTHO_CFG = """
[experiment]
command = ortho-scan

[ortho-scan]
beta_ols = 3
kappa = 10
lambda_min = 0.1
lambda_max = 15.1
lambda_step = 1.0
"""


def test_ortho_scan_end_to_end(tmp_path):
    cfg = write_config(tmp_path / "o.cfg", ORTHO_CFG)
    out = tmp_path / "out"
    code = main(["ortho-scan", "--config", cfg, "--out", str(out)])
    assert code == 0
    lines = (out / "ortho_scan.csv").read_text().splitlines()
    assert lines[0] == "row,lambda,location,value,second_derivative,is_global"
    minima = [l for l in lines[1:] if l.startswith("minimum")]
    # 16 lambdas, two of them pre-bifurcation with one minimum each
    assert len(minima) == 2 * 16 - 2
    star = [l for l in lines[1:] if l.startswith("lambda_star")]
    assert len(star) == 1
    lam_star = float(star[0].split(",")[1])
    assert 8.5 <= lam_star <= 9.3


def test_penalty_table_matches_figure_curves(tmp_path):
    cfg = write_config(
        tmp_path / "p.cfg",
        """
[experiment]
command = penalty-table

[penalty:lasso]
family = lasso

[penalty:ridge]
family = ridge

[penalty:arctan]
family = arctan
gamma = 1

[penalty:gaussian]
family = gaussian
kappa = 1

[penalty-table]
beta_min = -3
beta_max = 3
count = 13
""",
    )
    out = tmp_path / "out"
    assert main(["penalty-table", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "penalty_table.csv").read_text().splitlines()
    assert len(lines) == 1 + 4 * 13
    rows = [line.split(",") for line in lines[1:]]
    for label, beta, value in rows:
        beta, value = float(beta), float(value)
        if label == "lasso":
            assert value == abs(beta)
        elif label == "ridge":
            assert value == beta * beta
        elif label.startswith("arctan"):
            assert value == pytest.approx(2.0 / math.pi * math.atan(abs(beta)))
        else:
            assert value == pytest.approx(1.0 - math.exp(-beta * beta))


SIGNED_ZERO_TABLE_CFG = """
[experiment]
command = penalty-table

[penalty:g]
family = gaussian
kappa = 1

[penalty:lasso]
family = lasso

[penalty-table]
beta_min = 0.0
beta_max = -0.0
count = 2
"""


def test_penalty_table_keeps_signed_zeros(tmp_path):
    # np.linspace(0.0, -0.0, 2) is [0.0, -0.0]: equal floats that print apart,
    # in every family's rows
    cfg = write_config(tmp_path / "p.cfg", SIGNED_ZERO_TABLE_CFG)
    out = tmp_path / "out"
    assert main(["penalty-table", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "penalty_table.csv").read_text().splitlines()
    assert [line.split(",")[1] for line in lines[1:]] == ["0", "-0", "0", "-0"]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_penalty_table_domain_error_opens_no_file(tmp_path, capsys, monkeypatch):
    # every value is computed before the output directory is made, so a
    # DomainError at the last family leaves nothing behind
    value_array = penalties.value_array

    def failing(spec, betas):
        if spec.family == "lasso":
            raise DomainError("penalty evaluated at a non-finite coefficient")
        return value_array(spec, betas)

    monkeypatch.setattr(penalties, "value_array", failing)
    cfg = write_config(tmp_path / "p.cfg", SIGNED_ZERO_TABLE_CFG)
    out = tmp_path / "out"
    assert main(["penalty-table", "--config", cfg, "--out", str(out)]) == 2
    assert "non-finite coefficient" in capsys.readouterr().err
    assert not out.exists()


def test_bias_mc_end_to_end(tmp_path):
    cfg = write_config(
        tmp_path / "b.cfg",
        """
[experiment]
command = bias-mc
seeds = 1, 2

[bias-mc]
beta = 1
sigma = 1
kappa = 1
lambda0 = 1
n = 200
replicates = 40
""",
    )
    out = tmp_path / "out"
    assert main(["bias-mc", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "bias_mc.csv").read_text().splitlines()
    runs = [l for l in lines if l.startswith("run")]
    medians = [l for l in lines if l.startswith("median")]
    assert len(runs) == 2 and len(medians) == 1
    theo = float(runs[0].split(",")[5])
    assert theo == pytest.approx(-math.exp(-1.0))


def test_consistency_mc_end_to_end(tmp_path):
    cfg = write_config(
        tmp_path / "c.cfg",
        """
[experiment]
command = consistency-mc
seeds = 1

[consistency-mc]
beta = 1, -2
sigma = 1
kappa = 10
lambda0 = 1
exponent = 0.5
replicates = 30
n_grid = 100, 400
""",
    )
    out = tmp_path / "out"
    assert main(["consistency-mc", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "consistency_mc.csv").read_text().splitlines()
    runs = [l.split(",") for l in lines if l.startswith("run")]
    assert [int(r[2]) for r in runs] == [100, 400]
    assert float(runs[1][3]) < float(runs[0][3])


TRAIN_CFG = """
[experiment]
command = train-mlp
seeds = 1, 2, 3

[penalty:base]
family = none

[penalty:g]
family = gaussian
kappa = 10

[lambda]
values = 0.001, 0.01

[train-mlp]
classes = 2
per_class = 30
dimension = 2
separation = 4.0
hidden = 8
batch_size = 16
max_epochs = 15
"""


def test_train_mlp_grid_completeness(tmp_path):
    cfg = write_config(tmp_path / "t.cfg", TRAIN_CFG)
    out = tmp_path / "out"
    assert main(["train-mlp", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "train_mlp.csv").read_text().splitlines()
    runs = [l for l in lines if l.startswith("run")]
    medians = [l for l in lines if l.startswith("median")]
    # |penalties| x |lambdas| x |seeds| runs plus one summary per grid point
    assert len(runs) == 2 * 2 * 3
    assert len(medians) == 2 * 2
    for med in medians:
        cells = med.split(",")
        label, lam = cells[1], float(cells[2])
        seed_errs = [
            float(r.split(",")[4])
            for r in runs
            if r.split(",")[1] == label and float(r.split(",")[2]) == lam
        ]
        assert float(cells[4]) == lower_median(seed_errs)


MC_BIAS_CFG = """
[experiment]
command = bias-mc
seeds = 1, 2, 3

[bias-mc]
beta = 1, -0.5
sigma = 1
kappa = 1
n = 200
replicates = 20
"""

MC_CONSISTENCY_CFG = """
[experiment]
command = consistency-mc
seeds = 1, 2, 3

[consistency-mc]
beta = 1, -2
sigma = 1
kappa = 10
exponent = 0.5
replicates = 10
n_grid = 50, 100
"""

RERUN_CASES = pytest.mark.parametrize(
    "command, text, csv",
    [("train-mlp", TRAIN_CFG, "train_mlp.csv"),
     ("bias-mc", MC_BIAS_CFG, "bias_mc.csv"),
     ("consistency-mc", MC_CONSISTENCY_CFG, "consistency_mc.csv")],
    ids=["train-mlp", "bias-mc", "consistency-mc"],
)


@RERUN_CASES
def test_rerun_byte_identical(tmp_path, command, text, csv):
    cfg = write_config(tmp_path / "t.cfg", text)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 0
    first = (out / csv).read_bytes()
    assert main([command, "--config", cfg, "--out", str(out)]) == 0
    assert (out / csv).read_bytes() == first


@RERUN_CASES
def test_jobs_parallel_same_bytes(tmp_path, command, text, csv):
    cfg = write_config(tmp_path / "t.cfg", text)
    serial_dir, parallel_dir = tmp_path / "s", tmp_path / "p"
    assert main([command, "--config", cfg, "--out", str(serial_dir)]) == 0
    assert main([command, "--config", cfg, "--out", str(parallel_dir), "--jobs", "3"]) == 0
    assert (serial_dir / csv).read_bytes() == (parallel_dir / csv).read_bytes()


def test_train_mlp_artifacts(tmp_path):
    cfg = write_config(
        tmp_path / "t.cfg", TRAIN_CFG + "save_artifacts = true\n"
    )
    out = tmp_path / "out"
    assert main(["train-mlp", "--config", cfg, "--out", str(out)]) == 0
    runs_dir = out / "train_mlp_runs"
    logs = sorted(runs_dir.glob("*_epochs.csv"))
    checkpoints = sorted(runs_dir.glob("*.mlpw"))
    assert len(logs) == 2 * 2 * 3 and len(checkpoints) == 2 * 2 * 3
    lines = logs[0].read_text().splitlines()
    assert lines[0] == "epoch,train_objective,total_val_loss,lr_epoch_start"
    assert len(lines) >= 2
    from gausspen.mlp import load_weights

    weights = load_weights(checkpoints[0])
    assert weights[0][0].shape == (2, 8)  # dimension 2 -> hidden 8


SHARED_CFG = TRAIN_CFG.replace("seeds = 1, 2, 3", "seeds = 1, 2").replace(
    "values = 0.001, 0.01", "values = 0.01, 0, 0.1"
).replace("max_epochs = 15", "max_epochs = 6") + "save_artifacts = true\n"


def _tree(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_train_mlp_trains_each_distinct_run_once(tmp_path, monkeypatch):
    cfg = write_config(tmp_path / "t.cfg", SHARED_CFG)
    trained = []
    real_train = mlp.train

    def counting_train(*args, **kwargs):
        config = args[4]
        trained.append((config.penalty.family, config.lam, config.seed))
        return real_train(*args, **kwargs)

    monkeypatch.setattr(mlp, "train", counting_train)
    out = tmp_path / "out"
    assert main(["train-mlp", "--config", cfg, "--out", str(out)]) == 0
    # none at every lambda and gaussian at lambda 0 are one unpenalized run per seed
    assert sorted(trained) == sorted(
        [("none", 0.0, seed) for seed in (1, 2)]
        + [("gaussian", lam, seed) for lam in (0.01, 0.1) for seed in (1, 2)]
    )

    lines = (out / "train_mlp.csv").read_text().splitlines()
    runs = [line.split(",") for line in lines if line.startswith("run")]
    assert [(r[1], float(r[2]), int(r[3])) for r in runs] == [
        (label, lam, seed)
        for label in ("none", "gaussian(kappa=10)")
        for lam in (0.01, 0.0, 0.1)
        for seed in (1, 2)
    ]
    runs_dir = out / "train_mlp_runs"
    splits = cli._mlp_splits(parse_config(cfg).options)
    for seed in (1, 2):
        shared = [r for r in runs
                  if int(r[3]) == seed and (r[1] == "none" or float(r[2]) == 0.0)]
        assert len(shared) == 4 and all(r[4:] == shared[0][4:] for r in shared)
        slugs = [cli._slug(r[1], float(r[2]), seed) for r in shared]
        for suffix in (".mlpw", "_epochs.csv"):
            blobs = {(runs_dir / (slug + suffix)).read_bytes() for slug in slugs}
            assert len(blobs) == 1
        # the shared run is what the cell's own penalty and lambda would train
        config = mlp.TrainConfig(penalty=PenaltySpec("none"), lam=0.1, batch_size=16,
                                 max_epochs=6, seed=seed)
        own = real_train(*splits, mlp.MlpArchitecture((2, 8, 2)), config)
        assert float(shared[0][4]) == own.test_error_rate
        path = tmp_path / "own_epochs.csv"
        write_csv(path, ("epoch", "train_objective", "total_val_loss", "lr_epoch_start"),
                  own.epoch_log)
        assert path.read_bytes() == (runs_dir / (slugs[0] + "_epochs.csv")).read_bytes()
    assert len(list(runs_dir.iterdir())) == 2 * len(runs)

    monkeypatch.setattr(mlp, "train", real_train)
    parallel = tmp_path / "parallel"
    assert main(["train-mlp", "--config", cfg, "--out", str(parallel), "--jobs", "2"]) == 0
    assert _tree(parallel) == _tree(out)


def test_train_mlp_close_parameters_stay_distinct(tmp_path):
    # kappa = 10 and 10.000001 both print as 10 under :g; their labels must
    # still differ, or the two penalties share rows, medians and artifacts
    text = SHARED_CFG.replace("family = none", "family = gaussian\nkappa = 10.000001").replace(
        "values = 0.01, 0, 0.1", "values = 0.01").replace("seeds = 1, 2", "seeds = 1")
    cfg = write_config(tmp_path / "t.cfg", text)
    out = tmp_path / "out"
    assert main(["train-mlp", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "train_mlp.csv").read_text().splitlines()
    runs = [line.split(",") for line in lines if line.startswith("run")]
    medians = [line.split(",") for line in lines if line.startswith("median")]
    labels = ["gaussian(kappa=10.000001)", "gaussian(kappa=10)"]
    assert [r[1] for r in runs] == labels
    assert [m[1] for m in medians] == labels
    checkpoints = sorted((out / "train_mlp_runs").glob("*.mlpw"))
    assert len(checkpoints) == 2


def test_seed_list_override(tmp_path):
    cfg = write_config(tmp_path / "t.cfg", TRAIN_CFG)
    out = tmp_path / "out"
    assert main(
        ["train-mlp", "--config", cfg, "--out", str(out), "--seed-list", "7"]
    ) == 0
    lines = (out / "train_mlp.csv").read_text().splitlines()
    runs = [l for l in lines if l.startswith("run")]
    assert len(runs) == 2 * 2 * 1
    assert all(r.split(",")[3] == "7" for r in runs)


def test_repeated_seed_list_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path / "t.cfg", TRAIN_CFG)
    out = tmp_path / "out"
    assert main(["train-mlp", "--config", cfg, "--out", str(out), "--seed-list", "7,7"]) == 1
    assert "(7 is repeated)" in capsys.readouterr().err
    assert not out.exists()


def test_exit_codes(tmp_path, capsys):
    # config error -> 1; this covers bad sections and bad runtime parameters
    cfg = write_config(tmp_path / "bad.cfg", "[experiment]\ncommand = train-mlp\n")
    assert main(["train-mlp", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "config error" in capsys.readouterr().err
    # a split ending up empty is also a configuration problem
    cfg2 = write_config(
        tmp_path / "r.cfg", TRAIN_CFG.replace("per_class = 30", "per_class = 1")
    )
    assert main(["train-mlp", "--config", cfg2, "--out", str(tmp_path)]) == 1
    # so is an ortho-scan whose profile values or slopes overflow
    for old, new in (("beta_ols = 3", "beta_ols = 1e200"), ("kappa = 10", "kappa = 1e307")):
        cfg_big = write_config(tmp_path / "big.cfg", ORTHO_CFG.replace(old, new))
        assert main(["ortho-scan", "--config", cfg_big, "--out", str(tmp_path)]) == 1
        assert "out of range" in capsys.readouterr().err
    # runtime error -> 2 (output directory path occupied by a file)
    blocker = tmp_path / "blocked"
    blocker.write_text("")
    cfg3 = write_config(tmp_path / "ok.cfg", ORTHO_CFG)
    assert main(["ortho-scan", "--config", cfg3, "--out", str(blocker)]) == 2
    assert "runtime error" in capsys.readouterr().err


PENALTY_TABLE_CFG = """
[experiment]
command = penalty-table

[penalty:g]
family = gaussian
kappa = 1

[penalty-table]
beta_min = -3
count = 13
"""


TRAIN_LOG_GRID_CFG = TRAIN_CFG.replace("values = 0.001, 0.01",
                                      "log_min = 0.001\nlog_max = 0.01\ncount = 2")


@pytest.mark.parametrize("command, key, bad", [
    ("consistency-mc", "n_grid", ""),
    ("consistency-mc", "n_grid", "0, 50"),
    ("ortho-scan", "lambda_step", "0"),
    ("ortho-scan", "lambda_step", "-1"),
    # positive, but the grid would hold 1.5e301 or 1.5e10 lambdas: rejected
    # from its length alone, before numpy is asked for the memory
    ("ortho-scan", "lambda_step", "1e-300"),
    ("ortho-scan", "lambda_step", "1e-9"),
    # a reversed range, whose grid would be empty or run past lambda_max
    ("ortho-scan", "lambda_min", "20"),
    ("ortho-scan", "lambda_min", "15.2"),
    ("penalty-table", "count", "-1"),
    ("penalty-table", "count", "0"),
    # above MAX_GRID: rejected as parsed, before numpy is asked for the memory
    ("penalty-table", "count", "1000001"),
    ("penalty-table", "count", str(10**12)),
    # each end finite, but beta_max - beta_min overflows a double
    ("penalty-table", "beta_min", "-1e308\nbeta_max = 1e308"),
    ("train-mlp", "count", "0"),
    ("train-mlp", "count", "1000001"),
    ("train-mlp", "count", str(10**12)),
])
def test_out_of_range_option_is_config_error(tmp_path, capsys, command, key, bad):
    # caught before any work, naming the option: past the checks each gives
    # an index error, a division by zero, a numpy error, an empty grid or
    # table, or an attempt to allocate an enormous grid
    text = {"consistency-mc": MC_CONSISTENCY_CFG, "ortho-scan": ORTHO_CFG,
            "penalty-table": PENALTY_TABLE_CFG, "train-mlp": TRAIN_LOG_GRID_CFG}[command]
    text = re.sub(rf"^{key} = .*$", f"{key} = {bad}", text, flags=re.M)
    cfg = write_config(tmp_path / "c.cfg", text)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and f"`{key}`" in err


def test_malformed_lambda_values_is_one_problem(tmp_path):
    # a malformed list is not also reported as a missing [lambda] grid
    for values in ("0.01, 1e-2", "0.1, -1"):
        cfg = write_config(tmp_path / "t.cfg",
                           TRAIN_CFG.replace("values = 0.001, 0.01", f"values = {values}"))
        with pytest.raises(ConfigurationError) as err:
            parse_config(cfg)
        problems = str(err.value).splitlines()[1:]
        assert len(problems) == 1 and "`values`" in problems[0]


BIAS_CFG = """
[experiment]
command = bias-mc
seeds = 1

[bias-mc]
beta = 1
sigma = 1
n = 50
replicates = 2
"""


@pytest.mark.parametrize(
    "key, bad", [("n", "abc"), ("sigma", "x"), ("beta", "1, y"), ("replicates", "2.5")]
)
def test_non_numeric_option_is_config_error(tmp_path, capsys, key, bad):
    text = re.sub(rf"^{key} = .*$", f"{key} = {bad}", BIAS_CFG, flags=re.M)
    cfg = write_config(tmp_path / "b.cfg", text)
    assert main(["bias-mc", "--config", cfg, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and f"`{key}` = {bad!r}" in err


@pytest.mark.parametrize("values", ["inf", "nan", "0.1, -1"])
def test_non_finite_or_negative_lambda_is_config_error(tmp_path, values):
    cfg = write_config(
        tmp_path / "t.cfg", TRAIN_CFG.replace("values = 0.001, 0.01", f"values = {values}")
    )
    with pytest.raises(ConfigurationError, match="lambda"):
        parse_config(cfg)


def test_import_loads_no_scipy(tmp_path):
    # numpy is the only third-party import; scipy.optimize alone took most
    # of a CLI run's start-up time
    code = ("import sys, gausspen, gausspen.cli\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).parents[1] / "src"))
    result = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
