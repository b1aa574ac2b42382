import concurrent.futures
import math
import os
import pathlib
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import CONFIGS, derive_config, run_cli
from gausspen import cli, data, mlp, penalties, regression
from gausspen.cli import lower_median, write_csv
from gausspen.config import COMMANDS, loggrid, parse_config, parse_seed_list
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
    write_csv(path, ("a", "b"), [[value], ["tag"]])
    line = path.read_text().splitlines()[1]
    assert float(line.split(",")[0]) == value


def test_write_csv_failure_keeps_earlier_file(tmp_path, monkeypatch):
    path = tmp_path / "x.csv"
    write_csv(path, ("a",), [[1.0]])
    before = path.read_bytes()

    class Unprintable:
        def __str__(self):
            raise RuntimeError("cell cannot be printed")

    # the first block is written before the second one fails
    monkeypatch.setattr(data, "CSV_BLOCK_ROWS", 2)
    with pytest.raises(RuntimeError):
        write_csv(path, ("a",), [[2.0, 3.0, Unprintable()]])
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
    code, err, out = run_cli(tmp_path, "ortho-scan", "--config", cfg)
    assert code == 0, err
    lines = (out / "ortho_scan.csv").read_text().splitlines()
    assert lines[0] == "row,lambda,location,value,second_derivative,is_global"
    minima = [l for l in lines[1:] if l.startswith("minimum")]
    # 16 lambdas, two of them pre-bifurcation with one minimum each
    assert len(minima) == 2 * 16 - 2
    star = [l for l in lines[1:] if l.startswith("lambda_star")]
    assert len(star) == 1
    lam_star = float(star[0].split(",")[1])
    assert 8.5 <= lam_star <= 9.3


def test_lambda_star_depends_only_on_its_grid_step(tmp_path):
    # lambda* is searched for on the first grid step where the gap between
    # the two minima turns nonpositive: a scan of that step's two lambdas
    # alone must give the full run's lambda_star row, byte for byte
    step = "8.0999999999999996, 9.0999999999999996"
    cfg = write_config(tmp_path / "step.cfg",
                       derive_config("ortho_scan", {"ortho-scan": {"lambda_values": step}}))
    rows = {}
    for name, path in (("full", CONFIGS / "ortho_scan.cfg"), ("step", cfg)):
        code, err, out = run_cli(tmp_path, "ortho-scan", "--config", path, out=name)
        assert code == 0, err
        rows[name] = (out / "ortho_scan.csv").read_text().splitlines()
    lams = sorted({row.split(",")[1] for row in rows["full"] if row.startswith("minimum,")},
                  key=float)
    star = [row for row in rows["full"] if row.startswith("lambda_star,")]
    assert len(star) == 1
    lo = max(lam for lam in lams if float(lam) < float(star[0].split(",")[1]))
    assert step == f"{lo}, {lams[lams.index(lo) + 1]}"
    assert [row for row in rows["step"] if row.startswith("lambda_star,")] == star


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
    code, err, out = run_cli(tmp_path, "penalty-table", "--config", cfg)
    assert code == 0, err
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
    code, err, out = run_cli(tmp_path, "penalty-table", "--config", cfg)
    assert code == 0, err
    lines = (out / "penalty_table.csv").read_text().splitlines()
    assert [line.split(",")[1] for line in lines[1:]] == ["0", "-0", "0", "-0"]


@pytest.mark.parametrize("sections, beta_min, beta_max, count", [
    # 2a|b| overflowed in SCAD's quadratic: NaN at |b| = 2 and 3
    ("[penalty:scad]\nfamily = scad\na = 1.7e308\n", -3, 3, 7),
    # NaN from SCAD and -inf from MCP at +-1e200
    ("[penalty:scad]\nfamily = scad\na = 1e200\n[penalty:mcp]\nfamily = mcp\nb = 1e200\n",
     -1e200, 1e200, 5),
], ids=["scad-largest-a", "scad-mcp-1e200"])
def test_penalty_table_of_huge_parameters_is_finite(tmp_path, sections, beta_min, beta_max,
                                                    count):
    # a warning is an error, which would exit 2
    cfg = write_config(tmp_path / "p.cfg", f"[experiment]\ncommand = penalty-table\n{sections}"
                       f"[penalty-table]\nbeta_min = {beta_min}\nbeta_max = {beta_max}\n"
                       f"count = {count}\n")
    code, err, out = run_cli(tmp_path, "penalty-table", "--config", cfg)
    assert code == 0, err
    lines = (out / "penalty_table.csv").read_text().splitlines()
    assert len(lines) == 1 + count * sections.count("[penalty:")
    for line in lines[1:]:
        value = float(line.split(",")[2])
        assert 0.0 <= value < math.inf, line


def test_lambda_star_of_a_very_wide_grid_step(tmp_path):
    # Brent may bisect a step of 1e100 down to 1e-10, about 365 halvings,
    # more than its default 100 steps
    cfg = write_config(tmp_path / "wide.cfg",
                       derive_config("ortho_scan", {"ortho-scan": {"lambda_values": "1, 1e100"}}))
    stars = []
    for name, path in (("full", CONFIGS / "ortho_scan.cfg"), ("wide", cfg)):
        code, err, out = run_cli(tmp_path, "ortho-scan", "--config", path, out=name)
        assert code == 0, err
        rows = (out / "ortho_scan.csv").read_text().splitlines()
        stars += [row.split(",")[1] for row in rows if row.startswith("lambda_star,")]
    assert len(stars) == 2 and abs(float(stars[1]) - float(stars[0])) <= 1e-10
    assert stars[1].startswith("8.8994339036")


def _reference_csv(header, rows):
    def cell(value):
        if value is None:
            return ""
        return f"{value:.17g}" if isinstance(value, float) else str(value)

    return "".join(",".join(map(cell, row)) + "\n" for row in [header, *rows])


REFERENCE_TABLE_CFG = """
[experiment]
command = penalty-table

[penalty:lasso]
family = lasso

[penalty:scad]
family = scad
a = 3.7

[penalty:g]
family = gaussian
kappa = 10

[penalty-table]
beta_min = -2
beta_max = 2
count = 41
"""

SCAN_GRID = [0.25 * k for k in range(61)]


def test_tables_match_per_cell_reference(tmp_path, monkeypatch):
    # each table spans several blocks; its CSV must be the row-by-row,
    # cell-by-cell rendering of the values computed here without the runner
    monkeypatch.setattr(data, "CSV_BLOCK_ROWS", 16)
    cfg = write_config(tmp_path / "p.cfg", REFERENCE_TABLE_CFG)
    code, err, out = run_cli(tmp_path, "penalty-table", "--config", cfg)
    assert code == 0, err
    betas = np.linspace(-2.0, 2.0, 41)
    rows = [(spec.label(), beta, value) for spec in parse_config(cfg).penalties
            for beta, value in zip(betas.tolist(), penalties.value_array(spec, betas).tolist())]
    assert len(rows) == 123
    expected = _reference_csv(("penalty", "beta", "value"), rows)
    assert (out / "penalty_table.csv").read_text() == expected

    text = ORTHO_CFG.replace("lambda_min = 0.1",
                             "lambda_values = " + ", ".join(map(repr, SCAN_GRID)))
    cfg = write_config(tmp_path / "o.cfg", text)
    code, err, out = run_cli(tmp_path, "ortho-scan", "--config", cfg)
    assert code == 0, err
    profiles, lambda_star = regression.lambda_phase_scan(3.0, 10.0, SCAN_GRID)
    rows = [("minimum", profile.lam, *minimum, int(i == profile.global_index))
            for profile in profiles for i, minimum in enumerate(profile.minima)]
    rows.append(("lambda_star", lambda_star, None, None, None, None))
    assert len(rows) > 3 * 16
    header = ("row", "lambda", "location", "value", "second_derivative", "is_global")
    assert (out / "ortho_scan.csv").read_text() == _reference_csv(header, rows)


def test_penalty_table_domain_error_opens_no_file(tmp_path, monkeypatch):
    # every value is computed before the output directory is made, so a
    # DomainError at the last family leaves nothing behind
    value_array = penalties.value_array

    def failing(spec, betas):
        if spec.family == "lasso":
            raise DomainError("penalty evaluated at a non-finite coefficient")
        return value_array(spec, betas)

    monkeypatch.setattr(penalties, "value_array", failing)
    cfg = write_config(tmp_path / "p.cfg", SIGNED_ZERO_TABLE_CFG)
    code, err, out = run_cli(tmp_path, "penalty-table", "--config", cfg)
    assert code == 2 and "non-finite coefficient" in err
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
    code, err, out = run_cli(tmp_path, "bias-mc", "--config", cfg)
    assert code == 0, err
    lines = (out / "bias_mc.csv").read_text().splitlines()
    runs = [l for l in lines if l.startswith("run")]
    medians = [l for l in lines if l.startswith("median")]
    assert len(runs) == 2 and len(medians) == 1
    theo = float(runs[0].split(",")[5])
    assert theo == pytest.approx(-math.exp(-1.0))


def test_bias_mc_of_one_replicate_has_no_standard_error(tmp_path):
    # one replicate gives a mean but no spread: every SE and z-score is nan
    text = derive_config("bias_mc", {"bias-mc": {"beta": "1, 0.5", "n": 200, "replicates": 1}})
    cfg = write_config(tmp_path / "b.cfg", text)
    code, err, out = run_cli(tmp_path, "bias-mc", "--config", cfg)
    assert code == 0, err
    rows = [line.split(",") for line in (out / "bias_mc.csv").read_text().splitlines()[1:]]
    assert [row[0] for row in rows] == ["run"] * 6 + ["median"] * 2
    for row in rows:
        assert math.isfinite(float(row[3])) and row[6] == "nan"
        assert row[4] == ("nan" if row[0] == "run" else "")


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
    code, err, out = run_cli(tmp_path, "consistency-mc", "--config", cfg)
    assert code == 0, err
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
    code, err, out = run_cli(tmp_path, "train-mlp", "--config", cfg)
    assert code == 0, err
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
    assert run_cli(tmp_path, command, "--config", cfg)[0] == 0
    first = (tmp_path / "out" / csv).read_bytes()
    assert run_cli(tmp_path, command, "--config", cfg)[0] == 0
    assert (tmp_path / "out" / csv).read_bytes() == first


@RERUN_CASES
def test_jobs_parallel_same_bytes(tmp_path, command, text, csv):
    cfg = write_config(tmp_path / "t.cfg", text)
    assert run_cli(tmp_path, command, "--config", cfg, out="s")[0] == 0
    assert run_cli(tmp_path, command, "--config", cfg, "--jobs", 3, out="p")[0] == 0
    assert (tmp_path / "s" / csv).read_bytes() == (tmp_path / "p" / csv).read_bytes()


SHIPPED = {path.stem: path for path in sorted(CONFIGS.glob("*.cfg"))}
ARTIFACTS = {"train-mlp": {"save_artifacts": "true"}}


def _command(name):
    return name.replace("_", "-")


@pytest.fixture(scope="module")
def serial(tmp_path_factory):
    """Each shipped config's --out directory, run once at --jobs 1;
    train_mlp.cfg with save_artifacts on, which adds train_mlp_runs/ and
    leaves its CSV as it is."""
    root = tmp_path_factory.mktemp("serial")
    outs = {}
    for name, path in SHIPPED.items():
        if name == "train_mlp":
            path = write_config(root / "train_mlp.cfg", derive_config(name, ARTIFACTS))
        code, err, outs[name] = run_cli(root, _command(name), "--config", path, out=name)
        assert code == 0, err
    return outs


def test_one_shipped_config_per_command():
    assert sorted(map(_command, SHIPPED)) == sorted(COMMANDS)


@pytest.mark.parametrize("name, edits", [*((name, {}) for name in SHIPPED),
                                         ("train_mlp", ARTIFACTS)],
                         ids=[*SHIPPED, "train_mlp-artifacts"])
def test_shipped_config_same_bytes_in_a_pool(tmp_path, serial, name, edits):
    # a pool of two workers writes the serial run's bytes: its one CSV, and
    # with save_artifacts on, train_mlp_runs/'s epoch logs and checkpoints
    cfg = write_config(tmp_path / "c.cfg", derive_config(name, edits))
    code, err, out = run_cli(tmp_path, _command(name), "--config", cfg, "--jobs", 2)
    assert code == 0, err
    assert [path.name for path in out.glob("*.csv")] == [f"{name}.csv"]
    expected = _tree(serial[name])
    if not edits:  # all but the serial run's train_mlp_runs/
        expected = {path: blob for path, blob in expected.items() if len(path.parts) == 1}
    assert _tree(out) == expected


@pytest.mark.parametrize("name, edits, args, full, count", [
    # consistency-mc draws each replicate once, at the grid's largest n, and
    # a smaller n takes a prefix of that draw
    ("consistency_mc", {"consistency-mc": {"n_grid": 100}}, [], r"run,[^,]*,100,", 3),
    # a bias-mc cell depends only on its own seed
    ("bias_mc", {}, ["--seed-list", 2], r"run,2,", 1),
    # a train-mlp run reuses its working arrays from step to step, and shares
    # with another run only its seed's initial draw, which no run writes:
    # 2 penalties x 5 lambdas
    ("train_mlp", {}, ["--seed-list", 2], r"run,[^,]*,[^,]*,2,", 10),
], ids=["consistency-n100", "bias-seed2", "train-mlp-seed2"])
def test_a_run_alone_gives_the_full_runs_rows(tmp_path, serial, name, edits, args, full, count):
    # byte for byte, from the shipped config's full run
    cfg = write_config(tmp_path / "c.cfg", derive_config(name, edits))
    code, err, out = run_cli(tmp_path, _command(name), "--config", cfg, *args)
    assert code == 0, err
    alone = [row for row in (out / f"{name}.csv").read_text().splitlines() if row.startswith("run,")]
    assert len(alone) == count
    rows = (serial[name] / f"{name}.csv").read_text().splitlines()
    assert [row for row in rows if re.match(full, row)] == alone


def test_huge_beta_overflows_only_the_descents_start_gradient(tmp_path):
    # at beta = 3e153 the start's gradient overflows, which is the descent's
    # own to handle: no warning, and every run and median row as pinned
    text = derive_config("consistency_mc",
                         {"consistency-mc": {"beta": "3e153", "n_grid": "2, 3, 4"}})
    code, err, out = run_cli(tmp_path, "consistency-mc", "--config",
                             write_config(tmp_path / "c.cfg", text))
    assert code == 0, err
    rows = (out / "consistency_mc.csv").read_text().splitlines()[1:]
    assert len(rows) == 12 and all(row.endswith(",3.7214142683935073e+137") for row in rows)


@pytest.mark.parametrize("edits, family, count", [
    # at the largest kappa the Gaussian's derivative is 0 at every weight
    # above 2e-153 in size, where its constant 2 * kappa alone is inf
    ({"penalty:gaussian": {"kappa": "1.7e308"},
      "lambda": {"log_min": None, "log_max": None, "count": None, "values": "1e-4"}},
     "gaussian", 3),
    # at a subnormal epsilon |W|/epsilon overflows: that overflow is the
    # Laplace penalty's own and ends no run
    ({"penalty:gaussian": {"family": "laplace", "kappa": None, "epsilon": "1e-310"}},
     "laplace", 15),
], ids=["gaussian-largest-kappa", "laplace-subnormal-epsilon"])
def test_penalty_of_a_zero_derivative_trains_as_no_penalty(tmp_path, edits, family, count):
    # the run exits 0, and each row of the penalty is the none row of its
    # lambda and seed
    cfg = write_config(tmp_path / "c.cfg", derive_config("train_mlp", edits))
    code, err, out = run_cli(tmp_path, "train-mlp", "--config", cfg, "--jobs", 2)
    assert code == 0, err
    runs = [row.split(",") for row in (out / "train_mlp.csv").read_text().splitlines()
            if row.startswith("run,")]
    none = [row[2:] for row in runs if row[1] == "none"]
    assert len(none) == count
    assert [row[2:] for row in runs if row[1].startswith(family)] == none


@pytest.mark.parametrize("command, text, csv, seeds, pools", [
    pytest.param("bias-mc", MC_BIAS_CFG, "bias_mc.csv", "1, 2, 3", [3], id="1, 2, 3-pools0"),
    pytest.param("bias-mc", MC_BIAS_CFG, "bias_mc.csv", "4", [], id="4-pools1"),
    # one unpenalized run and one Gaussian run per lambda: three cells, each
    # of five arguments (splits, architecture, TrainConfig, directory, slugs)
    pytest.param("train-mlp", TRAIN_CFG, "train_mlp.csv", "4", [3], id="train-mlp-4-pools2"),
])
def test_jobs_above_cell_count_opens_one_worker_per_cell(tmp_path, monkeypatch, command, text,
                                                          csv, seeds, pools):
    # a pool forks all its workers at once, so --jobs 500 on three cells
    # must ask for three; a stand-in pool records the request and maps in
    # this process, as ProcessPoolExecutor.map does, so no process is started
    opened = []

    class RecordingPool:
        def __init__(self, max_workers):
            opened.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    cfg = write_config(tmp_path / "t.cfg", text.replace("1, 2, 3", seeds))
    assert run_cli(tmp_path, command, "--config", cfg, out="s")[0] == 0
    assert run_cli(tmp_path, command, "--config", cfg, "--jobs", 500, out="p")[0] == 0
    assert opened == pools
    assert (tmp_path / "s" / csv).read_bytes() == (tmp_path / "p" / csv).read_bytes()


def test_train_mlp_artifacts(tmp_path):
    cfg = write_config(
        tmp_path / "t.cfg", TRAIN_CFG + "save_artifacts = true\n"
    )
    code, err, out = run_cli(tmp_path, "train-mlp", "--config", cfg)
    assert code == 0, err
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


def _blob_config(classes, per_class, dimension, hidden, label_noise, seeds=(0, 0, 0)):
    return f"""
[experiment]
command = train-mlp
seeds = 2

[penalty:en]
family = elastic_net
mix = 0.6257418045953334

[lambda]
values = 0.01

[train-mlp]
classes = {classes}
per_class = {per_class}
dimension = {dimension}
hidden = {hidden}
max_epochs = 3
batch_size = 1
label_noise = {label_noise!r}
save_artifacts = true
data_seed = {seeds[0]}
split_seed = {seeds[1]}
noise_seed = {seeds[2]}
"""


def _output_widths(tmp, text):
    """Run train-mlp on ``text``; the output width of each checkpoint it writes."""
    cfg = write_config(pathlib.Path(tmp) / "t.cfg", text)
    code, err, out = run_cli(tmp, "train-mlp", "--config", cfg)
    assert code == 0, err
    return [mlp.load_weights(path)[-1][0].shape[1]
            for path in sorted((out / "train_mlp_runs").glob("*.mlpw"))]


def test_label_noise_that_drops_the_last_class_keeps_its_output(tmp_path):
    # the noisy training labels hold no class 2, but the validation and test
    # labels do: the output layer has `classes` units, not the training
    # labels' largest + 1
    text = _blob_config(3, 3, 2, 2, 0.604295492217596)
    options = parse_config(write_config(tmp_path / "c.cfg", text)).options
    train_set, val_set, _ = cli._mlp_splits(options)
    assert train_set.labels.tolist() == [1, 0, 1] and 2 in val_set.labels
    assert _output_widths(tmp_path, text) == [3]


@settings(max_examples=30, deadline=None)
@given(classes=st.integers(2, 4), per_class=st.integers(3, 6), dimension=st.integers(1, 3),
       hidden=st.integers(1, 4), label_noise=st.floats(0.0, 1.0),
       seeds=st.tuples(st.integers(0, 99), st.integers(0, 99), st.integers(0, 99)))
@example(classes=3, per_class=3, dimension=2, hidden=2, label_noise=0.604295492217596,
         seeds=(0, 0, 0))
def test_output_layer_has_one_unit_per_class(classes, per_class, dimension, hidden, label_noise,
                                             seeds):
    text = _blob_config(classes, per_class, dimension, hidden, label_noise, seeds)
    with tempfile.TemporaryDirectory() as tmp:
        assert _output_widths(tmp, text) == [classes]


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
    code, err, out = run_cli(tmp_path, "train-mlp", "--config", cfg)
    assert code == 0, err
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
                  zip(*own.epoch_log))
        assert path.read_bytes() == (runs_dir / (slugs[0] + "_epochs.csv")).read_bytes()
    assert len(list(runs_dir.iterdir())) == 2 * len(runs)

    monkeypatch.setattr(mlp, "train", real_train)
    code, err, parallel = run_cli(tmp_path, "train-mlp", "--config", cfg, "--jobs", 2,
                                  out="parallel")
    assert code == 0, err
    assert _tree(parallel) == _tree(out)


def test_train_mlp_close_parameters_stay_distinct(tmp_path):
    # kappa = 10 and 10.000001 both print as 10 under :g; their labels must
    # still differ, or the two penalties share rows, medians and artifacts
    text = SHARED_CFG.replace("family = none", "family = gaussian\nkappa = 10.000001").replace(
        "values = 0.01, 0, 0.1", "values = 0.01").replace("seeds = 1, 2", "seeds = 1")
    cfg = write_config(tmp_path / "t.cfg", text)
    code, err, out = run_cli(tmp_path, "train-mlp", "--config", cfg)
    assert code == 0, err
    lines = (out / "train_mlp.csv").read_text().splitlines()
    runs = [line.split(",") for line in lines if line.startswith("run")]
    medians = [line.split(",") for line in lines if line.startswith("median")]
    labels = ["gaussian(kappa=10.000001)", "gaussian(kappa=10)"]
    assert [r[1] for r in runs] == labels
    assert [m[1] for m in medians] == labels
    checkpoints = sorted((out / "train_mlp_runs").glob("*.mlpw"))
    assert len(checkpoints) == 2


def test_train_mlp_close_lambdas_keep_their_own_artifacts(tmp_path):
    # 0.001 and 0.0010000001 both print as 0.001 under :g; each must still
    # name its own checkpoint and epoch log, the ones its run alone writes
    text = TRAIN_CFG.replace("seeds = 1, 2, 3", "seeds = 1") + "save_artifacts = true\n"
    cfg = write_config(tmp_path / "both.cfg", text.replace(
        "values = 0.001, 0.01", "values = 0.001, 0.0010000001"))
    code, err, both = run_cli(tmp_path, "train-mlp", "--config", cfg, "--jobs", 2, out="both")
    assert code == 0, err
    lines = (both / "train_mlp.csv").read_text().splitlines()
    assert len([line for line in lines if line.startswith("run")]) == 4
    alone = {}
    for lam in ("0.001", "0.0010000001"):
        cfg = write_config(tmp_path / f"{lam}.cfg", text.replace(
            "values = 0.001, 0.01", f"values = {lam}"))
        code, err, out = run_cli(tmp_path, "train-mlp", "--config", cfg, out=lam)
        assert code == 0, err
        alone.update(_tree(out / "train_mlp_runs"))
    assert len(alone) == 2 * 4
    assert _tree(both / "train_mlp_runs") == alone


def test_train_mlp_lambdas_of_opposite_exponents_keep_their_own_artifacts(tmp_path):
    # 1e+06 and 1e-06 differ only in the sign of the exponent, which the
    # artifact names keep: one checkpoint per row
    text = TRAIN_CFG.replace("seeds = 1, 2, 3", "seeds = 1").replace(
        "[penalty:g]\nfamily = gaussian\nkappa = 10\n\n", "").replace(
        "values = 0.001, 0.01", "values = 1e-06, 1e+06") + "save_artifacts = true\n"
    cfg = write_config(tmp_path / "t.cfg", text)
    code, err, out = run_cli(tmp_path, "train-mlp", "--config", cfg)
    assert code == 0, err
    lines = (out / "train_mlp.csv").read_text().splitlines()
    assert len([line for line in lines if line.startswith("run,")]) == 2
    checkpoints = sorted(p.name for p in (out / "train_mlp_runs").glob("*.mlpw"))
    assert checkpoints == ["none-lam1e+06-seed1.mlpw", "none-lam1e-06-seed1.mlpw"]


def test_negative_zero_lambda_is_written_as_zero(tmp_path):
    # -0 is the lambda 0 that TrainConfig trains: it takes 0's CSV cell and
    # artifact names, and 0, -0 is one lambda given twice
    text = TRAIN_CFG.replace("seeds = 1, 2, 3", "seeds = 1").replace(
        "[penalty:g]\nfamily = gaussian\nkappa = 10\n\n", "") + "save_artifacts = true\n"
    trees = {}
    for values in ("-0", "0"):
        cfg = write_config(tmp_path / "t.cfg", text.replace("values = 0.001, 0.01",
                                                            f"values = {values}"))
        code, err, out = run_cli(tmp_path, "train-mlp", "--config", cfg, out=values)
        assert code == 0, err
        trees[values] = _tree(out)
    assert trees["-0"] == trees["0"]
    assert sorted(p.name for p in trees["-0"]) == [
        "none-lam0-seed1.mlpw", "none-lam0-seed1_epochs.csv", "train_mlp.csv"]
    assert b",-0," not in trees["-0"][pathlib.Path("train_mlp.csv")]
    cfg = write_config(tmp_path / "t.cfg", text.replace("values = 0.001, 0.01", "values = 0, -0"))
    with pytest.raises(ConfigurationError, match=r"\(0\.0 is repeated\)"):
        parse_config(cfg)


@pytest.mark.parametrize("key, negative, positive", [
    ("lambda_values", "-0, 1", "0, 1"), ("lambda_min", "-0", "0")])
def test_ortho_scan_negative_zero_lambda_is_zero(tmp_path, key, negative, positive):
    tables = []
    for value in (negative, positive):
        cfg = write_config(tmp_path / "o.cfg",
                           derive_config("ortho_scan", {"ortho-scan": {key: value}}))
        code, err, out = run_cli(tmp_path, "ortho-scan", "--config", cfg, out=value)
        assert code == 0, err
        tables.append((out / "ortho_scan.csv").read_bytes())
    assert tables[0] == tables[1]
    assert tables[0].splitlines()[1].startswith(b"minimum,0,")


# floats of either exponent sign, subnormals and any other nonnegative float
NONNEGATIVE_FLOATS = st.one_of(
    st.builds(lambda mantissa, sign, k: float(f"{mantissa}e{sign}{k}"),
              st.sampled_from(["1", "2.5"]), st.sampled_from("+-"), st.integers(0, 330)),
    st.floats(0.0, 2.2250738585072014e-308),
    st.floats(0.0),
)
POSITIVE_FINITE_FLOATS = NONNEGATIVE_FLOATS.filter(lambda v: 0.0 < v < math.inf)
LABELS = st.one_of(
    st.sampled_from(["none", "ridge", "elastic_net(mix=0.5)"]),
    st.builds(lambda k: PenaltySpec("gaussian", kappa=k).label(), POSITIVE_FINITE_FLOATS),
    st.builds(lambda q: PenaltySpec("bridge", q=q).label(), POSITIVE_FINITE_FLOATS),
    st.builds(lambda m: PenaltySpec("elastic_net", mix=m).label(), st.floats(-0.0, 1.0)),
)
CELLS = st.tuples(LABELS, NONNEGATIVE_FLOATS, st.integers(0, 3))


@given(CELLS, CELLS)
@example(("none", 1e6, 1), ("none", 1e-6, 1))
@example(("ridge", 2.5e7, 1), ("ridge", 2.5e-7, 1))
@example(("gaussian(kappa=1e+06)", 0.01, 1), ("gaussian(kappa=1e-06)", 0.01, 1))
@example(("none", 5e-324, 1), ("none", 1e-323, 1))
# -0.0 and 0.0 are one mix: a label "mix=-0" would take the slug of "mix=0"
@example((PenaltySpec("elastic_net", mix=-0.0).label(), 0.01, 1),
         (PenaltySpec("elastic_net", mix=0.0).label(), 0.01, 1))
def test_distinct_cells_name_distinct_artifacts(cell, other):
    assume(cell != other)
    assert cli._slug(*cell) != cli._slug(*other)


def test_seed_list_override(tmp_path):
    cfg = write_config(tmp_path / "t.cfg", TRAIN_CFG)
    code, err, out = run_cli(tmp_path, "train-mlp", "--config", cfg, "--seed-list", "7")
    assert code == 0, err
    lines = (out / "train_mlp.csv").read_text().splitlines()
    runs = [l for l in lines if l.startswith("run")]
    assert len(runs) == 2 * 2 * 1
    assert all(r.split(",")[3] == "7" for r in runs)


def test_repeated_seed_list_is_config_error(tmp_path):
    cfg = write_config(tmp_path / "t.cfg", TRAIN_CFG)
    code, err, out = run_cli(tmp_path, "train-mlp", "--config", cfg, "--seed-list", "7,7")
    assert code == 1 and "(7 is repeated)" in err
    assert not out.exists()


def test_empty_seed_list_is_config_error(tmp_path):
    # an empty --seed-list is rejected, not dropped for the file's seeds
    cfg = write_config(tmp_path / "b.cfg", MC_BIAS_CFG)
    code, err, out = run_cli(tmp_path, "bias-mc", "--config", cfg, "--seed-list", "")
    assert code == 1 and "bad seed list" in err
    assert not out.exists()


def test_failed_data_build_leaves_no_artifacts_dir(tmp_path):
    # one example per class leaves the validation split empty: a config
    # error raised while the data are built, before any directory is made
    text = TRAIN_CFG.replace("per_class = 30", "per_class = 1") + "save_artifacts = true\n"
    code, err, out = run_cli(tmp_path, "train-mlp", "--config",
                             write_config(tmp_path / "t.cfg", text))
    assert code == 1 and "zero examples" in err
    assert not out.exists()


def test_diverging_run_leaves_no_output_dir(tmp_path):
    # the run fails before it writes a file, so no directory is made: not
    # --out, and not its train_mlp_runs/ either
    text = derive_config("train_mlp", {"train-mlp": {"lr_min": 5, "lr_max": 50,
                                                     "save_artifacts": "true"}})
    code, err, out = run_cli(tmp_path, "train-mlp", "--config",
                             write_config(tmp_path / "t.cfg", text))
    assert code == 2 and "epoch" in err
    assert not out.exists()


def test_overflowing_penalty_step_leaves_no_output_dir(tmp_path):
    # the Gaussian alone at lambda = 1e308: lam * P'(W) overflows in the
    # first step, which the shipped config's none cell would not reach; a
    # runtime error naming its epoch, with no warning on the way
    text = derive_config("train_mlp", {"penalty:baseline": None, "lambda": {
        "log_min": None, "log_max": None, "count": None, "values": "1e308"}})
    code, err, out = run_cli(tmp_path, "train-mlp", "--config",
                             write_config(tmp_path / "t.cfg", text))
    assert code == 2 and "epoch" in err
    assert not out.exists()


def test_exit_codes(tmp_path):
    # config error -> 1; this covers bad sections and bad runtime parameters
    cfg = write_config(tmp_path / "bad.cfg", "[experiment]\ncommand = train-mlp\n")
    code, err, _ = run_cli(tmp_path, "train-mlp", "--config", cfg)
    assert code == 1 and "config error" in err
    # a split ending up empty is also a configuration problem
    cfg2 = write_config(
        tmp_path / "r.cfg", TRAIN_CFG.replace("per_class = 30", "per_class = 1")
    )
    assert run_cli(tmp_path, "train-mlp", "--config", cfg2)[0] == 1
    # so is an ortho-scan whose profile values or slopes overflow
    for old, new in (("beta_ols = 3", "beta_ols = 1e200"), ("kappa = 10", "kappa = 1e307")):
        cfg_big = write_config(tmp_path / "big.cfg", ORTHO_CFG.replace(old, new))
        code, err, _ = run_cli(tmp_path, "ortho-scan", "--config", cfg_big)
        assert code == 1 and "out of range" in err
    # runtime error -> 2 (output directory path occupied by a file)
    (tmp_path / "blocked").write_text("")
    cfg3 = write_config(tmp_path / "ok.cfg", ORTHO_CFG)
    code, err, _ = run_cli(tmp_path, "ortho-scan", "--config", cfg3, out="blocked")
    assert code == 2 and "runtime error" in err
    # and a CSV name taken by a directory: the file written beside it cannot
    # be renamed over it, and is removed
    (tmp_path / "taken" / "ortho_scan.csv").mkdir(parents=True)
    code, err, out = run_cli(tmp_path, "ortho-scan", "--config", cfg3, out="taken")
    assert code == 2 and "runtime error" in err
    assert [path.name for path in out.iterdir()] == ["ortho_scan.csv"]


BIAS_MC = ("bias-mc", "--config", CONFIGS / "bias_mc.cfg")


@pytest.mark.parametrize("args, message", [
    ((*BIAS_MC, "--jobs", "x"), "argument --jobs: invalid int value: 'x'"),
    ((*BIAS_MC, "--jobs", "0"), "argument --jobs: 0 is not a positive integer"),
    ((*BIAS_MC, "--jobs", "-3"), "argument --jobs: -3 is not a positive integer"),
    (("no-such", "--config", "x"), "invalid choice: 'no-such'"),
    (("bias-mc",), "the following arguments are required: --config"),
], ids=["malformed-jobs", "zero-jobs", "negative-jobs", "unknown-command", "no-config"])
def test_usage_error_exits_1(tmp_path, args, message):
    # argparse exits 2 on its own; a usage error is a configuration error,
    # exit 1 with argparse's message, found before anything is written
    code, err, out = run_cli(tmp_path, *args)
    assert code == 1 and err.startswith("usage: gausspen") and message in err
    assert not out.exists()


def test_help_exits_0(tmp_path, capsys):
    code, err, out = run_cli(tmp_path, "--help")
    assert code == 0 and not err and "--jobs" in capsys.readouterr().out
    assert not out.exists()


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


@pytest.mark.parametrize("key", ["log_min", "log_max", "count"])
def test_partial_log_grid_is_config_error(tmp_path, key):
    # a [lambda] section without `values` is a log grid, and needs all three
    text = re.sub(rf"\n{key} = [^\n]*", "", TRAIN_LOG_GRID_CFG)
    cfg = write_config(tmp_path / "c.cfg", text)
    code, err, out = run_cli(tmp_path, "train-mlp", "--config", cfg)
    assert code == 1 and f"[lambda]: missing required option `{key}`" in err
    assert not out.exists()


@pytest.mark.parametrize("command, key, bad", [
    ("consistency-mc", "n_grid", ""),
    ("consistency-mc", "n_grid", "0, 50"),
    # unsorted or repeated sizes, and a zero noise level
    ("consistency-mc", "n_grid", "400, 100"),
    ("consistency-mc", "n_grid", "50, 50"),
    ("consistency-mc", "sigma", "0"),
    ("ortho-scan", "lambda_step", "0"),
    ("ortho-scan", "lambda_step", "-1"),
    # positive, but the grid would hold 1.5e301 or 1.5e10 lambdas: rejected
    # from its length alone, before numpy is asked for the memory
    ("ortho-scan", "lambda_step", "1e-300"),
    ("ortho-scan", "lambda_step", "1e-9"),
    # a reversed range, whose grid would be empty or run past lambda_max
    ("ortho-scan", "lambda_min", "20"),
    ("ortho-scan", "lambda_min", "15.2"),
    # a negative lambda_min failed at run time, with a message naming no option
    ("ortho-scan", "lambda_min", "-1"),
    ("penalty-table", "count", "-1"),
    ("penalty-table", "count", "0"),
    # above MAX_GRID: rejected as parsed, before numpy is asked for the memory
    ("penalty-table", "count", "1000001"),
    ("penalty-table", "count", str(10**12)),
    # each end finite, but beta_max - beta_min overflows a double
    ("penalty-table", "beta_min", "-1e308\nbeta_max = 1e308"),
    ("train-mlp", "count", "0"),
    ("train-mlp", "count", "1000001"),
    # a [lambda] log grid's rules: a nonpositive or unordered range, and a
    # grid of one lambda
    ("train-mlp", "log_min", "0"),
    ("train-mlp", "log_min", "0.5"),
    ("train-mlp", "count", "1"),
    ("train-mlp", "count", str(10**12)),
    *(("train-mlp", key, bad) for key in ("batch_size", "patience", "max_epochs")
      for bad in ("0", "-1")),
    # Monte Carlo options that failed only once a cell was built or drawn,
    # with a message naming no option
    ("bias-mc", "kappa", "-2"),
    ("bias-mc", "kappa", "0"),
    ("consistency-mc", "kappa", "-2"),
    ("bias-mc", "lambda0", "-1"),
    ("consistency-mc", "lambda0", "-0.5"),
    ("consistency-mc", "exponent", "1"),
    ("consistency-mc", "exponent", "1.5"),
    ("bias-mc", "c_diag", "1"),  # beta has two entries
    ("consistency-mc", "c_diag", "1, 2, 3"),
    ("bias-mc", "c_diag", "1, 0"),
    ("consistency-mc", "c_diag", "1, -1"),
    # an empty beta ran into a numpy error (exit 2)
    ("bias-mc", "beta", ""),
    ("consistency-mc", "beta", "1, nan"),
    # options that passed the parse and failed at run time with a message
    # naming no option: a noise fraction, split fractions, a blob separation
    # or a learning rate out of range, and a nonpositive curvature
    ("train-mlp", "label_noise", "1.5"),
    ("train-mlp", "label_noise", "-0.25"),
    ("train-mlp", "fractions", "0.5, 0.5"),
    ("train-mlp", "fractions", "0.5, 0.25, 0.5"),
    ("train-mlp", "fractions", "0.75, 0.5, -0.25"),
    ("train-mlp", "separation", "-1"),
    ("train-mlp", "lr_min", "0"),
    ("train-mlp", "lr_max", "-0.25"),
    ("ortho-scan", "kappa", "0"),
    ("ortho-scan", "kappa", "-10"),
    # each positive, but lr_min not below lr_max: failed in TrainConfig once
    # the data were built, with a message naming no option
    ("train-mlp", "lr_min", "0.3"),
    ("train-mlp", "lr_max", "0.005"),
])
def test_out_of_range_option_is_config_error(tmp_path, command, key, bad):
    # caught before any work, naming the option: past the checks each gives
    # an index error, a division by zero, a numpy error, an empty grid or
    # table, or an attempt to allocate an enormous grid
    text = {"bias-mc": MC_BIAS_CFG, "consistency-mc": MC_CONSISTENCY_CFG, "ortho-scan": ORTHO_CFG,
            "penalty-table": PENALTY_TABLE_CFG, "train-mlp": TRAIN_LOG_GRID_CFG}[command]
    text, found = re.subn(rf"^{key} = .*$", f"{key} = {bad}", text, flags=re.M)
    if not found:  # an option the config leaves at its default; its section is last
        text += f"{key} = {bad}\n"
    cfg = write_config(tmp_path / "c.cfg", text)
    code, err, out = run_cli(tmp_path, command, "--config", cfg)
    assert code == 1 and "config error" in err and f"`{key}`" in err
    assert not out.exists()


@pytest.mark.parametrize("text, problem", [
    (ORTHO_CFG.replace("lambda_min = 0.1", "lambda_min = 20"),
     "[ortho-scan] option `lambda_min` = 20.0 is above `lambda_max` = 15.1"),
    (ORTHO_CFG.replace("lambda_step = 1.0", "lambda_step = 1e-300"),
     "[ortho-scan] option `lambda_step` = 1e-300 gives more than 1000000 lambdas "
     "from 0.1 to 15.1"),
    (PENALTY_TABLE_CFG.replace("beta_min = -3", "beta_min = -1e308\nbeta_max = 1e308"),
     "[penalty-table] options `beta_min` = -1e+308 and `beta_max` = 1e+308 "
     "are further apart than the largest double"),
    (TRAIN_CFG + "lr_min = 0.3\n",
     "[train-mlp] option `lr_min` = 0.3 is not below `lr_max` = 0.25"),
    (TRAIN_LOG_GRID_CFG.replace("log_min = 0.001", "log_min = 1"),
     "[lambda] option `log_min` = 1.0 is not below `log_max` = 0.01"),
], ids=["reversed-range", "tiny-step", "beta-span", "lr-pair", "log-range"])
def test_rule_over_several_options_is_found_at_parse(tmp_path, text, problem):
    # found by parse_config itself, before any runner is reached
    with pytest.raises(ConfigurationError) as err:
        parse_config(write_config(tmp_path / "c.cfg", text))
    assert str(err.value).splitlines()[1:] == [f"  - {problem}"]


@pytest.mark.parametrize("text, problem", [
    (TRAIN_CFG + "lr_min = x\nlr_max = 0.005\n",
     "[train-mlp] option `lr_min` = 'x' is not a finite positive number"),
    # with the default 100 replicates, 1,001 betas and n = 50 would give an
    # X'X stack of 100,200,100 elements
    (MC_BIAS_CFG.replace("beta = 1, -0.5", "beta = " + ", ".join(["1"] * 1001))
     .replace("n = 200", "n = 50").replace("replicates = 20", "replicates = x"),
     "[bias-mc] option `replicates` = 'x' is not a positive integer up to 1000000"),
], ids=["lr-pair", "x-x-stack"])
def test_malformed_option_is_one_problem(tmp_path, text, problem):
    # a malformed value is left unset, so no rule over several options reads
    # its default in its place and reports a value the config never wrote
    command = re.search(r"(?m)^command = (.*)$", text)[1]
    code, err, out = run_cli(tmp_path, command, "--config", write_config(tmp_path / "c.cfg", text))
    assert code == 1 and err.splitlines()[1:] == [f"  - {problem}"]
    assert not out.exists()


@pytest.mark.parametrize("bad", ["", "3, 1", "1, 1", "-1, 2", "nan"])
def test_bad_lambda_values_is_config_error(tmp_path, bad):
    # empty, unsorted, repeated, negative or NaN: rejected as parsed, naming
    # the option, not left to the analyzer's own errors
    cfg = write_config(tmp_path / "o.cfg", ORTHO_CFG + f"lambda_values = {bad}\n")
    code, err, out = run_cli(tmp_path, "ortho-scan", "--config", cfg)
    assert code == 1
    assert "config error" in err and f"`lambda_values` = {bad!r} is not" in err
    assert not out.exists()


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
def test_non_numeric_option_is_config_error(tmp_path, key, bad):
    text = re.sub(rf"^{key} = .*$", f"{key} = {bad}", BIAS_CFG, flags=re.M)
    cfg = write_config(tmp_path / "b.cfg", text)
    code, err, _ = run_cli(tmp_path, "bias-mc", "--config", cfg)
    assert code == 1 and "config error" in err and f"`{key}` = {bad!r}" in err


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


NO_MA_CONFIGS = {
    "penalty-table": PENALTY_TABLE_CFG,
    "ortho-scan": ORTHO_CFG,
    "bias-mc": MC_BIAS_CFG,
    "consistency-mc": "[experiment]\ncommand = consistency-mc\n"
                      "[consistency-mc]\nbeta = 1, -2\nreplicates = 4\nn_grid = 20, 40\n",
    "train-mlp": TRAIN_CFG,
}


@pytest.mark.parametrize("command", sorted(NO_MA_CONFIGS))
def test_command_loads_no_numpy_ma(tmp_path, command):
    # np.median and np.unique import numpy.ma on their first call, about
    # 14-18 ms of a fresh process; no command needs it (consistency-mc takes
    # its medians and data.split its classes without them)
    cfg = write_config(tmp_path / "c.cfg", NO_MA_CONFIGS[command])
    code = ("import sys\nfrom gausspen.cli import main\n"
            f"assert main([{command!r}, '--config', {cfg!r}, '--out', 'out']) == 0\n"
            "print('numpy.ma' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).parents[1] / "src"))
    result = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    csv = command.replace("-", "_") + ".csv"
    assert result.stdout.splitlines() == [f"out/{csv}", "False"]
