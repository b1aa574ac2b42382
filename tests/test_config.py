"""The config contract: every section is parsed against its schema, values
come back typed with the defaults filled in, and an unknown key or section
is a configuration error (exit code 1)."""

import contextlib
import dataclasses
import io
import pathlib
import re
import tempfile

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gausspen import cli, config
from gausspen.asymptotics import SimSpec
from gausspen.cli import main
from gausspen.config import COMMANDS, parse_config
from gausspen.errors import ConfigurationError
from gausspen.mlp import TrainConfig

CONFIGS = sorted((pathlib.Path(__file__).parents[1] / "configs").glob("*.cfg"))

# sections every command may carry; penalty-table and train-mlp need them
SHARED = "[penalty:g]\nfamily = gaussian\nkappa = 1\n\n[lambda]\nvalues = 0.1\n"

FINITE = st.floats(allow_nan=False, allow_infinity=False)
INTS = st.integers(-10**9, 10**9)
FLAGS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _listed(values):
    return ", ".join(map(repr, values)), values


# for each option parser: (text written to the file, value it parses to)
WRITTEN = {
    config._number: FINITE.map(lambda v: (repr(v), v)),
    config._positive: st.floats(0.0, exclude_min=True, allow_infinity=False).map(
        lambda v: (repr(v), v)),
    int: INTS.map(lambda v: (str(v), v)),
    config._count: st.integers(1, config.MAX_GRID).map(lambda v: (str(v), v)),
    config._floats: st.lists(FINITE, max_size=4).map(_listed),
    config._ints: st.lists(INTS, max_size=4).map(_listed),
    config._sizes: st.lists(st.integers(1, config.MAX_GRID), min_size=1, max_size=4).map(_listed),
    config._flag: st.tuples(st.sampled_from(sorted(FLAGS)), st.booleans()).map(
        lambda pair: (pair[0].upper() if pair[1] else pair[0], FLAGS[pair[0]])
    ),
}


def _parser(entry):
    return entry[0] if isinstance(entry, tuple) else entry


def _parse_text(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "c.cfg"
        path.write_text(text)
        return parse_config(str(path))


def _main_text(text, command):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        path = pathlib.Path(tmp) / "c.cfg"
        path.write_text(text)
        code = main([command, "--config", str(path), "--out", tmp])
    return code, err.getvalue()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(COMMANDS)), st.data())
def test_command_options_round_trip(command, data):
    schema = COMMANDS[command]
    chosen = data.draw(st.lists(st.sampled_from(sorted(schema)), unique=True))
    written = {key: data.draw(WRITTEN[_parser(schema[key])]) for key in chosen}
    body = "".join(f"{key} = {text}\n" for key, (text, _) in written.items())
    parsed = _parse_text(f"[experiment]\ncommand = {command}\n\n{SHARED}\n[{command}]\n{body}")
    options = parsed.options
    for key, entry in schema.items():
        if key in written:
            assert options[key] == written[key][1]
        elif isinstance(entry, tuple):
            assert options[key] == entry[1]
        else:
            assert key not in options
            with pytest.raises(ConfigurationError, match=f"`{key}`"):
                options[key]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(COMMANDS)), st.from_regex(r"[a-z][a-z0-9_]{0,12}", fullmatch=True))
def test_unknown_command_key_is_config_error(command, key):
    assume(key not in COMMANDS[command])
    text = f"[experiment]\ncommand = {command}\n\n{SHARED}\n[{command}]\n{key} = 1\n"
    with pytest.raises(ConfigurationError, match=f"unknown key `{key}`"):
        _parse_text(text)
    code, err = _main_text(text, command)
    assert code == 1 and f"`{key}`" in err


@pytest.mark.parametrize("path", CONFIGS, ids=lambda path: path.name)
def test_shipped_configs_parse(path):
    parsed = parse_config(str(path))
    assert set(parsed.options) <= set(COMMANDS[parsed.command])


def test_runners_match_commands():
    assert cli.RUNNERS.keys() == COMMANDS.keys()


BIAS = "[experiment]\ncommand = bias-mc\nseeds = 1\n\n[bias-mc]\nbeta = 1\nn = 50\nreplicates = 2\n"
TRAIN = """[experiment]
command = train-mlp
seeds = 1

[penalty:base]
family = none

[lambda]
values = 0.01

[train-mlp]
per_class = 10
hidden = 4
max_epochs = 2
"""

# one penalty under two section names: duplicate rows and one artifact slug
DUPLICATE = """[penalty:a]
family = gaussian
kappa = 10

[penalty:b]
family = gaussian
kappa = 10.0"""


@pytest.mark.parametrize(
    "command, text, named",
    [
        ("bias-mc", BIAS.replace("replicates", "replicat"), "`replicat`"),
        ("bias-mc", BIAS.replace("seeds = 1", "seed = 4"), "`seed`"),
        ("train-mlp", TRAIN.replace("values = 0.01", "values = 0.01\ncout = 3"), "`cout`"),
        ("train-mlp", TRAIN.replace("family = none", "family = gaussian\ngamma = 2"), "`gamma`"),
        ("train-mlp", TRAIN.replace("family = none", "family = ridge\nkappa = 10"), "`kappa`"),
        ("train-mlp", TRAIN.replace("[train-mlp]", "[train_mlp]"), "[train_mlp]"),
        ("train-mlp", TRAIN + "save_artifacts = treu\n", "`save_artifacts` = 'treu'"),
        ("train-mlp", TRAIN.replace("[penalty:base]\nfamily = none", DUPLICATE),
         "[penalty:b] repeats [penalty:a]: both are gaussian(kappa=10)"),
        ("bias-mc", BIAS.replace("seeds = 1", "seeds = 1, 2, 1"),
         "`seeds` = '1, 2, 1' is not a nonempty list of distinct unsigned integers "
         "(1 is repeated)"),
        ("train-mlp", TRAIN.replace("values = 0.01", "values = 0.01, 0.1, 1e-2"),
         "`values` = '0.01, 0.1, 1e-2' is not a list of distinct finite nonnegative numbers "
         "(0.01 is repeated)"),
    ],
    ids=["command", "experiment", "lambda", "gaussian-gamma", "ridge-kappa", "section", "flag",
         "duplicate-penalty", "duplicate-seed", "duplicate-lambda"],
)
def test_each_section_kind_rejects_a_misspelling(tmp_path, capsys, command, text, named):
    path = tmp_path / "c.cfg"
    path.write_text(text)
    assert main([command, "--config", str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and named in err
    assert not list(tmp_path.glob("*.csv"))


CONSISTENCY = BIAS.replace("bias-mc", "consistency-mc").replace("n = 50", "n_grid = 50, 100")


@pytest.mark.parametrize("command, key, bad", [
    ("bias-mc", "n", "0"), ("bias-mc", "n", "1000001"), ("bias-mc", "n", str(10**12)),
    ("bias-mc", "replicates", "0"), ("bias-mc", "replicates", "1000001"),
    ("consistency-mc", "replicates", str(10**12)),
    ("consistency-mc", "n_grid", "50, 1000001"), ("consistency-mc", "n_grid", f"{10**12}, 50"),
])
def test_monte_carlo_sizes_are_bounded(tmp_path, command, key, bad):
    # rejected as parsed, before a replicate is drawn or its memory asked for
    text = {"bias-mc": BIAS, "consistency-mc": CONSISTENCY}[command]
    path = tmp_path / "c.cfg"
    path.write_text(re.sub(rf"^{key} = .*$", f"{key} = {bad}", text, flags=re.M))
    with pytest.raises(ConfigurationError, match=re.escape(f"`{key}` = {bad!r} is not")):
        parse_config(str(path))


@pytest.mark.parametrize("text, value", [("TRUE", True), ("Yes", True), ("1", True),
                                         ("no", False), ("0", False), ("False", False)])
def test_save_artifacts_flag(tmp_path, text, value):
    path = tmp_path / "c.cfg"
    path.write_text(TRAIN + f"save_artifacts = {text}\n")
    assert parse_config(str(path)).options["save_artifacts"] is value


# options that set a dataclass field, by command: option -> (dataclass, field)
FIELD_DEFAULTS = {
    "train-mlp": {key: (TrainConfig, key)
                  for key in ("lr_min", "lr_max", "batch_size", "patience", "max_epochs")},
    "consistency-mc": {"lambda0": (SimSpec, "lambda0"), "kappa": (SimSpec, "kappa"),
                       "replicates": (SimSpec, "replicates"), "exponent": (SimSpec, "r")},
}


@pytest.mark.parametrize("command", sorted(FIELD_DEFAULTS))
def test_empty_section_takes_dataclass_defaults(tmp_path, command):
    path = tmp_path / "c.cfg"
    path.write_text(f"[experiment]\ncommand = {command}\n\n{SHARED}\n[{command}]\n")
    options = parse_config(str(path)).options
    for key, (cls, name) in FIELD_DEFAULTS[command].items():
        default = {f.name: f.default for f in dataclasses.fields(cls)}[name]
        assert options[key] == default and type(options[key]) is type(default)


def test_missing_required_option_is_config_error_at_run_time(tmp_path, capsys):
    path = tmp_path / "c.cfg"
    path.write_text("[experiment]\ncommand = ortho-scan\n")
    parse_config(str(path))  # no [ortho-scan] section: parses, fails when read
    assert main(["ortho-scan", "--config", str(path), "--out", str(tmp_path)]) == 1
    assert "missing required option `lambda_step`" in capsys.readouterr().err
