"""The config contract: every section is parsed against its schema, values
come back typed with the defaults filled in, and an unknown key or section
is a configuration error (exit code 1)."""

import dataclasses
import math
import pathlib
import re
import sys
import tempfile

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import run_cli
from gausspen import cli, config
from gausspen.asymptotics import SimSpec
from gausspen.config import COMMANDS, parse_config
from gausspen.errors import ConfigurationError
from gausspen.mlp import TrainConfig
from gausspen.penalties import PenaltySpec

CONFIGS = sorted((pathlib.Path(__file__).parents[1] / "configs").glob("*.cfg"))

# the shared sections a command reads, and needs: penalty-table and
# train-mlp a [penalty:*], train-mlp a [lambda] too
PENALTY = "[penalty:g]\nfamily = gaussian\nkappa = 1\n\n"
SHARED = {"penalty-table": PENALTY, "train-mlp": PENALTY + "[lambda]\nvalues = 0.1\n\n"}


def _head(command):
    """A config for ``command`` up to the header of its own section."""
    return f"[experiment]\ncommand = {command}\n\n{SHARED.get(command, '')}[{command}]\n"

FINITE = st.floats(allow_nan=False, allow_infinity=False)
FLAGS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _listed(values):
    return ", ".join(map(repr, values)), values


# for each option parser: (text written to the file, value it parses to)
WRITTEN = {
    # the largest doubles often, so that a span or a range overflows
    config._number: st.one_of(st.sampled_from([-sys.float_info.max, sys.float_info.max]),
                              FINITE).map(lambda v: (repr(v), v)),
    config._positive: st.floats(0.0, exclude_min=True, allow_infinity=False).map(
        lambda v: (repr(v), v)),
    config._unsigned: st.integers(0, 10**9).map(lambda v: (str(v), v)),
    config._count: st.integers(1, config.MAX_GRID).map(lambda v: (str(v), v)),
    config._floats: st.lists(FINITE, max_size=4).map(_listed),
    config._nonnegative: st.floats(0.0, allow_infinity=False).map(lambda v: (repr(v), v)),
    config._below_one: st.floats(max_value=1.0, exclude_max=True, allow_infinity=False).map(
        lambda v: (repr(v), v)),
    config._fraction: st.floats(0.0, 1.0).map(lambda v: (repr(v), v)),
    # three positive weights over their sum: within round-off of summing to 1
    config._fractions: st.lists(st.integers(1, 10**6), min_size=3, max_size=3).map(
        lambda weights: _listed([w / sum(weights) for w in weights])),
    # beta and c_diag of one length, so that the two agree, and short enough
    # that every Monte Carlo array stays within MAX_MATRIX
    config._finites: st.lists(FINITE, min_size=2, max_size=2).map(_listed),
    config._positives: st.lists(st.floats(0.0, exclude_min=True, allow_infinity=False),
                                min_size=2, max_size=2).map(_listed),
    config._grid: st.lists(st.floats(0.0, 1e300), min_size=1, max_size=4, unique=True).map(
        lambda values: _listed(sorted(values))),
    # widths small enough that, with the other two sizes at their defaults
    # or drawn here too, every blob and weight matrix stays within MAX_MATRIX
    config._positive_int: st.integers(1, 100).map(lambda v: (str(v), v)),
    config._widths: st.lists(st.integers(1, 10**4), min_size=1, max_size=4).map(_listed),
    config._sizes: st.lists(st.integers(1, config.MAX_GRID), min_size=1, max_size=4,
                            unique=True).map(lambda values: _listed(sorted(values))),
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
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "c.cfg"
        path.write_text(text)
        code, err, out = run_cli(tmp, command, "--config", path)
        assert code == 0 or not out.exists()  # a failed command makes no --out directory
    return code, err


# the options of each command's rules over several options, all drawn
# together in half the examples so that the rules are met and broken often
RULE_KEYS = {"penalty-table": ["beta_min", "beta_max"], "train-mlp": ["lr_min", "lr_max"],
             "ortho-scan": ["lambda_min", "lambda_max", "lambda_step"]}


def _broken_rule(command, options):
    """The option named by the first rule over several options that
    ``options`` (a command's values, defaults included) break, or None."""
    if command == "train-mlp" and not options["lr_min"] < options["lr_max"]:
        return "lr_min"
    if command == "penalty-table" and not math.isfinite(options["beta_max"] - options["beta_min"]):
        return "beta_min"
    lo, hi, step = map(options.get, ("lambda_min", "lambda_max", "lambda_step"))
    if command == "ortho-scan" and options["lambda_values"] is None and None not in (lo, hi, step):
        if lo > hi:
            return "lambda_min"
        if (hi + step / 2 - lo) / step > config.MAX_GRID:  # np.arange's length, unrounded
            return "lambda_step"
    return None


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(COMMANDS)), st.data())
def test_command_options_round_trip(command, data):
    # each option is drawn on its own, so a draw often breaks a rule over
    # several options; it must then be rejected by name, else round-trip
    schema = COMMANDS[command].schema
    chosen = data.draw(st.lists(st.sampled_from(sorted(schema)), unique=True))
    if data.draw(st.booleans()):
        chosen = sorted({*chosen, *RULE_KEYS.get(command, ())})
    written = {key: data.draw(WRITTEN[_parser(schema[key])]) for key in chosen}
    body = "".join(f"{key} = {text}\n" for key, (text, _) in written.items())
    drawn = {key: entry[1] for key, entry in schema.items() if isinstance(entry, tuple)}
    drawn.update((key, value) for key, (_, value) in written.items())
    broken = _broken_rule(command, drawn)
    if broken is not None:
        with pytest.raises(ConfigurationError, match=f"`{broken}`"):
            _parse_text(_head(command) + body)
        return
    parsed = _parse_text(_head(command) + body)
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
    assume(key not in COMMANDS[command].schema)
    text = _head(command) + f"{key} = 1\n"
    with pytest.raises(ConfigurationError, match=f"unknown key `{key}`"):
        _parse_text(text)
    code, err = _main_text(text, command)
    assert code == 1 and f"`{key}`" in err


@pytest.mark.parametrize("path", CONFIGS, ids=lambda path: path.name)
def test_shipped_configs_parse(path):
    parsed = parse_config(str(path))
    assert set(parsed.options) <= set(COMMANDS[parsed.command].schema)


PENALTY_TABLE = (pathlib.Path(__file__).parents[1] / "configs" / "penalty_table.cfg").read_bytes()


@st.composite
def _edited_config(draw):
    """A shipped config with a few bytes replaced, inserted or deleted."""
    blob = bytearray(draw(st.sampled_from([path.read_bytes() for path in CONFIGS])))
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(blob)))
        byte = draw(st.integers(0, 255))
        edit = draw(st.sampled_from(["replace", "insert", "delete"]))
        if edit == "insert":
            blob.insert(pos, byte)
        elif pos < len(blob):
            if edit == "replace":
                blob[pos] = byte
            else:
                del blob[pos]
    return bytes(blob)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.binary(max_size=200), _edited_config()))
@example(b"\xff")
@example(PENALTY_TABLE.replace(b"beta_max = 3", b"beta_max = 50%"))
@example(PENALTY_TABLE.replace(b"beta_max = 3", b"beta_max = %(nothing)s"))
@example(PENALTY_TABLE.replace(b"gamma = 1", b"gamma = \xe9"))
def test_any_config_bytes_parse_or_are_a_config_error(blob):
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "c.cfg"
        path.write_bytes(blob)
        try:
            parse_config(str(path))
        except ConfigurationError:
            pass


@pytest.mark.parametrize("old, new, named", [
    (b"beta_max = 3", b"beta_max = 50%", "`beta_max`"),
    # no interpolation: the text is the value, not beta_min's
    (b"beta_max = 3", b"beta_max = %(beta_min)s", "`beta_max`"),
    (b"# Penalty", b"# \xff Penalty", "cannot read config file"),
])
def test_config_text_is_literal_utf8(tmp_path, old, new, named):
    path = tmp_path / "c.cfg"
    path.write_bytes(PENALTY_TABLE.replace(old, new))
    code, err, out = run_cli(tmp_path, "penalty-table", "--config", path)
    assert code == 1 and named in err
    assert not out.exists()


def test_config_is_read_as_utf8(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_bytes(b"# \xc3\xa9t\xc3\xa9\n" + PENALTY_TABLE)  # "été", UTF-8 under any locale
    assert parse_config(str(path)).options["beta_max"] == 3.0


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
def test_each_section_kind_rejects_a_misspelling(tmp_path, command, text, named):
    path = tmp_path / "c.cfg"
    path.write_text(text)
    code, err, out = run_cli(tmp_path, command, "--config", path)
    assert code == 1 and "config error" in err and named in err
    assert not out.exists()


@pytest.mark.parametrize("command, section", [
    ("bias-mc", "[penalty:lasso]\nfamily = lasso\n"),
    ("bias-mc", "[lambda]\nvalues = 5\n"),
    ("consistency-mc", "[penalty:g]\nfamily = gaussian\nkappa = 1\n"),
    ("consistency-mc", "[lambda]\nlog_min = 0.1\nlog_max = 1\ncount = 3\n"),
    ("ortho-scan", "[penalty:scad]\nfamily = scad\na = 3.7\n"),
    ("ortho-scan", "[lambda]\nvalues = 5\n"),
    ("penalty-table", "[lambda]\nvalues = 5\n"),
    ("penalty-table", "[train-mlp]\n"),
    ("bias-mc", "[consistency-mc]\nn_grid = 50\n"),
    ("train-mlp", "[bias-mc]\n"),
])
def test_section_the_command_does_not_read_is_config_error(command, section):
    # a bias-mc config with [penalty:lasso] and [lambda] once ran the
    # Gaussian and exited 0, as if the penalty were the one it studies
    header = section.split("\n")[0]
    code, err = _main_text(section + "\n" + _head(command), command)
    assert code == 1 and f"{header} is not read by {command}" in err


# each shared section besides [experiment]: a text giving it, and its name
SHARED_SECTIONS = {"penalty": (PENALTY, "[penalty:*]"),
                   "lambda": ("[lambda]\nvalues = 0.1\n\n", "[lambda]")}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_each_command_needs_the_sections_it_reads_and_no_other(command):
    reads = COMMANDS[command].reads
    for kind, (text, name) in SHARED_SECTIONS.items():
        if kind in reads:  # every section the command reads but this one
            rest = "".join(SHARED_SECTIONS[other][0] for other in reads if other != kind)
            missing = f"[experiment]\ncommand = {command}\n\n{rest}[{command}]\n"
            with pytest.raises(ConfigurationError, match=re.escape(f"{command} needs ") + ".*"
                               + re.escape(name)):
                _parse_text(missing)
        else:
            header = text.split("\n")[0]
            with pytest.raises(ConfigurationError,
                               match=re.escape(f"{header} is not read by {command}")):
                _parse_text(text + _head(command))


MALFORMED_PENALTY = "[penalty:base]\nfamily = gaussian\nkappa = x"


@pytest.mark.parametrize("others", ["", "\n\n[penalty:g]\nfamily = gaussian\nkappa = 10"],
                         ids=["alone", "beside-its-default"])
def test_malformed_penalty_section_is_the_only_problem(others):
    # the section is compared with no other and still counts as given: no
    # "repeats" problem against a gaussian(kappa=10) it never wrote, and no
    # "needs at least one [penalty:*] section" when it is the only one
    text = TRAIN.replace("[penalty:base]\nfamily = none", MALFORMED_PENALTY + others)
    code, err = _main_text(text, "train-mlp")
    assert code == 1 and err.splitlines()[1:] == [
        "  - [penalty:base] option `kappa` = 'x' is not a finite number"]


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


@pytest.mark.parametrize("command, p, replicates, sizes, named", [
    # an X'X stack of one p x p matrix per start, size and replicate: one
    # start in bias-mc, two in consistency-mc
    ("bias-mc", 1000, 100, "50", None),
    ("bias-mc", 1000, 101, "50", "`beta`, `replicates` and `n`"),
    ("bias-mc", 1000, 10**6, "50", "`beta`, `replicates` and `n`"),  # 7.28 TiB at n = 50
    ("consistency-mc", 100, 1250, "50, 100, 200, 400", None),
    ("consistency-mc", 100, 1251, "50, 100, 200, 400", "`beta`, `replicates` and `n_grid`"),
    # one replicate's noise, p + 1 values per row at the largest size
    ("bias-mc", 99, 1, "1000000", None),
    ("bias-mc", 100, 1, "1000000", "`beta` and `n`"),
    ("consistency-mc", 99, 1, "10, 1000000", None),
    ("consistency-mc", 100, 1, "10, 1000000", "`beta` and `n_grid`"),
])
def test_monte_carlo_arrays_are_bounded(command, p, replicates, sizes, named):
    # at MAX_MATRIX elements a config parses; one more is rejected as
    # parsed, before any array is asked for its memory
    size_key = "n" if command == "bias-mc" else "n_grid"
    text = (f"[experiment]\ncommand = {command}\n\n[{command}]\nbeta = {', '.join(['1'] * p)}\n"
            f"replicates = {replicates}\n{size_key} = {sizes}\n")
    if named is None:
        assert _parse_text(text).options["replicates"] == replicates
        return
    with pytest.raises(ConfigurationError, match=re.escape(named) + ".* more than 100000000"):
        _parse_text(text)


BIG = config.MAX_MATRIX


@pytest.mark.parametrize("sizes, named", [
    ("classes = 0", "`classes`"), ("per_class = -1", "`per_class`"),
    ("dimension = 0", "`dimension`"), ("hidden = 4, 0", "`hidden`"), ("hidden =", "`hidden`"),
    # blob matrix classes x per_class x dimension above MAX_MATRIX
    (f"per_class = {BIG}\nclasses = 2\ndimension = 1", "`per_class`"),
    (f"per_class = 1\nclasses = 3\ndimension = {BIG // 2}", "`dimension`"),
    (f"classes = {10**12}", "`classes`"),
    # one weight matrix above MAX_MATRIX, the blob matrix within it
    (f"per_class = 1\ndimension = {BIG // 3}\nhidden = 4", "`dimension` and `hidden`"),
    (f"hidden = 4, {BIG}, 4", "`hidden` gives a 4 x"),
    (f"hidden = {10**4}, {10**4 + 1}", "`hidden` gives a"),
    (f"per_class = 1\nclasses = {BIG // 10}\ndimension = 1\nhidden = 11",
     "`hidden` and `classes`"),
])
def test_mlp_sizes_are_bounded(sizes, named):
    # rejected as parsed, before blobs or weights are asked for their memory
    keys = re.findall(r"^(\w+) =", sizes, flags=re.M)
    text = "".join(line + "\n" for line in TRAIN.splitlines()
                   if line.split(" =")[0] not in keys)
    with pytest.raises(ConfigurationError, match=re.escape(named)):
        _parse_text(text + sizes + "\n")


def test_mlp_sizes_at_the_bound_parse():
    sizes = f"per_class = 1\nclasses = 1\ndimension = {BIG}\nhidden = 1, {10**4}, {10**4}"
    text = TRAIN.replace("per_class = 10\nhidden = 4\n", sizes + "\n")
    assert _parse_text(text).options["dimension"] == BIG


@pytest.mark.parametrize("key", ["data_seed", "split_seed", "noise_seed"])
def test_negative_mlp_seed_is_config_error(key):
    # rejected as parsed, naming the option, before numpy's generator sees it
    with pytest.raises(ConfigurationError, match=f"`{key}` = '-1' is not an unsigned integer"):
        _parse_text(TRAIN + f"{key} = -1\n")


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
    "consistency-mc": {"lambda0": (SimSpec, "lambda0"), "kappa": (PenaltySpec, "kappa"),
                       "replicates": (SimSpec, "replicates"), "exponent": (SimSpec, "r")},
}


@pytest.mark.parametrize("command", sorted(FIELD_DEFAULTS))
def test_empty_section_takes_dataclass_defaults(tmp_path, command):
    path = tmp_path / "c.cfg"
    path.write_text(_head(command))
    options = parse_config(str(path)).options
    for key, (cls, name) in FIELD_DEFAULTS[command].items():
        default = {f.name: f.default for f in dataclasses.fields(cls)}[name]
        assert options[key] == default and type(options[key]) is type(default)


def test_missing_required_option_is_config_error_at_run_time(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("[experiment]\ncommand = ortho-scan\n")
    parse_config(str(path))  # no [ortho-scan] section: parses, fails when read
    code, err, out = run_cli(tmp_path, "ortho-scan", "--config", path)
    assert code == 1 and "missing required option `lambda_step`" in err
    assert not out.exists()
