"""Experiment configuration: a line-oriented ``key = value`` file with one
section per sub-config, parsed with :mod:`configparser`.

Shared sections:

* ``[experiment]`` -- ``command``, optional ``seeds`` (default ``1, 2, 3``)
  and ``output`` directory.  A seed given twice is a configuration error.
* ``[penalty:<name>]`` -- one per penalty in the grid; ``family`` plus that
  family's own hyperparameter, if it has one (``penalties.PARAMETER``).
  Two sections giving the same penalty are a configuration error.
* ``[lambda]`` -- either explicit ``values = ...``, none given twice, or a
  logarithmically equidistant grid via ``log_min``, ``log_max``, ``count``.

plus one section named after the command (``[ortho-scan]``, ``[bias-mc]``,
``[consistency-mc]``, ``[train-mlp]``, ``[penalty-table]``) holding its own
options.  ``COMMANDS`` maps each command to the schema of that section.  A
schema maps a key to its parser alone (a required key) or to ``(parser,
default)``, the default of the ``SimSpec`` or ``TrainConfig`` field it sets
if it sets one.  Every section is parsed against its schema into typed values
with the defaults filled in; reading a required key that is not set raises
:class:`ConfigurationError`.  Any other section name, and any key that a
section's schema does not list, is a configuration error.  Parse problems
are collected and reported all at once.
"""

import configparser
import math
import os
from dataclasses import dataclass

import numpy as np

from .asymptotics import SimSpec
from .errors import ConfigurationError
from .mlp import TrainConfig
from .penalties import PARAMETER, PenaltySpec


def _floats(text):
    return [float(v) for v in text.replace(";", ",").split(",") if v.strip()]


def _ints(text):
    return [int(v) for v in text.replace(";", ",").split(",") if v.strip()]


def _checked(parse, ok):
    """``parse``, rejecting as malformed a value for which ``ok`` is false."""
    def checked(text):
        value = parse(text)
        if not ok(value):
            raise ValueError(text)
        return value
    return checked


MAX_GRID = 1_000_000  # most points a grid may hold, checked before it is built

_number = _checked(float, math.isfinite)
_positive = _checked(_number, lambda v: v > 0)
_count = _checked(int, lambda v: 1 <= v <= MAX_GRID)
_sizes = _checked(_ints, lambda v: v and min(v) >= 1 and max(v) <= MAX_GRID)


class _Repeated(ValueError):
    """A value given twice in a list whose values must be distinct."""


def _distinct(values):
    for i, v in enumerate(values):
        if v in values[:i]:
            raise _Repeated(f"{v!r} is repeated")
    return values


def _lambdas(text):
    values = _floats(text)
    if not all(0 <= v < math.inf for v in values):
        raise ValueError(text)
    return _distinct(values)


def _seeds(text):
    seeds = _ints(text)
    if not seeds or any(s < 0 for s in seeds):
        raise ValueError(text)
    return _distinct(seeds)


_FLAGS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _flag(text):
    if text.lower() not in _FLAGS:
        raise ValueError(text)
    return _FLAGS[text.lower()]


# what each parser accepts, for error messages; str accepts anything
_WHAT = {
    _number: "a finite number",
    _positive: "a finite positive number",
    int: "an integer",
    _count: f"a positive integer up to {MAX_GRID}",
    _sizes: f"a nonempty list of positive integers up to {MAX_GRID}",
    _floats: "a list of numbers",
    _ints: "a list of integers",
    _lambdas: "a list of distinct finite nonnegative numbers",
    _seeds: "a nonempty list of distinct unsigned integers",
    _flag: "a flag (1/true/yes or 0/false/no)",
}


def _rejection(text, parse, exc):
    why = f" ({exc})" if isinstance(exc, _Repeated) else ""
    return f"{text!r} is not {_WHAT[parse]}{why}"


_EXPERIMENT = {"command": (str, None), "seeds": (_seeds, (1, 2, 3)), "output": (str, None)}

_LAMBDA = {"values": (_lambdas, ()), "log_min": _number, "log_max": _number, "count": _count}

_SIMULATION = {
    "beta": _floats, "c_diag": (_floats, None),  # c_diag None: identity covariance
    "sigma": (_number, 1.0), "lambda0": (_number, SimSpec.lambda0),
    "kappa": (_number, SimSpec.kappa), "replicates": (_count, SimSpec.replicates),
}

COMMANDS = {
    "penalty-table": {
        "beta_min": (_number, -3.0), "beta_max": (_number, 3.0), "count": (_count, 121),
    },
    "ortho-scan": {
        "beta_ols": _number, "kappa": _number,
        # lambda_values None: the grid lambda_min..lambda_max by lambda_step
        "lambda_values": (_floats, None),
        "lambda_min": _number, "lambda_max": _number, "lambda_step": _positive,
    },
    "bias-mc": {**_SIMULATION, "n": _count},
    "consistency-mc": {**_SIMULATION, "exponent": (_number, SimSpec.r), "n_grid": _sizes},
    "train-mlp": {
        "save_artifacts": (_flag, False),
        "classes": (int, 3), "per_class": (int, 60), "dimension": (int, 8),
        "separation": (_number, 3.0), "data_seed": (int, 0),
        "fractions": (_floats, (0.5, 0.25, 0.25)), "split_seed": (int, 0),
        "label_noise": (_number, 0.0), "noise_seed": (int, 0),
        "hidden": (_ints, (64, 64)), "lr_min": (_number, TrainConfig.lr_min),
        "lr_max": (_number, TrainConfig.lr_max), "batch_size": (int, TrainConfig.batch_size),
        "patience": (int, TrainConfig.patience), "max_epochs": (int, TrainConfig.max_epochs),
    },
}


class Options(dict):
    """A section's typed values; reading an unset required key is a config error."""

    def __missing__(self, key):
        raise ConfigurationError(f"missing required option `{key}`")


def loggrid(lo, hi, count):
    """Logarithmically equidistant grid from lo to hi inclusive."""
    if not (0 < lo < hi < math.inf):
        raise ConfigurationError("loggrid needs 0 < min < max < inf")
    if count < 2:
        raise ConfigurationError("loggrid needs count >= 2")
    return [float(v) for v in np.geomspace(lo, hi, int(count))]


@dataclass
class ExperimentConfig:
    command: str
    penalties: list
    lambda_grid: list
    seeds: list
    output: str
    options: Options  # the command's own section, typed


def parse_seed_list(text):
    try:
        return _seeds(text)
    except ValueError as exc:
        raise ConfigurationError(f"bad seed list: {_rejection(text, _seeds, exc)}") from None


def _parse_section(parser, section, schema, problems):
    """Parse ``section`` (empty when absent) against ``schema`` into
    :class:`Options`.  An unknown key or a malformed value is a problem, and
    a malformed value reads as the default."""
    body = dict(parser.items(section)) if parser.has_section(section) else {}
    problems.extend(f"[{section}] has unknown key `{key}`" for key in body if key not in schema)
    options = Options()
    for key, entry in schema.items():
        parse, *default = entry if isinstance(entry, tuple) else (entry,)
        if key in body:
            try:
                options[key] = parse(body[key])
                continue
            except ValueError as exc:
                problems.append(f"[{section}] option `{key}` = {_rejection(body[key], parse, exc)}")
        if default:
            options[key] = default[0]
    return options


def _is_penalty(section):
    return section == "penalty" or section.startswith("penalty:")


def _parse_penalties(parser, problems):
    penalties = []
    sections = {}  # label -> the first section giving that penalty
    for section in filter(_is_penalty, parser.sections()):
        family = parser.get(section, "family", fallback=None)
        if family is None:
            problems.append(f"[{section}] is missing `family`")
            continue
        schema = {"family": str}
        if family in PARAMETER:
            schema[PARAMETER[family]] = _number
        params = _parse_section(parser, section, schema, problems)
        del params["family"]
        try:
            spec = PenaltySpec(family, **params)
        except ConfigurationError as exc:
            problems.append(f"[{section}]: {exc}")
            continue
        first = sections.setdefault(spec.label(), section)
        if first != section:
            problems.append(f"[{section}] repeats [{first}]: both are {spec.label()}")
        penalties.append(spec)
    return penalties


def _parse_lambda_grid(parser, problems):
    """The ``[lambda]`` grid, or None once a problem with it is reported."""
    reported = len(problems)
    grid = _parse_section(parser, "lambda", _LAMBDA, problems)
    if len(problems) > reported:
        return None
    if not parser.has_section("lambda") or parser.has_option("lambda", "values"):
        return list(grid["values"])
    try:
        return loggrid(grid["log_min"], grid["log_max"], grid["count"])
    except ConfigurationError as exc:
        problems.append(f"[lambda]: {exc}")
        return None


def parse_config(path, command=None, seed_list=None, out=None):
    """Read a config file into an :class:`ExperimentConfig`.

    ``command``, ``seed_list``, and ``out`` override the file when given
    (they come from the command line); every detected problem is reported in
    one :class:`ConfigurationError`.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    problems = []
    try:
        with open(path) as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file: {exc}") from None
    except configparser.Error as exc:
        raise ConfigurationError(f"malformed config file: {exc}") from None

    for section in parser.sections():
        if section not in ("experiment", "lambda", *COMMANDS) and not _is_penalty(section):
            problems.append(
                f"unknown section [{section}]; expected experiment, lambda, "
                "penalty:<name> or a command name"
            )
    exp = _parse_section(parser, "experiment", _EXPERIMENT, problems)
    file_command = exp["command"]
    if command is None:
        command = file_command
    elif file_command is not None and file_command != command:
        problems.append(
            f"config file says command = {file_command}, command line says {command}"
        )
    if command not in COMMANDS:
        problems.append(f"unknown command {command!r}; expected one of {tuple(COMMANDS)}")

    seeds = list(exp["seeds"]) if seed_list is None else seed_list
    if out is None:
        out = os.environ.get("GAUSSPEN_OUT", ".") if exp["output"] is None else exp["output"]
    penalties = _parse_penalties(parser, problems)
    lambda_grid = _parse_lambda_grid(parser, problems)
    options = _parse_section(parser, command, COMMANDS.get(command, {}), problems)

    if command in ("penalty-table", "train-mlp") and not penalties:
        problems.append(f"{command} needs at least one [penalty:*] section")
    if command == "train-mlp" and lambda_grid == []:
        problems.append("train-mlp needs a [lambda] section with at least one value")

    if problems:
        raise ConfigurationError("config problems:\n  - " + "\n  - ".join(problems))
    return ExperimentConfig(command, penalties, lambda_grid, seeds, out, options)
