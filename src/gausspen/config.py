"""Experiment configuration: a line-oriented ``key = value`` file with one
section per sub-config, parsed with :mod:`configparser`.

Shared sections:

* ``[experiment]`` -- ``command``, optional ``seeds`` (default ``1, 2, 3``)
  and ``output`` directory.
* ``[penalty:<name>]`` -- one per penalty in the grid; ``family`` plus any
  hyperparameters that family uses.
* ``[lambda]`` -- either explicit ``values = ...`` or a logarithmically
  equidistant grid via ``log_min``, ``log_max``, ``count``.

plus one section named after the command (``[ortho-scan]``, ``[bias-mc]``,
``[consistency-mc]``, ``[train-mlp]``, ``[penalty-table]``) holding its own
knobs.  Parse problems are collected and reported all at once.
"""

import configparser
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .penalties import PenaltySpec

COMMANDS = ("penalty-table", "ortho-scan", "bias-mc", "consistency-mc", "train-mlp")

PENALTY_FLOAT_KEYS = ("kappa", "a", "b", "epsilon", "gamma", "q", "mix")


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
    penalties: list = field(default_factory=list)
    lambda_grid: list = field(default_factory=list)
    seeds: list = field(default_factory=lambda: [1, 2, 3])
    output: str = "."
    options: dict = field(default_factory=dict)  # the command's own section


def _floats(text):
    return [float(v) for v in text.replace(";", ",").split(",") if v.strip()]


def _ints(text):
    return [int(v) for v in text.replace(";", ",").split(",") if v.strip()]


def parse_seed_list(text):
    try:
        seeds = _ints(text)
    except ValueError:
        raise ConfigurationError(f"bad seed list {text!r}") from None
    if not seeds or any(s < 0 for s in seeds):
        raise ConfigurationError("seed list must be nonempty unsigned integers")
    return seeds


def _parse_penalties(parser, problems):
    penalties = []
    for section in parser.sections():
        if section != "penalty" and not section.startswith("penalty:"):
            continue
        body = dict(parser.items(section))
        family = body.pop("family", None)
        if family is None:
            problems.append(f"[{section}] is missing `family`")
            continue
        kwargs = {}
        for key, raw in body.items():
            if key not in PENALTY_FLOAT_KEYS:
                problems.append(f"[{section}] has unknown key `{key}`")
                continue
            try:
                kwargs[key] = float(raw)
            except ValueError:
                problems.append(f"[{section}] {key} = {raw!r} is not a number")
        try:
            penalties.append(PenaltySpec(family, **kwargs))
        except ConfigurationError as exc:
            problems.append(f"[{section}]: {exc}")
    return penalties


def _parse_lambda_grid(parser, problems):
    if not parser.has_section("lambda"):
        return []
    body = dict(parser.items("lambda"))
    if "values" in body:
        try:
            values = _floats(body["values"])
        except ValueError:
            problems.append(f"[lambda] values = {body['values']!r} are not numbers")
            return []
        if not all(0 <= v < math.inf for v in values):
            problems.append("[lambda] values must be finite and nonnegative")
        return values
    try:
        lo = float(body["log_min"])
        hi = float(body["log_max"])
        count = int(body["count"])
    except KeyError as exc:
        problems.append(f"[lambda] needs `values` or log_min/log_max/count (missing {exc})")
        return []
    except ValueError:
        problems.append("[lambda] log_min/log_max/count must be numeric")
        return []
    try:
        return loggrid(lo, hi, count)
    except ConfigurationError as exc:
        problems.append(f"[lambda]: {exc}")
        return []


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

    exp = dict(parser.items("experiment")) if parser.has_section("experiment") else {}
    file_command = exp.get("command")
    if command is None:
        command = file_command
    elif file_command is not None and file_command != command:
        problems.append(
            f"config file says command = {file_command}, command line says {command}"
        )
    if command not in COMMANDS:
        problems.append(f"unknown command {command!r}; expected one of {COMMANDS}")

    if seed_list is not None:
        seeds = seed_list
    else:
        try:
            seeds = parse_seed_list(exp.get("seeds", "1, 2, 3"))
        except ConfigurationError as exc:
            problems.append(str(exc))
            seeds = [1, 2, 3]

    if out is not None:
        output = out
    else:
        output = exp.get("output", os.environ.get("GAUSSPEN_OUT", "."))
    penalties = _parse_penalties(parser, problems)
    lambda_grid = _parse_lambda_grid(parser, problems)

    options = {}
    if command in COMMANDS and parser.has_section(command):
        options = dict(parser.items(command))

    needs_penalties = command in ("penalty-table", "train-mlp")
    if needs_penalties and not penalties:
        problems.append(f"{command} needs at least one [penalty:*] section")
    if command == "train-mlp" and not lambda_grid:
        problems.append("train-mlp needs a [lambda] section")

    if problems:
        raise ConfigurationError("config problems:\n  - " + "\n  - ".join(problems))
    return ExperimentConfig(command, penalties, lambda_grid, seeds, output, options)


def _option(options, key, default, parse, what):
    if key not in options:
        if default is None:
            raise ConfigurationError(f"missing required option `{key}`")
        return default
    try:
        return parse(options[key])
    except ValueError:
        raise ConfigurationError(
            f"option `{key}` = {options[key]!r} is not {what}"
        ) from None


def opt_float(options, key, default=None):
    value = _option(options, key, default, float, "a number")
    if not math.isfinite(value):
        raise ConfigurationError(f"option `{key}` must be finite")
    return value


def opt_int(options, key, default=None):
    return _option(options, key, default, int, "an integer")


def opt_floats(options, key, default=None):
    return list(_option(options, key, default, _floats, "a list of numbers"))


def opt_ints(options, key, default=None):
    return list(_option(options, key, default, _ints, "a list of integers"))
