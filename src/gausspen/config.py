"""Experiment configuration: a UTF-8 file of ``key = value`` lines, one section
per sub-config, parsed by :mod:`configparser` with ``%`` as plain text.

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
options.  ``COMMANDS`` maps each command to a :class:`Command`, which states
the schema of its section, the shared sections it reads (and needs), and the
check of its options taken together; a section the command does not read,
another command's included, is a configuration error.  A schema maps a key
to its parser alone (a required key) or to ``(parser, default)``, the
default of the ``SimSpec`` or ``TrainConfig`` field or penalty parameter
it sets if it sets one.  Every parser that can reject a value is a ``_checked``
rule, a parse and a predicate on its result, and checks its one option;
``Command.check`` holds every rule over several options, each mirroring
an allocation or a failure that would come later.  Every section is
parsed against its schema into typed values with the defaults filled in;
a malformed value is reported and left unset, so no rule over several
options reads it, and reading an unset key raises :class:`ConfigurationError`.
Any other section name, and any key that a section's schema does not list,
is a configuration error.  Parse problems are collected and reported at once.
"""

import configparser
import math
import os
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .asymptotics import SimSpec
from .errors import ConfigurationError
from .mlp import TrainConfig
from .penalties import PARAMETER, PenaltySpec


def _floats(text):
    return [float(v) for v in text.replace(";", ",").split(",") if v.strip()]


def _ints(text):
    return [int(v) for v in text.replace(";", ",").split(",") if v.strip()]


def _checked(parse, ok, what):
    """``parse``, rejecting a value for which ``ok`` is false; ``what`` it accepts, in words."""
    def checked(text):
        value = parse(text)
        if not ok(value):
            raise ValueError(text)
        return value
    checked.what = what
    return checked


MAX_GRID = 1_000_000  # most points a grid may hold, checked before it is built
MAX_MATRIX = 100_000_000  # most elements a blob or weight matrix may hold (800 MB)

_number = _checked(float, math.isfinite, "a finite number")
_positive = _checked(_number, lambda v: v > 0, "a finite positive number")
# + 0.0 stores -0 as 0, whose equal it is and whose text it must share
_nonnegative = _checked(lambda t: _number(t) + 0.0, lambda v: v >= 0,
                        "a finite nonnegative number")
_below_one = _checked(_number, lambda v: v < 1, "a finite number below 1")
_fraction = _checked(_number, lambda v: 0 <= v <= 1, "a number in [0, 1]")
_finites = _checked(_floats, lambda v: v and all(map(math.isfinite, v)),
                    "a nonempty list of finite numbers")
_fractions = _checked(_floats, lambda v: len(v) == 3 and all(f > 0 for f in v)
                      and abs(sum(v) - 1.0) <= 1e-9, "three positive numbers summing to 1")
_positives = _checked(_floats, lambda v: all(0 < x < math.inf for x in v),
                      "a list of finite positive numbers")
_count = _checked(int, lambda v: 1 <= v <= MAX_GRID, f"a positive integer up to {MAX_GRID}")
# strictly increasing: sorted and each size once
_sizes = _checked(_ints, lambda v: v and 1 <= v[0] and v[-1] <= MAX_GRID and v == sorted(set(v)),
                  f"a nonempty strictly increasing list of positive integers up to {MAX_GRID}")
_positive_int = _checked(int, lambda v: v >= 1, "a positive integer")
_unsigned = _checked(int, lambda v: v >= 0, "an unsigned integer")
_widths = _checked(_ints, lambda v: v and min(v) >= 1, "a nonempty list of positive integers")


class _Repeated(ValueError):
    """A value given twice in a list whose values must be distinct."""


def _distinct(values):
    """True, or :class:`_Repeated` naming the first value given twice."""
    seen = set()
    for v in values:
        if v in seen:
            raise _Repeated(f"{v!r} is repeated")
        seen.add(v)
    return True


_lambdas = _checked(lambda t: [x + 0.0 for x in _floats(t)],  # -0 as 0, as _nonnegative
                    lambda v: all(0 <= x < math.inf for x in v) and _distinct(v),
                    "a list of distinct finite nonnegative numbers")
_grid = _checked(_lambdas, lambda v: v and v == sorted(v),  # distinct, so strictly increasing
                 "a nonempty strictly increasing list of finite nonnegative numbers")
_seeds = _checked(_ints, lambda v: v and min(v) >= 0 and _distinct(v),
                  "a nonempty list of distinct unsigned integers")
_FLAGS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}
_flag = _checked(lambda text: _FLAGS.get(text.lower()), lambda v: v is not None,
                 "a flag (1/true/yes or 0/false/no)")


def _rejection(text, parse, exc):
    why = f" ({exc})" if isinstance(exc, _Repeated) else ""
    return f"{text!r} is not {parse.what}{why}"


_EXPERIMENT = {"command": (str, None), "seeds": (_seeds, (1, 2, 3)), "output": (str, None)}

_LAMBDA = {"values": (_lambdas, ()), "log_min": _positive, "log_max": _positive,
           "count": _checked(int, lambda v: 2 <= v <= MAX_GRID, f"an integer from 2 to {MAX_GRID}")}

_SIMULATION = {
    "beta": _finites, "c_diag": (_positives, None),  # c_diag None: identity covariance
    "sigma": (_positive, 1.0), "lambda0": (_nonnegative, 1.0),
    "kappa": (_positive, PenaltySpec("gaussian").param), "replicates": (_count, SimSpec.replicates),
}


def _span_problems(options):
    """A ``beta_min`` and ``beta_max`` whose linspace span overflows."""
    lo, hi = options["beta_min"], options["beta_max"]
    return [] if math.isfinite(hi - lo) else [
        f"options `beta_min` = {lo!r} and `beta_max` = {hi!r} "
        "are further apart than the largest double"]


def _range_problems(options):
    """A reversed lambda range, or a step whose grid ``np.arange(lo, hi +
    step/2, step)`` would hold more than ``MAX_GRID`` lambdas, found before
    it is allocated; none when ``lambda_values`` replace the range."""
    if options["lambda_values"] is not None:
        return []
    lo, hi, step = options["lambda_min"], options["lambda_max"], options["lambda_step"]
    if lo > hi:
        return [f"option `lambda_min` = {lo!r} is above `lambda_max` = {hi!r}"]
    # np.arange's length, ceil((hi + step/2 - lo) / step)
    if (hi + step / 2.0 - lo) / step > MAX_GRID:
        return [f"option `lambda_step` = {step!r} gives more than {MAX_GRID} "
                f"lambdas from {lo!r} to {hi!r}"]
    return []


def _mlp_problems(options):
    """An ``lr_min`` not below ``lr_max``, and train-mlp sizes whose blob
    matrix or some weight matrix would hold more than ``MAX_MATRIX``
    elements, found before either is allocated."""
    lr_min, lr_max = options["lr_min"], options["lr_max"]
    problems = [] if lr_min < lr_max else [
        f"option `lr_min` = {lr_min!r} is not below `lr_max` = {lr_max!r}"]
    classes, dimension = options["classes"], options["dimension"]
    blob = classes * options["per_class"] * dimension
    if blob > MAX_MATRIX:
        problems.append("options `classes` x `per_class` x `dimension` give a "
                        f"blob matrix of {blob} elements, more than {MAX_MATRIX}")
    layers = [("dimension", dimension), *(("hidden", w) for w in options["hidden"]),
              ("classes", classes)]
    for (key_in, fan_in), (key_out, fan_out) in zip(layers, layers[1:]):
        if fan_in * fan_out > MAX_MATRIX:
            keys = (f"option `{key_in}` gives" if key_in == key_out
                    else f"options `{key_in}` and `{key_out}` give")
            problems.append(f"{keys} a {fan_in} x {fan_out} weight matrix, "
                            f"more than {MAX_MATRIX} elements")
    return problems


def _simulation_problems(key, starts, options):
    """Monte Carlo sizes, option ``key``, whose arrays would hold more than
    ``MAX_MATRIX`` elements for a fit of ``starts`` starts, found before any
    is allocated, and a ``c_diag`` whose length is not ``beta``'s.  The X'X
    count is the descent's per-pass product stack, one per start, size and
    replicate; the callers' stack (1/``starts`` of it) and the per-row vectors
    come on top: a 500-replicate, 4-size consistency cell peaks at 3.44 times
    the count at p = 10, and at 9.7 times at p = 3."""
    beta, c_diag, sizes = options["beta"], options["c_diag"], options[key]
    p, sizes = len(beta), sizes if isinstance(sizes, list) else [sizes]
    problems = [] if c_diag is None or len(c_diag) == p else [
        f"option `c_diag` has {len(c_diag)} entries and `beta` has {p}"]
    for keys, what, size in (
            (f"`beta`, `replicates` and `{key}`", "an X'X stack",
             starts * len(sizes) * options["replicates"] * p * p),
            (f"`beta` and `{key}`", "a noise draw", sizes[-1] * (p + 1))):
        if size > MAX_MATRIX:
            problems.append(f"options {keys} give {what} of {size} elements, "
                            f"more than {MAX_MATRIX}")
    return problems


class Command(NamedTuple):
    """A command: its section's schema, the shared sections it reads and needs
    (``penalty``, ``lambda``), and the check of its options taken together."""

    schema: dict
    reads: tuple = ()
    check: Callable = lambda options: []  # options -> problems in the section


COMMANDS = {
    "penalty-table": Command({
        "beta_min": (_number, -3.0), "beta_max": (_number, 3.0), "count": (_count, 121),
    }, reads=("penalty",), check=_span_problems),
    "ortho-scan": Command({
        "beta_ols": _number, "kappa": _positive,
        # lambda_values None: the grid lambda_min..lambda_max by lambda_step
        "lambda_values": (_grid, None),
        "lambda_min": _nonnegative, "lambda_max": _number, "lambda_step": _positive,
    }, check=_range_problems),
    "bias-mc": Command({**_SIMULATION, "n": _count}, check=partial(_simulation_problems, "n", 1)),
    "consistency-mc": Command(
        {**_SIMULATION, "exponent": (_below_one, 0.5), "n_grid": _sizes},
        check=partial(_simulation_problems, "n_grid", 2)),
    "train-mlp": Command({
        "save_artifacts": (_flag, False),
        "classes": (_positive_int, 3), "per_class": (_positive_int, 60),
        "dimension": (_positive_int, 8),
        "separation": (_nonnegative, 3.0), "data_seed": (_unsigned, 0),
        "fractions": (_fractions, (0.5, 0.25, 0.25)), "split_seed": (_unsigned, 0),
        "label_noise": (_fraction, 0.0), "noise_seed": (_unsigned, 0),
        "hidden": (_widths, (64, 64)), "lr_min": (_positive, TrainConfig.lr_min),
        "lr_max": (_positive, TrainConfig.lr_max),
        "batch_size": (_positive_int, TrainConfig.batch_size),
        "patience": (_positive_int, TrainConfig.patience),
        "max_epochs": (_positive_int, TrainConfig.max_epochs),
    }, reads=("penalty", "lambda"), check=_mlp_problems),
}


class Options(dict):
    """A section's typed values; reading an unset key is a config error."""

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
    a malformed value is left unset, so that no rule over several options
    reads it."""
    body = dict(parser.items(section)) if parser.has_section(section) else {}
    problems.extend(f"[{section}] has unknown key `{key}`" for key in body if key not in schema)
    options = Options()
    for key, entry in schema.items():
        parse, *default = entry if isinstance(entry, tuple) else (entry,)
        if key in body:
            try:
                options[key] = parse(body[key])
            except ValueError as exc:
                problems.append(f"[{section}] option `{key}` = {_rejection(body[key], parse, exc)}")
        elif default:
            options[key] = default[0]
    return options


def _is_penalty(section):
    return section == "penalty" or section.startswith("penalty:")


def _parse_penalties(parser, problems):
    """The penalty grid, or None once a penalty section has a problem; no rule reads it."""
    reported = len(problems)
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
        before = len(problems)
        params = _parse_section(parser, section, schema, problems)
        if len(problems) > before:
            continue
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
    return penalties if len(problems) == reported else None


def _parse_lambda_grid(parser, problems):
    """The ``[lambda]`` grid, or None once a problem with it is reported."""
    reported = len(problems)
    grid = _parse_section(parser, "lambda", _LAMBDA, problems)
    if len(problems) > reported:
        return None
    if not parser.has_section("lambda") or parser.has_option("lambda", "values"):
        return list(grid["values"])
    try:
        lo, hi, count = grid["log_min"], grid["log_max"], grid["count"]
    except ConfigurationError as exc:
        problems.append(f"[lambda]: {exc}")
        return None
    if lo < hi:
        return loggrid(lo, hi, count)
    problems.append(f"[lambda] option `log_min` = {lo!r} is not below `log_max` = {hi!r}")
    return None


def parse_config(path, command=None, seed_list=None, out=None):
    """Read a config file into an :class:`ExperimentConfig`.

    ``command``, ``seed_list``, and ``out`` override the file when given
    (they come from the command line); every detected problem is reported in
    one :class:`ConfigurationError`.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    problems = []
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config file: {exc}") from None
    except configparser.Error as exc:
        raise ConfigurationError(f"malformed config file: {exc}") from None

    exp = _parse_section(parser, "experiment", _EXPERIMENT, problems)
    file_command = exp["command"]
    if command is None:
        command = file_command
    elif file_command is not None and file_command != command:
        problems.append(
            f"config file says command = {file_command}, command line says {command}"
        )
    entry = COMMANDS.get(command)
    if entry is None:
        problems.append(f"unknown command {command!r}; expected one of {tuple(COMMANDS)}")
    for section in parser.sections():
        kind = "penalty" if _is_penalty(section) else section
        if kind not in ("experiment", "lambda", "penalty", *COMMANDS):
            problems.append(
                f"unknown section [{section}]; expected experiment, lambda, "
                "penalty:<name> or a command name"
            )
        elif entry is not None and kind not in ("experiment", command, *entry.reads):
            problems.append(f"[{section}] is not read by {command}")

    seeds = list(exp.get("seeds", ())) if seed_list is None else seed_list  # unset if malformed
    if out is None:
        out = os.environ.get("GAUSSPEN_OUT", ".") if exp["output"] is None else exp["output"]
    penalties = _parse_penalties(parser, problems)
    lambda_grid = _parse_lambda_grid(parser, problems)
    options = _parse_section(parser, command, entry.schema if entry else {}, problems)
    if entry is not None:
        if "penalty" in entry.reads and penalties == []:
            problems.append(f"{command} needs at least one [penalty:*] section")
        if "lambda" in entry.reads and lambda_grid == []:
            problems.append(f"{command} needs a [lambda] section with at least one value")
        try:
            problems.extend(f"[{command}] {problem}" for problem in entry.check(options))
        except ConfigurationError:
            pass  # it read an unset option; a malformed one is listed already

    if problems:
        raise ConfigurationError("config problems:\n  - " + "\n  - ".join(problems))
    return ExperimentConfig(command, penalties, lambda_grid, seeds, out, options)
