"""Scalar penalty families and their analytic bounds.

All penalties are normalized shapes P(beta) that enter an objective as
``loss + lam * sum_j P(beta_j)``: the overall strength ``lam`` is never part
of the shape itself.  Families with a literature-standard threshold (SCAD,
MCP) therefore use the unit-threshold form of their published definitions:

* none: P(b) = 0
* lasso: P(b) = |b|
* ridge: P(b) = b^2
* bridge: P(b) = |b|^q
* elastic_net: P(b) = mix |b| + (1 - mix) b^2
* SCAD (Fan & Li 2001, threshold 1):
    P(b) = |b|                          for |b| <= 1
         = (2a|b| - b^2 - 1)/(2(a-1))   for 1 < |b| <= a
         = (a+1)/2                      for |b| > a
* MCP (Zhang 2010, threshold 1):
    P(b) = |b| - b^2/(2c)               for |b| <= c
         = c/2                          for |b| > c
* Laplace (Trzasko & Manduca 2009): P(b) = 1 - exp(-|b|/eps)
* arctan: P(b) = (2/pi) * arctan(gamma * |b|)
* Gaussian: P(b) = 1 - exp(-kappa * b^2), the only nonconvex family here
  that is smooth (indeed locally convex) at the origin.

Each family is one entry of ``_TABLE``: its hyperparameter's keyword,
default and validity rule, value, derivative, bounds and slope at ``0+``.
The table alone names them; ``PARAMETER`` maps a family to its keyword.
MCP's keyword is ``b`` (its config key too), the ``c`` of its formula.  A
:class:`PenaltySpec` is a family and ``param``, the value of that one
hyperparameter: ``PenaltySpec("gaussian", kappa=10)`` has ``param`` 10.0,
and ``PenaltySpec("scad")`` the table's default 3.7; the keyword is never
positional, and ``-0.0`` is stored as ``0.0``.  :func:`value_array`
and :func:`grad_array` evaluate an entry elementwise, :func:`penalty_value`
at one coefficient, and :func:`penalty_bounds` gives its global constants.
``value_array`` and ``grad_array`` alone set the overflow rule: a value or
scaled derivative above the largest double is +-``inf``, with no warning
under any errstate, and no derivative is NaN at a positive scale.  SCAD's
quadratic is (m(2 - m/a) - 1/a)/(2 - 2/a), m = |b| clipped to [1, a], and
MCP m(1 - m/c/2), m = min(|b|, c): neither overflows where its value is finite.
``grad_array`` takes a ``scale``, folded into the Gaussian's one constant.

Every function is pure; everything is safe for concurrent use.
"""

import math
import sys
from dataclasses import dataclass
from math import inf
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import ConfigurationError, DomainError


def _scad_value(beta, a):
    t = np.abs(beta)
    top = (a + 1.0) / 2.0
    m = np.clip(t, 1.0, a)
    # near |b| = a the quadratic can round an ulp above its ceiling
    quad = np.minimum((m * (2.0 - m / a) - 1.0 / a) / (2.0 - 2.0 / a), top)
    return np.where(t <= 1.0, t, np.where(t <= a, quad, top))


def _mcp_value(beta, c):
    m = np.minimum(np.abs(beta), c)
    # as for SCAD, near |b| = c
    return np.minimum(m * (1.0 - m / c / 2.0), c / 2.0)


def _bridge_grad(beta, q, s):
    # q < 1 has an unbounded derivative at 0; the origin still gets 0, the
    # kink convention of every family (it is always a stationary candidate)
    t = np.abs(beta)
    out = np.zeros_like(t)
    nz = t > 0.0
    grad = q * t[nz] ** (q - 1.0)
    # at a tiny t, t**(q-1) can overflow where q t**(q-1) is finite: there
    # the power is split in two halves, each finite
    big = np.isinf(grad)
    if big.any():
        half = t[nz][big] ** ((q - 1.0) / 2.0)
        grad[big] = (q * half) * half
    out[nz] = grad * np.sign(beta)[nz]
    return s * out


def _scad_grad(beta, a, s):
    t = np.abs(beta)
    return s * (np.sign(beta) * np.where(t <= 1.0, 1.0, np.clip(a - t, 0.0, None) / (a - 1.0)))


def _gaussian_grad(beta, k, s):
    # s*2k*b*exp(-k*b*b) as (b*exp((-k*b)*b))*(2*(k*s)) in one buffer (a 0-d
    # one for a 0-d beta): b*exp(-k*b*b) is at most 1/sqrt(2ek), and a 0 with
    # the sign of b where exp underflows, so no inf * 0 makes a nan.  A
    # constant that is not a positive normal float goes in as k, 2 and s, so
    # only the last product can overflow
    out = np.multiply(-k, beta, out=np.empty_like(beta))
    out *= beta
    np.multiply(np.exp(out, out=out), beta, out=out)
    c = 2.0 * (k * s)
    for factor in (c,) if sys.float_info.min <= c < inf else (k, 2.0, s):
        out *= factor
    return out


class _Family(NamedTuple):
    """One penalty family; ``p`` is the value of its parameter, or None."""

    value: Callable  # (beta array, p) -> P(beta) elementwise
    grad: Callable  # (beta array, p, s) -> s * P'(beta) elementwise
    bounds: Callable  # p -> (lipschitz, sup_value, convexity_radius R), where
    # |P'| rises on (0, R] and not beyond: ``lipschitz`` is |P'| at R (0+ if R = 0)
    slope: Callable  # p -> P'(0+), the right slope at 0: > 0 exactly at a kink
    parameter: Optional[str] = None  # the family's keyword to PenaltySpec
    default: Optional[float] = None  # p when the keyword is not given
    valid: Optional[Callable] = None  # p -> True for a valid finite p
    rule: Optional[str] = None  # ``valid`` in words, after "a finite number"


_TABLE = {
    "none": _Family(
        value=lambda beta, _: np.zeros_like(beta),
        grad=lambda beta, _, s: s * np.zeros_like(beta),
        bounds=lambda _: (0.0, 0.0, inf),
        slope=lambda _: 0.0,
    ),
    "lasso": _Family(
        value=lambda beta, _: np.abs(beta),
        grad=lambda beta, _, s: s * np.sign(beta),
        bounds=lambda _: (1.0, inf, inf),
        slope=lambda _: 1.0,
    ),
    "ridge": _Family(
        value=lambda beta, _: beta * beta,
        grad=lambda beta, _, s: s * (2.0 * beta),
        bounds=lambda _: (inf, inf, inf),
        slope=lambda _: 0.0,
    ),
    "bridge": _Family(
        value=lambda beta, q: np.abs(beta) ** q,
        grad=_bridge_grad,
        # the derivative is unbounded near 0 for q < 1 and near inf for q > 1
        bounds=lambda q: (1.0 if q == 1.0 else inf, inf, inf if q >= 1.0 else 0.0),
        slope=lambda q: inf if q < 1.0 else float(q == 1.0),
        parameter="q", default=0.5, valid=lambda q: q > 0.0, rule="> 0",
    ),
    "elastic_net": _Family(
        value=lambda beta, mix: mix * np.abs(beta) + (1.0 - mix) * beta * beta,
        grad=lambda beta, mix, s: s * (mix * np.sign(beta) + 2.0 * (1.0 - mix) * beta),
        bounds=lambda mix: (1.0 if mix == 1.0 else inf, inf, inf),
        slope=lambda mix: mix,
        parameter="mix", default=0.5, valid=lambda mix: 0.0 <= mix <= 1.0, rule="in [0, 1]",
    ),
    "scad": _Family(
        value=_scad_value,
        grad=_scad_grad,
        # linear (hence convex) up to the unit threshold, concave beyond
        bounds=lambda a: (1.0, (a + 1.0) / 2.0, 1.0),
        slope=lambda _: 1.0,
        parameter="a", default=3.7, valid=lambda a: a > 2.0, rule="> 2",
    ),
    "mcp": _Family(
        value=_mcp_value,
        grad=lambda beta, c, s: s * (np.sign(beta) * np.clip(1.0 - np.abs(beta) / c, 0, None)),
        bounds=lambda c: (1.0, c / 2.0, 0.0),
        slope=lambda _: 1.0,
        parameter="b", default=5.0, valid=lambda c: c > 0.0, rule="> 0",
    ),
    "laplace": _Family(
        value=lambda beta, eps: -np.expm1(-np.abs(beta) / eps),
        grad=lambda beta, eps, s: s * (np.sign(beta) * np.exp(-np.abs(beta) / eps) / eps),
        bounds=lambda eps: (1.0 / eps, 1.0, 0.0),
        slope=lambda eps: 1.0 / eps,
        parameter="epsilon", default=1e-7, valid=lambda eps: eps > 0.0, rule="> 0",
    ),
    "arctan": _Family(
        value=lambda beta, g: (2.0 / np.pi) * np.arctan(g * np.abs(beta)),
        grad=lambda beta, g, s: s * (np.sign(beta) * ((2.0 / np.pi) * g)
                                     / (1.0 + np.square(g * beta))),
        bounds=lambda g: (2.0 * g / np.pi, 1.0, 0.0),
        slope=lambda g: 2.0 * g / np.pi,
        parameter="gamma", default=1.0, valid=lambda g: g > 0.0, rule="> 0",
    ),
    "gaussian": _Family(
        value=lambda beta, k: -np.expm1(-k * beta * beta),
        grad=_gaussian_grad,
        # |P'| peaks at b = 1/sqrt(2k); P'' changes sign there
        bounds=lambda k: (math.sqrt(2.0 * k) * math.exp(-0.5), 1.0, 1.0 / math.sqrt(2.0 * k)),
        slope=lambda _: 0.0,
        parameter="kappa", default=10.0, valid=lambda k: k > 0.0, rule="> 0",
    ),
}

FAMILIES = tuple(_TABLE)

#: the keyword of the one hyperparameter a parameterized family uses
PARAMETER = {family: f.parameter for family, f in _TABLE.items() if f.parameter}


def float_text(value):
    """``value`` in ``:g`` form when that reads back as the same float, and
    in full ``repr`` form otherwise, so distinct floats never share a text."""
    text = f"{value:g}"
    return text if float(text) == value else repr(float(value))


@dataclass(frozen=True, init=False)
class PenaltySpec:
    """A penalty family and the value ``param`` of its one hyperparameter.

    Built as ``PenaltySpec(family, **{PARAMETER[family]: value})``, e.g.
    ``PenaltySpec("gaussian", kappa=10)``; ``family`` defaults to the
    Gaussian, the package's centerpiece.  The hyperparameter is keyword-only
    and takes its table default when not given; ``param`` is None for
    ``none``, ``lasso`` and ``ridge``.  The keyword of another family is
    ignored, so it never sets ``param``; an unknown keyword is a
    ``TypeError``.  ``param`` is validated against the family's rule and
    stored as a float, ``-0.0`` as ``0.0``: two specs are equal exactly
    when their labels are.
    """

    family: str
    param: Optional[float]

    def __init__(self, family="gaussian", **params):
        unknown = params.keys() - PARAMETER.values()
        if unknown:
            raise TypeError(f"PenaltySpec() got an unexpected keyword argument {min(unknown)!r}")
        if family not in FAMILIES:
            raise ConfigurationError(
                f"unknown penalty family {family!r}; expected one of {FAMILIES}"
            )
        entry, param = _TABLE[family], None
        if entry.parameter is not None:
            # + 0.0 stores -0.0 as 0.0, whose equal it is and whose label it must share
            param = params.get(entry.parameter, entry.default) + 0.0
            if not (math.isfinite(param) and entry.valid(param)):
                raise ConfigurationError(
                    f"invalid {family} penalty: {entry.parameter} = {param} "
                    f"must be a finite number {entry.rule}"
                )
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "param", param)

    def slope_at_zero(self):
        """The right slope P'(0+) at the origin: 0 where the shape is smooth
        there, > 0 (``inf`` for bridge with q < 1) where it has a kink."""
        return _TABLE[self.family].slope(self.param)

    def label(self):
        """Short human-readable tag, e.g. ``gaussian(kappa=10)``; the
        parameter prints by :func:`float_text`, so distinct penalties never
        share a label."""
        name = _TABLE[self.family].parameter
        return self.family if name is None else f"{self.family}({name}={float_text(self.param)})"


@dataclass(frozen=True)
class PenaltyBounds:
    """Analytic constants of a scalar penalty.

    ``lipschitz`` and ``sup_value`` are ``math.inf`` when no finite global
    constant exists (e.g. ridge); ``convexity_radius`` is the half-width of
    the largest interval around 0 on which the penalty is convex (``inf``
    for globally convex families, 0 for concave-away-from-origin ones).
    """

    lipschitz: float
    sup_value: float
    convexity_radius: float


def value_array(spec, beta):
    """Elementwise penalty values for an array of coefficients, ``inf`` above the largest double."""
    beta = np.asarray(beta, dtype=float)
    if not np.isfinite(beta).all():
        raise DomainError("penalty evaluated at a non-finite coefficient")
    with np.errstate(over="ignore"):
        return _TABLE[spec.family].value(beta, spec.param)


def grad_array(spec, beta, scale=1.0):
    """Elementwise analytic derivative of the penalty, times ``scale``.

    For families with a kink at the origin, coefficients that are exactly 0
    get the subgradient value 0, the convention that makes 0 a stationary
    candidate.  The Gaussian folds ``scale`` into its one constant, and any
    other family gives ``scale * grad_array(spec, beta)`` bit for bit.
    """
    beta = np.asarray(beta, dtype=float)
    if not np.isfinite(beta).all():
        raise DomainError("penalty gradient requested at a non-finite coefficient")
    with np.errstate(over="ignore"):
        return _TABLE[spec.family].grad(beta, spec.param, scale)


def penalty_value(spec, beta):
    """Penalty value P(beta) >= 0 for a single coefficient."""
    return float(value_array(spec, np.asarray(beta, dtype=float)))


def penalty_bounds(spec):
    """Global constants of the scalar penalty as a :class:`PenaltyBounds`.

    Families without a finite global Lipschitz constant or supremum return
    ``math.inf``.
    """
    return PenaltyBounds(*_TABLE[spec.family].bounds(spec.param))
