"""Scalar penalty families and their analytic bounds.

All penalties are normalized shapes P(beta) that enter an objective as
``loss + lam * sum_j P(beta_j)``: the overall strength ``lam`` is never part
of the shape itself.  Families with a literature-standard threshold (SCAD,
MCP) therefore use the unit-threshold form of their published definitions:

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

Every function is pure; everything is safe for concurrent use.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError, SingularityError

FAMILIES = (
    "none",
    "lasso",
    "ridge",
    "bridge",
    "elastic_net",
    "scad",
    "mcp",
    "laplace",
    "arctan",
    "gaussian",
)

#: families whose shape has a kink (non-differentiable point) at the origin
KINKED_AT_ZERO = frozenset({"lasso", "scad", "mcp", "laplace", "arctan"})

#: the one hyperparameter a parameterized family uses
PARAMETER = {
    "gaussian": "kappa",
    "scad": "a",
    "mcp": "b",
    "laplace": "epsilon",
    "arctan": "gamma",
    "bridge": "q",
    "elastic_net": "mix",
}


@dataclass(frozen=True)
class PenaltySpec:
    """A penalty family plus the hyperparameters that family actually uses.

    Hyperparameters irrelevant to ``family`` are ignored entirely; the
    relevant ones are validated at construction.

    Parameters
    ----------
    family : str
        One of ``FAMILIES``.
    kappa : float
        Gaussian curvature parameter (> 0).
    a : float
        SCAD shape parameter (> 2).
    b : float
        MCP shape parameter (> 0).
    epsilon : float
        Laplace scale (> 0).
    gamma : float
        arctan slope (> 0).
    q : float
        Bridge exponent (> 0); q=1 is the lasso shape, q=2 the ridge shape.
    mix : float
        Elastic-net mixing weight on the absolute-value part, in [0, 1].
    """

    family: str
    kappa: float = 10.0
    a: float = 3.7
    b: float = 5.0
    epsilon: float = 1e-7
    gamma: float = 1.0
    q: float = 0.5
    mix: float = 0.5

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigurationError(
                f"unknown penalty family {self.family!r}; expected one of {FAMILIES}"
            )
        checks = {
            "gaussian": (self.kappa > 0, "kappa must be > 0"),
            "scad": (self.a > 2, "a must be > 2 for SCAD"),
            "mcp": (self.b > 0, "b must be > 0 for MCP"),
            "laplace": (self.epsilon > 0, "epsilon must be > 0 for Laplace"),
            "arctan": (self.gamma > 0, "gamma must be > 0 for arctan"),
            "bridge": (self.q > 0, "q must be > 0 for bridge"),
            "elastic_net": (0.0 <= self.mix <= 1.0, "mix must be in [0, 1]"),
        }
        ok, msg = checks.get(self.family, (True, ""))
        if not ok or not math.isfinite(self._relevant_param()):
            raise ConfigurationError(f"invalid {self.family} penalty: {msg}")

    def _relevant_param(self):
        name = PARAMETER.get(self.family)
        return 0.0 if name is None else getattr(self, name)

    def has_kink(self):
        """True when the shape is non-differentiable at the origin."""
        if self.family in KINKED_AT_ZERO:
            return True
        if self.family == "bridge":
            return self.q <= 1.0
        if self.family == "elastic_net":
            return self.mix > 0.0
        return False

    def label(self):
        """Short human-readable tag, e.g. ``gaussian(kappa=10)``.

        The parameter prints in ``:g`` form when that reads back as the same
        float and in full ``repr`` form otherwise, so distinct penalties
        never share a label.
        """
        name = PARAMETER.get(self.family)
        if name is None:
            return self.family
        value = getattr(self, name)
        text = f"{value:g}"
        if float(text) != value:
            text = repr(float(value))
        return f"{self.family}({name}={text})"


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
    """Elementwise penalty values for an array of coefficients."""
    beta = np.asarray(beta, dtype=float)
    if not np.all(np.isfinite(beta)):
        raise DomainError("penalty evaluated at a non-finite coefficient")
    t = np.abs(beta)
    f = spec.family
    if f == "none":
        return np.zeros_like(t)
    if f == "lasso":
        return t
    if f == "ridge":
        return t * t
    if f == "bridge":
        return t**spec.q
    if f == "elastic_net":
        return spec.mix * t + (1.0 - spec.mix) * t * t
    if f == "scad":
        a = spec.a
        top = (a + 1.0) / 2.0
        mid = np.clip(t, 1.0, a)
        # near |b| = a the quadratic can round an ulp above its ceiling
        quad = np.minimum((2.0 * a * mid - mid * mid - 1.0) / (2.0 * (a - 1.0)), top)
        return np.where(t <= 1.0, t, np.where(t <= a, quad, top))
    if f == "mcp":
        c = spec.b
        # as for SCAD, near |b| = c
        return np.where(t <= c, np.minimum(t - t * t / (2.0 * c), c / 2.0), c / 2.0)
    if f == "laplace":
        return -np.expm1(-t / spec.epsilon)
    if f == "arctan":
        return (2.0 / np.pi) * np.arctan(spec.gamma * t)
    if f == "gaussian":
        # expm1 keeps the ridge-like regime near 0 accurate; for large |beta|
        # the value rounds to exactly 1, which is the saturation level anyway
        return -np.expm1(-spec.kappa * beta * beta)
    raise ConfigurationError(f"unknown penalty family {f!r}")


def grad_array(spec, beta, zero_at_kink=False):
    """Elementwise analytic derivative of the penalty.

    For families with a kink at the origin, coefficients that are exactly 0
    either get the subgradient value 0 (``zero_at_kink=True``, the standard
    convention that makes 0 a stationary candidate) or raise
    :class:`SingularityError`.
    """
    beta = np.asarray(beta, dtype=float)
    if not np.all(np.isfinite(beta)):
        raise DomainError("penalty gradient requested at a non-finite coefficient")
    if spec.has_kink() and not zero_at_kink and np.any(beta == 0.0):
        raise SingularityError(
            f"{spec.family} penalty is not differentiable at 0; "
            "pass zero_at_kink=True to use the 0 subgradient convention"
        )
    f = spec.family
    if f == "none":
        return np.zeros_like(beta)
    if f == "ridge":
        return 2.0 * beta
    if f == "gaussian":
        # 2k*b*exp(-k*b*b) in two buffers, with the same association (and so
        # the same bits) as that expression; out= needs an array, so a 0-d
        # beta gets 0-d buffers rather than numpy scalars
        k = spec.kappa
        expo = np.multiply(-k, beta, out=np.empty_like(beta))
        expo *= beta
        np.exp(expo, out=expo)
        out = np.multiply(2.0 * k, beta, out=np.empty_like(beta))
        out *= expo
        return out
    s = np.sign(beta)
    if f == "lasso":
        return s
    if f == "elastic_net":
        return spec.mix * s + 2.0 * (1.0 - spec.mix) * beta
    if f == "arctan":
        g = spec.gamma
        return s * (2.0 * g / np.pi) / (1.0 + g * g * beta * beta)
    t = np.abs(beta)
    if f == "bridge":
        # q < 1 has an unbounded derivative at 0; the opt-in convention
        # still pins the origin to 0 (it is always a stationary candidate)
        q = spec.q
        out = np.zeros_like(t)
        nz = t > 0.0
        out[nz] = q * t[nz] ** (q - 1.0) * s[nz]
        return out
    if f == "scad":
        a = spec.a
        mag = np.where(t <= 1.0, 1.0, np.clip(a - t, 0.0, None) / (a - 1.0))
        return s * mag
    if f == "mcp":
        c = spec.b
        mag = np.clip(1.0 - t / c, 0.0, None)
        return s * mag
    if f == "laplace":
        return s * np.exp(-t / spec.epsilon) / spec.epsilon
    raise ConfigurationError(f"unknown penalty family {f!r}")


def penalty_value(spec, beta):
    """Penalty value P(beta) >= 0 for a single coefficient."""
    return float(value_array(spec, np.asarray(beta, dtype=float)))


def penalty_grad(spec, beta, zero_at_kink=False):
    """Analytic derivative P'(beta); odd in beta for every family."""
    return float(grad_array(spec, np.asarray(beta, dtype=float), zero_at_kink=zero_at_kink))


def penalty_vector(spec, beta):
    """Sum of coordinatewise penalty values over a coefficient vector."""
    return float(np.sum(value_array(spec, beta)))


def penalty_bounds(spec):
    """Global constants of the scalar penalty as a :class:`PenaltyBounds`.

    Families without a finite global Lipschitz constant or supremum return
    ``math.inf``; use :func:`lipschitz_on_interval` for a per-interval bound.
    """
    inf = math.inf
    f = spec.family
    if f == "none":
        return PenaltyBounds(0.0, 0.0, inf)
    if f == "lasso":
        return PenaltyBounds(1.0, inf, inf)
    if f == "ridge":
        return PenaltyBounds(inf, inf, inf)
    if f == "bridge":
        # |b|^q: derivative unbounded near 0 for q < 1 and near inf for q > 1.
        lip = 1.0 if spec.q == 1.0 else inf
        radius = inf if spec.q >= 1.0 else 0.0
        return PenaltyBounds(lip, inf, radius)
    if f == "elastic_net":
        lip = 1.0 if spec.mix == 1.0 else inf
        return PenaltyBounds(lip, inf, inf)
    if f == "scad":
        # linear (hence convex) up to the unit threshold, concave beyond
        return PenaltyBounds(1.0, (spec.a + 1.0) / 2.0, 1.0)
    if f == "mcp":
        return PenaltyBounds(1.0, spec.b / 2.0, 0.0)
    if f == "laplace":
        return PenaltyBounds(1.0 / spec.epsilon, 1.0, 0.0)
    if f == "arctan":
        return PenaltyBounds(2.0 * spec.gamma / np.pi, 1.0, 0.0)
    if f == "gaussian":
        # |P'| = 2k|b|exp(-k b^2) peaks at b = 1/sqrt(2k); P'' changes sign there
        k = spec.kappa
        return PenaltyBounds(
            math.sqrt(2.0 * k) * math.exp(-0.5),
            1.0,
            1.0 / math.sqrt(2.0 * k),
        )
    raise ConfigurationError(f"unknown penalty family {f!r}")


def lipschitz_on_interval(spec, radius):
    """Supremum of |P'| over [-radius, radius].

    Finite for every family except bridge with q < 1, whose derivative is
    unbounded at the origin.
    """
    if radius < 0:
        raise ConfigurationError("interval radius must be nonnegative")
    r = float(radius)
    f = spec.family
    if f == "none":
        return 0.0
    if f == "lasso":
        return 1.0
    if f == "ridge":
        return 2.0 * r
    if f == "bridge":
        if spec.q > 1.0:
            return spec.q * r ** (spec.q - 1.0)
        if spec.q == 1.0:
            return 1.0
        return math.inf
    if f == "elastic_net":
        return spec.mix + 2.0 * (1.0 - spec.mix) * r
    if f in ("scad", "mcp"):
        return 1.0 if r > 0 else 0.0
    if f == "laplace":
        return 1.0 / spec.epsilon if r > 0 else 0.0
    if f == "arctan":
        return 2.0 * spec.gamma / np.pi if r > 0 else 0.0
    if f == "gaussian":
        k = spec.kappa
        peak = 1.0 / math.sqrt(2.0 * k)
        if r >= peak:
            return math.sqrt(2.0 * k) * math.exp(-0.5)
        return 2.0 * k * r * math.exp(-k * r * r)
    raise ConfigurationError(f"unknown penalty family {f!r}")
