import dataclasses
import math
import pickle
import sys
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import CONFIGS
from gausspen import cli, mlp
from gausspen.config import parse_config
from gausspen.errors import ConfigurationError, DomainError
from gausspen.penalties import (
    FAMILIES,
    PARAMETER,
    PenaltySpec,
    curv_array,
    grad_array,
    penalty_bounds,
    penalty_value,
    value_array,
)

ALL_SPECS = [
    PenaltySpec("none"),
    PenaltySpec("lasso"),
    PenaltySpec("ridge"),
    PenaltySpec("bridge", q=0.5),
    PenaltySpec("bridge", q=1.5),
    PenaltySpec("elastic_net", mix=0.5),
    PenaltySpec("scad", a=3.7),
    PenaltySpec("mcp", b=1.5),
    PenaltySpec("mcp", b=5.0),
    PenaltySpec("laplace", epsilon=1e-7),
    PenaltySpec("arctan", gamma=1.0),
    PenaltySpec("arctan", gamma=100.0),
    PenaltySpec("gaussian", kappa=10.0),
    PenaltySpec("gaussian", kappa=1.0),
]


def grad(spec, beta):
    """P'(beta) at one coefficient, as a float."""
    return float(grad_array(spec, beta))


def interval_lipschitz(spec, radius):
    """The sup of |P'| over [-radius, radius] that the table's bounds state:
    |P'| rises on (0, R], R the convexity radius, and not beyond, so it is
    the global Lipschitz constant from R on and max(P'(0+), |P'(radius)|)
    below R."""
    bounds = penalty_bounds(spec)
    if radius >= bounds.convexity_radius:
        return bounds.lipschitz
    return max(spec.slope_at_zero(), abs(grad(spec, radius)))


def golden_section_max(fn, lo, hi, iters=200):
    # derivative-free maximizer, independent of any closed form
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = fn(d)
    x = (a + b) / 2.0
    return x, fn(x)


# --- spec construction -------------------------------------------------------


def test_defaults():
    assert PenaltySpec("gaussian").param == 10.0
    assert PenaltySpec("scad").param == 3.7
    assert PenaltySpec("mcp").param == 5.0
    assert PenaltySpec("laplace").param == 1e-7
    assert PenaltySpec("arctan").param == 1.0
    assert PenaltySpec("bridge").param == PenaltySpec("elastic_net").param == 0.5
    assert all(PenaltySpec(family).param is None for family in ("none", "lasso", "ridge"))


def test_invalid_hyperparameters_rejected():
    with pytest.raises(ConfigurationError):
        PenaltySpec("gaussian", kappa=0.0)
    with pytest.raises(ConfigurationError):
        PenaltySpec("scad", a=2.0)
    with pytest.raises(ConfigurationError):
        PenaltySpec("elastic_net", mix=1.5)
    with pytest.raises(ConfigurationError):
        PenaltySpec("nonsense")
    with pytest.raises(TypeError, match="'kapa'"):
        PenaltySpec("gaussian", kapa=10.0)
    with pytest.raises(TypeError):
        PenaltySpec("gaussian", 10.0)  # the hyperparameter is keyword-only


# per parameterized family: values just outside its rule, and just inside
PARAMETER_EDGES = {
    "gaussian": ([0.0, -5e-324], [5e-324]),
    "scad": ([2.0], [math.nextafter(2.0, 3.0)]),
    "mcp": ([0.0], [5e-324]),
    "laplace": ([0.0], [5e-324]),
    "arctan": ([0.0], [5e-324]),
    "bridge": ([0.0], [5e-324]),
    "elastic_net": ([-5e-324, math.nextafter(1.0, 2.0)], [0.0, 1.0]),
}


@pytest.mark.parametrize("family", sorted(PARAMETER))
def test_every_family_checks_its_parameter(family):
    name = PARAMETER[family]
    invalid, valid = PARAMETER_EDGES[family]
    for value in invalid + [math.inf, -math.inf, math.nan]:
        with pytest.raises(ConfigurationError, match=rf"invalid {family} penalty: {name} = "):
            PenaltySpec(family, **{name: value})
    for value in valid:
        assert PenaltySpec(family, **{name: value}).param == value


def test_invalid_parameter_message_states_the_rule():
    with pytest.raises(ConfigurationError) as info:
        PenaltySpec("gaussian", kappa=math.inf)
    assert str(info.value) == "invalid gaussian penalty: kappa = inf must be a finite number > 0"


@pytest.mark.parametrize("family, param, kinked", [
    ("bridge", 0.5, True),
    ("bridge", 1.0, True),
    ("bridge", 1.5, False),
    ("elastic_net", 0.5, True),
    ("elastic_net", 1.0, True),
    ("elastic_net", 0.0, False),
])
def test_parameter_dependent_kink(family, param, kinked):
    spec = PenaltySpec(family, **{PARAMETER[family]: param})
    assert (spec.slope_at_zero() > 0.0) == kinked
    assert_right_slope_at_zero(spec)


def assert_right_slope_at_zero(spec):
    # P'(0+) is the limit of the one-sided quotient (P(h) - P(0))/h, taken
    # at an h small against 1/P'(0+); the gradient at 0 is 0 all the same
    slope = spec.slope_at_zero()
    h = 1e-14 / max(1.0, slope) if math.isfinite(slope) else 1e-14
    quotient = (penalty_value(spec, h) - penalty_value(spec, 0.0)) / h
    if math.isinf(slope):
        assert quotient > 1e6, spec.label()
    else:
        assert abs(quotient - slope) <= 1e-6 * max(1.0, slope), (spec.label(), quotient)
    assert grad(spec, 0.0) == 0.0


def test_irrelevant_hyperparameters_ignored():
    # a negative kappa is fine as long as the family never reads it
    spec = PenaltySpec("lasso", kappa=-5.0)
    assert penalty_value(spec, -2.0) == 2.0


def test_non_finite_beta_rejected():
    spec = PenaltySpec("gaussian")
    with pytest.raises(DomainError):
        penalty_value(spec, float("nan"))
    with pytest.raises(DomainError):
        grad_array(spec, float("inf"))


# --- values ------------------------------------------------------------------


def test_value_examples():
    assert penalty_value(PenaltySpec("gaussian", kappa=1.0), 0.0) == 0.0
    assert abs(penalty_value(PenaltySpec("gaussian", kappa=10.0), 3.0) - 1.0) < 1e-12
    assert penalty_value(PenaltySpec("lasso"), -2.0) == 2.0
    assert penalty_value(PenaltySpec("arctan", gamma=1.0), 0.0) == 0.0
    assert penalty_value(PenaltySpec("ridge"), 1.5) == 2.25
    assert penalty_value(PenaltySpec("arctan", gamma=1.0), 1.0) == pytest.approx(
        2.0 / math.pi * math.atan(1.0)
    )


def test_scad_mcp_piecewise_continuity():
    scad = PenaltySpec("scad", a=3.7)
    # knots of the piecewise definition
    for knot in (1.0, 3.7):
        below = penalty_value(scad, knot - 1e-9)
        above = penalty_value(scad, knot + 1e-9)
        assert abs(below - above) < 1e-8
    assert penalty_value(scad, 100.0) == pytest.approx((3.7 + 1.0) / 2.0)
    mcp = PenaltySpec("mcp", b=5.0)
    assert penalty_value(mcp, 5.0) == pytest.approx(2.5)
    assert penalty_value(mcp, 50.0) == pytest.approx(2.5)


# --- gradients ---------------------------------------------------------------


def test_grad_examples():
    assert grad(PenaltySpec("gaussian", kappa=3.0), 0.0) == 0.0
    for kappa in (0.5, 1.0, 10.0):
        spec = PenaltySpec("gaussian", kappa=kappa)
        peak = 1.0 / math.sqrt(2.0 * kappa)
        assert grad(spec, peak) == pytest.approx(math.sqrt(2.0 * kappa) * math.exp(-0.5))


def test_grad_matches_finite_difference():
    rng = np.random.default_rng(42)
    h = 1e-6
    for spec in ALL_SPECS:
        if spec.family == "bridge" and spec.param < 1:
            continue  # unbounded derivative magnifies FD error near 0
        betas = rng.uniform(-3.0, 3.0, size=1000)
        betas = betas[np.abs(betas) >= 1e-3]
        for beta in betas:
            fd = (penalty_value(spec, beta + h) - penalty_value(spec, beta - h)) / (2 * h)
            g = grad(spec, beta)
            assert g == pytest.approx(fd, rel=1e-5, abs=1e-9), spec.label()


def test_grad_is_odd():
    rng = np.random.default_rng(3)
    betas = rng.uniform(0.001, 3.0, size=200)
    for spec in ALL_SPECS:
        for beta in betas:
            assert grad(spec, beta) == -grad(spec, -beta)


# finite coefficient arrays of any shape up to 3-d, 0-d included: values of
# the scale where the penalties bend, any finite double, and the edge values
# (signed zeros, subnormals, overflow in b*b)
EDGE_VALUES = (0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e154, -1e200, 1.7e308, -1.7e308)
FINITE_ARRAYS = hnp.arrays(
    float,
    hnp.array_shapes(min_dims=0, max_dims=3, min_side=1, max_side=6),
    elements=st.one_of(st.floats(-10.0, 10.0),
                       st.floats(allow_nan=False, allow_infinity=False),
                       st.sampled_from(EDGE_VALUES)),
)


ANY_KAPPA = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


def gaussian_grad_formula(beta, kappa, scale=1.0):
    """s * P'(beta) as ``(b * exp((-k * b) * b)) * (2 * (k * s))``, the
    constant applied as k, 2 and s in turn when it is not a positive normal
    float."""
    with np.errstate(over="ignore", under="ignore"):
        factor = np.asarray(beta * np.exp(-kappa * beta * beta))
        const = 2.0 * (kappa * scale)
        if sys.float_info.min <= const <= sys.float_info.max:
            return factor * const
        return factor * kappa * 2.0 * scale


# kappa over the whole positive finite range: at 1.7e308 the constant 2k is
# inf, and at a subnormal kappa it has lost bits
@given(FINITE_ARRAYS, ANY_KAPPA)
@example(np.random.default_rng(0).uniform(-1.0, 1.0, (64, 64)), 10.0)
@example(np.array(1e307), 10.0)
@example(np.array([-1e307, 1e307]), 10.0)
@example(np.zeros(0), 10.0)
def test_gaussian_grad_bits_match_formula(beta, kappa):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = grad_array(PenaltySpec("gaussian", kappa=kappa), beta)
    assert got.shape == beta.shape
    assert got.tobytes() == gaussian_grad_formula(beta, kappa).tobytes()
    assert not np.isnan(got).any()
    # where exp(-k*b*b) underflows (or -k*b*b overflows), a 0 with the sign of b
    with np.errstate(over="ignore", under="ignore"):
        gone = np.exp(-kappa * beta * beta) == 0.0
    assert np.all(got[gone] == 0.0)
    assert np.array_equal(np.signbit(got[gone]), np.signbit(beta[gone]))


def test_gaussian_overflow_raises_no_warning():
    # past |b| ~ 1.3e154/sqrt(kappa) k*b*b overflows, and past ~1.8e308/(2k)
    # 2k*b does too; the value is still exactly 1 and the slope a 0 with
    # the sign of b, and no RuntimeWarning escapes (so -W error runs pass)
    spec = PenaltySpec("gaussian", kappa=10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for b in (1e307, -1e307, 1e200, -1e155, 1.7e308):
            slope = grad(spec, b)
            assert slope == 0.0 and math.copysign(1.0, slope) == math.copysign(1.0, b)
            assert penalty_value(spec, b) == 1.0
        beta = np.array([-1e307, 0.5, 1e307])
        slopes = grad_array(spec, beta)
        assert np.array_equal(np.signbit(slopes), [True, False, False])
        assert slopes[1] == 2.0 * 10 * 0.5 * np.exp(-10 * 0.5 * 0.5)
        assert value_array(spec, beta).tolist() == [1.0, -np.expm1(-10 * 0.5 * 0.5), 1.0]


@given(FINITE_ARRAYS, st.sampled_from(ALL_SPECS))
def test_grad_array_is_odd(beta, spec):
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        plus = grad_array(spec, beta)
        minus = grad_array(spec, -beta)
    np.testing.assert_array_equal(minus, -plus)


SCALES = st.one_of(st.sampled_from((1.0, 0.0, 1e-4, 0.05, 1e160, 1e308)),
                   st.floats(min_value=0.0, allow_infinity=False))
ANY_GAUSSIAN = st.builds(PenaltySpec, st.just("gaussian"), kappa=ANY_KAPPA)


@given(FINITE_ARRAYS, st.one_of(st.sampled_from(ALL_SPECS), ANY_GAUSSIAN), SCALES)
@example(np.array([1e-150, -0.2]), PenaltySpec("gaussian", kappa=1e300), 1e160)
@example(np.array([0.3, -1e-160]), PenaltySpec("gaussian", kappa=1e-300), 1e-30)
# 2 * kappa is inf, 2 * (kappa * s) is not: one product, not three
@example(np.array([5.478467492858171e-155]), PenaltySpec("gaussian", kappa=1.7e308), 1e-4)
def test_scaled_grad_array_is_scale_times_the_derivative(beta, spec, scale):
    # train-mlp adds grad_array(penalty, W, lam) to its weight gradient: for
    # every family but the Gaussian that is lam * P'(W) bit for bit, and the
    # Gaussian folds lam into its constant without a nan
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        got = grad_array(spec, beta, scale)
        ref = scale * grad_array(spec, beta)
    assert got.shape == beta.shape
    if spec.family == "gaussian":
        ref = gaussian_grad_formula(beta, spec.param, scale)
        assert not np.isnan(got).any()
    assert np.asarray(got).tobytes() == np.asarray(ref).tobytes(), spec.label()


def test_scaled_gaussian_grad_overflows_to_inf_under_any_errstate():
    # the constant 2 * (k * s) is inf, and b*exp(-k*b*b)*k*2 = P'(b) is
    # finite (7.4e149); only the last product, times s, overflows, to inf,
    # whatever the caller's overflow rule
    spec = PenaltySpec("gaussian", kappa=1e300)
    beta = np.array([1e-150, 0.5])
    assert np.isfinite(grad_array(spec, beta)).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for rule in ("raise", "warn", "ignore"):
            with np.errstate(over=rule):
                assert grad_array(spec, beta, 1e160).tolist() == [math.inf, 0.0]


@given(FINITE_ARRAYS, st.sampled_from(ALL_SPECS), st.data())
def test_grad_array_rejects_non_finite(beta, spec, data):
    index = data.draw(st.integers(0, beta.size - 1))
    beta.flat[index] = data.draw(st.sampled_from((np.nan, np.inf, -np.inf)))
    with pytest.raises(DomainError):
        grad_array(spec, beta)


# each family's parameter over a wide slice of its valid range
PARAMETER_VALUES = {
    "gaussian": st.floats(1e-3, 1e3),
    "scad": st.floats(2.0, 50.0, exclude_min=True),
    "mcp": st.floats(1e-3, 50.0),
    "laplace": st.floats(1e-9, 10.0),
    "arctan": st.floats(1e-3, 1e3),
    "bridge": st.floats(0.1, 4.0),
    "elastic_net": st.floats(0.0, 1.0),
}


@st.composite
def any_spec(draw):
    family = draw(st.sampled_from(FAMILIES))
    if family not in PARAMETER:
        return PenaltySpec(family)
    return PenaltySpec(family, **{PARAMETER[family]: draw(PARAMETER_VALUES[family])})


@given(FINITE_ARRAYS, any_spec())
@example(np.linspace(-3.0, 3.0, 1001), PenaltySpec("bridge", q=0.5))
@example(np.array([-8.07, 8.07]), PenaltySpec("scad", a=8.07))  # quadratic rounds above (a+1)/2
@example(np.array([6.83]), PenaltySpec("mcp", b=6.83))  # and above b/2
def test_value_array_matches_scalar_even_and_bounded(beta, spec):
    with np.errstate(over="ignore", invalid="ignore"):
        got = value_array(spec, beta)
        scalar = np.array([penalty_value(spec, b) for b in beta.flat]).reshape(beta.shape)
        mirrored = value_array(spec, -beta)
        near = np.abs(got - scalar) <= np.spacing(np.maximum(got, scalar))
    assert got.shape == beta.shape
    if spec.family == "bridge":
        # array ** q may take another pow path than the scalar one (for
        # q = 0.5, sqrt): within 1 ulp
        assert np.all((got == scalar) | near), spec.label()
    else:
        np.testing.assert_array_equal(got, scalar)
    np.testing.assert_array_equal(mirrored, got)
    assert np.all((got >= 0.0) & (got <= penalty_bounds(spec).sup_value)), spec.label()


def reference_value(spec, b):
    """P(b) per element with ``math``, from the module docstring's formulas."""
    f, t, p = spec.family, abs(b), spec.param
    if f == "none":
        return 0.0
    if f == "lasso":
        return t
    if f == "ridge":
        return b * b
    if f == "bridge":
        return t**p
    if f == "elastic_net":
        return p * t + (1.0 - p) * b * b
    if f == "scad":
        if t <= 1.0:
            return t
        return (2.0 * p * t - t * t - 1.0) / (2.0 * (p - 1.0)) if t <= p else (p + 1.0) / 2.0
    if f == "mcp":
        return t - t * t / (2.0 * p) if t <= p else p / 2.0
    if f == "laplace":
        return -math.expm1(-t / p)
    if f == "arctan":
        return 2.0 / math.pi * math.atan(p * t)
    assert f == "gaussian", f
    return -math.expm1(-p * b * b)


def reference_derivative(spec, b):
    """P'(b) per element for b != 0, differentiated by hand from the formulas."""
    f, t, s, p = spec.family, abs(b), math.copysign(1.0, b), spec.param
    if f == "none":
        return 0.0
    if f == "lasso":
        return s
    if f == "ridge":
        return 2.0 * b
    if f == "bridge":
        return s * p * t ** (p - 1.0)
    if f == "elastic_net":
        return p * s + 2.0 * (1.0 - p) * b
    if f == "scad":
        return s * (1.0 if t <= 1.0 else max(p - t, 0.0) / (p - 1.0))
    if f == "mcp":
        return s * max(1.0 - t / p, 0.0)
    if f == "laplace":
        return s * math.exp(-t / p) / p
    if f == "arctan":
        return s * (2.0 * p / math.pi) / (1.0 + p * p * b * b)
    assert f == "gaussian", f
    return 2.0 * p * b * math.exp(-p * b * b)


def within_ulps(got, ref, ulps=4):
    return abs(got - ref) <= ulps * math.ulp(max(abs(got), abs(ref)))


MODERATE_ARRAYS = hnp.arrays(float, st.integers(1, 16), elements=st.floats(-50.0, 50.0))


@given(MODERATE_ARRAYS, any_spec())
@example(np.array([-3.7, -1.0, 0.0, 1.0, 2.5, 3.7, 4.0]), PenaltySpec("scad", a=3.7))
@example(np.array([-5.0, 0.0, 2.5, 5.0, 6.0]), PenaltySpec("mcp", b=5.0))
def test_values_and_derivatives_match_reference_formulas(beta, spec):
    values = value_array(spec, beta)
    nonzero = beta[beta != 0.0]
    slopes = grad_array(spec, nonzero)
    for b, got in zip(beta.tolist(), values.tolist()):
        assert within_ulps(got, reference_value(spec, b)), (spec.label(), b)
    for b, got in zip(nonzero.tolist(), slopes.tolist()):
        assert within_ulps(got, reference_derivative(spec, b)), (spec.label(), b)


# each family's parameter over its whole valid range, subnormals included
WHOLE_RANGE = {family: st.floats(5e-324, sys.float_info.max) for family in PARAMETER}
WHOLE_RANGE.update(scad=st.floats(2.0, sys.float_info.max, exclude_min=True),
                   elastic_net=st.floats(-0.0, 1.0))


@st.composite
def whole_range_cases(draw, families=FAMILIES):
    """A penalty of one of ``families``, its parameter anywhere in its valid
    range, and finite coefficients: any double, or one on the parameter's
    own scale, where SCAD and MCP change piece."""
    family = draw(st.sampled_from(families))
    if family not in PARAMETER:
        return PenaltySpec(family), draw(FINITE_ARRAYS)
    param = draw(WHOLE_RANGE[family])
    scaled = st.floats(0.0, 2.0).map(lambda u: u * param).filter(math.isfinite)
    beta = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False) | scaled
                         | scaled.map(lambda b: -b), min_size=1, max_size=16))
    return PenaltySpec(family, **{PARAMETER[family]: param}), np.array(beta)


@st.composite
def spec_twins(draw):
    """Two specs of one family and one valid parameter, a 0 given with
    either sign, the second also given other families' keywords at any value."""
    family = draw(st.sampled_from(FAMILIES))
    name = PARAMETER.get(family)
    keywords = sorted(set(PARAMETER.values()) - {name})
    others = draw(st.dictionaries(st.sampled_from(keywords), st.floats()))
    if name is None:
        return PenaltySpec(family), PenaltySpec(family, **others)
    value = draw(WHOLE_RANGE[family])
    twin = draw(st.sampled_from([value, -value])) if value == 0.0 else value
    return PenaltySpec(family, **{name: value}), PenaltySpec(family, **{name: twin}, **others)


@given(spec_twins(), spec_twins().map(lambda twins: twins[1]))
@example((PenaltySpec("gaussian", kappa=10), PenaltySpec("gaussian", kappa=10, q=0.7)),
         PenaltySpec("gaussian", kappa=10.000001))
@example((PenaltySpec("elastic_net", mix=0.0), PenaltySpec("elastic_net", mix=-0.0)),
         PenaltySpec("ridge"))
def test_a_spec_is_its_family_and_parameter(twins, other):
    spec, twin = twins
    assert spec == twin and hash(spec) == hash(twin) and spec.label() == twin.label()
    assert (spec == other) == (spec.label() == other.label())
    assert spec != other or hash(spec) == hash(other)
    assert pickle.loads(pickle.dumps(twin)) == spec
    assert repr(twin) == f"PenaltySpec(family={spec.family!r}, param={spec.param!r})"
    # equal specs make equal runs, and train-mlp trains each run once
    runs = [mlp.TrainConfig(penalty=s, lam=0.5) for s in (spec, twin)]
    assert runs[0] == runs[1] and hash(runs[0]) == hash(runs[1])
    trained = []

    def fake_cell(splits, arch, cfg, weights, artifacts_dir, slugs):
        trained.append(cfg)
        return len(trained), 1, 1, "patience"

    shipped = parse_config(str(CONFIGS / "train_mlp.cfg"))
    grid = dataclasses.replace(shipped, penalties=[spec, twin, other], lambda_grid=[0.5], seeds=[1])
    with mock.patch.object(cli, "_train_cell", fake_cell):
        _, _, columns = cli.run_train_mlp(grid, 1)
    assert len(trained) == len({spec.label(), other.label()})
    rows = list(zip(*columns))
    assert rows[0][4] == rows[1][4] == 1  # spec's and twin's rows share one run


@settings(max_examples=300)
@given(whole_range_cases())
@example((PenaltySpec("scad", a=1.7e308), np.array([-2.0, 2.0])))  # NaN from inf / inf
@example((PenaltySpec("mcp", b=1e200), np.array([5e199])))  # -inf from |b| - inf
@example((PenaltySpec("scad", a=1e200), np.array([1e150])))  # clamped to (a+1)/2
def test_value_array_over_whole_parameter_range(case):
    # value_array's one overflow rule: a value above the largest double is
    # inf, and nothing warns or raises, whatever the caller's overflow rule
    spec, beta = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = value_array(spec, beta)
        with np.errstate(over="raise"):
            mirrored = value_array(spec, -beta)
    sup = penalty_bounds(spec).sup_value
    np.testing.assert_array_equal(mirrored, got)
    assert np.all((got >= 0.0) & (got <= sup)), spec.label()  # a NaN fails too
    assert math.isinf(sup) or np.isfinite(got).all(), spec.label()


@settings(max_examples=300)
@given(whole_range_cases(), st.just(1.0) | st.floats(0.0, sys.float_info.max, exclude_min=True))
@example((PenaltySpec("laplace", epsilon=1e-310), np.array([0.5])), 1.0)  # |b|/eps overflowed
@example((PenaltySpec("arctan", gamma=1e300), np.array([0.0, 1e-300])), 1.0)  # so did g*g
def test_grad_array_over_whole_parameter_range(case, scale):
    # grad_array's one overflow rule, value_array's: a scaled derivative
    # above the largest double is +-inf, and nothing warns or raises
    spec, beta = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = grad_array(spec, beta, scale)
        with np.errstate(over="raise"):
            mirrored = grad_array(spec, -beta, scale)
            at_zero = grad_array(spec, np.zeros(2), scale)
    np.testing.assert_array_equal(mirrored, -got)
    assert not np.isnan(got).any(), spec.label()
    assert at_zero.tolist() == [0.0, 0.0], spec.label()


def test_arctan_grad_of_huge_gamma():
    # (2/pi)*g / (1 + (g*b)^2): g*g alone would overflow, giving NaN at 0
    # and 0 at 1e-300, where the derivative is g/pi
    spec = PenaltySpec("arctan", gamma=1e300)
    got = grad_array(spec, np.array([0.0, 1e-300, -1e-300, 1.0]))
    assert got[0] == 0.0 and got[3] == pytest.approx(2.0 / math.pi * 1e-300)
    assert got[1:3].tolist() == pytest.approx([1e300 / math.pi, -1e300 / math.pi])


@pytest.mark.parametrize("q, b", [(1e-300, 5e-324), (1e-300, 1e-310), (0.045, 5e-324)])
def test_bridge_grad_of_a_tiny_coefficient_is_finite(q, b):
    # t**(q-1) overflows where q t**(q-1) does not: about 2.024e23, 1e10 and
    # 2.574e307, against log10 q + (q-1) log10 t
    got = grad_array(PenaltySpec("bridge", q=q), np.array([b, -b]))
    assert got[0] == -got[1] and math.isfinite(got[0])
    assert math.log10(got[0]) == pytest.approx(math.log10(q) + (q - 1.0) * math.log10(b),
                                               abs=1e-12)


def test_bridge_grad_keeps_its_bits_where_its_power_is_finite():
    betas = np.array([-3.0, -1e-300, 5e-324, 1e-310, 0.1, 2.5, 1e200])
    for q in (0.045, 0.5, 1.5, 3.0):
        with np.errstate(over="ignore"):
            direct = q * np.abs(betas) ** (q - 1.0) * np.sign(betas)
        finite = np.isfinite(direct)
        got = grad_array(PenaltySpec("bridge", q=q), betas)
        assert got[finite].tobytes() == direct[finite].tobytes()


def exact_value(spec, b):
    """SCAD's or MCP's value at b from its published formula, in exact
    rationals, rounded once to the nearest double."""
    t = Fraction(abs(b))
    if spec.family == "scad":
        a = Fraction(spec.param)
        if t <= 1:
            return float(t)
        return float((2 * a * t - t * t - 1) / (2 * (a - 1)) if t <= a else (a + 1) / 2)
    c = Fraction(spec.param)
    return float(t - t * t / (2 * c) if t <= c else c / 2)


@settings(max_examples=300)
@given(whole_range_cases(("scad", "mcp")))
@example((PenaltySpec("scad", a=1.7e308), np.array([-2.0, 2.0])))
@example((PenaltySpec("scad", a=1e200), np.array([1e150, 5e199])))
# 2m - m*(m/a) would overflow in 2m, m above half the largest double
@example((PenaltySpec("scad", a=1.7e308), np.array([1e308, 9e307, 1.6e308])))
@example((PenaltySpec("mcp", b=1e200), np.array([5e199, 1e150])))
@example((PenaltySpec("mcp", b=1.7e308), np.array([1e308, 1.6e308])))
def test_scad_and_mcp_values_are_exact_over_whole_parameter_range(case):
    spec, beta = case
    for b, got in zip(beta.tolist(), value_array(spec, beta).tolist()):
        ref = exact_value(spec, b)
        if ref >= sys.float_info.min:  # a normal result
            assert within_ulps(got, ref), (spec.label(), b, got, ref)


# where P'' jumps: SCAD at 1 and a, MCP at c, and every family at 0
def _breaks(spec):
    return {"scad": (0.0, 1.0, spec.param), "mcp": (0.0, spec.param)}.get(spec.family, (0.0,))


@settings(max_examples=300)
@given(whole_range_cases(), st.just(1.0) | st.floats(0.0, sys.float_info.max, exclude_min=True))
@example((PenaltySpec("bridge", q=1.0), np.array([1e-310, 5e-324])), 1.0)  # inf * 0 at q = 1
@example((PenaltySpec("gaussian", kappa=1.7e308), np.array([0.5, 1e-160])), 1.0)  # u = inf
@example((PenaltySpec("arctan", gamma=1e300), np.array([1e10, 1e-300])), 1.0)  # u/w = inf/inf
@example((PenaltySpec("bridge", q=1.5), np.array([0.0, 2.0])), 1.0)  # the limit inf at 0
def test_curv_array_over_whole_parameter_range(case, scale):
    # curv_array's rule, grad_array's: even, scale times the unscaled value
    # to the bit, no NaN and no warning, 0 at a kink's origin.  And where P''
    # is continuous on [b - h, b + h], the central difference of grad_array
    # over it, the mean of P'' there, lies within the range of P'' sampled at
    # 5 points of it, up to the round-off of the difference
    spec, beta = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = curv_array(spec, beta)
        with np.errstate(over="raise", invalid="raise"):
            mirrored = curv_array(spec, -beta)
            scaled = curv_array(spec, beta, scale)
            at_zero = curv_array(spec, np.zeros(2))
    np.testing.assert_array_equal(mirrored, got)
    with np.errstate(over="ignore"):
        assert scaled.tobytes() == (scale * got).tobytes()
    assert not np.isnan(got).any(), spec.label()
    if spec.slope_at_zero() > 0:
        assert at_zero.tolist() == [0.0, 0.0], spec.label()
    eps = sys.float_info.epsilon
    for b in beta.ravel().tolist():
        h = abs(b) * 2.0**-20
        low, high = b - h, b + h
        if not 1e-290 < abs(b) < 1e300 or any(low <= edge <= high or low <= -edge <= high
                                              for edge in _breaks(spec)):
            continue
        slopes = grad_array(spec, np.array([low, high]))
        curvs = curv_array(spec, np.linspace(low, high, 5))
        small, large = np.abs(slopes).min(), np.abs(slopes).max()
        # no overflow, and no slope that has underflowed below the normal range
        # (a slope of 0 is exact where P'' is 0 too)
        if not (np.isfinite(curvs).all() and large < 1e300) or (small < 1e-290 and curvs.any()):
            continue
        with np.errstate(over="ignore"):
            mean = (slopes[1] - slopes[0]) / (high - low)
            # each slope is within a few ulps of its terms, which for MCP
            # (1 - t/c) are up to P'(0+) however small the slope
            kink = spec.slope_at_zero() if math.isfinite(spec.slope_at_zero()) else 0.0
            slack = (8 * eps * (small + large + kink) / (high - low)
                     + 1e-12 * np.abs(curvs).max() + sys.float_info.min)
        assert curvs.min() - slack <= mean <= curvs.max() + slack, (spec.label(), b, mean, curvs)


def exact_curvature(spec, b):
    """Ridge's, SCAD's or MCP's P'' at b from its published formula, in exact
    rationals (that of the piece whose value formula covers b), rounded once
    to the nearest double, or -inf below the most negative one."""
    t = Fraction(abs(b))
    if spec.family == "ridge":
        return 2.0
    if spec.family == "scad":
        a = Fraction(spec.param)
        exact = -1 / (a - 1) if 1 < t <= a else Fraction(0)
    else:
        c = Fraction(spec.param)
        exact = -1 / c if 0 < t <= c else Fraction(0)
    return -math.inf if -exact > Fraction(sys.float_info.max) else float(exact)


@settings(max_examples=300)
@given(whole_range_cases(("ridge", "scad", "mcp")))
@example((PenaltySpec("scad", a=3.7), np.array([-3.7, -1.0, 0.0, 1.0, 1.5, 3.7, 4.0])))
@example((PenaltySpec("mcp", b=5e-324), np.array([5e-324, 1e-324, 1.0])))  # -1/c overflows
@example((PenaltySpec("scad", a=1.7e308), np.array([2.0, 1.7e308])))
def test_ridge_scad_and_mcp_curvatures_are_exact(case):
    spec, beta = case
    for b, got in zip(beta.ravel().tolist(), curv_array(spec, beta).ravel().tolist()):
        ref = exact_curvature(spec, b)
        if ref == 0.0 or math.isinf(ref):
            assert got == ref, (spec.label(), b, got, ref)
        elif abs(ref) >= sys.float_info.min:  # a normal result
            assert within_ulps(got, ref, ulps=2), (spec.label(), b, got, ref)


@given(FINITE_ARRAYS, st.sampled_from(ALL_SPECS), st.data())
def test_curv_array_rejects_non_finite(beta, spec, data):
    index = data.draw(st.integers(0, beta.size - 1))
    beta.flat[index] = data.draw(st.sampled_from((np.nan, np.inf, -np.inf)))
    with pytest.raises(DomainError):
        curv_array(spec, beta)


@given(any_spec(), st.floats(0.0, 50.0),
       st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=32))
@example(PenaltySpec("gaussian", kappa=10.0), 1.0 / math.sqrt(20.0), [1.0, -1.0])
@example(PenaltySpec("gaussian", kappa=10.0), 0.1, [1.0, -1.0])
@example(PenaltySpec("elastic_net", mix=0.25), 3.0, [1.0])
def test_slopes_within_interval_and_global_lipschitz(spec, radius, fractions):
    # samples of [-radius, radius], both ends included; |u * r| <= r exactly
    beta = np.array([u * radius for u in fractions] + [radius, -radius])
    slopes = np.abs(grad_array(spec, beta))
    local = interval_lipschitz(spec, radius)
    overall = penalty_bounds(spec).lipschitz
    if math.isfinite(local):
        for slope in slopes.tolist():
            assert slope <= local or within_ulps(slope, local), (spec.label(), slope, local)
    if math.isfinite(overall):
        assert local <= overall or within_ulps(local, overall), (spec.label(), local, overall)


def test_kink_requires_convention():
    # the kinked families have a positive slope at 0+ and still the
    # gradient 0 at 0; the smooth ones have slope 0 there
    for family in ("lasso", "scad", "mcp", "laplace", "arctan"):
        assert PenaltySpec(family).slope_at_zero() > 0.0
    for family in ("none", "ridge", "gaussian"):
        assert PenaltySpec(family).slope_at_zero() == 0.0
    for spec in ALL_SPECS:
        assert_right_slope_at_zero(spec)


# --- bounds ------------------------------------------------------------------


def test_bounds_gaussian_oracle():
    # maximize |P'| by dense grid + golden section, no closed form involved
    spec = PenaltySpec("gaussian", kappa=10.0)
    grid = np.linspace(0.0, 2.0, 4001)
    vals = [abs(grad(spec, b)) for b in grid]
    i = int(np.argmax(vals))
    _, peak = golden_section_max(
        lambda b: abs(grad(spec, b)), grid[max(i - 1, 0)], grid[min(i + 1, 4000)]
    )
    bounds = penalty_bounds(spec)
    assert bounds.lipschitz == pytest.approx(peak, abs=1e-10)
    assert bounds.lipschitz == pytest.approx(2.7124875711104828)
    assert bounds.sup_value == 1.0
    assert bounds.convexity_radius == pytest.approx(1.0 / math.sqrt(20.0))


def test_bounds_other_families():
    assert penalty_bounds(PenaltySpec("gaussian", kappa=0.5)).lipschitz == pytest.approx(
        math.exp(-0.5)
    )
    assert penalty_bounds(PenaltySpec("lasso")).lipschitz == 1.0
    ridge = penalty_bounds(PenaltySpec("ridge"))
    assert math.isinf(ridge.lipschitz)
    assert math.isinf(ridge.convexity_radius)
    assert interval_lipschitz(PenaltySpec("ridge"), 4.0) == 8.0
    assert penalty_bounds(PenaltySpec("mcp", b=5.0)).sup_value == 2.5
    assert penalty_bounds(PenaltySpec("scad", a=3.7)).sup_value == pytest.approx(2.35)
    bridge = penalty_bounds(PenaltySpec("bridge", q=0.5))
    assert math.isinf(bridge.lipschitz) and bridge.convexity_radius == 0.0


def test_interval_lipschitz_dominates_samples():
    rng = np.random.default_rng(9)
    for spec in ALL_SPECS:
        if spec.family == "bridge" and spec.param < 1:
            continue
        bound = interval_lipschitz(spec, 2.0)
        xs = rng.uniform(-2.0, 2.0, size=500)
        ys = rng.uniform(-2.0, 2.0, size=500)
        gap = np.abs(
            np.array([penalty_value(spec, x) for x in xs])
            - np.array([penalty_value(spec, y) for y in ys])
        )
        assert np.all(gap <= bound * np.abs(xs - ys) + 1e-12), spec.label()


@pytest.mark.parametrize("family", FAMILIES)
def test_interval_lipschitz_is_zero_at_radius_zero(family):
    # [-0, 0] holds only the origin, whose gradient is the subgradient 0
    assert np.abs(grad_array(PenaltySpec(family), [0.0, -0.0])).max() == 0.0


def test_interval_lipschitz_of_pure_lasso_elastic_net_on_the_whole_line():
    bounds = penalty_bounds(PenaltySpec("elastic_net", mix=1.0))
    assert (bounds.lipschitz, bounds.convexity_radius) == (1.0, math.inf)


@settings(deadline=None)
@given(any_spec(), st.floats(0.0, 50.0, exclude_min=True))
@example(PenaltySpec("gaussian", kappa=10.0), 1.0 / math.sqrt(20.0))
@example(PenaltySpec("gaussian", kappa=10.0), 0.1)
@example(PenaltySpec("scad", a=3.7), 0.5)
def test_interval_lipschitz_matches_a_numeric_maximum(spec, radius):
    # maximize |P'| over (0, r] by dense grid + golden section, with P'(0+)
    # as the value at the open end; no bound from the table involved
    bound = interval_lipschitz(spec, radius)
    assume(math.isfinite(bound))
    grid = np.linspace(0.0, radius, 4001)
    slopes = np.abs(grad_array(spec, grid))
    i = int(np.argmax(slopes))
    _, peak = golden_section_max(
        lambda b: abs(grad(spec, b)), grid[max(i - 1, 0)], grid[min(i + 1, 4000)]
    )
    oracle = max(spec.slope_at_zero(), float(slopes[i]), peak)
    assert abs(bound - oracle) <= 1e-9 * oracle, (spec.label(), radius, bound, oracle)


# --- invariants from the module contract -------------------------------------


def test_symmetry_exact():
    rng = np.random.default_rng(0)
    betas = rng.uniform(-5.0, 5.0, size=10_000)
    for spec in ALL_SPECS:
        for beta in betas[:: len(ALL_SPECS)]:  # spread the budget across families
            assert penalty_value(spec, beta) == penalty_value(spec, -beta)
    # and the full 1e4 batch for the centerpiece family
    spec = PenaltySpec("gaussian", kappa=10.0)
    from gausspen.penalties import value_array

    assert np.array_equal(value_array(spec, betas), value_array(spec, -betas))


def test_gaussian_lipschitz_inequality():
    rng = np.random.default_rng(1)
    for kappa in (0.5, 10.0):
        spec = PenaltySpec("gaussian", kappa=kappa)
        constant = math.sqrt(2.0 * kappa) * math.exp(-0.5)
        x = rng.uniform(-10.0, 10.0, size=10_000)
        y = rng.uniform(-10.0, 10.0, size=10_000)
        from gausspen.penalties import value_array

        lhs = np.abs(value_array(spec, x) - value_array(spec, y))
        assert np.all(lhs <= constant * np.abs(x - y) + 1e-12)


def test_near_origin_ridge_equivalence():
    # 0 <= kappa*b^2 - P(b) <= (kappa*b^2)^2 / 2 near the origin
    rng = np.random.default_rng(2)
    for kappa in (1.0, 10.0):
        spec = PenaltySpec("gaussian", kappa=kappa)
        betas = rng.uniform(-1e-2, 1e-2, size=2000)
        for beta in betas:
            gap = kappa * beta * beta - penalty_value(spec, beta)
            assert 0.0 <= gap <= (kappa * beta * beta) ** 2 / 2.0 + 1e-18


def test_gaussian_bounded_and_monotone():
    spec = PenaltySpec("gaussian", kappa=10.0)
    rng = np.random.default_rng(4)
    # strict < 1 where 1 - exp(-kappa b^2) is representable below 1
    betas = rng.uniform(-1.9, 1.9, size=5000)
    values = np.array([penalty_value(spec, b) for b in betas])
    assert np.all(values >= 0.0)
    assert np.all(values < 1.0)
    order = np.argsort(np.abs(betas))
    assert np.all(np.diff(values[order]) >= -1e-16)
    # far out the value saturates to the supremum exactly (float rounding)
    far = np.array([penalty_value(spec, b) for b in rng.uniform(2.0, 50.0, size=500)])
    assert np.all(far <= 1.0)
    assert penalty_value(spec, 1e6) == 1.0


def test_gaussian_convexity_split():
    for kappa in (0.5, 10.0):
        spec = PenaltySpec("gaussian", kappa=kappa)
        radius = 1.0 / math.sqrt(2.0 * kappa)
        h = 1e-3 / math.sqrt(kappa)

        def second_diff(b):
            return (
                penalty_value(spec, b + h)
                - 2.0 * penalty_value(spec, b)
                + penalty_value(spec, b - h)
            ) / (h * h)

        rng = np.random.default_rng(8)
        inside = rng.uniform(-radius + 1e-4, radius - 1e-4, size=200)
        outside = np.concatenate(
            [
                rng.uniform(radius + 1e-4, 1.3 / math.sqrt(kappa), size=100),
                rng.uniform(-1.3 / math.sqrt(kappa), -radius - 1e-4, size=100),
            ]
        )
        assert all(second_diff(b) > 0.0 for b in inside)
        assert all(second_diff(b) < 0.0 for b in outside)
