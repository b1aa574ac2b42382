"""Penalized least squares by a batched Newton and gradient descent, and the
1-D orthonormal-design objective whose two-minima structure drives the
penalty's phase transition.

The solver minimizes

    F(beta) = (1/n) * ||y - X beta||^2 + lam * sum_j P(beta_j)

with Armijo backtracking, one vectorized descent for a whole stack of
problems: safeguarded Newton steps where the penalty has no kink at the
origin, else Barzilai-Borwein gradient steps, orthant-wise (Andrew & Gao
2007), which can land on it.
For an orthonormal design (X'X = I) the problem separates per coordinate into

    f(b) = -2 * beta_ols * b + b^2 + lam_1d * (1 - exp(-kappa b^2)),

where ``lam_1d = n * lam`` under the 1/n loss normalization above.  Its
roots come from two ports of scipy's ``brentq`` that agree to the bit: one in
Python floats for a lone lambda, and one vectorized for a grid, where a Brent
step's tens of microseconds of numpy overhead are shared.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DivergenceError
from .penalties import curv_array, grad_array, penalty_bounds, value_array

STEP_INIT = 1.0  # first trial step of every descent
BACKTRACK = 0.5  # factor a rejected trial step is cut by
GRAD_TOL = 1e-8  # gradient norm at which a descent has converged
MAX_ITER = 100_000  # passes after which a descent stops
_BLOCK = 2**13  # numbers in the largest stack of Cholesky factors a pass makes
#: why a descent row stopped, the first that holds of the stop rule's tests
STOP_REASONS = ("unusable start", "gradient not finite", "converged", "round-off floor",
                "pass budget", "stalled step", "step not positive")


@dataclass
class LinearProblem:
    """A design matrix / response pair."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.y = np.asarray(self.y, dtype=float).ravel()
        if self.X.ndim != 2 or self.X.shape[0] < 1 or self.X.shape[1] < 1:
            raise ConfigurationError("X must be a nonempty n x p matrix")
        if self.y.shape[0] != self.X.shape[0]:
            raise ConfigurationError("y length must match the number of rows of X")
        if not (np.isfinite(self.X).all() and np.isfinite(self.y).all()):
            raise ConfigurationError("design and response must be finite")

    @property
    def n(self):
        return self.X.shape[0]

    @property
    def p(self):
        return self.X.shape[1]


@dataclass
class FitResult:
    """Solver output: estimate, its objective, diagnostics."""

    beta_hat: np.ndarray
    objective: float
    converged: bool
    grad_norm_final: float
    iterations: int


@dataclass
class MinimaProfile:
    """All local minima of the 1-D orthonormal objective at one lambda.

    ``minima`` holds (location, value, second_derivative) triples;
    ``global_index`` points at the smallest value, ties broken toward the
    smaller |location|.
    """

    lam: float
    minima: list
    global_index: int


def fit(problem, spec, lam, start=None):
    """Minimize (1/n)||y - X beta||^2 + lam * sum_j P(beta_j).

    By default the descent starts at the unpenalized least-squares solution.
    A nonconvex penalty (a finite convexity radius) at ``lam > 0`` creates a
    second basin, around 0, so the origin is tried first and the lower
    objective wins; pass ``start`` to run a single descent from a chosen point.

    Returns a :class:`FitResult`; ``converged`` is False (not an error) when
    the descent stops before the gradient tolerance is met.
    """
    X, y = problem.X, problem.y
    if start is not None:
        starts = [np.asarray(start, dtype=float)]
    else:
        starts = [np.linalg.lstsq(X, y, rcond=None)[0]]
        if lam > 0 and penalty_bounds(spec).convexity_radius < math.inf:
            starts.insert(0, np.zeros(problem.p))
    batch = fit_batch((X.T @ X)[None], (X.T @ y)[None], np.array([y @ y]), problem.n,
                      spec, lam, np.array(starts)[None])
    if batch.failed[0]:
        raise DivergenceError("objective is non-finite at the start point")
    return FitResult(batch.beta_hat[0], float(batch.objective[0]), bool(batch.converged[0]),
                     float(batch.grad_norm_final[0]), int(batch.iterations[0]))


@dataclass
class BatchFit:
    """:func:`fit_batch` output: one row per problem, from its winning start.

    ``failed[i]`` marks a problem with a non-finite objective at one of its
    starts; its other fields are NaN (or 0 iterations, not converged).
    ``stop_reason[i]`` names why the winning descent stopped, one of
    ``STOP_REASONS``.
    """

    beta_hat: np.ndarray
    objective: np.ndarray
    converged: np.ndarray
    grad_norm_final: np.ndarray
    iterations: np.ndarray
    failed: np.ndarray
    stop_reason: np.ndarray


def fit_batch(gram, xty, yty, n, spec, lam, starts):
    """Minimize M problems (1/n_i)(b'G_i b - 2 c_i'b + y_i'y_i) + lam_i * sum_j P(b_j)
    in one vectorized descent.

    ``gram`` is the (M, p, p) stack of X'X, ``xty`` the (M, p) stack of X'y,
    ``yty`` the (M,) vector of y'y, and ``starts`` an (M, k, p) array of k
    start points per problem.  ``n`` and ``lam`` are each a scalar shared by
    every problem or an (M,) vector of per-problem values; every problem's
    arithmetic is, to the bit, what it is when fitted alone.  Every start
    runs its own descent; per problem the lower final objective wins, ties
    going to the earlier start.  Each pass reads its live (problem, start)
    rows' X'X from ``gram``; the descent keeps none.  A start not finite, or
    whose objective is not, stops its row at pass 0 and fails its problem alone.
    """
    if np.any(np.asarray(lam) < 0):
        raise ConfigurationError("lam must be nonnegative")
    starts = np.asarray(starts, dtype=float)
    m, k, p = starts.shape
    problem = np.repeat(np.arange(m), k)
    n, lam = (np.broadcast_to(np.asarray(v, dtype=float), m)[problem] for v in (n, lam))
    out = _descend(gram, xty, yty, problem, n, spec, lam, starts.reshape(m * k, p))
    winner = np.arange(m) * k + np.argmin(out[1].reshape(m, k), axis=1)
    beta, f, gnorm, its, why = (v[winner] for v in out)
    # f is NaN only at an unusable start, whose row is all NaN: argmin picks the first
    return BatchFit(beta, f, gnorm <= GRAD_TOL, gnorm, its, np.isnan(f),
                    np.array(STOP_REASONS)[why])


def _matvec(stack, vectors):
    return np.matmul(stack, vectors[:, :, None])[:, :, 0]


def _definite(H):
    """True for each matrix of the stack ``H`` whose Cholesky pivots are all
    finite and above 16 p eps times their diagonal entries, the round-off of
    forming them.  Halves of at most ``_BLOCK`` numbers are factored, and a
    half that fails is halved until each failing matrix stands alone."""
    half = len(H) // 2
    if H.size <= _BLOCK or not half:
        try:
            pivot = np.einsum("ijj->ij", np.linalg.cholesky(H)) ** 2
            # an infinite pivot has an infinite diagonal entry, and fails too
            return (pivot > 16.0 * H.shape[1] * np.finfo(float).eps
                    * np.einsum("ijj->ij", H)).all(axis=1)
        except np.linalg.LinAlgError:
            if not half:
                return np.zeros(1, dtype=bool)
    return np.concatenate((_definite(H[:half]), _definite(H[half:])))


def _newton(gram, problem, n, c, g):
    """Per row i, with G the X'X of ``problem[i]``, the d that solves
    (2G/n + diag(c)) d = g where that matrix is positive definite
    (:func:`_definite`), else where 2G/n + diag(2G_jj/n * 2^-26 + |c|) is,
    and which rows have it; d = g on the rest.  |c| turns a concave
    coordinate around; the shift keeps a flat direction from a singular
    factor.  The matrices are made in place in one gathered stack."""
    p = g.shape[1]
    H = gram[problem]
    H *= (2.0 / n)[:, None, None]
    diagonal = H.reshape(len(H), p * p)[:, ::p + 1]  # a view
    diagonal += c
    newton = _definite(H)
    if not newton.all():
        redo = ~newton
        base = np.einsum("ijj->ij", gram)[problem[redo]] * (2.0 / n[redo])[:, None]
        diagonal[redo] = base * (1.0 + 2.0**-26) + np.abs(c[redo])
        newton[redo] = _definite(H[redo])
        H[~newton] = np.eye(p)
    d = np.linalg.solve(H, g[:, :, None])[:, :, 0]
    newton &= np.isfinite(d).all(axis=1)
    return (d, newton) if newton.all() else (np.where(newton[:, None], d, g), newton)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _descend(gram, xty, yty, problem, n, spec, lam, beta0):
    """Newton/BB Armijo descent for every row i of ``beta0`` at once, with
    its own ``n[i]``, ``lam[i]`` and problem ``problem[i]``, whose X'X it
    reads from the callers' stack ``gram`` at each pass, while the row is live.

    Each row keeps its own trial step, backtracking and stop; every pass
    evaluates one trial point b - t*d for each row still running.  The
    decrease test never forms F: with r = Gb - X'y (the gradient's residual
    part),

        F(b + s) - F(b) = s'(2r + Gs)/n + lam * sum_j (P(b_j + s_j) - P(b_j)),

    which does not cancel the way b'Gb - 2c'b + y'y does.  A step is accepted
    on Armijo's test F(b + s) - F(b) < -1e-4 t g'd or, where that difference
    is within the round-off of the penalty terms, on the approximate Wolfe
    slope test g(b + s)'d >= -(1 - 2*delta) g'd with delta = 0.1 (Hager &
    Zhang 2005).  On a row whose kink lam * P'(0+) is 0, d is the Newton
    direction of :func:`_newton` with c = lam P''(b), its trial step at most
    1, and 1 again after each accepted step.  Where :func:`_newton` finds no
    positive definite matrix, and on every row with a kink, d = g, with a
    Barzilai-Borwein trial step after each accepted step.  Each row's choice
    reads that row alone.  A kink at 0, of slope kink = lam * P'(0+),
    is handled orthant-wise (Andrew & Gao 2007): where b_j = 0, g_j is the
    minimum-norm subgradient sign(s_j) * max(|s_j| - kink, 0) with s = 2r/n;
    a trial coordinate that leaves its orthant lands on 0; and Armijo tests
    the step taken, F(b + s) - F(b) < 1e-4 g's.  A row stops when its
    objective is NaN (at pass 0, where its start or start objective is not
    finite; it returns NaN and 0 steps), when its gradient norm is within
    ``GRAD_TOL``, after ``MAX_ITER`` passes, when its step no longer changes
    b at all, or, unconverged, when its gradient is not finite (no trial
    point is), when its trial step is no longer a positive number (a NaN or
    an underflowed 0), or when its gradient norm is within
    (2/n) * 16 eps * (||G||_F ||b|| + ||X'y||), a bound on the round-off of
    r that no step can get below.  Returns the final rows, objectives,
    gradient norms, accepted-step counts and stop reasons (indices into
    ``STOP_REASONS``).
    """
    m = beta0.shape[0]
    beta, f_out, gnorm_out = np.empty_like(beta0), np.empty(m), np.empty(m)
    # each row's outputs are written when it stops
    its_out, why_out = np.empty(m, dtype=int), np.empty(m, dtype=int)
    slope = spec.slope_at_zero()
    kinked = slope > 0 and bool(np.any(lam > 0))  # else no row takes orthant steps

    def gradient(r, b):  # with the live rows' n, lam and kink
        s = (2.0 / n)[:, None] * r
        g = s + lam[:, None] * grad_array(spec, b)
        if kinked:
            np.copyto(g, np.sign(s) * np.maximum(np.abs(s) - kink[:, None], 0.0),
                      where=(b == 0.0) & (kink[:, None] > 0))
        return g

    def direction(some):  # _newton of the live rows ``some``
        return _newton(gram, problem[some], n[some], lam[some, None] * curv_array(spec, b[some]),
                       g[some])

    rows, usable = np.arange(m), np.isfinite(beta0).all(axis=1)
    b = np.where(usable[:, None], beta0, 0.0)
    # the round-off floor's factors (2/n) 16 eps ||G||_F and (2/n) 16 eps ||X'y||
    eps_n = 32.0 * np.finfo(float).eps / n
    gram_floor = eps_n * np.sqrt(np.einsum("ijk,ijk->i", gram, gram))[problem]
    xty_floor = eps_n * np.sqrt(np.einsum("ij,ij->i", xty, xty))[problem]
    # 0 * inf is NaN: unpenalized, even bridge with q < 1 has no kink
    kink = np.where(lam > 0, lam * slope, 0.0)
    r = _matvec(gram[problem], b) - xty[problem]
    pen = value_array(spec, b)
    f = ((b * (r - xty[problem])).sum(axis=1) + yty[problem]) / n + lam * pen.sum(axis=1)
    g = gradient(r, b)
    gsq = (g * g).sum(axis=1)
    # as P >= 0, a finite f has a finite r; an unusable row stops at pass 0, all NaN
    failed = ~(usable & np.isfinite(f))
    f[failed] = gsq[failed] = b[failed] = np.nan
    t = np.full(m, STEP_INIT)
    its = np.zeros(m, dtype=int)
    stall = np.zeros(m, dtype=bool)  # no step taken yet

    for passes in range(MAX_ITER + 1):  # the last pass stops every row
        gnorm = np.sqrt(gsq)
        roundoff = gram_floor[rows] * np.sqrt((b * b).sum(axis=1)) + xty_floor[rows]
        stops = [np.isnan(f), ~np.isfinite(g).all(axis=1), gnorm <= GRAD_TOL, gnorm <= roundoff,
                 np.full(rows.size, passes == MAX_ITER), stall, ~(t > 0.0)]  # as STOP_REASONS
        done = np.logical_or.reduce(stops)
        if done.any():
            out = rows[done]
            why_out[out] = np.select(stops, range(len(STOP_REASONS)))[done]
            beta[out], f_out[out] = b[done], f[done]
            gnorm_out[out], its_out[out] = gnorm[done], its[done]
            live = ~done
            rows, problem, r, b = rows[live], problem[live], r[live], b[live]
            pen, f, g, gsq, t, its = pen[live], f[live], g[live], gsq[live], t[live], its[live]
            n, lam, kink = n[live], lam[live], kink[live]
        if not rows.size:
            break
        d, newton = g, kink == 0.0  # the rows without a kink try Newton points
        if newton.all():
            d, newton = direction(slice(None))
        elif newton.any():
            d = g.copy()
            d[newton], newton[newton] = direction(newton)
        step = np.where(newton, np.minimum(t, 1.0), t) if newton.any() else t
        cand = b - step[:, None] * d
        bad = None
        if not np.isfinite(cand).all():
            # such a row backtracks, without evaluating the penalty out there
            bad = ~np.isfinite(cand).all(axis=1)
            cand[bad] = b[bad]
        if kinked:
            # only now: sign(nan) would have zeroed a non-finite row
            orthant = np.where(b == 0.0, -np.sign(g), np.sign(b))
            cand[(np.sign(cand) != orthant) & (kink[:, None] > 0)] = 0.0
        s = cand - b
        r_new = r + _matvec(gram[problem], s)
        pen_new = value_array(spec, cand)
        delta = (s * (r + r_new)).sum(axis=1) / n + lam * (pen_new - pen).sum(axis=1)
        g_new = gradient(r_new, cand)
        stall = (s == 0.0).all(axis=1)
        if bad is not None:
            delta[bad] = np.nan
            stall &= ~bad
        # a stalled row has delta = 0 exactly, which fails Armijo
        # 1e-4 t is applied first, so that a large g'd does not overflow it
        decrease = -((1e-4 * step)[:, None] * g * d).sum(axis=1)
        if kinked:
            decrease = np.where(kink > 0, 1e-4 * (g * s).sum(axis=1), decrease)
        accept = np.isfinite(delta) & (delta < decrease)
        if not accept.all():
            floor = 8.0 * np.finfo(float).eps * lam * (pen + pen_new).sum(axis=1)
            wolfe = ((np.abs(delta) <= floor)
                     & ((g_new * d).sum(axis=1) >= -0.8 * (g * d).sum(axis=1)))
            accept |= wolfe & ~stall
        after = 1.0  # a row's next trial step if this one is accepted
        if not newton.all():
            # Barzilai-Borwein trial step for a gradient row's next iteration:
            # quasi-Newton scaling that keeps gradient steps fast near the optimum
            sy = (s * (g_new - g)).sum(axis=1)
            bb = np.where(sy > 0.0, (s * s).sum(axis=1) / sy, 2.0 * t)
            after = np.where(newton, 1.0, np.clip(bb, 1e-12, 1e12))
        t = np.where(accept, after, step * BACKTRACK)
        a = accept[:, None]
        b, r = np.where(a, cand, b), np.where(a, r_new, r)
        pen, g = np.where(a, pen_new, pen), np.where(a, g_new, g)
        f = np.where(accept, f + delta, f)
        gsq = (g * g).sum(axis=1)
        its += accept
    return beta, f_out, gnorm_out, its_out, why_out


def orthonormal_objective(beta_ols, beta, lam, kappa):
    """The per-coordinate orthonormal-design objective
    -2*beta_ols*beta + beta^2 + lam*(1 - exp(-kappa*beta^2))."""
    for v in (beta_ols, beta, lam, kappa):
        if not math.isfinite(v):
            raise ConfigurationError("orthonormal objective requires finite inputs")
    return -2.0 * beta_ols * beta + beta * beta - lam * math.expm1(-kappa * beta * beta)


def _libm(fn, x):
    """``fn`` of every element of ``x`` by the ``math`` module: numpy's own
    ``exp`` differs from libm's in the last bit on some inputs."""
    return np.fromiter(map(fn, x.tolist()), float, x.size)


def _brentq_scalar(f, xa, xb, xtol=2e-12, rtol=4 * sys.float_info.epsilon, maxiter=100):
    """A root of ``f`` in [xa, xb] by Brent's method: a line-by-line port of
    scipy's ``brentq`` (its C source ``Zeros/brentq.c``), defaults included,
    over Python floats, so it returns scipy's roots to the bit.  On return a
    sign change of f (or a zero) lies within ``xtol + rtol*|x|`` of ``x``.
    Raises ValueError when f(xa) and f(xb) have the same sign or f returns
    NaN, and RuntimeError after ``maxiter`` steps without convergence.
    """

    def value(x):
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"f({x!r}) is NaN")
        return fx

    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0 or fcur == 0.0:
        return xpre if fpre == 0.0 else xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(xa) and f(xb) must have different signs")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate; C's inf or NaN from an underflowed divisor bisects
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                stry = -fcur * (fblk * dblk - fpre * dpre) / den if den else math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:  # bisect
                spre = scur = sbis
        else:  # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise RuntimeError(f"no convergence after {maxiter} iterations, last x = {xcur!r}")


def _brentq(f, xa, xb, xtol=2e-12, rtol=4 * sys.float_info.epsilon, maxiter=100):
    """Roots of ``f`` in the brackets [xa[i], xb[i]] by Brent's method, all
    brackets at once; ``f(x, i)`` returns f at the points ``x`` of the
    brackets ``i`` (an index array into ``xa``).

    Each bracket takes exactly the steps of :func:`_brentq_scalar`, the
    line-by-line port of scipy's ``brentq``, defaults included, so it
    returns scipy's roots to the bit, alone or in any batch: every branch is
    computed for the batch and each bracket's own is selected, and a bracket
    leaves the batch once it has converged.  It returns and raises what the
    scalar port does, bracket by bracket; one bad bracket fails the batch.
    """
    xpre = np.asarray(xa, dtype=float)
    xcur = np.asarray(xb, dtype=float)
    root = np.empty(xpre.size)
    live = np.arange(xpre.size)

    def value(x):
        fx = f(x, live)
        if np.count_nonzero(np.isnan(fx)):
            raise ValueError(f"f({float(x[np.isnan(fx)][0])!r}) is NaN")
        return fx

    # like the scalar port's Python floats, overflow and 0/0 pass silently
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        fpre, fcur = value(xpre), value(xcur)
        at_end = (fpre == 0.0) | (fcur == 0.0)  # a zero at an end is the root
        if (np.signbit(fpre) == np.signbit(fcur))[~at_end].any():
            raise ValueError("f(xa) and f(xb) must have different signs")
        if at_end.any():
            root[at_end] = np.where(fpre == 0.0, xpre, xcur)[at_end]
            keep = ~at_end
            live, xpre, xcur, fpre, fcur = live[keep], xpre[keep], xcur[keep], fpre[keep], fcur[keep]
        if not live.size:
            return root
        xblk = fblk = spre = scur = np.zeros(live.size)
        for _ in range(maxiter):
            # fpre is nonzero here: a zero at xcur ended the bracket's last step
            flip = np.sign(fpre) * fcur < 0.0
            xblk, fblk = np.where(flip, xpre, xblk), np.where(flip, fpre, fblk)
            step = xcur - xpre
            spre, scur = np.where(flip, step, spre), np.where(flip, step, scur)
            swap = np.abs(fblk) < np.abs(fcur)
            xpre, xcur, xblk = (np.where(swap, xcur, xpre), np.where(swap, xblk, xcur),
                                np.where(swap, xcur, xblk))
            fpre, fcur, fblk = (np.where(swap, fcur, fpre), np.where(swap, fblk, fcur),
                                np.where(swap, fcur, fblk))
            delta = (xtol + rtol * np.abs(xcur)) / 2
            sbis = (xblk - xcur) / 2
            abs_sbis = np.abs(sbis)
            done = (fcur == 0.0) | (abs_sbis < delta)
            if np.count_nonzero(done):
                root[live[done]] = xcur[done]
                keep = ~done
                live, xpre, xcur, xblk = live[keep], xpre[keep], xcur[keep], xblk[keep]
                fpre, fcur, fblk = fpre[keep], fcur[keep], fblk[keep]
                spre, scur = spre[keep], scur[keep]
                delta, sbis, abs_sbis = delta[keep], sbis[keep], abs_sbis[keep]
                if not live.size:
                    return root
            # interpolate where xpre == xblk, else extrapolate; the port's
            # -fcur*(xcur - xpre)/(fcur - fpre) is nf*dx/df to the bit, as
            # rounding is symmetric in sign
            nf, dx, df = -fcur, xpre - xcur, fpre - fcur
            dpre, dblk = df / dx, (fblk - fcur) / (xblk - xcur)
            stry = np.where(xpre == xblk, nf * dx / df,
                            nf * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre)))
            abs_spre, bound = np.abs(spre), 3 * abs_sbis - delta
            short = ((abs_spre > delta) & (np.abs(fcur) < np.abs(fpre))
                     & (2 * np.abs(stry) < np.where(bound < abs_spre, bound, abs_spre)))
            spre, scur = np.where(short, scur, sbis), np.where(short, stry, sbis)
            xpre, fpre = xcur, fcur
            # sbis is nonzero: f has opposite signs at xblk and xcur
            xcur = xcur + np.where(np.abs(scur) > delta, scur, np.copysign(delta, sbis))
            fcur = value(xcur)
    raise RuntimeError(f"no convergence after {maxiter} iterations, last x = {float(xcur[0])!r}")


def _profiles(beta_ols, lams, kappa):
    """:func:`solve_orthonormal` at every lambda of a grid ``lams`` at once:
    one :func:`_brentq` batch finds the knots of every lambda, and one more
    the root in every piece with a sign change; each profile is the one
    ``solve_orthonormal`` gives for its lambda alone, to the bit.  The
    errors are those of the first lambda in ``lams`` that has one.
    """
    if kappa <= 0:
        raise ConfigurationError("kappa must be positive")
    lams = np.array(lams, dtype=float)
    hi = abs(beta_ols) + 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        in_range = np.isfinite(4.0 * lams * kappa * hi) & math.isfinite(2.0 * hi * hi)
    bad = (lams < 0) | ~in_range
    if bad.any():  # the scalar solve raises that lambda's error
        solve_orthonormal(beta_ols, float(lams[bad][0]), kappa)
    c = lams * kappa
    coef = 2.0 * lams * kappa  # of f'(b) = -2 beta_ols + 2b + coef b exp(-kappa b^2)

    # points: -hi, -k2, -k1, k1, k2, hi for knots k1 < k2 < hi; a knot that
    # is missing or not below hi repeats its outer neighbour
    points = np.empty((lams.size, 6))
    points[:, :3], points[:, 3:] = -hi, hi
    two = np.flatnonzero(2.0 * c * math.exp(-1.5) > 1.0)
    if two.size:
        k = two.size
        upper = 2.0 * _libm(math.log, 4.0 * c[two])
        ck = np.tile(c[two], 2)
        u = _brentq(lambda x, i: 1.0 + ck[i] * _libm(math.exp, -x) * (1.0 - 2.0 * x),
                    np.repeat([0.5, 1.5], k), np.concatenate((np.full(k, 1.5), upper)))
        knot = np.sqrt(u / kappa)
        for col, ks in ((2, knot[:k]), (1, knot[k:])):
            inside = ks < hi
            points[two[inside], col] = -ks[inside]
            points[two[inside], 5 - col] = ks[inside]

    def fprime(b, coef):
        return -2.0 * beta_ols + 2.0 * b + coef * b * _libm(math.exp, -kappa * b * b)

    with np.errstate(over="ignore", invalid="ignore"):
        fp = fprime(points.ravel(), np.repeat(coef, 6)).reshape(-1, 6)
        row, col = np.nonzero(fp[:, :-1] * fp[:, 1:] < 0.0)
    distinct = np.ones_like(points, dtype=bool)
    distinct[:, 1:] = points[:, 1:] != points[:, :-1]
    at_point = (fp == 0.0) & distinct
    coef_row = coef[row]
    # a root tolerance well below 1/sqrt(kappa), the width of the pieces around 0
    xtol = min(1e-14, 1e-6 / math.sqrt(kappa))
    inner = _brentq(lambda x, i: fprime(x, coef_row[i]), points[row, col], points[row, col + 1],
                    xtol=xtol, rtol=8.9e-16)
    roots = np.concatenate((points[at_point], inner))
    row = np.concatenate((np.nonzero(at_point)[0], row))
    order = np.lexsort((roots, row))  # stable: sorted(roots) per lambda
    roots, row = roots[order], row[order]

    with np.errstate(over="ignore", invalid="ignore"):
        u = kappa * roots * roots
        e = _libm(math.exp, -u)  # 0 wherever 1 - 2u could overflow
        curvature = 2.0 + np.where(e != 0.0, coef[row] * e * (1.0 - 2.0 * u), 0.0)
        value = (-2.0 * beta_ols * roots + roots * roots
                 - lams[row] * _libm(math.expm1, -kappa * roots * roots))
    convex = curvature > 0.0
    roots, value, curvature, row = roots[convex], value[convex], curvature[convex], row[convex]
    start = np.searchsorted(row, np.arange(lams.size + 1))  # each lambda's minima
    if np.count_nonzero(start[1:] == start[:-1]):
        # coercive objective always has a minimum; only reachable if the
        # brackets degenerate, which the bounds above prevent
        raise DivergenceError("no local minimum found on the search interval")
    # the smallest value, ties to the smaller |location|, then to the first
    best = np.lexsort((np.abs(roots), value, row))[start[:-1]] - start[:-1]
    minima = list(zip(roots.tolist(), value.tolist(), curvature.tolist()))
    start = start.tolist()
    return [MinimaProfile(lam, minima[a:b], g)
            for lam, a, b, g in zip(lams.tolist(), start, start[1:], best.tolist())]


def solve_orthonormal(beta_ols, lam, kappa):
    """Locate every local minimum of the 1-D orthonormal objective.

    f'(b) = 2(h(b) - beta_ols) with h(b) = b(1 + c exp(-kappa b^2)), c = lam*kappa,
    and f'' = 2h' vanishes where g(u) = 1 + c exp(-u)(1 - 2u) = 0, u = kappa b^2:
    nowhere if 2c exp(-3/2) <= 1 (g's minimum, at u = 3/2), else once in (1/2, 3/2)
    and once in (3/2, 2 ln(4c)).  The knots +-sqrt(u/kappa) cut [-|beta_ols|-1,
    |beta_ols|+1], outside which f' keeps its sign, into at most five pieces on which
    f' is monotone; a sign change over a piece brackets its one root for
    _brentq_scalar.  Minima are the roots with f'' > 0; a single minimum is a
    valid profile.  One lambda is solved in Python floats; a grid, to the
    same bits, by _profiles.
    An input whose minimum values (about -beta_ols^2) or terms of f' on that
    interval (up to 2 lam kappa (|beta_ols| + 1)) are not finite doubles is a
    ConfigurationError.
    """
    if kappa <= 0:
        raise ConfigurationError("kappa must be positive")
    if lam < 0:
        raise ConfigurationError("lam must be nonnegative")
    # Python floats: numpy scalars would warn where a double overflows
    b0, lam, k = float(beta_ols), float(lam), float(kappa)
    hi = abs(b0) + 1.0
    if not (math.isfinite(2.0 * hi * hi) and math.isfinite(4.0 * lam * k * hi)):
        raise ConfigurationError(
            f"orthonormal profile out of range at beta_ols = {beta_ols!r}, lam = {lam!r}, "
            f"kappa = {kappa!r}: its values or slopes are not finite doubles")
    c = lam * k

    def fprime(b):
        return -2.0 * b0 + 2.0 * b + 2.0 * lam * k * b * math.exp(-k * b * b)

    points = [-hi, hi]
    if 2.0 * c * math.exp(-1.5) > 1.0:
        for lo, up in ((0.5, 1.5), (1.5, 2.0 * math.log(4.0 * c))):
            u = _brentq_scalar(lambda u: 1.0 + c * math.exp(-u) * (1.0 - 2.0 * u), lo, up)
            knot = math.sqrt(u / k)
            if knot < hi:
                points += [-knot, knot]
    points.sort()
    fp = [fprime(b) for b in points]
    roots = [b for b, v in zip(points, fp) if v == 0.0]
    # a root tolerance well below 1/sqrt(kappa), the width of the pieces around 0
    xtol = min(1e-14, 1e-6 / math.sqrt(k))
    for i in range(len(points) - 1):
        if fp[i] * fp[i + 1] < 0.0:
            roots.append(_brentq_scalar(fprime, points[i], points[i + 1], xtol=xtol, rtol=8.9e-16))

    minima = []
    for r in sorted(roots):
        u = k * r * r
        e = math.exp(-u)  # 0 wherever 1 - 2u could overflow
        curvature = 2.0 + (2.0 * lam * k * e * (1.0 - 2.0 * u) if e else 0.0)
        if curvature > 0.0:
            minima.append((r, orthonormal_objective(b0, r, lam, k), curvature))
    if not minima:  # unreachable: the objective is coercive, the brackets sound
        raise DivergenceError("no local minimum found on the search interval")
    global_index = min(range(len(minima)), key=lambda i: (minima[i][1], abs(minima[i][0])))
    return MinimaProfile(lam, minima, global_index)


def lambda_phase_scan(beta_ols, kappa, lambda_grid):
    """Profile every lambda in an increasing grid and estimate the crossing
    lambda* at which the global minimum jumps basins.

    The grid is profiled in one batch (:func:`_profiles`); lambda* is then
    found by the scalar Brent port on the gap between the two minima, over
    the first grid step where it turns nonpositive; every lambda it tries,
    the step's ends too, is one :func:`solve_orthonormal`, which gives a grid
    lambda's profile to the bit.  The gap jumps where a minimum appears, so
    Brent may bisect: it gets 100 steps plus 4 per halving of the step down
    to 1e-10.  Returns ``(profiles, lambda_star)``; ``lambda_star`` is None
    when the two local minima never trade places inside the grid span.
    """
    lambda_grid = [float(v) for v in lambda_grid]
    if not lambda_grid:
        raise ConfigurationError("lambda grid must be nonempty")
    if any(b <= a for a, b in zip(lambda_grid, lambda_grid[1:])):
        raise ConfigurationError("lambda grid must be strictly increasing")
    profiles = _profiles(beta_ols, lambda_grid, kappa)

    def profile_gap(profile):
        # inner-minus-outer objective values; negative once the near-zero
        # minimum has become global
        if len(profile.minima) >= 2:
            inner = min(profile.minima, key=lambda m: abs(m[0]))
            outer = max(profile.minima, key=lambda m: abs(m[0]))
            return inner[1] - outer[1]
        # single minimum: classify by which basin it occupies
        loc = profile.minima[profile.global_index][0]
        return 1.0 if abs(loc) > abs(beta_ols) / 2.0 else -1.0

    gaps = map(profile_gap, profiles)
    glo = next(gaps)
    for lo, hi, ghi in zip(lambda_grid, lambda_grid[1:], gaps):
        if glo > 0.0 and ghi <= 0.0:
            return profiles, _brentq_scalar(
                lambda lam: profile_gap(solve_orthonormal(beta_ols, lam, kappa)),
                lo, hi, xtol=1e-10,
                maxiter=100 + 4 * max(0, math.ceil(math.log2(hi - lo) - math.log2(1e-10))))
        glo = ghi
    return profiles, None
