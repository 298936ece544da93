"""Brute-force numeric oracle: quadrature push-forwards, expansion fits,
explicit model-ODE solutions, kernel convolution, and log-grid application
of b-differential operators.

Everything here works on geometric grids x_k = C r^k, where x d/dx is an
exact translation-invariant operation in log x.  Expansion fitting uses the
basis x^z log^p(1/x) (non-negative logs on (0,1] condition better); the sign
conversion to coefficients of log^p x is (-1)^p and is exposed explicitly.
"""
from __future__ import annotations

import functools
import math
import sys
import warnings
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import (
    ConditioningError,
    FitRejection,
    IntegrabilityError,
    QuadratureError,
)
from .indexsets import IndexSet
from .rationals import as_fraction
from .records import Record, _set


class QuadratureSpec(Record):
    """Adaptive-subdivision quadrature contract (backed by scipy's QUADPACK).

    ``boperators.apply_check`` takes none: it integrates by fixed-order
    Gauss-Legendre, whose error sits far below its stencil's.
    """

    __slots__ = ("abs_tol", "rel_tol", "max_depth")

    def __init__(self, abs_tol: float = 1e-10, rel_tol: float = 1e-10, max_depth: int = 200):
        if not (0 < abs_tol < math.inf and 0 < rel_tol < math.inf):
            raise ValueError(f"tolerances must be finite and positive, got "
                             f"abs_tol={abs_tol}, rel_tol={rel_tol}")
        _set(self, "abs_tol", abs_tol)
        _set(self, "rel_tol", rel_tol)
        _set(self, "max_depth", max_depth)


DEFAULT_QUAD = QuadratureSpec()


def _raw_quad(f, a, b, spec):
    """quad with warnings captured; returns (value, err, warned).

    The one call of QUADPACK, and so the only import of SciPy.
    """
    import scipy.integrate

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value, err = scipy.integrate.quad(f, a, b, epsabs=spec.abs_tol, epsrel=spec.rel_tol,
                                          limit=spec.max_depth)
    warned = any(issubclass(w.category, scipy.integrate.IntegrationWarning) for w in caught)
    return value, err, warned


def integrate(f, a, b, spec=DEFAULT_QUAD) -> float:
    """Definite integral over a well-behaved (finite, non-divergent) range."""
    value, err, warned = _raw_quad(f, a, b, spec)
    if warned:
        raise QuadratureError(f"quadrature did not converge on [{a}, {b}] (err={err:.3g})")
    return value


_PROBE_RATIO = 1e-2


def integrate_from_zero(f, b, spec=DEFAULT_QUAD) -> float:
    """Integral over (0, b] with divergence detection at 0.

    The value is QUADPACK's, returned only when it converges.  When it does
    not, integrals between geometric cutoffs toward 0 estimate the local
    power alpha of the antiderivative there: alpha <= ~0 is a divergence
    (IntegrabilityError), anything else a quadrature failure (QuadratureError).
    """
    value, err, warned = _raw_quad(f, 0.0, b, spec)
    if not warned:
        return value
    cuts = [b * _PROBE_RATIO ** (k + 1) for k in range(6)]
    mags = []
    for outer, inner in zip(cuts, cuts[1:]):
        increment, _, warned = _raw_quad(f, inner, outer, spec)
        if warned:
            raise QuadratureError("quadrature failed while probing an endpoint")
        mags.append(abs(increment))
    alphas = sorted(math.log(m2 / m1) / math.log(_PROBE_RATIO)
                    for m1, m2 in zip(mags, mags[1:]) if m1 > 0 and m2 > 0)
    if alphas and max(mags) >= 1e-14 * (1 + sum(mags)):  # not all increments negligible
        alpha = alphas[len(alphas) // 2]
        if alpha <= 5e-3:
            raise IntegrabilityError(
                f"integral diverges at the endpoint (local power estimate {alpha:.3g})"
            )
    raise QuadratureError(f"quadrature did not converge on (0, {b}] (err={err:.3g})")


def integrate_to_inf(f, a, spec=DEFAULT_QUAD) -> float:
    """Integral over [a, inf) with divergence detection at infinity,
    as the integral over (0, 1/a] after the substitution t = 1/u."""
    return integrate_from_zero(lambda u: f(1.0 / u) / (u * u), 1.0 / a, spec)


# ---------------------------------------------------------------------------
# grids and standard test functions
# ---------------------------------------------------------------------------


def geometric_grid(top: float, ratio: float, n: int) -> np.ndarray:
    """x_k = top * ratio^k, k = 0..n-1, ascending."""
    if not 0 < ratio < 1 or top <= 0:
        raise ValueError("need 0 < ratio < 1 and top > 0")
    return top * ratio ** np.arange(n)[::-1].astype(float)


@functools.lru_cache(maxsize=8)
def gauss_legendre(n: int) -> tuple:
    """Nodes (ascending) and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Newton's method on the three-term recurrence of P_n, from the
    asymptotic guesses cos(pi (k - 1/4) / (n + 1/2)).  For n = 200 it is
    about ten times faster than ``np.polynomial.legendre.leggauss``, which
    solves an eigenvalue problem, and agrees with it to 4e-15.  The arrays
    are cached, and read-only.
    """
    def legendre(x):  # P_n(x) and P_n'(x)
        p0, p1 = np.ones_like(x), x
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        return p1, n * (x * p1 - p0) / (x * x - 1.0)

    x = np.cos(np.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for _ in range(10):
        p, dp = legendre(x)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) < 1e-15:
            break
    _, dp = legendre(x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def smooth_bump(center: float, halfwidth: float) -> Callable:
    """C^infinity bump, value 1 at the center, support (center +- halfwidth).

    Takes a float, or an ndarray evaluated elementwise; a float gives the
    same bits as it always has (``math.exp``), an array agrees with it to
    an ulp or so (``np.exp``).
    """
    def f(t):
        if isinstance(t, np.ndarray):
            u = np.minimum(np.abs(t - center) / halfwidth, 1.0)
            # 1 - u^2 > 0 exactly where |u| < 1; elsewhere exp(1 - 1/tiny) is 0
            return np.exp(1.0 - 1.0 / np.maximum(1.0 - u * u, sys.float_info.min))
        u = (t - center) / halfwidth
        if abs(u) >= 1.0:
            return 0.0
        return math.exp(1.0 - 1.0 / (1.0 - u * u))
    return f


def plateau_cutoff(lo: float, hi: float) -> Callable:
    """Smooth monotone cutoff: 1 on [0, lo], 0 on [hi, inf).

    Takes a float or an ndarray, as ``smooth_bump`` does.
    """
    if not 0 < lo < hi:
        raise ValueError("need 0 < lo < hi")

    def edge(u):
        if isinstance(u, np.ndarray):
            return np.exp(-1.0 / np.maximum(u, sys.float_info.min))  # 0 where u <= 0
        return math.exp(-1.0 / u) if u > 0 else 0.0

    def f(t):
        if isinstance(t, np.ndarray):
            u = np.clip((t - lo) / (hi - lo), 0.0, 1.0)
        elif t <= lo:
            return 1.0
        elif t >= hi:
            return 0.0
        else:
            u = (t - lo) / (hi - lo)
        a, b = edge(1.0 - u), edge(u)
        return a / (a + b)

    return f


class SampledFunction2D(Record):
    """Pointwise-evaluable function on (0, C]^2 with a recorded support bound."""

    __slots__ = ("evaluator", "support")

    def __init__(self, evaluator: Callable[[float, float], float], support: float):
        _set(self, "evaluator", evaluator)
        _set(self, "support", support)

    def __call__(self, x: float, y: float) -> float:
        return self.evaluator(x, y)


class Sampled1D(NamedTuple):
    """Fiber integrals on a grid, NaN at the indices in ``failed``."""

    values: np.ndarray
    failed: tuple


def numeric_pushforward(u: SampledFunction2D, spec: QuadratureSpec, x_grid) -> Sampled1D:
    """Fiber integrals u~(x_k) = int_0^C u(x_k, y) dy by adaptive quadrature.

    Divergent fibers are flagged per grid point rather than aborting the
    whole sweep.
    """
    x_grid = np.asarray(x_grid, dtype=float)
    values = np.empty_like(x_grid)
    failed = []
    for i, x in enumerate(x_grid):
        try:
            values[i] = integrate_from_zero(lambda y: u(x, y), u.support, spec)
        except (IntegrabilityError, QuadratureError):
            values[i] = np.nan
            failed.append(i)
    return Sampled1D(values, tuple(failed))


def pushforward_chart_split(u: SampledFunction2D, cutoff: Callable[[float], float],
                            x: float, spec: QuadratureSpec = DEFAULT_QUAD):
    """Split the fiber integral smoothly in y/x: near-diagonal + far part.

    A integrates over the fiber direction of the front-face chart
    (substitution y = x eta against cutoff(eta)); B integrates the remaining
    1 - cutoff(y/x) part directly in y.  A + B equals the plain fiber
    integral for any smooth cutoff.
    """
    eta_hi = u.support / x

    def a_integrand(eta):
        c = cutoff(eta)
        return x * u(x, x * eta) * c if c else 0.0

    def b_integrand(y):
        c = 1.0 - cutoff(y / x)
        return u(x, y) * c if c else 0.0

    a = integrate_from_zero(a_integrand, eta_hi, spec)
    b = integrate_from_zero(b_integrand, u.support, spec)
    return a, b


# ---------------------------------------------------------------------------
# expansion fitting
# ---------------------------------------------------------------------------


class PhgExpansion(Record):
    """Fitted finite expansion sum coeff * x^z * log^p(1/x).

    Coefficients are stored against the log(1/x) basis; multiply by (-1)^p
    for the coefficient of x^z log^p x.
    """

    __slots__ = ("terms", "fit_residual")  # terms: ((z, p, coeff), ...) sorted by (z, p)

    def coeff(self, z, p: int) -> float:
        for tz, tp, tc in self.terms:
            if tp == p and tz == z:
                return tc
        raise KeyError(f"term ({z}, {p}) was not in the fitted basis")

    def coeff_log_x(self, z, p: int) -> float:
        """Coefficient of x^z log^p x (sign-converted from the log(1/x) basis)."""
        return ((-1) ** p) * self.coeff(z, p)

    def significant_terms(self, tol: float):
        return tuple((z, p) for z, p, c in self.terms if abs(c) > tol)


def _next_exponent_after(candidate: IndexSet, cutoff) -> float:
    limit = as_fraction(cutoff)
    beyond = [e.z.re for e in candidate.truncate(limit + 3) if e.z.re > limit]
    return float(min(beyond, default=limit + 1))


_COND_GUARD = 1e13  # largest accepted condition number of the column-scaled basis
_MERGE_GAP = 1e-2  # exponents closer than this at equal log power are merged
_DECAY_SUBGRID = 20  # smallest-x points whose residual must decay
_DECAY_FLOOR = 1e-7  # relative residual below which decay is not checked


def fit_expansion(x, values, candidate: IndexSet, cutoff) -> PhgExpansion:
    """Least-squares fit of samples against a candidate index-set truncation.

    The candidate's members with ``Re z <= cutoff`` give the basis
    ``x^z log^p(1/x)``, with exact Fraction exponents.  Exponents
    closer than ``_MERGE_GAP`` at equal log power are merged with a warning
    (the basis would collapse).  After fitting, the residual on the
    ``_DECAY_SUBGRID`` smallest x must decay at least like the first omitted
    exponent, or the fit is rejected.  Fits whose residual already sits at
    the numeric floor (below ``_DECAY_FLOOR`` relative to the data scale,
    where coefficient leakage hides any decay) pass unconditionally.
    """
    x = np.asarray(x, dtype=float)
    values = np.asarray(values, dtype=float)
    members = candidate.truncate(cutoff)
    if not members:
        raise ValueError("empty candidate basis")
    if any(e.z.im for e in members):
        raise ValueError("fitting supports real exponents only")

    merged = []
    for z, p in ((e.z.re, e.p) for e in members):
        clash = next((m for m in merged if m[1] == p and abs(m[0] - z) < _MERGE_GAP), None)
        if clash is not None:
            warnings.warn(
                f"merging near-coincident exponents {clash[0]} and {z} at log power {p}",
                stacklevel=2,
            )
            continue
        merged.append((z, p))

    logs = np.log(1.0 / x)
    cols = [x ** float(z) * logs ** p for z, p in merged]
    a = np.column_stack(cols)
    scale = np.linalg.norm(a, axis=0)
    if np.any(scale == 0):
        raise ConditioningError("zero basis column on this grid")
    a_scaled = a / scale
    cond = np.linalg.cond(a_scaled)
    if cond > _COND_GUARD:
        raise ConditioningError(
            f"basis condition number {cond:.3g} exceeds the guard {_COND_GUARD:.3g}"
        )
    coeffs, *_ = np.linalg.lstsq(a_scaled, values, rcond=None)
    coeffs = coeffs / scale
    resid = values - a @ coeffs
    fit_residual = float(np.max(np.abs(resid)))

    scale = 1.0 + float(np.max(np.abs(values)))
    if fit_residual > _DECAY_FLOOR * scale:
        order = np.argsort(x)
        small = order[:_DECAY_SUBGRID]
        floor = 1e-13 * scale
        usable = small[np.abs(resid[small]) > floor]
        if len(usable) >= 5:
            slope, _ = np.polyfit(np.log(x[usable]), np.log(np.abs(resid[usable])), 1)
            required = _next_exponent_after(candidate, cutoff)
            if slope < required - 0.6:
                raise FitRejection(
                    f"residual decays like x^{slope:.2f} but the candidate truncation "
                    f"requires at least x^{required:.2f}; "
                    f"max residual {fit_residual:.3g} on grid of {len(x)} points"
                )

    terms = tuple((z, p, float(c)) for (z, p), c in zip(merged, coeffs))
    return PhgExpansion(terms, fit_residual)


_COEFF_TOL = 1e-6  # fitted coefficients above this count as present


def compare_with_prediction(expansion: PhgExpansion, predicted: IndexSet, cutoff) -> dict:
    """Containment check of fitted terms (coefficients above ``_COEFF_TOL``)
    against a symbolic prediction."""
    extra = []
    for z, p in expansion.significant_terms(_COEFF_TOL):
        if not predicted.contains(z, p):
            extra.append((float(z), p))
    fitted = {(z, p) for z, p, _ in expansion.terms}
    missing = [
        (float(e.z.re), e.p)
        for e in predicted.truncate(cutoff)
        if e.z.im == 0 and (e.z.re, e.p) not in fitted
    ]
    return {"contained": not extra, "extra": extra, "missing": missing}


# ---------------------------------------------------------------------------
# model ODE and kernels
# ---------------------------------------------------------------------------


def solve_model_ode(c, v: Callable[[float], float], x_grid,
                    spec: QuadratureSpec = DEFAULT_QUAD) -> np.ndarray:
    """Explicit decaying solution of (x d/dx + c) u = v on the half-line:
    u(x) = x^(-c) * int_0^x t^(c-1) v(t) dt.

    Divergence of the integral at 0 (violated weight condition) raises
    IntegrabilityError.  Like the fitting layer, this is restricted to real
    c; oscillatory exponents stay symbolic.
    """
    cf = float(c)
    x_grid = np.asarray(x_grid, dtype=float)
    if np.any(np.diff(x_grid) <= 0):
        raise ValueError("grid must be strictly increasing")

    def g(t):
        return t ** (cf - 1.0) * v(t)

    acc = integrate_from_zero(g, x_grid[0], spec)
    out = np.empty_like(x_grid)
    out[0] = acc
    for i in range(1, len(x_grid)):
        acc += integrate(g, x_grid[i - 1], x_grid[i], spec)
        out[i] = acc
    return out * x_grid ** (-cf)


class KernelWindow(Record):
    """A plain callable kernel with explicit support, for convolution tests."""

    __slots__ = ("fn", "support")

    def evaluate(self, s: float) -> float:
        lo, hi = self.support
        return self.fn(s) if lo < s < hi else 0.0


class ConvolutionResult(NamedTuple):
    values: np.ndarray
    prediction_report: Optional[dict]


def convolve_model_kernels(k1, k2, s_grid, spec: QuadratureSpec = DEFAULT_QUAD,
                           predicted: Optional[IndexSet] = None,
                           fit_cutoff=None) -> ConvolutionResult:
    """Multiplicative convolution (k1 * k2)(s) = int k1(s/t) k2(t) dt/t.

    This realizes operator composition on kernels of the ratio variable.
    The integration range follows the kernels' ``support`` and is split at
    the jumps t = s and t = 1; a divergent overlap at t -> 0 or t -> inf
    (the violated composition condition) raises IntegrabilityError.  If a
    predicted index set is supplied the samples are fitted against its
    truncation and a containment report is attached.
    """
    lo1, hi1 = k1.support
    lo2, hi2 = k2.support
    s_grid = np.asarray(s_grid, dtype=float)
    values = np.empty_like(s_grid)
    for i, s in enumerate(s_grid):
        # k1(s/t) != 0 for s/hi1 < t < s/lo1 (with 1/0 = inf)
        lo = max(s / hi1 if hi1 != math.inf else 0.0, lo2)
        hi = min(s / lo1 if lo1 > 0.0 else math.inf, hi2)
        if hi <= lo:
            values[i] = 0.0
            continue

        def integrand(t, s=s):
            return k1.evaluate(s / t) * k2.evaluate(t) / t

        ends = [lo, *sorted(p for p in {s, 1.0} if lo < p < hi), hi]
        values[i] = sum(
            integrate_from_zero(integrand, b, spec) if a == 0.0
            else integrate_to_inf(integrand, a, spec) if b == math.inf
            else integrate(integrand, a, b, spec)
            for a, b in zip(ends, ends[1:])
        )

    report = None
    if predicted is not None:
        cutoff = fit_cutoff if fit_cutoff is not None else predicted.inf_re() + 3
        expansion = fit_expansion(s_grid, values, predicted, cutoff)
        report = compare_with_prediction(expansion, predicted, cutoff)
    return ConvolutionResult(values, report)


# ---------------------------------------------------------------------------
# b-operator application on geometric grids
# ---------------------------------------------------------------------------


def _log_step(x_grid: np.ndarray) -> float:
    t = np.log(x_grid)
    steps = np.diff(t)
    if np.max(np.abs(steps - steps[0])) > 1e-9 * abs(steps[0]):
        raise ValueError("grid must be geometric (uniform in log x)")
    return float(steps[0])


def _dlog(values: np.ndarray, h: float) -> np.ndarray:
    """Sixth-order central first derivative in log x; trims 3 points per side."""
    v = values
    return (
        -v[:-6] + 9.0 * v[1:-5] - 45.0 * v[2:-4] + 45.0 * v[4:-2] - 9.0 * v[5:-1] + v[6:]
    ) / (60.0 * h)


def apply_bop_numeric(op, values, x_grid):
    """Apply sum_j a_j(x) (x d/dx)^j by stencils on a geometric grid.

    x d/dx is d/d(log x), so the stencil is translation invariant on the
    grid.  Returns (trimmed grid, result); 3*order points are lost per side.
    Warns when the log spacing is too coarse for the stencil order.  Like
    the rest of the numeric oracle it is real-only: an operator with a
    non-real coefficient is refused with ``ValueError``.
    """
    if not all(c.is_real for s in op.coeffs for c in s):
        raise ValueError("apply_bop_numeric expects real coefficients")
    x_grid = np.asarray(x_grid, dtype=float)
    values = np.asarray(values, dtype=float)
    h = _log_step(x_grid)
    if abs(h) > 0.25:
        warnings.warn(
            f"log-grid step {abs(h):.3g} is coarse; derivative accuracy will suffer",
            stacklevel=2,
        )
    m = op.order
    trim = 3 * m
    if trim * 2 + 7 > len(values):
        raise ValueError("grid too short for the stencil width")
    x_out = x_grid[trim: len(x_grid) - trim] if trim else x_grid
    total = np.zeros(len(x_out))
    d = values
    for j in range(m + 1):
        pad = trim - 3 * j
        aligned = d[pad: len(d) - pad] if pad else d
        coeff = np.zeros(x_out.shape)  # a_j(x) by Horner
        for c in reversed(op.coeffs[j]):
            coeff = coeff * x_out + float(c.re)
        total += coeff * aligned
        if j < m:
            d = _dlog(d, h)
    return x_out, total
