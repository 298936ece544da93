"""Brute-force numeric oracle of the exact calculus: quadrature
push-forwards, expansion fits, explicit model-ODE solutions, model kernels
evaluated and convolved, log-grid application of b-differential operators,
the apply check of a kernel against its operator and the front-face probe.

Grids are geometric, x_k = C r^k, where x d/dx is an exact
translation-invariant operation in log x.  Expansion fitting uses the
basis x^z log^p(1/x) (non-negative logs on (0,1] condition better); the sign
conversion to coefficients of log^p x is (-1)^p and is exposed explicitly.
"""
from __future__ import annotations

import functools
import math
import sys
import warnings
from fractions import Fraction
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
    """Adaptive-subdivision quadrature contract (backed by scipy's QUADPACK);
    ``apply_check`` and ``hs_front_face_criterion`` take none."""

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
        return tuple([(z, p) for z, p, c in self.terms if abs(c) > tol])


def _next_exponent_after(candidate: IndexSet, cutoff) -> float:
    """Least Re z in (cutoff, cutoff + 3] of a member z0 + k (z0 a generator), else cutoff + 1."""
    limit = as_fraction(cutoff)
    nexts = [g.z.re + max(0, math.floor(limit - g.z.re) + 1) for g in candidate.generators]
    return float(min([z for z in nexts if z <= limit + 3], default=limit + 1))


_COND_GUARD = 1e13  # largest accepted condition number of the column-scaled basis
_MERGE_GAP = Fraction(1e-2)  # exponents closer than this at equal log power are merged
_DECAY_SUBGRID = 20  # smallest-x points whose residual must decay
_DECAY_FLOOR = 1e-7  # relative residual below which decay is not checked
_SQUARINGS = 24  # most squarings of a Gram matrix in _cond2


def line_slope(t, y) -> float:
    """The least-squares slope of y against t: sum dt (y - mean y) / sum dt^2, dt = t - mean t."""
    t, y = np.asarray(t, dtype=float), np.asarray(y, dtype=float)
    dt = t - t.mean()
    return float((dt * (y - y.mean())).sum() / (dt * dt).sum())


def _reflect(reflectors, v):
    """Q^T v: the Householder reflectors I - h h^T (h^T h = 2) applied to v in turn."""
    y = np.array(v, dtype=float)
    for j, h in enumerate(reflectors):
        y[j:] -= h * (h * y[j:]).sum()
    return y[:len(reflectors)]


def _back_substitute(r, y):
    """R^-1 y for an upper triangular R, row by row from the last; a matrix y by columns."""
    c = np.zeros_like(y)
    for i in reversed(range(len(r))):
        c[i] = (y[i] - (r[i, i + 1:] * c[i + 1:].T).sum(-1)) / r[i, i]
    return c


def _cond2(r, r_inv) -> float:
    """cond_2(R) = sqrt(lambda_max(R^T R) lambda_max(R^-1 R^-T)) from above, within n^(2^-K).
    A Gram matrix G has lambda_max^m <= tr G^m <= n lambda_max^m: e_k = log(tr G^(2^k)) / 2^k
    bounds log lambda_max above and 2 e_(k+1) - e_k below.  Both G are squared, over their
    traces, until both brackets are below log(n) / 2^K, K = ``_SQUARINGS``.  Not finite: inf."""
    g, log_cond = np.stack([r, r_inv.T]), 0.0
    for k in range(_SQUARINGS + 1):
        g = (g[:, :, :, None] * g[:, :, None]).sum(1)  # G = g^T g, then G^2 = G^T G
        traces = g.trace(axis1=1, axis2=2)
        steps = np.log(traces) / 2 ** (k + 1)  # half a bracket: cond is a square root
        log_cond += steps.sum()
        if k and -steps.min() <= math.log(len(r)) / 2 ** (_SQUARINGS + 1):
            break
        g = g / traces[:, None, None]
    return math.exp(log_cond) if math.isfinite(log_cond) else math.inf


def fit_expansion(x, values, candidate: IndexSet, cutoff) -> PhgExpansion:
    """Least-squares fit of samples against a candidate index-set truncation.

    The candidate's members with ``Re z <= cutoff`` give the basis x^z log^p(1/x), with
    exact Fraction exponents; exponents closer than ``_MERGE_GAP`` at equal log power are
    merged with a warning (the basis would collapse).  The residual on the
    ``_DECAY_SUBGRID`` smallest x must then decay at least like the first omitted exponent,
    or the fit is rejected, unless it sits at the numeric floor (below ``_DECAY_FLOOR``
    relative to the data scale, where coefficient leakage hides any decay).

    A Householder QR of the column-scaled basis A_s, in numpy ufuncs, serves the guard (cond(R)
    = cond(A_s), ``_cond2`` on R and R^-1), the solve c = R^-1 Q^T v by back substitution, and
    two refinement steps c += R^-1 Q^T r by that R^-1, each row of r = v - A_s c summed by
    ``math.fsum``.  No BLAS or LAPACK routine runs (the first call of one makes OpenBLAS take
    about 1 MB).  At acceptance case 3's cond(A_s) = 9e11 a float residual loses digits to
    cancellation; refined, its x^2 log x coefficient is off by 1.5e-9, as a 50-digit solve's
    is.  ``ConditioningError`` refuses a zero column, fewer points than columns or cond(A_s)
    over ``_COND_GUARD``; a grid point that is not finite and positive, a non-finite sample,
    or grid and samples of different lengths are a ValueError.
    """
    x = np.asarray(x, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(x) != len(values):
        raise ValueError(f"{len(x)} grid points but {len(values)} samples")
    on_grid = np.isfinite(x) & (x > 0)
    if not np.all(on_grid):
        raise ValueError(f"grid point at index {np.argmin(on_grid)} is not finite and positive")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"non-finite sample at index {np.argmin(np.isfinite(values))}")
    members = candidate.truncate(cutoff)
    if not members:
        raise ValueError("empty candidate basis")
    if any(e.z.im for e in members):
        raise ValueError("fitting supports real exponents only")

    merged, last = [], {}  # sorted by (z, p): only the last kept z at p can clash
    for z, p in ((e.z.re, e.p) for e in members):
        if p in last and z - last[p] < _MERGE_GAP:
            warnings.warn(
                f"merging near-coincident exponents {last[p]} and {z} at log power {p}",
                stacklevel=2,
            )
            continue
        last[p] = z
        merged.append((z, p))

    logs = np.log(1.0 / x)
    cols = [x ** float(z) * logs ** p for z, p in merged]
    a = np.column_stack(cols)
    if len(x) < len(cols):
        raise ConditioningError(f"{len(x)} grid points cannot fit {len(cols)} basis columns")
    scale = np.sqrt((a * a).sum(0))
    if np.any(scale == 0):
        raise ConditioningError("zero basis column on this grid")
    a_scaled = a / scale
    r, reflectors = a_scaled.copy(), []
    for j in range(len(cols)):  # I - h h^T (h^T h = 2) takes r[j:, j] to (-+|r[j:, j]|, 0, ...)
        block = r[j:, j:]
        h = block[:, 0].copy()
        norm = math.sqrt((h * h).sum())
        h[0] += math.copysign(norm, h[0])
        h *= 1 / math.sqrt(norm * (norm + abs(block[0, 0])) or 1.0)
        block -= h[:, None] * (h[:, None] * block).sum(0)
        reflectors.append(h)
    r = np.triu(r[:len(cols)])
    with np.errstate(all="ignore"):  # a singular R has an R^-1 that is not finite
        r_inv = _back_substitute(r, np.eye(len(r)))
        cond = _cond2(r, r_inv)
    if cond > _COND_GUARD:
        raise ConditioningError(
            f"basis condition number {cond:.3g} exceeds the guard {_COND_GUARD:.3g}"
        )
    coeffs = _back_substitute(r, _reflect(reflectors, values))
    for _ in range(2):
        rows = np.column_stack([values, -a_scaled * coeffs]).tolist()
        coeffs += (r_inv * _reflect(reflectors, np.fromiter(map(math.fsum, rows), float))).sum(1)
    coeffs = coeffs / scale
    resid = values - (a * coeffs).sum(1)
    fit_residual = float(np.max(np.abs(resid)))

    scale = 1.0 + float(np.max(np.abs(values)))
    if fit_residual > _DECAY_FLOOR * scale:
        order = np.argsort(x)
        small = order[:_DECAY_SUBGRID]
        floor = 1e-13 * scale
        usable = small[np.abs(resid[small]) > floor]
        if len(usable) >= 5:
            slope = line_slope(np.log(x[usable]), np.log(np.abs(resid[usable])))
            required = _next_exponent_after(candidate, cutoff)
            if slope < required - 0.6:
                raise FitRejection(
                    f"residual decays like x^{slope:.2f} but the candidate truncation "
                    f"requires at least x^{required:.2f}; "
                    f"max residual {fit_residual:.3g} on grid of {len(x)} points"
                )

    terms = tuple([(z, p, float(c)) for (z, p), c in zip(merged, coeffs)])
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

    # (0, x_0] in t = x_0 s: the tolerances then act on u(x_0) itself, not on
    # the integral x_0^c u(x_0), which at c = 11/4 and x_0 = 0.094 is 1.5e-3
    # of it and met abs_tol with u(x_0) off by 1e-10 relative
    x0 = x_grid[0]
    acc = x0 ** cf * integrate_from_zero(lambda s: s ** (cf - 1.0) * v(x0 * s), 1.0, spec)
    out = np.empty_like(x_grid)
    out[0] = acc
    for i in range(1, len(x_grid)):
        acc += integrate(g, x_grid[i - 1], x_grid[i], spec)
        out[i] = acc
    return out * x_grid ** (-cf)


def _kernel_side(kernel, side: str):
    """The real part of one side of a model kernel, its terms' floats converted once (None when
    the side has none): rb is sum coeff s^z log^p(1/s) on 0 < s < 1, lb sum coeff s^-z log^p(s)
    on s > 1.  A float is s, summed in complex arithmetic in the kernel's order, 0.0 off the
    side: bit for bit the sum of ``KernelTerm.evaluate``.  An ndarray is log s on the side, as
    ``_apply_kernel``'s quadrature has it, summed by ``np.exp``, in real arithmetic if it can."""
    rb = side == "rb"
    terms = [(t.coeff.as_complex(), t.z.as_complex() if rb else -t.z.as_complex(), t.p)
             for t in kernel.terms if t.side == side]
    if not terms:
        return None
    real = not any(c.imag or w.imag for c, w, _ in terms)
    array_terms = [(c.real, w.real, p) for c, w, p in terms] if real else terms

    def k(s):
        if isinstance(s, np.ndarray):
            total = 0.0
            for coeff, power, p in array_terms:
                term = coeff * np.exp(power * s)
                total = total + (term * (-s if rb else s) ** p if p else term)
            return np.real(total)
        if (not 0.0 < s < 1.0) if rb else s <= 1.0:
            return 0.0
        base = math.log(1.0 / s) if rb else math.log(s)
        total = 0j
        for coeff, power, p in terms:
            total += coeff * s ** power * base ** p
        return total.real
    return k


def _kernel_at(kernel) -> Callable:
    """The kernel at a float s: its one side, or both summed (each 0.0 off its own)."""
    rb, lb = _kernel_side(kernel, "rb"), _kernel_side(kernel, "lb")
    return (lambda s: lb(s) + rb(s)) if rb and lb else rb or lb or (lambda s: 0.0)


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
    f1, f2 = _kernel_at(k1), _kernel_at(k2)
    s_grid = np.asarray(s_grid, dtype=float)
    values = np.empty_like(s_grid)
    for i, s in enumerate(s_grid.tolist()):
        # k1(s/t) != 0 for s/hi1 < t < s/lo1 (with 1/0 = inf)
        lo = max(s / hi1 if hi1 != math.inf else 0.0, lo2)
        hi = min(s / lo1 if lo1 > 0.0 else math.inf, hi2)
        if hi <= lo:
            values[i] = 0.0
            continue

        def integrand(t, s=s):
            return f1(s / t) * f2(t) / t

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


#: Half-width of ``_dlog``'s stencil, and its weights w_1..w_6: the
#: twelfth-order central first derivative h f'(t) = sum_k w_k (f(t + kh) -
#: f(t - kh)) + O(h^13), w_k = (-1)^(k+1) (6!)^2 / (k (6-k)! (6+k)!)
#: (Fornberg, Math. Comp. 51, 1988), each an int ratio rounded once.
_HALF_WIDTH = 6
_WEIGHTS = tuple([
    (-1) ** (k + 1) * math.factorial(_HALF_WIDTH) ** 2
    / (k * math.factorial(_HALF_WIDTH - k) * math.factorial(_HALF_WIDTH + k))
    for k in range(1, _HALF_WIDTH + 1)
])


def _dlog(values: np.ndarray, h: float) -> np.ndarray:
    """Twelfth-order central first derivative in log x; trims ``_HALF_WIDTH``
    points per side."""
    n, r = len(values), _HALF_WIDTH
    total = np.zeros(n - 2 * r)
    for k in range(r, 0, -1):  # the small outer weights first
        total += _WEIGHTS[k - 1] * (values[r + k: n - r + k] - values[r - k: n - r - k])
    return total / h


def apply_bop_numeric(op, values, x_grid):
    """Apply sum_j a_j(x) (x d/dx)^j by stencils on a geometric grid.

    x d/dx is d/d(log x), so the stencil is translation invariant on the
    grid.  Returns (trimmed grid, result); ``_HALF_WIDTH`` * order points
    are lost per side.  Warns when the log spacing is too coarse for the
    stencil.  Repeated differencing amplifies rounding like eps / h^order,
    which limits the order ``apply_check`` can judge.  Like the
    rest of the numeric oracle it is real-only: an operator with a non-real
    coefficient is refused with ``ValueError``.
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
    trim = _HALF_WIDTH * m
    if trim * 2 + 7 > len(values):
        raise ValueError("grid too short for the stencil width")
    x_out = x_grid[trim: len(x_grid) - trim] if trim else x_grid
    total = np.zeros(len(x_out))
    d = values
    for j in range(m + 1):
        pad = trim - _HALF_WIDTH * j
        aligned = d[pad: len(d) - pad] if pad else d
        coeff = np.zeros(x_out.shape)  # a_j(x) by Horner
        for c in reversed(op.coeffs[j]):
            coeff = coeff * x_out + float(c.re)
        total += coeff * aligned
        if j < m:
            d = _dlog(d, h)
    return x_out, total


# ---------------------------------------------------------------------------
# numeric validation of a kernel against its operator
# ---------------------------------------------------------------------------


class ApplyCheckReport(Record):
    """The residual of an apply check and what it cost: ``grid_points``
    grid points ``log_step`` apart in log x, and ``nodes`` Gauss-Legendre
    nodes on each side of the kernel jump at each of them."""

    __slots__ = ("max_residual", "grid_points", "log_step", "nodes")

    def to_jsonable(self):
        return {name: getattr(self, name) for name in self.__slots__}


#: Largest log-x step of ``apply_check``'s grid.  The residual is the
#: truncation error of ``_dlog``'s twelfth-order stencil; for case 9 (the
#: default support, 1,244 points here):
#:
#:     step      0.004    0.003    0.0025   0.002    0.0015   0.001
#:     residual  3.9e-7   4.2e-8   1.1e-8   1.6e-9   1.3e-10  2.4e-12
_LOG_STEP = 0.002
#: Gauss-Legendre nodes on each side of the kernel jump x' = x; u = Kv
#: matches adaptive quadrature at tolerance 1e-14 to about 1e-14 relative.
_NODES = 200
#: Grid points integrated together, so each temporary holds _BLOCK x _NODES
#: floats (12.8 kB).  Blocks of 64 took a third less time but raised the
#: peak RSS of the benchmark's oracle ops by about 0.7 MB.
_BLOCK = 8
#: Most grid points ``apply_check`` will integrate at: it refuses b/a above
#: about 2.67e12, as 20,000 points at step 0.0015 did.  The default support
#: (1, 3) needs 1,244.
_GRID_BUDGET = 15_000


def _apply_kernel(kernel, v: Callable, support: tuple, x_grid):
    """u(x) = int_a^b k(x'/x) v(x') dx'/x' at each point of x_grid, with v
    supported in [a, b]: ``_NODES``-point Gauss-Legendre in log x' on each
    side of the jump x' = x, ``_BLOCK`` points at a time."""
    nodes, weights = gauss_legendre(_NODES)
    to_lo, to_hi = (1.0 - nodes) / 2.0, (1.0 + nodes) / 2.0
    # s = x'/x < 1 (log s < 0) is the rb side, s > 1 the lb side
    sides = [(clamp, k) for clamp, k in ((np.minimum, _kernel_side(kernel, "rb")),
                                         (np.maximum, _kernel_side(kernel, "lb")))
             if k is not None]
    a, b = support
    log_a, log_b = math.log(a), math.log(b)
    u = np.zeros(len(x_grid))
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(x_grid), _BLOCK):
            x = x_grid[start:start + _BLOCK, None]
            log_x = np.log(x)
            for clamp, k in sides:
                # this side's part of [log a, log b] in log s, empty when it misses
                first, last = clamp(log_a - log_x, 0.0), clamp(log_b - log_x, 0.0)
                log_s = first * to_lo + last * to_hi
                # a row sum, not BLAS: its first call alone raised peak RSS by 0.15 MB
                u[start:start + _BLOCK] += (last - first)[:, 0] / 2.0 * (
                    k(log_s) * v(x * np.exp(log_s)) * weights).sum(axis=1)
    return u


def apply_check(op, kernel, v: Callable, support: tuple) -> ApplyCheckReport:
    """Check numerically that the kernel inverts a constant-coefficient operator.

    Computes u = Kv on a geometric grid over [a/2, 2b], applies the operator
    by twelfth-order log-grid stencils, and reports the maximum deviation from
    v on the trimmed grid, with the cost.  v takes an ndarray of points and
    returns an ndarray of values, or one scalar for all of them (as
    ``smooth_bump`` and ``lambda t: 0.0`` do).  u is fixed-order
    Gauss-Legendre (``_apply_kernel``), so no SciPy is loaded.  The log step
    is at most ``_LOG_STEP``, where the residual is the stencil's truncation
    error (about 1.6e-9 for case 9), not the quadrature's.  Repeated
    differencing amplifies rounding like eps / step^order, which limits the
    operator order the check can judge: order x 1e-6 bounds the residual up
    to order 3 (at most 1.9e-8 measured), at order 4 only on some operators
    ((z+1)...(z+4) reads 1.6e-6, (z+1/2)(z+1)(z+3/2)(z+2) 1.3e-5), and not
    at order 5 ((z+1/2)(z+1)...(z+5/2) reads 1.1e-2), all at gamma = 0.
    A support that needs more than ``_GRID_BUDGET`` grid points
    (b/a above about 2.67e12) is refused with ``ValueError`` before any is
    built.  Like the rest of the numeric oracle the check is real-only: an
    operator with a non-real coefficient is refused with ``ValueError``, as
    ``_kernel_side`` keeps only the real part of the kernel, and so is an
    operator coefficient, kernel exponent or kernel coefficient beyond the
    float range; a kernel that overflows the float range on the grid raises
    ``QuadratureError``.
    """
    if not op.has_constant_coefficients:
        raise ValueError("apply_check expects a constant-coefficient operator")
    if not all(c.is_real for s in op.coeffs for c in s):
        raise ValueError("apply_check expects real coefficients; a complex kernel stays symbolic")
    scalars = [c for s in op.coeffs for c in s] + [x for t in kernel.terms for x in (t.z, t.coeff)]
    if any(max(abs(c.re), abs(c.im)) > sys.float_info.max for c in scalars):
        raise ValueError("apply_check expects operator and kernel scalars within the float range")
    a, b = support
    if not 0 < a < b < math.inf:
        raise ValueError(f"support must satisfy 0 < a < b < inf, got ({a}, {b})")
    lo, hi = a / 2.0, b * 2.0
    width = math.log(4.0 * (b / a))  # log(hi / lo), which may be inf
    if width / _LOG_STEP > _GRID_BUDGET - 1:
        raise ValueError(f"support ({a}, {b}) needs more than the budget of "
                         f"{_GRID_BUDGET} grid points")
    n = int(math.ceil(width / _LOG_STEP)) + 1
    x_grid = geometric_grid(hi, (lo / hi) ** (1.0 / (n - 1)), n)
    u = _apply_kernel(kernel, v, support, x_grid)
    x_out, applied = apply_bop_numeric(op, u, x_grid)
    residual = float(np.max(np.abs(applied - v(x_out))))
    if not math.isfinite(residual):
        raise QuadratureError("the kernel overflows the float range on the apply-check grid")
    return ApplyCheckReport(residual, n, width / (n - 1), _NODES)


# ---------------------------------------------------------------------------
# front-face (non-)compactness criterion
# ---------------------------------------------------------------------------


class HsReport(Record):
    """Hilbert-Schmidt norm growth of a localized smoothing kernel.

    The truncated squared norm over x in [eps, C] grows like
    slope * log(1/eps); the slope equals the squared ds/s norm of the
    front-face restriction, so slope 0 iff the kernel vanishes there.
    """

    __slots__ = ("slope", "reference", "eps", "norms")

    def to_jsonable(self):
        return {name: getattr(self, name) for name in self.__slots__}


_HS_LADDER = 4  # lower cutoffs eps, eps/10, ... in the slope regression
#: Gauss-Legendre nodes on each piece of the ds/s integral.  Over [1/C, 1]
#: and [1, C] at C = 4 the unit-width bump's slope reads 2.5e-11 low with
#: 200 nodes and within 1e-14 with 400: the bump's C^infinity edges fall
#: inside those pieces.
_HS_NODES = 400
#: Nodes on a caller's s-support, at whose ends a kernel vanishes to all
#: orders: 200 read the bump's slope within 1e-14 at every C.
_HS_SUPPORT_NODES = 200
#: Nodes on each piece of the dx/x integral.  For the bump and x * bump at
#: C = 4, 1e3 and 1e10, 100 nodes read every norm within 1e-15 relative of
#: 1,000 nodes.
_HS_X_NODES = 100
#: x values whose kernel rows one call evaluates, so a temporary holds at
#: most _HS_BLOCK x (s nodes) floats (100 kB over [1/C, C]).  The bump and
#: x * bump probes at C = 4 raised peak RSS by 0.5 MB in blocks of 16, 0.9 MB
#: in blocks of 32 (and took twice as long) and 4.0 MB unblocked.
_HS_BLOCK = 16
#: Largest accepted support_c.  At C = 1e10 the x-bump norms near 1e19
#: swamp their 1e-7 increments, and its slope reads 0.
_HS_MAX_C = 1e10


def hs_front_face_criterion(p: Callable, support_c: float, eps: float,
                            s_support: Optional[tuple] = None) -> HsReport:
    """Probe the squared Hilbert-Schmidt norm of phi(x) p(x, s) for divergence.

    p must be supported in x <= C, 1/C <= s <= C, and take an (x column) x
    (s row) pair of arrays, returning an array of their broadcast shape or
    one scalar for all of them.  The cutoff phi is a smooth plateau with
    phi(0) = 1, 1 up to C/4 and 0 from C/2.  Norms are accumulated over a
    geometric ladder of ``_HS_LADDER`` lower cutoffs and regressed against
    log(1/eps).  Both integrals are fixed-order Gauss-Legendre, so no SciPy
    is loaded: the ds/s integral on ``_HS_NODES`` nodes in u = log s on each
    of [-log C, 0] and [0, log C], or on ``_HS_SUPPORT_NODES`` nodes in u
    over ``s_support = (lo, hi)``, an interval inside [1/C, C] off which p
    vanishes; the dx/x integral on ``_HS_X_NODES`` nodes in t = log x on
    each ladder interval, split at C/4 and C/2.  p is called on at most
    ``_HS_BLOCK`` x values at a time.  Anything but 0 < eps < C, with a finite
    1/(eps 10^-3), and 1 < C <= ``_HS_MAX_C``, or an s-support not inside [1/C, C],
    is refused with ``ValueError``; a norm that is not finite raises ``QuadratureError``.
    """
    if not (0 < eps < support_c <= _HS_MAX_C and support_c > 1):
        raise ValueError(f"need 0 < eps < support_c and 1 < support_c <= {_HS_MAX_C:g}, "
                         f"got eps={eps}, support_c={support_c}")
    eps_list = [eps * 10.0 ** (-k) for k in range(_HS_LADDER)]
    if not (eps_list[-1] > 0 and 1.0 / eps_list[-1] < math.inf):
        raise ValueError(f"need a finite 1/(eps * 1e-3): eps above about 5.6e-306, got eps={eps}")
    if s_support is None:
        log_c = math.log(support_c)
        s_pieces, s_nodes = ((-log_c, 0.0), (0.0, log_c)), _HS_NODES
    else:
        lo, hi = s_support
        if not 1.0 / support_c <= lo < hi <= support_c:
            raise ValueError(f"s_support {s_support} is not inside [1/C, C] for C = {support_c}")
        s_pieces, s_nodes = ((math.log(lo), math.log(hi)),), _HS_SUPPORT_NODES

    def rule(pieces, n):
        # Gauss-Legendre nodes and weights on each piece [a, b], joined
        x, w = gauss_legendre(n)
        return (np.concatenate([(a + b) / 2.0 + (b - a) / 2.0 * x for a, b in pieces]),
                np.concatenate([(b - a) / 2.0 * w for a, b in pieces]))

    log_s, s_weights = rule(s_pieces, s_nodes)
    s = np.exp(log_s)[None, :]
    phi = plateau_cutoff(support_c / 4.0, support_c / 2.0)

    def inner(x):
        # the squared ds/s norm of phi(x) p(x, .) at each of the x values
        out = np.empty(len(x))
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, len(x), _HS_BLOCK):
                block = x[start:start + _HS_BLOCK, None]
                values = np.broadcast_to(p(block, s), (len(block), s.shape[1]))
                out[start:start + _HS_BLOCK] = (values * values * s_weights).sum(axis=1)
        return phi(x) ** 2 * out

    def outer(a, b):
        # the dx/x integral over [a, b] in t = log x; phi vanishes from C/2
        cuts = [a] + [c for c in (support_c / 4.0, support_c / 2.0) if a < c < b]
        cuts.append(min(b, support_c / 2.0))
        pieces = [(math.log(lo), math.log(hi)) for lo, hi in zip(cuts, cuts[1:]) if lo < hi]
        if not pieces:
            return 0.0
        log_x, x_weights = rule(pieces, _HS_X_NODES)
        return float((inner(np.exp(log_x)) * x_weights).sum())

    total = outer(eps_list[0], support_c)
    norms = [total]
    for e_prev, e_next in zip(eps_list, eps_list[1:]):
        total += outer(e_next, e_prev)
        norms.append(total)
    reference = float(inner(np.zeros(1))[0])
    if not all(map(math.isfinite, norms + [reference])):
        raise QuadratureError("the Hilbert-Schmidt norm is not finite on the probe's nodes")
    slope = line_slope([math.log(1.0 / e) for e in eps_list], norms)
    return HsReport(slope, reference, tuple(eps_list), tuple(norms))
