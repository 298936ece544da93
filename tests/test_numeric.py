import math
from fractions import Fraction

import numpy as np
import pytest

from bcalc import boperators as bop
from bcalc import numeric as num
from bcalc.errors import ConditioningError, FitRejection, IntegrabilityError, QuadratureError
from bcalc.indexsets import SMOOTH, IndexSet
from bcalc.rationals import ComplexRational as CR


def S(*entries):
    return IndexSet.from_entries(entries)


# -- quadrature helpers -----------------------------------------------------------


def test_integrate_from_zero_algebraic_singularity():
    val = num.integrate_from_zero(lambda t: t ** -0.5, 1.0)
    assert val == pytest.approx(2.0, abs=1e-9)


def test_integrate_from_zero_detects_divergence():
    with pytest.raises(IntegrabilityError):
        num.integrate_from_zero(lambda t: 1.0 / t, 1.0)


def test_integrate_from_zero_refuses_an_unconverged_integrable_endpoint():
    # int_0^1 t^(-1/2) log^2 t dt = 16; eight subdivisions do not converge, and
    # the endpoint probe reports a quadrature failure instead of a value
    with pytest.raises(QuadratureError):
        num.integrate_from_zero(lambda t: t ** -0.5 * math.log(t) ** 2, 1.0,
                                num.QuadratureSpec(1e-10, 1e-10, 8))


def test_integrate_to_inf():
    assert num.integrate_to_inf(lambda t: t ** -2.0, 1.0) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(IntegrabilityError):
        num.integrate_to_inf(lambda t: 1.0 / t, 1.0)


def test_quadrature_spec_validation():
    for tol in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            num.QuadratureSpec(abs_tol=tol)
        with pytest.raises(ValueError):
            num.QuadratureSpec(rel_tol=tol)


# -- geometric grids and operator application ----------------------------------------


def test_log_derivative_exact_on_powers():
    op = bop.BDiffOp.from_lists([[0], [1]])  # x d/dx
    grid = num.geometric_grid(4.0, 0.98, 400)
    x, d = num.apply_bop_numeric(op, grid ** 1.7, grid)
    rel = np.max(np.abs(d - 1.7 * x ** 1.7) / (1.7 * x ** 1.7))
    assert rel < 1e-9


def test_log_derivative_of_log_is_one():
    op = bop.BDiffOp.from_lists([[0], [1]])
    grid = num.geometric_grid(1.0, 0.97, 300)
    x, d = num.apply_bop_numeric(op, np.log(grid), grid)
    assert np.max(np.abs(d - 1.0)) < 1e-10


def test_stencil_error_shrinks_under_refinement():
    op = bop.BDiffOp.from_lists([[0], [1]])

    def err(ratio, n):
        grid = num.geometric_grid(2.0, ratio, n)
        x, d = num.apply_bop_numeric(op, np.sin(np.log(grid)), grid)
        return np.max(np.abs(d - np.cos(np.log(x))))

    coarse = err(0.9, 60)
    fine = err(0.95, 120)
    assert fine < coarse / 10


def test_apply_bop_warns_on_coarse_grid():
    op = bop.BDiffOp.from_lists([[0], [1]])
    grid = num.geometric_grid(1.0, 0.7, 30)
    with pytest.warns(UserWarning):
        num.apply_bop_numeric(op, grid, grid)


def test_apply_bop_requires_geometric_grid():
    op = bop.BDiffOp.from_lists([[0], [1]])
    grid = np.linspace(0.1, 1.0, 50)
    with pytest.raises(ValueError):
        num.apply_bop_numeric(op, grid, grid)


def test_apply_bop_refuses_non_real_coefficients():
    op = bop.BDiffOp.from_lists([[CR.of(1, 1)], [1]])
    grid = num.geometric_grid(2.0, 0.98, 100)
    with pytest.raises(ValueError, match="real"):
        num.apply_bop_numeric(op, grid, grid)


def test_apply_bop_inverts_model_ode_solution():
    c = Fraction(3, 2)
    cut = num.plateau_cutoff(0.5, 1.5)
    grid = num.geometric_grid(3.0, 0.995, 800)
    u = num.solve_model_ode(c, cut, grid)
    op = bop.BDiffOp.from_lists([[c], [1]])
    x, pu = num.apply_bop_numeric(op, u, grid)
    expected = np.array([cut(t) for t in x])
    assert np.max(np.abs(pu - expected)) < 1e-6


# -- model ODE ------------------------------------------------------------------------


def test_model_ode_constant_solution():
    grid = num.geometric_grid(2.0, 0.9, 25)
    u = num.solve_model_ode(1, lambda t: 1.0, grid)
    assert np.max(np.abs(u - 1.0)) < 1e-12


def test_model_ode_linear_input():
    grid = num.geometric_grid(2.0, 0.9, 25)
    u = num.solve_model_ode(1, lambda t: t, grid)
    assert np.max(np.abs(u - grid / 2.0)) < 1e-12


def test_model_ode_fractional_powers():
    grid = num.geometric_grid(2.0, 0.9, 25)
    u = num.solve_model_ode(Fraction(1, 2), lambda t: math.sqrt(t), grid)
    assert np.max(np.abs(u - np.sqrt(grid))) < 1e-11


def test_model_ode_divergence_at_threshold():
    cut = num.plateau_cutoff(0.5, 1.0)
    grid = num.geometric_grid(0.8, 0.9, 15)
    with pytest.raises(IntegrabilityError):
        num.solve_model_ode(Fraction(1, 2), lambda t: t ** -0.5 * cut(t), grid)


def test_model_ode_needs_increasing_grid():
    with pytest.raises(ValueError):
        num.solve_model_ode(1, lambda t: 1.0, np.array([1.0, 0.5]))


# -- expansion fitting -------------------------------------------------------------------


def test_fit_affine_data():
    grid = num.geometric_grid(0.5, 0.85, 40)
    fit = num.fit_expansion(grid, 3.0 + 2.0 * grid, SMOOTH, 2)
    assert fit.coeff(0, 0) == pytest.approx(3.0, abs=1e-10)
    assert fit.coeff(1, 0) == pytest.approx(2.0, abs=1e-9)
    assert fit.fit_residual < 1e-10


def test_fit_recovers_synthetic_expansion():
    entries = [(Fraction(0), 0), (Fraction(1, 2), 1), (Fraction(2), 0)]
    coeffs = {(Fraction(0), 0): 3.0, (Fraction(1, 2), 1): -2.0, (Fraction(2), 0): 1.5}
    grid = num.geometric_grid(0.5, 0.85, 50)
    logs = np.log(1.0 / grid)
    data = sum(
        c * grid ** float(z) * logs ** p for (z, p), c in coeffs.items()
    )
    fit = num.fit_expansion(grid, data, S(*entries), 2)
    for (z, p), c in coeffs.items():
        assert fit.coeff(z, p) == pytest.approx(c, abs=1e-8)


def test_fit_merges_near_coincident_exponents():
    candidate = S((Fraction(0), 0), (Fraction(1, 1000), 0))
    grid = num.geometric_grid(0.5, 0.9, 30)
    with pytest.warns(UserWarning, match="merging"):
        fit = num.fit_expansion(grid, 1.0 + grid, candidate, 1)
    assert [(z, p) for z, p, _ in fit.terms] == [(0, 0), (1, 0)]


def test_fit_condition_guard():
    # eight exponents 1/50 apart (cond about 6e14 on this grid) exceed the guard
    candidate = S(*[(Fraction(k, 50), 0) for k in range(8)])
    grid = num.geometric_grid(0.5, 0.9, 30)
    with pytest.raises(ConditioningError):
        num.fit_expansion(grid, 1.0 + grid, candidate, Fraction(7, 50))


def test_fit_rejects_wrong_candidate():
    grid = num.geometric_grid(0.5, 0.9, 60)
    data = np.sqrt(grid)  # half-integer data against an integer candidate
    with pytest.raises(FitRejection):
        num.fit_expansion(grid, data, SMOOTH, 3)


def test_fit_requires_real_exponents():
    grid = num.geometric_grid(0.5, 0.9, 30)
    with pytest.raises(ValueError):
        num.fit_expansion(grid, grid, S((CR.of(0, 1), 0)), 2)


def test_fit_coeff_lookup_raises_for_unknown_term():
    grid = num.geometric_grid(0.5, 0.9, 30)
    fit = num.fit_expansion(grid, 1.0 + grid, SMOOTH, 2)
    with pytest.raises(KeyError):
        fit.coeff(Fraction(1, 2), 0)


def test_compare_with_prediction_flags_extras():
    grid = num.geometric_grid(0.5, 0.9, 50)
    data = np.sqrt(grid)
    candidate = S((Fraction(1, 2), 0), (Fraction(1), 0))
    fit = num.fit_expansion(grid, data, candidate, 1)
    report = num.compare_with_prediction(fit, SMOOTH, 2)
    assert not report["contained"]
    assert (0.5, 0) in report["extra"]
    inclusive = num.compare_with_prediction(fit, S((Fraction(1, 2), 0)), 2)
    assert inclusive["contained"]


# -- push-forward sampling ------------------------------------------------------------------


def test_pushforward_of_smooth_data_has_no_logs():
    cut = num.plateau_cutoff(0.3, 0.8)
    u = num.SampledFunction2D(lambda x, y: (1.0 + x + y * y) * cut(y), support=1.0)
    grid = num.geometric_grid(0.3, 0.9, 40)
    samples = num.numeric_pushforward(u, num.QuadratureSpec(1e-11, 1e-11, 200), grid)
    assert not samples.failed
    log_set = SMOOTH.extended_union(SMOOTH)
    fit = num.fit_expansion(grid, samples.values, log_set, 3)
    for z, p, c in fit.terms:
        if p >= 1:
            assert abs(c) < 1e-8


def test_pushforward_flags_divergent_fibers():
    u = num.SampledFunction2D(lambda x, y: 1.0 / y, support=1.0)
    grid = np.array([0.5])
    samples = num.numeric_pushforward(u, num.DEFAULT_QUAD, grid)
    assert samples.failed == (0,)
    assert math.isnan(samples.values[0])


# -- kernel convolution ------------------------------------------------------------------------


def test_convolution_generates_log():
    c = 0.5
    op = bop.BDiffOp.from_lists([[Fraction(1, 2)], [1]])
    k = bop.model_inverse(bop.indicial(op), 0)
    grid = np.geomspace(0.02, 0.9, 20)
    out = num.convolve_model_kernels(k, k, grid)
    expected = grid ** c * np.log(1.0 / grid)
    assert np.max(np.abs(out.values - expected)) < 1e-9


def test_convolution_with_narrow_bump_approximates_identity():
    op = bop.BDiffOp.from_lists([[Fraction(1, 2)], [1]])
    k = bop.model_inverse(bop.indicial(op), 0)
    width = 0.05
    raw = num.smooth_bump(1.0, width)
    mass = num.integrate(lambda t: raw(t) / t, 1.0 - width, 1.0 + width)
    delta = num.KernelWindow(lambda t: raw(t) / mass, (1.0 - width, 1.0 + width))
    grid = np.linspace(0.2, 0.8, 7)
    out = num.convolve_model_kernels(k, delta, grid)
    exact = np.array([k.evaluate(s) for s in grid])
    assert np.max(np.abs(out.values - exact)) < 0.02


def test_convolution_divergence_detected_at_threshold():
    op = bop.BDiffOp.from_lists([[Fraction(1, 2)], [1]])
    k = bop.model_inverse(bop.indicial(op), 0)  # inf E_rb = 1/2
    grow = num.KernelWindow(lambda t: t ** 0.5, (1.0, math.inf))  # inf E_lb = -1/2
    with pytest.raises(IntegrabilityError):
        num.convolve_model_kernels(k, grow, np.array([0.5]))


def test_convolution_against_the_empty_set_needs_a_finite_cutoff():
    # the default cutoff inf E + 3 is +inf for the empty set, which no truncation takes
    k = bop.model_inverse(bop.indicial(bop.BDiffOp.from_lists([[1], [1]])), 0)
    with pytest.raises(ValueError, match="inf"):
        num.convolve_model_kernels(k, k, np.array([0.5]), predicted=IndexSet())


def _one_term(z, side):
    return bop.ModelKernel((bop.KernelTerm(CR.of(z), 0, side, CR.of(1)),))


def test_kernel_support_follows_term_sides():
    rb, lb = _one_term(1, "rb"), _one_term(1, "lb")
    assert rb.support == (0.0, 1.0)
    assert lb.support == (1.0, math.inf)
    assert bop.ModelKernel(rb.terms + lb.terms).support == (0.0, math.inf)


@pytest.mark.parametrize("a, b", [(Fraction(1, 2), Fraction(1, 2)), (Fraction(3, 2), Fraction(-1, 4)),
                                  (Fraction(-1, 3), Fraction(2)), (Fraction(1), Fraction(1, 3))])
def test_lb_rb_convolution_matches_closed_form(a, b):
    # int_0^min(s,1) (t/s)^a t^b dt/t = s^-a min(s,1)^(a+b) / (a+b)
    grid = np.geomspace(0.05, 20.0, 15)
    spec = num.QuadratureSpec(1e-13, 1e-13, 300)
    out = num.convolve_model_kernels(_one_term(a, "lb"), _one_term(b, "rb"), grid, spec)
    fa, fb = float(a), float(b)
    exact = grid ** -fa * np.minimum(grid, 1.0) ** (fa + fb) / (fa + fb)
    assert np.max(np.abs(out.values - exact)) < 1e-12


@pytest.mark.parametrize("a, b", [(Fraction(1, 2), Fraction(-1, 2)), (Fraction(-1), Fraction(1, 2))])
def test_lb_rb_convolution_diverges_at_the_threshold(a, b):
    with pytest.raises(IntegrabilityError):
        num.convolve_model_kernels(_one_term(a, "lb"), _one_term(b, "rb"), np.array([0.5, 2.0]))


def test_two_sided_convolution_is_the_sum_of_one_sided_ones():
    # the model inverse of z^2 - 1 is -e^(-|log s|)/2 on both sides, and its
    # self-convolution is (1 + |log s|) e^(-|log s|) / 4
    k = bop.model_inverse(bop.indicial(bop.BDiffOp.from_lists([[-1], [0], [1]])), 0)
    lb = bop.ModelKernel(tuple(t for t in k.terms if t.side == "lb"))
    rb = bop.ModelKernel(tuple(t for t in k.terms if t.side == "rb"))
    grid = np.geomspace(0.1, 10.0, 9)
    spec = num.QuadratureSpec(1e-12, 1e-12, 300)
    whole = num.convolve_model_kernels(k, k, grid, spec).values
    parts = sum(num.convolve_model_kernels(p, q, grid, spec).values
                for p in (lb, rb) for q in (lb, rb))
    assert np.max(np.abs(whole - parts)) < 1e-12
    u = np.abs(np.log(grid))
    assert np.max(np.abs(whole - (1.0 + u) * np.exp(-u) / 4.0)) < 1e-11


# -- chart split -----------------------------------------------------------------------------


def test_chart_split_matches_direct_integral():
    u = num.SampledFunction2D(lambda x, y: math.hypot(x, y), support=1.0)
    cut = num.plateau_cutoff(1.0, 2.0)
    spec = num.QuadratureSpec(1e-12, 1e-12, 300)
    x = 0.2
    a, b = num.pushforward_chart_split(u, cut, x, spec)
    direct = num.integrate_from_zero(lambda y: u(x, y), 1.0, spec)
    assert a + b == pytest.approx(direct, abs=1e-9)
    assert a > 0 and b > 0
