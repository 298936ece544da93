import math
import warnings
from fractions import Fraction

import hypothesis.strategies as st
import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings

from bcalc import boperators as bop
from bcalc import numeric as num
from bcalc.errors import ConditioningError, FitRejection, IntegrabilityError, QuadratureError
from bcalc.indexsets import SMOOTH, IndexSet
from bcalc.rationals import ComplexRational as CR
from bcalc.rationals import as_fraction


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


@pytest.mark.parametrize("n", [1, 2, 3, 20, 200])
def test_gauss_legendre_matches_numpy_and_is_exact_on_polynomials(n):
    nodes, weights = num.gauss_legendre(n)
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(n)
    assert np.all(np.diff(nodes) > 0)
    assert np.max(np.abs(nodes - ref_nodes)) <= 2e-16
    assert np.max(np.abs(weights - ref_weights)) <= 1e-14
    for k in range(0, 2 * n, max(1, n // 5)):  # x^k, k <= 2n - 1, integrates exactly
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(weights @ nodes ** k - exact) <= 1e-14


# -- test functions -------------------------------------------------------------------


def test_test_functions_take_floats_and_arrays_alike():
    bump, cut = num.smooth_bump(2.0, 1.0), num.plateau_cutoff(0.5, 1.0)
    for f, lo, hi in ((bump, 1.0, 3.0), (cut, 0.5, 1.0)):
        edges = [lo, hi, np.nextafter(lo, hi), np.nextafter(hi, lo),
                 np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf), 0.0, -1.0, 1e300]
        t = np.concatenate([np.linspace(lo - 0.5, hi + 0.5, 10_000 - len(edges)), edges])
        values = f(t)
        floats = np.array([f(float(x)) for x in t])
        assert values.shape == t.shape
        # zero (and one, for the cutoff) exactly where the float form says so
        assert np.array_equal(values == 0.0, floats == 0.0)
        assert np.array_equal(values == 1.0, floats == 1.0)
        # np.exp and math.exp may differ in the last bit
        assert np.max(np.abs(values - floats)) <= 4.5e-16
    # outside the support and at its edges
    assert bump(np.array([0.5, 1.0, 3.0, 3.5])).tolist() == [0.0] * 4
    assert cut(np.array([0.0, 0.5, 1.0, 2.0])).tolist() == [1.0, 1.0, 0.0, 0.0]
    # a float gives the bits it always has
    assert bump(2.5) == math.exp(1.0 - 1.0 / (1.0 - 0.25))
    assert cut(0.75) == 0.5 and type(cut(0.75)) is float


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


def test_stencil_weights_meet_the_twelfth_order_conditions():
    # sum_k w_k (f(t + kh) - f(t - kh)) is h f'(t) for f = t, t^3, ..., t^11;
    # summed exactly, relative to the size of the terms
    w = [Fraction(x) for x in num._WEIGHTS]
    assert len(w) == num._HALF_WIDTH == 6
    assert abs(sum(2 * k * x for k, x in enumerate(w, 1)) - 1) <= 1e-15
    for j in range(1, 6):
        terms = [k ** (2 * j + 1) * x for k, x in enumerate(w, 1)]
        assert abs(sum(terms)) <= 1e-15 * sum(abs(t) for t in terms)


def test_stencil_error_shrinks_under_refinement():
    op = bop.BDiffOp.from_lists([[0], [1]])

    def err(ratio, n):
        grid = num.geometric_grid(2.0, ratio, n)
        x, d = num.apply_bop_numeric(op, np.sin(np.log(grid)), grid)
        return np.max(np.abs(d - np.cos(np.log(x))))

    # log steps 0.248 and 0.128, where truncation (not rounding) dominates
    coarse = err(0.78, 60)
    fine = err(0.88, 120)
    assert fine < coarse / 100


def test_line_slope_matches_polyfit():
    t = np.log(np.geomspace(1e-3, 1.0, 17))
    assert num.line_slope(t, 3.0 * t - 2.0) == pytest.approx(3.0, abs=1e-15)
    y = np.sin(7.0 * t) + 0.5 * t
    assert num.line_slope(t, y) == pytest.approx(np.polyfit(t, y, 1)[0], abs=1e-14)


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


def test_model_ode_small_first_integral_is_relative():
    # at c = 11/4 the integral over (0, x_0] is 1.5e-3 of u(x_0); u must not
    # inherit abs_tol's error on that small integral (1.0e-10 before the rescaling)
    grid = num.geometric_grid(2.0, 0.9, 30)
    for c in (Fraction(9, 4), Fraction(5, 2), Fraction(11, 4)):
        u = num.solve_model_ode(c, lambda t: 1.0, grid)
        assert np.max(np.abs(u * float(c) - 1.0)) < 1e-14, c


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


@pytest.mark.parametrize("ratio, refused", [(0.827, False), (0.828, True)])
def test_fit_condition_guard_decides_as_the_basis_condition_number(ratio, refused):
    # exponents k/50 on 30 points: cond(A_s) is 9.66e12 at ratio 0.827 and
    # 1.01e13 at 0.828, either side of the guard
    exponents = [Fraction(k, 50) for k in range(8)]
    grid = num.geometric_grid(0.5, ratio, 30)
    a = np.column_stack([grid ** float(z) for z in exponents])
    a_scaled = a / np.linalg.norm(a, axis=0)
    cond = np.linalg.cond(a_scaled)
    assert abs(cond / num._COND_GUARD - 1) < 0.05
    assert np.linalg.cond(np.linalg.qr(a_scaled)[1]) == pytest.approx(cond, rel=1e-6)
    assert bool(cond > num._COND_GUARD) is refused
    candidate = S(*[(z, 0) for z in exponents])
    data = 1.0 + grid ** 0.06  # in the span of the basis
    if refused:
        with pytest.raises(ConditioningError, match="exceeds the guard"):
            num.fit_expansion(grid, data, candidate, Fraction(7, 50))
    else:
        fit = num.fit_expansion(grid, data, candidate, Fraction(7, 50))
        assert fit.fit_residual < 1e-12


def test_fit_refuses_fewer_points_than_basis_columns():
    grid = num.geometric_grid(0.3, 0.9, 5)  # 5 points against N0 x {0,1} up to 8: 18 columns
    with pytest.raises(ConditioningError, match="5 grid points cannot fit 18 basis columns"):
        num.fit_expansion(grid, 1.0 + grid, SMOOTH.extended_union(SMOOTH), 8)
    grid = num.geometric_grid(0.5, 0.5, 2)
    with pytest.raises(ConditioningError, match="2 grid points cannot fit 3 basis columns"):
        num.fit_expansion(grid, 1.0 + grid, SMOOTH, 2)
    grid = num.geometric_grid(0.5, 0.5, 3)  # a square system is still a fit
    fit = num.fit_expansion(grid, 1.0 + grid, SMOOTH, 2)
    assert [c for _, _, c in fit.terms] == pytest.approx([1.0, 1.0, 0.0], abs=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_fit_refuses_non_finite_samples(bad):
    grid = num.geometric_grid(0.5, 0.9, 30)
    data = 1.0 + grid
    data[7] = bad
    data[12] = math.nan
    with pytest.raises(ValueError, match=r"^non-finite sample at index 7$"):
        num.fit_expansion(grid, data, SMOOTH, 2)


@pytest.mark.parametrize("bad", [0.0, -0.1, math.nan, math.inf, -math.inf])
def test_fit_refuses_a_grid_point_that_is_not_finite_and_positive(bad, capfd):
    # these ended in LinAlgError from the decay check, with LAPACK lines on stderr
    grid = num.geometric_grid(0.5, 0.9, 30)
    data = 1.0 + grid
    grid[3] = bad
    grid[9] = -1.0
    with pytest.raises(ValueError, match=r"^grid point at index 3 is not finite and positive$"):
        num.fit_expansion(grid, data, SMOOTH, 2)
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("n_samples", [29, 31])
def test_fit_refuses_grid_and_samples_of_different_lengths(n_samples):
    grid = num.geometric_grid(0.5, 0.9, 30)
    data = 1.0 + num.geometric_grid(0.5, 0.9, n_samples)
    with pytest.raises(ValueError, match=rf"^30 grid points but {n_samples} samples$"):
        num.fit_expansion(grid, data, SMOOTH, 2)


def test_fit_reads_the_case_3_coefficient_to_the_float_floor():
    # hypot(x, y) pushes forward with x^2 log x coefficient -1/2; a 50-digit
    # least-squares solve on these float samples reads it to 1.5e-9
    grid = num.geometric_grid(0.3, 0.9, 80)
    u = num.SampledFunction2D(lambda x, y: math.hypot(x, y), support=1.0)
    samples = num.numeric_pushforward(u, num.QuadratureSpec(1e-12, 1e-12, 300), grid)
    fit = num.fit_expansion(grid, samples.values, SMOOTH.extended_union(SMOOTH), 8)
    assert abs(fit.coeff_log_x(2, 1) + 0.5) <= 3e-9
    # The fit lands 7.9e-12 from that solve.  The bound pins this solve's
    # rounding, not a floor: the exact least-squares solution of the
    # float-rounded basis is 2.7e-11 away, and other summation orders of the
    # same QR land 8e-12 to 1.4e-10 away.
    basis = [(n, p) for n in range(9) for p in (0, 1)]
    want = _mp_least_squares(grid, samples.values, basis)[basis.index((2, 1))]
    assert abs(fit.coeff(2, 1) - want) <= 2e-11


def _mp_least_squares(grid, values, basis):
    """Coefficients of the least-squares fit in 50 digits, the basis built
    from the same float grid."""
    with mpmath.workdps(50):
        rows = [[mpmath.mpf(x) ** z * mpmath.log(1 / mpmath.mpf(x)) ** p for z, p in basis]
                for x in grid]
        coeffs, _ = mpmath.qr_solve(mpmath.matrix(rows), mpmath.matrix(list(values)))
        return np.array([float(c) for c in coeffs])


@settings(max_examples=60, deadline=None)
@given(top=st.floats(0.1, 0.6), ratio=st.floats(0.75, 0.95), cut=st.integers(1, 8),
       extra=st.integers(4, 60), coeffs=st.lists(st.floats(-2, 2), min_size=18, max_size=18),
       tail=st.floats(-1e-3, 1e-3))
def test_fit_matches_a_50_digit_least_squares_solve(top, ratio, cut, extra, coeffs, tail):
    basis = [(n, p) for n in range(cut + 1) for p in (0, 1)]
    grid = num.geometric_grid(top, ratio, min(len(basis) + extra, 80))
    logs = np.log(1.0 / grid)
    values = sum(c * grid ** z * logs ** p for (z, p), c in zip(basis, coeffs))
    values = values + tail * grid ** (cut + 1)
    a = np.column_stack([grid ** z * logs ** p for z, p in basis])
    scale = np.linalg.norm(a, axis=0)
    cond = np.linalg.cond(a / scale)
    try:
        fit = num.fit_expansion(grid, values, S(*basis), cut)
    except ConditioningError:
        assert cond > num._COND_GUARD
        return
    except FitRejection:
        return
    got = np.array([c for _, _, c in fit.terms])
    want = _mp_least_squares(grid, values, basis)
    # error of each scaled coefficient against cond(A_s) * max|v|: at most
    # 1.1e-16 over 1,261 fitted random draws of this kind, where the same
    # draws through np.linalg.lstsq reach 6.9e-16
    size = max(np.max(np.abs(values)), np.finfo(float).tiny)
    err = np.max(np.abs(got - want) * scale) / (cond * size)
    assert err <= 5e-16


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 20), extra=st.integers(0, 60), decades=st.floats(0, 14),
       seed=st.integers(0, 2 ** 32 - 1))
def test_cond2_matches_numpy_on_column_scaled_bases(n, extra, decades, seed):
    # singular values 1 .. 10^-decades, then columns scaled by 10^-3 .. 10^3 and
    # normalized as fit_expansion normalizes them
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.standard_normal((min(n + extra, 80), n)))[0]
    v = np.linalg.qr(rng.standard_normal((n, n)))[0]
    a = (u * np.logspace(0, -decades, n)) @ v.T * 10.0 ** rng.uniform(-3, 3, n)
    a_s = a / np.linalg.norm(a, axis=0)
    want = np.linalg.cond(a_s)
    assume(want <= 1e14)
    r = np.linalg.qr(a_s)[1]
    got = num._cond2(r, num._back_substitute(r, np.eye(n)))
    assert got == pytest.approx(want, rel=1e-6 if want < 1e8 else 1e-3)
    # against cond(R) itself only the bracket, at most n^(2^-24), and rounding remain
    assert got == pytest.approx(np.linalg.cond(r), rel=1e-6)


@pytest.mark.parametrize("point", [0.5, 1.0])
def test_fit_refuses_two_equal_basis_columns(point):
    # on a grid of one repeated point x^0 and x^1 are constant columns, equal once scaled
    grid = np.full(30, point)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConditioningError, match="exceeds the guard"):
            num.fit_expansion(grid, np.full(30, 1.5), SMOOTH, 1)
    r = np.array([[1.0, 1.0], [0.0, 0.0]])  # two equal columns, factored exactly
    with np.errstate(all="ignore"):
        assert num._cond2(r, num._back_substitute(r, np.eye(2))) == math.inf


def _next_exponent_by_truncation(candidate, cutoff):
    """The least Re z above the cutoff among the members listed up to cutoff + 3."""
    limit = as_fraction(cutoff)
    beyond = [e.z.re for e in candidate.truncate(limit + 3) if e.z.re > limit]
    return float(min(beyond, default=limit + 1))


_fracs = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 4))
_entries = st.lists(st.tuples(st.builds(CR, _fracs, st.sampled_from([Fraction(0), Fraction(1),
                                                                      Fraction(-1, 3)])),
                              st.integers(0, 2)), min_size=1, max_size=5)


@settings(max_examples=300, deadline=None)
@given(entries=_entries, cutoff=_fracs, on_member=st.booleans(), shift=st.integers(-2, 4))
def test_next_exponent_after_reads_the_generators(entries, cutoff, on_member, shift):
    candidate = S(*entries)
    if on_member:  # a cutoff on an exponent of the set, or an integer step off one
        cutoff = entries[0][0].re + shift
    assert num._next_exponent_after(candidate, cutoff) == _next_exponent_by_truncation(
        candidate, cutoff)


def test_next_exponent_after_needs_no_truncation_budget():
    # 4,000 chains k/4000 + N0: listing them up to Re z <= 3 passes the budget
    candidate = SMOOTH.scale_down(4000)
    with pytest.raises(ValueError, match="budget"):
        _next_exponent_by_truncation(candidate, 0)
    assert num._next_exponent_after(candidate, 0) == 1 / 4000
    assert num._next_exponent_after(S((Fraction(9), 0)), 0) == 1.0  # nothing up to 3


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


class KernelWindow:
    """A plain callable kernel with explicit support, as a convolution takes it."""

    def __init__(self, fn, support):
        self.fn, self.support = fn, support

    def evaluate(self, s):
        lo, hi = self.support
        return self.fn(s) if lo < s < hi else 0.0


def test_convolution_with_narrow_bump_approximates_identity():
    op = bop.BDiffOp.from_lists([[Fraction(1, 2)], [1]])
    k = bop.model_inverse(bop.indicial(op), 0)
    width = 0.05
    raw = num.smooth_bump(1.0, width)
    mass = num.integrate(lambda t: raw(t) / t, 1.0 - width, 1.0 + width)
    delta = KernelWindow(lambda t: raw(t) / mass, (1.0 - width, 1.0 + width))
    grid = np.linspace(0.2, 0.8, 7)
    out = num.convolve_model_kernels(k, delta, grid)
    exact = np.array([k.evaluate(s) for s in grid])
    assert np.max(np.abs(out.values - exact)) < 0.02


def test_convolution_divergence_detected_at_threshold():
    op = bop.BDiffOp.from_lists([[Fraction(1, 2)], [1]])
    k = bop.model_inverse(bop.indicial(op), 0)  # inf E_rb = 1/2
    grow = KernelWindow(lambda t: t ** 0.5, (1.0, math.inf))  # inf E_lb = -1/2
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
