import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epigrowth.errors import ConvergenceError, InsufficientDataError, PipelineError, ValidationError
from epigrowth.regress import (
    _betacf,
    bucket_temperature,
    fit_multi,
    fit_simple,
    student_t_sf,
)


def test_fit_simple_recovers_exact_line():
    pts = [(x, 2.5 * x - 1.0) for x in range(10)]
    fit = fit_simple(pts)
    assert fit.slope == pytest.approx(2.5, abs=1e-12)
    assert fit.intercept == pytest.approx(-1.0, abs=1e-12)
    assert fit.r_squared == 1.0


def test_fit_simple_flat_data_has_zero_slope():
    fit = fit_simple([(x, 3.0) for x in range(5)])
    assert fit.slope == 0.0
    assert fit.r_squared == 1.0  # zero total variance counts as a perfect fit


@pytest.mark.parametrize("value", [math.log(1234.5), math.log(7.0), 0.1])
@pytest.mark.parametrize("n", [3, 23, 31])
def test_fit_simple_constant_y_with_a_rounded_mean_has_r_squared_one(value, n):
    # the mean of n copies need not equal the copy, which leaves tiny equal residual and total sums
    fit = fit_simple([(x, value) for x in range(n)])
    assert fit.r_squared == 1.0


def test_fit_simple_needs_two_points_and_x_spread():
    with pytest.raises(InsufficientDataError):
        fit_simple([(1, 1)])
    with pytest.raises(InsufficientDataError):
        fit_simple([(2, 1), (2, 5), (2, 9)])


def test_fit_simple_r_squared_stays_in_unit_interval():
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.normal(size=12)
        y = rng.normal(size=12)
        r2 = fit_simple(list(zip(x, y))).r_squared
        assert 0.0 <= r2 <= 1.0


def _textbook_ols(x: np.ndarray, y: np.ndarray):
    """Normal-equation reference fit: coefficients, standard errors, two-sided p."""
    n, p = x.shape
    design = np.column_stack([x, np.ones(n)])
    xtx = design.T @ design
    coef = np.linalg.solve(xtx, design.T @ y)
    resid = y - design @ coef
    dof = n - p - 1
    sigma2 = float(resid @ resid) / dof
    cov = sigma2 * np.linalg.inv(xtx)
    se = np.sqrt(np.diag(cov))
    from scipy import stats

    pvals = [2.0 * float(stats.t.sf(abs(c / s), dof)) for c, s in zip(coef, se)]
    return coef, se, pvals


def test_fit_multi_matches_normal_equations():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(15, 3))
    y = x @ np.array([1.5, -2.0, 0.25]) + 0.7 + rng.normal(scale=0.3, size=15)
    fit = fit_multi(x, y)
    coef, se, pvals = _textbook_ols(x, y)
    assert fit.coefficients == pytest.approx(tuple(coef), abs=1e-10)
    assert fit.std_errors == pytest.approx(tuple(se), abs=1e-10)
    assert fit.p_values == pytest.approx(tuple(pvals), abs=1e-10)
    assert fit.dof == 15 - 4
    assert fit.r_squared is not None and 0.9 < fit.r_squared <= 1.0


def test_fit_multi_flags_duplicate_column_as_unidentifiable():
    rng = np.random.default_rng(3)
    base = rng.normal(size=(12, 1))
    x = np.column_stack([base, base])  # second column is redundant
    y = base[:, 0] * 2.0 + rng.normal(scale=0.1, size=12)
    fit = fit_multi(x, y)
    assert fit.p_values[0] is not None
    assert fit.p_values[1] is None
    assert fit.std_errors[1] is None
    assert fit.r_squared is None


def test_fit_multi_needs_residual_dof():
    x = np.eye(3)
    y = np.array([1.0, 2.0, 3.0])
    fit = fit_multi(x, y)  # n == p + 1 leaves zero degrees of freedom
    assert all(p is None for p in fit.p_values)
    assert fit.r_squared is None


@pytest.mark.parametrize("value", [0.0, math.log(1234.5)])
def test_fit_multi_constant_response_has_no_significant_coefficient(value):
    # se is 0 or rounding noise here; t = 0 for every coefficient, not t = inf (p = 0)
    design = np.array([[0.0], [1.0], [0.0], [1.0], [1.0]])
    fit = fit_multi(design, np.full(5, value))
    assert fit.p_values == (1.0, 1.0)
    assert fit.r_squared == 1.0


def test_fit_multi_constant_y_with_a_rounded_mean_has_r_squared_one():
    # the mean of n copies need not equal the copy, which leaves tiny equal residual and total sums
    for n in range(5, 40):
        design = np.random.default_rng(n).normal(size=(n, 2))
        fit = fit_multi(design, np.full(n, math.log(1234.5)))
        assert (n, fit.r_squared, fit.p_values) == (n, 1.0, (1.0, 1.0, 1.0))


def test_fit_multi_rejects_mismatched_shapes():
    with pytest.raises(ValidationError):
        fit_multi(np.ones((4, 2)), np.ones(5))


# Survival values frozen from numerical integration of the t density
# (scipy.integrate.quad on the closed-form pdf, two-sided).
T_SF_TABLE = [
    (2.0, 10, 0.073388034770740),
    (1.0, 1, 0.500000000000000),
    (2.5, 3, 0.087706647008066),
    (0.5, 30, 0.620723004885127),
    (9.8, 2, 0.010252475022698),
]


@pytest.mark.parametrize("t_stat,dof,expected", T_SF_TABLE)
def test_student_t_sf_matches_integration_oracle(t_stat, dof, expected):
    assert student_t_sf(t_stat, dof) == pytest.approx(expected, abs=5e-12)


def test_student_t_sf_symmetry_and_center():
    assert student_t_sf(0.0, 7) == pytest.approx(1.0, abs=1e-12)
    for t in (0.3, 1.7, 4.2):
        assert student_t_sf(t, 9) == pytest.approx(student_t_sf(-t, 9), abs=1e-15)


def test_betacf_non_convergence_is_a_pipeline_error():
    with pytest.raises(ConvergenceError, match="^incomplete beta continued fraction did not converge$") as info:
        _betacf(1e6, 1e6, 0.5)
    assert isinstance(info.value, PipelineError)


def test_student_t_sf_rejects_bad_dof():
    with pytest.raises(ValidationError):
        student_t_sf(1.0, 0)


@settings(max_examples=40, deadline=None)
@given(
    t1=st.floats(0.0, 9.0),
    delta=st.floats(0.01, 1.0),
    dof=st.integers(1, 30),
)
def test_student_t_sf_decreases_in_magnitude(t1, delta, dof):
    assert student_t_sf(t1 + delta, dof) < student_t_sf(t1, dof)


@pytest.mark.parametrize(
    "value,scheme,expected",
    [
        (85.0, "high-temp", "H"),
        (80.0, "high-temp", "M"),  # boundary is exclusive
        (61.0, "high-temp", "M"),
        (60.0, "high-temp", "L"),
        (65.0, "low-temp", "H"),
        (60.0, "low-temp", "M"),
        (50.5, "low-temp", "M"),
        (50.0, "low-temp", "L"),
    ],
)
def test_bucket_temperature_boundaries(value, scheme, expected):
    assert bucket_temperature(value, scheme) == expected


def test_bucket_temperature_rejects_unknown_scheme():
    with pytest.raises(ValidationError):
        bucket_temperature(70.0, "mid-temp")
