"""Least-squares fits with R-squared and t-based p-values.

Simple fits use the closed-form slope/intercept formulas.  Multivariate fits
append an intercept column, solve by minimum-norm least squares, and assess
coefficient significance with two-sided Student-t p-values computed from the
regularized incomplete beta function.  A constant response has R² = 1 and p = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .errors import ConvergenceError, InsufficientDataError, ValidationError

BUCKET_SCHEMES = {
    # strict lower bounds: (H threshold, M threshold); at-or-below M threshold is L
    "high-temp": (80.0, 60.0),
    "low-temp": (60.0, 50.0),
}


@dataclass(frozen=True)
class SimpleFit:
    slope: float
    intercept: float
    r_squared: float


@dataclass(frozen=True)
class MultiFit:
    """Per-coefficient vectors ordered as (predictors..., intercept).

    ``std_errors`` and ``p_values`` entries are None for coefficients that a
    rank-deficient design cannot identify; ``r_squared`` is None whenever the
    design is rank-deficient or there are no residual degrees of freedom.
    """

    coefficients: tuple[float, ...]
    std_errors: tuple[float | None, ...]
    p_values: tuple[float | None, ...]
    r_squared: float | None
    n: int
    dof: int


def _ols_slope(x: np.ndarray, y: np.ndarray):
    """Closed-form least-squares slope of ``y`` on ``x`` along the leading axis.

    ``x`` holds n values; ``y`` is (n,) or (n, columns), one column per
    candidate.  Every sum reduces over axis 0.  A column of a batch is summed
    day by day, while NumPy sums a 1-D ``y`` pairwise once it holds 8 or more
    values, so a batch column and the same points fitted alone agree to
    rounding, not bit for bit.  Returns (slope, y mean, x mean), the first two
    with y's trailing shape.
    """
    n = x.shape[0]
    xm = x.sum() / n
    ym = y.sum(axis=0) / n
    xc = x - xm
    sxx = float((xc**2).sum())
    if sxx == 0.0:
        raise InsufficientDataError("x values are all identical")
    dev = y - ym
    dev *= xc.reshape(xc.shape + (1,) * (y.ndim - 1))
    return dev.sum(axis=0) / sxx, ym, xm


def _r_squared(constant: bool, ss_res: float, ss_tot: float) -> float:
    """1 - ss_res/ss_tot in [0, 1]; 1 for a constant y, whose rounded mean leaves noise sums."""
    return 1.0 if constant or ss_tot == 0.0 else min(max(1.0 - ss_res / ss_tot, 0.0), 1.0)


def _line_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """(slope, intercept, r2) of one line; r2 is 1 when y is constant."""
    slope, ym, xm = _ols_slope(x, y)
    slope = float(slope)
    intercept = ym - slope * xm
    ss_res = float(((y - (intercept + slope * x)) ** 2).sum())
    ss_tot = float(((y - ym) ** 2).sum())
    return slope, float(intercept), _r_squared(bool((y == y[0]).all()), ss_res, ss_tot)


def fit_simple(points) -> SimpleFit:
    """Ordinary least squares y = slope*x + intercept.

    Accepts any sequence of (x, y) pairs.  R-squared is defined
    as 1 when y is constant.
    """
    pts = list(points)
    if any(len(p) != 2 for p in pts):
        raise ValidationError("points must be (x, y) pairs")
    x = np.array([float(p[0]) for p in pts])
    y = np.array([float(p[1]) for p in pts])
    if len(x) < 2:
        raise InsufficientDataError(f"need at least 2 points to fit a line, got {len(x)}")
    return SimpleFit(*_line_fit(x, y))


def _independent_columns(x: np.ndarray) -> np.ndarray:
    """Greedy first-wins screen: keep each column not in the span of the kept ones."""
    n, m = x.shape
    tol = max(n, m) * np.finfo(float).eps
    basis: list[np.ndarray] = []
    keep = np.zeros(m, dtype=bool)
    for j in range(m):
        col = x[:, j].astype(float)
        norm0 = math.sqrt(col @ col)  # np.linalg.norm's own 1-D formula, without its overhead
        if norm0 == 0.0:
            continue
        v = col.copy()
        for _ in range(2):  # re-orthogonalize for stability
            for q in basis:
                v -= (q @ v) * q
        norm = math.sqrt(v @ v)
        if norm > tol * norm0:
            keep[j] = True
            basis.append(v / norm)
    return keep


def fit_multi(design, response) -> MultiFit:
    """Multivariate OLS with an intercept column appended internally.

    Coefficients come from the minimum-norm solution, so fitted values are
    reproduced even for collinear designs.  On a rank-deficient design the
    dependent columns (later duplicates lose) get None std errors/p-values and
    significance for the surviving columns is assessed on the reduced design.
    A constant response gives every identified coefficient t = 0 (p = 1).
    """
    x0 = np.asarray(design, dtype=float)
    if x0.ndim == 1:
        x0 = x0[:, None]
    if x0.ndim != 2:
        raise ValidationError(f"design must be 2-dimensional, got shape {x0.shape}")
    y = np.asarray(response, dtype=float)
    n, p = x0.shape
    if p < 1:
        raise ValidationError("design needs at least one predictor column")
    if y.shape != (n,):
        raise ValidationError(f"response length {y.shape} does not match {n} design rows")
    if not (np.isfinite(x0).all() and np.isfinite(y).all()):
        raise ValidationError("design and response must be finite")
    constant = bool((y == y[:1]).all())

    x = np.hstack([x0, np.ones((n, 1))])
    m = p + 1
    keep = _independent_columns(x)
    rank = int(keep.sum())
    dof = n - rank

    coef, *_ = np.linalg.lstsq(x, y, rcond=None)
    fitted = x @ coef
    resid = y - fitted
    ss_res = float(resid @ resid)
    ss_tot = float(((y - y.mean()) ** 2).sum())

    full_rank = rank == m
    std_errors: list[float | None] = [None] * m
    p_values: list[float | None] = [None] * m
    if dof > 0:
        xk = x[:, keep]
        if full_rank:
            coef_k = coef
        else:
            coef_k, *_ = np.linalg.lstsq(xk, y, rcond=None)
            resid_k = y - xk @ coef_k
            ss_res = float(resid_k @ resid_k)
        sigma2 = ss_res / dof
        cov = sigma2 * np.linalg.inv(xk.T @ xk)
        ses = np.sqrt(np.maximum(np.diag(cov), 0.0))
        kept_idx = np.flatnonzero(keep)
        for pos, j in enumerate(kept_idx):
            se = float(ses[pos])
            std_errors[j] = se
            t = 0.0 if constant else (math.inf if se == 0.0 else float(coef_k[pos]) / se)
            p_values[j] = student_t_sf(t, dof)

    r2: float | None = None
    if full_rank and dof > 0:
        r2 = _r_squared(constant, ss_res, ss_tot)

    return MultiFit(
        coefficients=tuple(float(c) for c in coef),
        std_errors=tuple(std_errors),
        p_values=tuple(p_values),
        r_squared=r2,
        n=n,
        dof=dof,
    )


def _betacf(a: float, b: float, x: float) -> float:
    # modified Lentz continued fraction for the incomplete beta integral; c and d are kept off 0
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c, d = 1.0, 1.0 - qab * x / qap
    h = d = 1.0 / (tiny if abs(d) < tiny else d)
    for m in range(1, 400):
        m2 = 2 * m
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),  # the even term, then the odd one
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            d = 1.0 / (tiny if abs(d) < tiny else d)
            c = 1.0 + aa / c
            c = tiny if abs(c) < tiny else c
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < 1e-15:
            return h
    raise ConvergenceError("incomplete beta continued fraction did not converge")


def _beta_frac(a: float, b: float, x: float) -> float:
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    return front * _betacf(a, b, x) / a


def _betainc_reg(a: float, b: float, x: float) -> float:
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x < (a + 1.0) / (a + b + 2.0):
        return _beta_frac(a, b, x)
    return 1.0 - _beta_frac(b, a, 1.0 - x)


def student_t_sf(t_stat: float, dof: int) -> float:
    """Two-sided tail probability P(|T| >= |t|) for Student's t with ``dof`` dof."""
    if dof < 1:
        raise ValidationError(f"dof must be >= 1, got {dof}")
    t = float(t_stat)
    if math.isnan(t):
        raise ValidationError("t statistic must be a number")
    x = dof / (dof + t * t)  # t = +-inf maps to x = 0
    return _betainc_reg(0.5 * dof, 0.5, x)


def bucket_temperature(value: float, scheme: str) -> str:
    """Map a temperature to 'H' / 'M' / 'L' with strict > comparisons."""
    if scheme not in BUCKET_SCHEMES:
        raise ValidationError(f"unknown bucket scheme {scheme!r}")
    v = float(value)
    if not math.isfinite(v):
        raise ValidationError(f"temperature must be finite, got {value!r}")
    high, mid = BUCKET_SCHEMES[scheme]
    if v > high:
        return "H"
    if v > mid:
        return "M"
    return "L"
