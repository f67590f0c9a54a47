"""Independent numerical estimators used to cross-check analytic results.

Every estimator here is deliberately dumb: adaptive quadrature ladders,
Gauss-Hermite rules, Monte Carlo averages, and finite differences.  None
of them consults the closed forms they are meant to verify, so agreement
between the two routes is evidence rather than circularity.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import logsumexp, xlogy

from .errors import ConvergenceError
from . import numdiff
from .util import pointwise

__all__ = [
    "ExpectationEstimate",
    "expect_quadrature",
    "expect_monte_carlo",
    "FdCheck",
    "finite_diff_check",
    "poisson_tail_bound",
]

QUAD_MAX_DOUBLINGS = 24
QUAD_REL_TOL = 1e-10
QUAD_ABS_TOL = 1e-12
QUAD_GROWTH_LIMIT = 0.01
QUAD_GROWTH_STREAK = 4
GH_NODE_LADDER = (64, 128, 256)


@dataclass(frozen=True)
class ExpectationEstimate:
    """An expectation value with the method and error bound that produced it."""

    value: float
    method: str
    error_bound: float | None
    diverged: bool = False
    evaluations: int = 0


def _quad_ladder(f: Callable[[float], float], start: float, t0: float) -> ExpectationEstimate:
    # scipy.integrate loads scipy.optimize; importing it here keeps both off the cold start
    from scipy.integrate import IntegrationWarning, quad

    values = []
    evaluations = 0
    growth_streak = 0
    small_streak = 0
    last_err = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        for k in range(QUAD_MAX_DOUBLINGS + 1):
            upper = t0 * 2.0 ** k
            val, err = quad(f, start, upper, limit=400)
            evaluations += 1
            last_err = err
            if not np.isfinite(val):
                return ExpectationEstimate(np.inf, "quad-ladder", None,
                                           diverged=True, evaluations=evaluations)
            values.append(val)
            if len(values) < 2:
                continue
            prev = values[-2]
            change = abs(val - prev)
            growth = change / max(abs(prev), np.finfo(float).tiny)
            if abs(val) > abs(prev) and growth > QUAD_GROWTH_LIMIT:
                growth_streak += 1
                small_streak = 0
            else:
                growth_streak = 0
                small_streak = (small_streak + 1
                                if change <= max(QUAD_ABS_TOL, QUAD_REL_TOL * abs(val)) else 0)
            if growth_streak >= QUAD_GROWTH_STREAK:
                return ExpectationEstimate(val, "quad-ladder", None,
                                           diverged=True, evaluations=evaluations)
            if small_streak >= 2:
                return ExpectationEstimate(val, "quad-ladder",
                                           float(change + err), evaluations=evaluations)
    raise ConvergenceError("quadrature ladder exhausted its doublings without settling")


def _gauss_hermite(density: Callable, integrand: Callable, center: float,
                   scale: float) -> ExpectationEstimate:
    """Signed Gauss-Hermite expectation accumulated in the log domain.

    Contributions log(w_j) + x_j^2 + log|f(u_j)| are combined with
    logsumexp after splitting on the sign of the integrand, which keeps
    far-out nodes from overflowing through the e^{x^2} factor.
    """
    previous = None
    evaluations = 0
    for n in GH_NODE_LADDER:
        nodes, weights = np.polynomial.hermite.hermgauss(n)
        u = center + np.sqrt(2.0) * scale * nodes
        dens = np.asarray(density(u), dtype=float)
        vals = np.asarray(integrand(u), dtype=float)
        evaluations += n
        prod = dens * vals
        with np.errstate(divide="ignore", invalid="ignore"):
            log_terms = np.log(weights) + nodes ** 2 + np.log(np.abs(prod))
        log_terms = np.where(np.isnan(log_terms) & (prod == 0.0), -np.inf, log_terms)
        if np.any(np.isnan(log_terms)):
            raise ConvergenceError("non-finite integrand in Gauss-Hermite rule")
        pos = log_terms[prod > 0.0]
        neg = log_terms[prod < 0.0]
        log_scale = np.log(np.sqrt(2.0) * scale)
        total = 0.0
        if pos.size:
            total += np.exp(logsumexp(pos) + log_scale)
        if neg.size:
            total -= np.exp(logsumexp(neg) + log_scale)
        if previous is not None:
            change = abs(total - previous)
            if change <= max(QUAD_ABS_TOL, QUAD_REL_TOL * abs(total)):
                return ExpectationEstimate(float(total), "gauss-hermite",
                                           float(change), evaluations=evaluations)
        previous = total
    return ExpectationEstimate(float(previous), "gauss-hermite",
                               float(abs(previous - total)) if previous != total else QUAD_ABS_TOL,
                               evaluations=evaluations)


def expect_quadrature(density: Callable, integrand: Callable, domain: str,
                      center: float = 0.0, scale: float = 1.0) -> ExpectationEstimate:
    """Expectation of ``integrand`` under ``density`` on a scalar domain.

    ``positive-line`` uses an adaptive upper-limit ladder whose sustained
    growth across doublings is reported as divergence; ``real-line`` uses a
    Gauss-Hermite ladder centered and scaled by the hints.  Either ladder
    settles once a step changes the value by at most the larger of
    ``QUAD_ABS_TOL`` and ``QUAD_REL_TOL`` times its size.
    """
    if domain == "positive-line":
        t0 = max(abs(center) + 8.0 * scale, 16.0 * scale, 1.0)

        def f(x: float) -> float:
            xs = np.atleast_1d(np.asarray(x, dtype=float))
            return float(np.asarray(density(xs), dtype=float)[0]
                         * np.asarray(integrand(xs), dtype=float)[0])

        return _quad_ladder(f, 0.0, t0)
    if domain == "real-line":
        return _gauss_hermite(density, integrand, center, max(scale, 1e-12))
    raise ValueError(f"unknown quadrature domain {domain!r}")


def expect_monte_carlo(sampler: Callable[[int, np.random.Generator], np.ndarray],
                       integrand: Callable[[np.ndarray], np.ndarray],
                       n: int = 100_000, seed: int = 0) -> ExpectationEstimate:
    """Plain Monte Carlo mean with a three-sigma half-width as error bound."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    draws = np.asarray(sampler(n, rng))
    vals = np.asarray(integrand(draws), dtype=float)
    half_width = 3.0 * float(vals.std(ddof=1)) / np.sqrt(n)
    return ExpectationEstimate(
        value=float(vals.mean()),
        method="monte-carlo",
        error_bound=half_width,
        evaluations=int(n),
    )


@dataclass(frozen=True)
class FdCheck:
    passed: bool
    rel_error: float
    fd_value: np.ndarray


def finite_diff_check(func: Callable, point: np.ndarray, analytic: np.ndarray,
                      kind: str = "gradient", rel_tol: float = 1e-5) -> FdCheck:
    """Compare an analytic derivative against a central finite difference.

    ``func`` takes one point; it is evaluated once per stencil point.  The
    comparison scale is the larger of the two max norms so that nearly
    zero derivatives are judged absolutely.
    """
    point = np.asarray(point, dtype=float)
    if kind == "gradient":
        fd = numdiff.fd_gradient(pointwise(func), point)
    elif kind == "jacobian":
        fd = numdiff.fd_jacobian(pointwise(func), point)
    elif kind == "hessian":
        fd = numdiff.fd_hessian(pointwise(func), point)
    else:
        raise ValueError(f"unknown finite-difference kind {kind!r}")
    analytic = np.asarray(analytic, dtype=float)
    scale = max(float(np.max(np.abs(analytic))), float(np.max(np.abs(fd))), 1e-12)
    rel_error = float(np.max(np.abs(analytic - fd))) / scale
    return FdCheck(passed=bool(rel_error <= rel_tol), rel_error=rel_error, fd_value=fd)


def poisson_tail_bound(rate: float, threshold: float) -> float:
    """Chernoff bound on P(X >= threshold) for X ~ Poisson(rate)."""
    if threshold <= rate:
        return 1.0
    exponent = -rate + threshold - xlogy(threshold, threshold / rate)
    return float(min(1.0, np.exp(exponent)))
