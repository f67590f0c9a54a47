"""The estimators here are the reference points for everything else, so they
get checked against textbook values with no package machinery involved."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from evfam.errors import ConvergenceError
from evfam.oracles import (
    expect_monte_carlo,
    expect_quadrature,
    finite_diff_check,
    poisson_tail_bound,
)


def _std_normal(u):
    return np.exp(-0.5 * np.asarray(u) ** 2) / np.sqrt(2.0 * np.pi)


def test_gauss_hermite_total_mass():
    est = expect_quadrature(_std_normal, lambda u: np.ones_like(u), "real-line")
    assert est.method == "gauss-hermite"
    assert abs(est.value - 1.0) < 1e-9


def test_gauss_hermite_second_moment():
    est = expect_quadrature(_std_normal, lambda u: np.asarray(u) ** 2, "real-line")
    assert abs(est.value - 1.0) < 1e-9


def test_gauss_hermite_signed_integrand_cancels():
    est = expect_quadrature(_std_normal, lambda u: np.asarray(u), "real-line")
    assert abs(est.value) < 1e-12


def test_gauss_hermite_center_scale_hints():
    density = lambda u: stats.norm.pdf(u, loc=3.0, scale=2.0)
    est = expect_quadrature(density, lambda u: np.asarray(u), "real-line",
                            center=3.0, scale=2.0)
    assert abs(est.value - 3.0) < 1e-9


def test_quad_ladder_exponential_mass():
    density = lambda u: np.exp(-np.asarray(u))
    est = expect_quadrature(density, lambda u: np.ones_like(u), "positive-line")
    assert est.method == "quad-ladder"
    assert not est.diverged
    assert abs(est.value - 1.0) < 1e-8


def test_quad_ladder_converges_with_heavy_but_integrable_tail():
    density = lambda u: np.exp(-np.asarray(u))
    integrand = lambda u: np.exp(0.5 * np.asarray(u))
    est = expect_quadrature(density, integrand, "positive-line")
    assert not est.diverged
    assert abs(est.value - 2.0) < 1e-6


def test_quad_ladder_flags_divergence():
    density = lambda u: np.exp(-np.asarray(u))
    integrand = lambda u: np.exp(1.2 * np.asarray(u))
    est = expect_quadrature(density, integrand, "positive-line")
    assert est.diverged


def test_quadrature_unknown_domain():
    with pytest.raises(ValueError):
        expect_quadrature(_std_normal, lambda u: u, "circle")


def test_poisson_tail_bound_dominates_true_tail():
    for rate in (0.5, 3.0, 20.0):
        for thresh in (int(rate) + 3, int(rate) + 10, int(rate) + 30):
            bound = poisson_tail_bound(rate, thresh)
            assert stats.poisson.sf(thresh - 1, rate) <= bound <= 1.0
    assert poisson_tail_bound(5.0, 4.0) == 1.0


def test_monte_carlo_mean_and_determinism():
    sampler = lambda n, rng: rng.normal(2.0, 1.0, n)
    est1 = expect_monte_carlo(sampler, lambda x: x, n=50_000, seed=11)
    est2 = expect_monte_carlo(sampler, lambda x: x, n=50_000, seed=11)
    assert est1.value == est2.value
    assert abs(est1.value - 2.0) <= est1.error_bound


def test_finite_diff_gradient_and_hessian():
    f = lambda x: x[0] ** 3 + 2.0 * x[0] * x[1] + np.sin(x[1])
    point = np.array([0.7, -0.3])
    grad = np.array([3 * 0.7 ** 2 + 2 * (-0.3), 2 * 0.7 + np.cos(-0.3)])
    hess = np.array([[6 * 0.7, 2.0], [2.0, -np.sin(-0.3)]])
    assert finite_diff_check(f, point, grad, kind="gradient").passed
    assert finite_diff_check(f, point, hess, kind="hessian", rel_tol=1e-4).passed
    bad = finite_diff_check(f, point, grad + 0.1, kind="gradient")
    assert not bad.passed


def test_finite_diff_unknown_kind():
    with pytest.raises(ValueError):
        finite_diff_check(lambda x: x[0], np.zeros(1), np.ones(1), kind="curl")
