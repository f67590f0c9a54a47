"""Regression-coefficient pairing: projection, covariance ordering, e-values.

The same-mean null member is ``params_from_mean(design, 0.0, mu)`` and the
e-value is ``simple_evalue`` on ``linmodel_pairing``; the oracles here are
``np.linalg.lstsq`` and the normal density written out.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from evfam.conditions import growth_rate, simple_evalue
from evfam.errors import DataError, DomainError
from evfam.families import covariance_at_mean, log_partition_at, mean_from_canonical
from evfam.linear_model import (
    LinearModelDesign,
    LinearModelParams,
    covariance_of_params,
    linmodel_family,
    linmodel_pairing,
    linmodel_psd_check,
    mean_of_params,
    params_from_mean,
)
from evfam.oracles import finite_diff_check


def _design(seed: int, n: int = 8, d: int = 2) -> LinearModelDesign:
    rng = np.random.default_rng(seed)
    return LinearModelDesign(rng.normal(size=(n, d + 1)))


def _lstsq_null(design: LinearModelDesign, params: LinearModelParams) -> LinearModelParams:
    """The least-squares null member: the nuisance fit, variance plus the mean squared gap."""
    nu = design.x @ params.gamma
    coef, *_ = np.linalg.lstsq(design.nuisance, nu, rcond=None)
    gap = nu - design.nuisance @ coef
    return LinearModelParams(sigma2=params.sigma2 + gap @ gap / design.n,
                             gamma=np.concatenate([[0.0], coef]))


def _normal_log_density(design: LinearModelDesign, params: LinearModelParams, y) -> np.ndarray:
    """log N(y; X gamma, sigma2 I) for each row of ``y``, written out."""
    resid = np.atleast_2d(y) - design.x @ params.gamma
    return -0.5 * (np.sum(resid ** 2, axis=1) / params.sigma2
                   + design.n * math.log(2.0 * math.pi * params.sigma2))


def _pairing_evalue(design: LinearModelDesign, params: LinearModelParams, y):
    pair = linmodel_pairing(design, params.sigma2, params.gamma)
    return simple_evalue(pair.tilted, pair.null, pair.tilted.mu_star, y)


def test_design_validation():
    with pytest.raises(DataError):
        LinearModelDesign(np.zeros((3, 4)))
    col = np.arange(5.0).reshape(-1, 1)
    with pytest.raises(DataError):
        LinearModelDesign(np.hstack([col, 2.0 * col]))
    with pytest.raises(DomainError):
        LinearModelParams(sigma2=-1.0, gamma=np.zeros(2))


def test_projection_matches_lstsq_oracle():
    design = _design(0)
    params = LinearModelParams(sigma2=1.3, gamma=np.array([0.8, -0.5, 1.1]))
    # the same-mean null member is the least-squares projection
    proj = params_from_mean(design, 0.0, mean_of_params(design, params))
    want = _lstsq_null(design, params)
    assert np.allclose(proj.gamma[1:], want.gamma[1:], atol=1e-10)
    assert proj.gamma[0] == 0.0
    assert proj.sigma2 == pytest.approx(want.sigma2, rel=1e-12)
    # so the projection preserves the sufficient-statistic mean
    assert np.allclose(mean_of_params(design, want), mean_of_params(design, params),
                       rtol=1e-10)


def test_projection_of_null_member_is_identity():
    design = _design(1)
    params = LinearModelParams(sigma2=0.9, gamma=np.array([0.0, 0.4, -0.2]))
    proj = params_from_mean(design, 0.0, mean_of_params(design, params))
    assert proj.sigma2 == pytest.approx(0.9, rel=1e-12)
    assert np.allclose(proj.gamma, params.gamma, atol=1e-10)


def test_params_from_mean_round_trip():
    design = _design(2)
    for theta in (0.0, -0.7, 1.2):
        params = LinearModelParams(sigma2=0.6, gamma=np.array([theta * 0.6, 1.0, -2.0]))
        mu = mean_of_params(design, params)
        back = params_from_mean(design, theta, mu)
        assert back.sigma2 == pytest.approx(0.6, rel=1e-10)
        assert np.allclose(back.gamma, params.gamma, rtol=1e-9, atol=1e-11)


def test_params_from_mean_rejects_outside_means():
    design = _design(3)
    params = LinearModelParams(sigma2=0.6, gamma=np.array([0.0, 1.0, -2.0]))
    mu = mean_of_params(design, params)
    mu[0] = mu[0] - design.n * 0.6 - 1e-6
    with pytest.raises(DomainError):
        params_from_mean(design, 0.0, mu)


def test_covariance_blocks_match_monte_carlo():
    design = _design(4, n=6, d=1)
    params = LinearModelParams(sigma2=0.8, gamma=np.array([0.5, -1.0]))
    fam = linmodel_family(design, params.theta)
    rng = np.random.default_rng(10)
    draws = design.x @ params.gamma + rng.standard_normal((400_000, 6)) * math.sqrt(0.8)
    stats = fam.suff_stat(draws)
    emp = np.cov(stats.T)
    want = covariance_of_params(design, params)
    assert np.allclose(emp, want, rtol=0.02, atol=0.05 * np.abs(want).max())


def test_schur_margin_is_twice_n_gap_squared():
    for seed in range(5):
        design = _design(seed, n=7, d=2)
        rng = np.random.default_rng(100 + seed)
        params = LinearModelParams(sigma2=0.5 + rng.random(),
                                   gamma=rng.normal(size=3))
        mu = mean_of_params(design, params)
        rep = linmodel_psd_check(design, params.theta, mu)
        want = 2.0 * design.n * rep.variance_gap ** 2
        assert rep.schur_margin == pytest.approx(want, rel=1e-8)
        assert rep.passed
        assert rep.min_eigenvalue >= rep.threshold


def test_psd_check_null_anchor_is_degenerate_zero():
    design = _design(6)
    params = LinearModelParams(sigma2=1.0, gamma=np.array([0.0, 0.3, 0.3]))
    rep = linmodel_psd_check(design, 0.0, mean_of_params(design, params))
    assert rep.variance_gap == pytest.approx(0.0, abs=1e-12)
    assert rep.min_eigenvalue == pytest.approx(0.0, abs=1e-9)


def test_evalue_is_one_when_tested_coefficient_vanishes():
    design = _design(7)
    params = LinearModelParams(sigma2=1.4, gamma=np.array([0.0, 0.8, -0.3]))
    rng = np.random.default_rng(2)
    y = rng.normal(size=(12, design.n))
    vals = _pairing_evalue(design, params, y)
    assert np.allclose(vals, 1.0, atol=1e-12)


def test_evalue_batch_and_single_agree():
    design = _design(8)
    params = LinearModelParams(sigma2=0.7, gamma=np.array([0.9, 0.1, 0.2]))
    rng = np.random.default_rng(3)
    y = rng.normal(size=(4, design.n))
    batch = _pairing_evalue(design, params, y)
    singles = [_pairing_evalue(design, params, row) for row in y]
    assert np.allclose(batch, singles, rtol=1e-12)


def test_pairing_evalue_matches_direct_ratio():
    design = _design(9, n=6, d=1)
    params = LinearModelParams(sigma2=0.9, gamma=np.array([0.7, -0.4]))
    pair = linmodel_pairing(design, params.sigma2, params.gamma)
    rng = np.random.default_rng(4)
    y = rng.normal(size=(20, 6))
    via_family = simple_evalue(pair.tilted, pair.null, pair.tilted.mu_star, y)
    # q / p of the two normal densities, p at the least-squares fit
    direct = np.exp(_normal_log_density(design, params, y)
                    - _normal_log_density(design, _lstsq_null(design, params), y))
    assert np.allclose(via_family, direct, rtol=1e-9)


def test_pairing_growth_is_the_gaussian_kl_to_the_projection():
    design = _design(4, n=20)
    params = LinearModelParams(sigma2=0.9, gamma=np.array([0.7, -0.4, 1.1]))
    pair = linmodel_pairing(design, params.sigma2, params.gamma)
    null = _lstsq_null(design, params)
    ratio = params.sigma2 / null.sigma2
    gap = design.x @ (params.gamma - null.gamma)
    want = 0.5 * design.n * (ratio - 1.0 - math.log(ratio)) + gap @ gap / (2.0 * null.sigma2)
    assert growth_rate(pair.tilted, pair.null, pair.tilted.mu_star) == pytest.approx(want, rel=1e-12)


def test_pairing_expectation_under_projection_is_one():
    design = _design(11, n=5, d=1)
    params = LinearModelParams(sigma2=1.1, gamma=np.array([0.6, 0.5]))
    proj = _lstsq_null(design, params)
    rng = np.random.default_rng(12)
    n_draws = 200_000
    y = design.x @ proj.gamma + rng.standard_normal((n_draws, 5)) * math.sqrt(proj.sigma2)
    vals = _pairing_evalue(design, params, y)
    err = 3.0 * vals.std() / math.sqrt(n_draws)
    assert vals.mean() <= 1.0 + err
    assert vals.mean() == pytest.approx(1.0, abs=max(3.0 * err, 0.01))


def test_family_mean_and_covariance_maps_are_cumulant_derivatives():
    design = _design(12, n=6, d=1)
    theta = 0.8
    fam = linmodel_family(design, theta)
    params = LinearModelParams(sigma2=1.2, gamma=np.array([theta * 1.2, -0.9]))
    anchor = mean_of_params(design, params)
    beta = np.array([0.05, -0.1])
    grad = mean_from_canonical(fam, beta, anchor)
    check = finite_diff_check(lambda b: log_partition_at(fam, b, anchor),
                              beta, grad, kind="gradient", rel_tol=1e-5)
    assert check.passed, check.rel_error
    hess = fam.cov_map(beta, anchor)
    check = finite_diff_check(lambda b: log_partition_at(fam, b, anchor),
                              beta, hess, kind="hessian", rel_tol=1e-3)
    assert check.passed, check.rel_error


def test_family_canonical_domain_boundary_is_half_precision():
    design = _design(13, n=5, d=0)
    fam = linmodel_family(design, 0.0)
    params = LinearModelParams(sigma2=2.0, gamma=np.array([0.0]))
    anchor = mean_of_params(design, params)
    dom = fam.canonical_domain(anchor)
    assert dom.upper[0] == pytest.approx(0.25, rel=1e-12)
    assert log_partition_at(fam, np.array([0.3, *np.zeros(design.d)]), anchor) == math.inf


def test_intercept_only_design_works():
    design = LinearModelDesign(np.ones((4, 1)))
    assert design.d == 0
    params = LinearModelParams(sigma2=1.0, gamma=np.array([0.5]))
    mu = mean_of_params(design, params)
    assert mu.shape == (1,)
    back = params_from_mean(design, params.theta, mu)
    assert back.sigma2 == pytest.approx(1.0, rel=1e-10)
    rep = linmodel_psd_check(design, params.theta, mu)
    assert rep.schur_margin == pytest.approx(2.0 * 4 * rep.variance_gap ** 2, rel=1e-8)


def test_covariance_at_mean_agrees_with_param_blocks():
    design = _design(14, n=6, d=2)
    theta = -0.6
    fam = linmodel_family(design, theta)
    params = LinearModelParams(sigma2=0.9, gamma=np.array([theta * 0.9, 0.4, 1.0]))
    mu = mean_of_params(design, params)
    assert np.allclose(covariance_at_mean(fam, mu),
                       covariance_of_params(design, params), rtol=1e-8)
