"""Catalog families and pairings against independent distributional oracles."""

from __future__ import annotations

import dataclasses
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.stats as st
from scipy.special import exp1

from evfam.conditions import growth_rate, simple_evalue
from evfam.errors import DomainError, UnsupportedModelError
from evfam.families import (
    _scaled_exp1,
    canonical_from_mean,
    covariance_at_mean,
    kl_between_means,
    law_kl,
    law_log_density,
    log_density,
    log_partition_at,
    mean_from_canonical,
)
from evfam.linear_model import LinearModelDesign, linmodel_pairing
from evfam.models import (
    abm_family,
    abm_vs_poisson,
    gamma_family,
    gaussian_location_constrained,
    gaussian_location_pairing,
    gaussian_scale_family,
    gaussian_scale_pairing,
    ig_divergence_threshold,
    ig_regime,
    ig_vs_exp_pairing,
    inverse_gaussian_family,
    ksample_pairing,
    negbinom_family,
    negbinom_vs_poisson,
    poisson_family,
    tweedie_family,
    tweedie_pair,
)
from evfam.oracles import finite_diff_check, poisson_tail_bound


# ---------------------------------------------------------------------------
# densities against scipy.stats

POINTS = np.arange(0.0, 12.0)


def test_poisson_density_matches_scipy():
    fam = poisson_family()
    got = fam.carrier_log_density(POINTS, np.array([2.3]))
    assert np.allclose(got, st.poisson.logpmf(POINTS, 2.3), atol=1e-12)


def test_gamma_density_matches_scipy():
    fam = gamma_family(2.5)
    u = np.array([0.2, 1.0, 3.7, 9.0])
    got = fam.carrier_log_density(u, np.array([1.8]))
    want = st.gamma.logpdf(u, a=2.5, scale=1.8 / 2.5)
    assert np.allclose(got, want, atol=1e-12)


def test_negbinom_density_matches_scipy():
    fam = negbinom_family(4.0)
    m = 2.6
    got = fam.carrier_log_density(POINTS, np.array([m]))
    want = st.nbinom.logpmf(POINTS, 4.0, 4.0 / (4.0 + m))
    assert np.allclose(got, want, atol=1e-12)


def test_inverse_gaussian_density_matches_scipy():
    fam = inverse_gaussian_family(1.7)
    u = np.array([0.3, 0.9, 2.2, 5.0])
    m = 1.4
    got = fam.carrier_log_density(u, np.array([m]))
    want = st.invgauss.logpdf(u, mu=m / 1.7, scale=1.7)
    assert np.allclose(got, want, atol=1e-12)


def test_scale_family_density_is_centered_normal():
    fam = gaussian_scale_family()
    u = np.array([-2.0, -0.3, 0.0, 1.1, 4.0])
    got = fam.carrier_log_density(u, np.array([3.0]))
    assert np.allclose(got, st.norm.logpdf(u, scale=math.sqrt(3.0)), atol=1e-12)


def test_scale_family_stat_and_mean():
    fam = gaussian_scale_family()
    assert np.allclose(fam.suff_stat(np.array([-2.0, 3.0])).ravel(), [4.0, 9.0])
    assert mean_from_canonical(fam, np.zeros(1), np.array([3.0]))[0] == pytest.approx(3.0)
    assert covariance_at_mean(fam, np.array([3.0]))[0, 0] == pytest.approx(18.0)


# ---------------------------------------------------------------------------
# potentials against closed-form log-partitions

def test_poisson_log_partition_closed_form():
    fam = poisson_family()
    for beta in (-1.5, 0.0, 0.7):
        got = log_partition_at(fam, np.array([beta]), np.array([2.0]))
        assert got == pytest.approx(2.0 * math.expm1(beta), abs=1e-12)


def test_gamma_log_partition_closed_form():
    fam = gamma_family(3.0)
    m = 1.5
    for beta in (-2.0, 0.0, 1.2):
        got = log_partition_at(fam, np.array([beta]), np.array([m]))
        assert got == pytest.approx(-3.0 * math.log1p(-beta * m / 3.0), rel=1e-10)


def test_negbinom_log_partition_closed_form():
    n, m = 4.0, 2.0
    fam = negbinom_family(n)
    for beta in (-1.0, 0.0, 0.3):
        got = log_partition_at(fam, np.array([beta]), np.array([m]))
        want = -n * math.log1p(-(m / n) * math.expm1(beta))
        assert got == pytest.approx(want, rel=1e-10)


# ---------------------------------------------------------------------------
# abm class: endpoints collapse to the familiar cases

def test_abm_r0_is_poisson():
    assert abm_family(5.0, 0).name == "poisson"


def test_abm_r1_matches_negbinom():
    fam = abm_family(4.0, 1)
    ref = negbinom_family(4.0)
    anchor = np.array([2.0])
    for beta in (-1.0, -0.2, 0.1):
        b = np.array([beta])
        assert log_partition_at(fam, b, anchor) == pytest.approx(
            log_partition_at(ref, b, anchor), rel=1e-10)
    got = fam.carrier_log_density(POINTS, anchor)
    assert np.allclose(got, ref.carrier_log_density(POINTS, anchor), atol=1e-12)


def test_abm_r2_mean_map_consistent_with_variance():
    # d mu / d beta along the canonical line must equal V(mu)
    fam = abm_family(3.0, 2)
    anchor = np.array([2.0])
    beta = np.array([-0.04])
    mu = mean_from_canonical(fam, beta, anchor)
    cov = covariance_at_mean(fam, mu)[0, 0]
    assert cov == pytest.approx(mu[0] * (1.0 + mu[0] / 3.0) ** 2, rel=1e-8)
    check = finite_diff_check(
        lambda b: float(mean_from_canonical(fam, b, anchor)[0]),
        beta, np.array([cov]), kind="gradient", rel_tol=1e-6)
    assert check.passed, check.rel_error


def test_abm_round_trip_far_from_anchor():
    fam = abm_family(3.0, 2)
    anchor = np.array([2.0])
    for m in (0.05, 0.5, 7.0, 40.0):
        beta = canonical_from_mean(fam, np.array([m]), anchor)
        assert mean_from_canonical(fam, beta, anchor)[0] == pytest.approx(m, rel=1e-9)


def test_abm_validates_parameters():
    with pytest.raises(UnsupportedModelError):
        abm_family(-1.0, 1)
    with pytest.raises(UnsupportedModelError):
        abm_family(2.0, 1.5)
    with pytest.raises(UnsupportedModelError):
        abm_family(2.0, -1)
    # Phi and Psi take s ** r, which would raise OverflowError
    with pytest.raises(UnsupportedModelError, match=r"s \*\* r overflows .* s=1e\+300, r=50"):
        abm_family(1e300, 50)


# NaN and +inf passed the old `x <= 0` checks and reached the potentials
@pytest.mark.parametrize("build, name", [
    (lambda v: gamma_family(v), "shape"),
    (lambda v: negbinom_family(v), "successes"),
    (lambda v: abm_family(v, 2), "s"),
    (lambda v: tweedie_family(v, 1.5), "a"),
    (lambda v: inverse_gaussian_family(v), "lam"),
    (lambda v: gaussian_scale_pairing(-3.0, v), "s2"),
    (lambda v: ksample_pairing("gaussian", (0.2, 1.0), sigma2=v), "sigma2"),
    (lambda v: ig_vs_exp_pairing(v, 1.0), "lam"),
    (lambda v: ig_vs_exp_pairing(2.0, v), "mu"),
], ids=["gamma", "negbinom", "abm", "tweedie", "invgauss", "gaussian-scale", "ksample-gaussian",
        "ig-lam", "ig-mu"])
@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
def test_a_parameter_that_is_not_finite_and_positive_is_refused(build, name, value):
    with pytest.raises(UnsupportedModelError, match=f"finite {name} > 0, got {name}={value!r}"):
        build(value)


# ---------------------------------------------------------------------------
# tweedie class: delegation and exclusions

def test_tweedie_delegates_to_named_instances():
    assert tweedie_family(1.0, 1.0).name == "poisson"
    assert tweedie_family(0.5, 2.0).name == "gamma(shape=2)"
    assert tweedie_family(0.25, 3.0).name == "invgauss(lam=4)"


def test_tweedie_rejects_out_of_scope_powers():
    with pytest.raises(UnsupportedModelError):
        tweedie_family(1.0, 0.5)
    with pytest.raises(UnsupportedModelError):
        tweedie_family(1.0, -1.0)
    with pytest.raises(UnsupportedModelError):
        tweedie_family(-1.0, 2.0)


def test_tweedie_intermediate_power_round_trip():
    fam = tweedie_family(0.7, 1.5)
    anchor = np.array([1.3])
    for m in (0.2, 1.0, 6.0):
        beta = canonical_from_mean(fam, np.array([m]), anchor)
        assert mean_from_canonical(fam, beta, anchor)[0] == pytest.approx(m, rel=1e-9)
        assert covariance_at_mean(fam, np.array([m]))[0, 0] == pytest.approx(
            0.7 * m ** 1.5, rel=1e-8)


def test_tweedie_power_one_with_a_scale_round_trip():
    # V(m) = 2 m: Phi(m) = log(m) / 2, not the Poisson the a = 1 case delegates to
    fam = tweedie_family(2.0, 1.0)
    assert fam.name == "tweedie(a=2,power=1)"
    means = np.geomspace(1e-3, 1e3, 61)[:, None]
    anchor = np.full_like(means, 1.5)
    back = mean_from_canonical(fam, canonical_from_mean(fam, means, anchor), anchor)
    assert np.max(np.abs(back - means) / means) <= 1e-15


def test_tweedie_pair_orders_by_coefficient_only_when_powers_match():
    same = tweedie_pair((1.5, 1.4), (1.0, 1.4))
    assert same.null.name.startswith("tweedie") and same.tilted.family.name.startswith("tweedie")
    crossed = tweedie_pair((1.0, 1.2), (1.0, 1.8))
    assert crossed.notes.get("variance_order") == "crosses"
    assert same.notes.get("variance_order") == "dominates"


# ---------------------------------------------------------------------------
# two-sample and k-sample pairings

def test_bernoulli_two_sample_evalue_frozen():
    pair = ksample_pairing("bernoulli", (0.375, 0.625))
    val = simple_evalue(pair.tilted, pair.null, np.array([1.0]), np.array([0.0, 1.0]))
    assert val == pytest.approx(1.5625, abs=1e-12)


def test_bernoulli_two_sample_four_outcome_expectation():
    pair = ksample_pairing("bernoulli", (0.375, 0.625))
    outcomes = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    for mu in (0.1, 0.75, 1.0, 1.5, 1.9):
        p = mu / 2.0
        probs = np.prod(np.where(outcomes > 0.5, p, 1.0 - p), axis=1)
        vals = simple_evalue(pair.tilted, pair.null, np.array([mu]), outcomes)
        total = float(probs @ vals)
        assert total <= 1.0 + 1e-12
        if mu == 1.0:
            # expectation is exactly one at the anchor mean
            assert total == pytest.approx(1.0, abs=1e-12)


def test_poisson_two_sample_expectation_is_one_everywhere():
    pair = ksample_pairing("poisson", (0.5, 1.5))
    n = 60
    grid = np.arange(n, dtype=float)
    u1, u2 = np.meshgrid(grid, grid, indexing="ij")
    outcomes = np.column_stack([u1.ravel(), u2.ravel()])
    for mu in (0.4, 2.0, 6.0):
        lam = mu / 2.0
        probs = np.exp(st.poisson.logpmf(outcomes, lam).sum(axis=1))
        vals = simple_evalue(pair.tilted, pair.null, np.array([mu]), outcomes)
        total = float(probs @ vals)
        # the tilted product has arm rates mu * m_i / sum(m): certify the cutoff
        remainder = sum(poisson_tail_bound(mu * w, n) for w in (0.25, 0.75))
        assert abs(total - 1.0) <= remainder + 1e-10


def test_poisson_two_sample_growth_frozen():
    pair = ksample_pairing("poisson", (0.5, 1.5))
    got = growth_rate(pair.tilted, pair.null, np.array([2.0]))
    assert got == pytest.approx(0.26162407188227393, abs=1e-10)
    closed = sum(1.0 - m + m * math.log(m) for m in (0.5, 1.5))
    assert got == pytest.approx(closed, abs=1e-10)


def test_gaussian_ksample_growth_closed_form():
    means = np.array([0.2, 1.0, 1.8])
    pair = ksample_pairing("gaussian", means, sigma2=0.7)
    got = growth_rate(pair.tilted, pair.null, np.array([means.sum()]))
    want = float(np.sum((means - means.mean()) ** 2) / (2.0 * 0.7))
    assert got == pytest.approx(want, rel=1e-12)


def test_ksample_validates_arm_means():
    with pytest.raises(DomainError):
        ksample_pairing("bernoulli", (0.2, 1.3))
    with pytest.raises(DomainError):
        ksample_pairing("poisson", (-1.0, 2.0))
    with pytest.raises(UnsupportedModelError):
        ksample_pairing("cauchy", (0.1, 0.2))


def test_equal_arm_means_give_unit_evalue():
    pair = ksample_pairing("gaussian", (0.8, 0.8, 0.8))
    rng = np.random.default_rng(3)
    u = rng.normal(size=(20, 3))
    vals = simple_evalue(pair.tilted, pair.null, np.array([2.4]), u)
    assert np.allclose(vals, 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# gaussian location pairings

def test_location_pairing_evalue_matches_density_ratio():
    cov_p = np.array([[2.0, 0.3], [0.3, 1.0]])
    cov_q = np.array([[1.0, 0.1], [0.1, 0.5]])
    pair = gaussian_location_pairing(cov_p, cov_q, [1.0, -0.5])
    rng = np.random.default_rng(0)
    u = rng.normal(size=(50, 2))
    mu = np.array([0.4, 0.2])
    got = simple_evalue(pair.tilted, pair.null, mu, u)
    want = np.exp(st.multivariate_normal(mu, cov_q).logpdf(u)
                  - st.multivariate_normal(mu, cov_p).logpdf(u))
    assert np.allclose(got, want, rtol=1e-10)


def test_location_growth_is_half_trace_term():
    # E_Q log(q/p) for same-mean gaussians: 0.5 (tr(Sp^-1 Sq) - d + log det Sp/det Sq)
    cov_p, cov_q = np.array([[2.0]]), np.array([[0.8]])
    pair = gaussian_location_pairing(cov_p, cov_q, [0.7])
    got = growth_rate(pair.tilted, pair.null, np.array([0.7]))
    want = 0.5 * (0.8 / 2.0 - 1.0 + math.log(2.0 / 0.8))
    assert got == pytest.approx(want, rel=1e-12)


def test_constrained_location_inside_null_is_trivial():
    cov = np.array([[1.0, 0.4, 0.0], [0.4, 2.0, 0.2], [0.0, 0.2, 1.5]])
    pair = gaussian_location_constrained(cov, 1, [0.0, 1.0, -2.0])
    assert pair.notes["alt_in_null"]
    rng = np.random.default_rng(5)
    u = rng.normal(size=(40, 3))
    vals = simple_evalue(pair.tilted, pair.null, pair.tilted.mu_star, u)
    assert np.allclose(vals, 1.0, atol=1e-10)


def test_constrained_location_outside_null_is_nontrivial():
    cov = np.array([[1.0, 0.4], [0.4, 2.0]])
    alt_mean = np.array([0.9, 1.0])
    pair = gaussian_location_constrained(cov, 1, alt_mean)
    assert not pair.notes["alt_in_null"]

    def log_s(u):
        return math.log(simple_evalue(pair.tilted, pair.null, pair.tilted.mu_star,
                                      np.asarray(u, dtype=float)))

    # log S is affine in u: recover the coefficients from four evaluations
    c0 = log_s([0.0, 0.0])
    a = np.array([log_s([1.0, 0.0]) - c0, log_s([0.0, 1.0]) - c0])
    assert log_s([1.0, 1.0]) == pytest.approx(c0 + a.sum(), abs=1e-10)

    # every null member has pinned coordinate mean zero, so E_P[S] = 1 exactly
    prec = np.linalg.inv(cov)
    stat_cov = prec[1:, 1:]
    for nu in (-2.0, 0.0, 3.0):
        u_mean = np.array([0.0, nu])
        log_e = float(a @ u_mean + 0.5 * a @ cov @ a + c0)
        assert log_e == pytest.approx(0.0, abs=1e-10)

    # growth at the anchor is the gaussian kl between matched members
    null_u_mean = np.array([0.0, float(np.linalg.solve(stat_cov, pair.tilted.mu_star)[0])])
    delta = alt_mean - null_u_mean
    want = 0.5 * float(delta @ prec @ delta)
    assert float(a @ alt_mean + c0) == pytest.approx(want, abs=1e-10)
    got = growth_rate(pair.tilted, pair.null, pair.tilted.mu_star)
    assert got == pytest.approx(want, rel=1e-12)


def test_constrained_location_validates_block():
    cov = np.eye(2)
    with pytest.raises(UnsupportedModelError):
        gaussian_location_constrained(cov, 0, [0.0, 1.0])
    with pytest.raises(UnsupportedModelError):
        gaussian_location_constrained(cov, 2, [0.0, 1.0])


# ---------------------------------------------------------------------------
# gaussian scale pairing

def test_scale_pairing_member_moment_identity():
    # null variance at the tilted member's mean always dominates: 2 E^2 >= var
    pair = gaussian_scale_pairing(-3.0, 9.0)
    c = 1.0 / 18.0
    for beta in np.linspace(-4.0, c * 0.98, 50):
        t = c - beta
        e = (c * -3.0 / t) ** 2 + 1.0 / (2.0 * t)
        var = (t + 4.0 * c * c * 9.0) / (2.0 * t ** 3)
        assert 2.0 * e * e - var >= -1e-9 * max(1.0, var)
        mu = mean_from_canonical(pair.tilted.family, np.array([beta]), pair.tilted.mu_star)
        assert mu[0] == pytest.approx(e, rel=1e-9)
        assert covariance_at_mean(pair.tilted.family, mu)[0, 0] == pytest.approx(var, rel=1e-7)


def test_scale_pairing_centered_alternative_is_trivial():
    pair = gaussian_scale_pairing(0.0, 4.0)
    u = np.array([-3.0, 0.0, 2.5])
    vals = simple_evalue(pair.tilted, pair.null, np.array([4.0]), u)
    assert np.allclose(vals, 1.0, atol=1e-12)


def test_scale_pairing_growth_matches_quadrature_kl():
    pair = gaussian_scale_pairing(-3.0, 9.0)
    got = growth_rate(pair.tilted, pair.null, np.array([18.0]))
    # KL( N(-3, 9) || N(0, 18) ) in closed form
    want = 0.5 * (math.log(18.0 / 9.0) + 9.0 / 18.0 + 9.0 / 18.0 - 1.0)
    assert got == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# overdispersed counts vs poisson

def test_negbinom_vs_poisson_expectation_below_one():
    pair = negbinom_vs_poisson(4.0, 2.0)
    pts = np.arange(0.0, 200.0)
    for mu in (0.5, 2.0, 5.0):
        probs = np.exp(pair.null.carrier_log_density(pts, np.array([mu])))
        vals = simple_evalue(pair.tilted, pair.null, np.array([mu]), pts)
        total = float(probs @ vals)
        assert total <= 1.0 + 1e-10
    # strictly below one away from limiting cases
    assert total < 1.0


def test_abm_vs_poisson_names_both_sides():
    pair = abm_vs_poisson(3.0, 2, 1.5)
    assert pair.null.name == "abm(s=3,r=2)"
    assert pair.tilted.family.name == "poisson"
    assert pair.tilted.mu_star[0] == 1.5


# ---------------------------------------------------------------------------
# inverse gaussian alternative against the exponential null

def test_ig_thresholds_frozen():
    assert ig_divergence_threshold(2.0, 1.2) == pytest.approx(7.2, abs=1e-12)
    assert ig_divergence_threshold(2.0, 1.5) == pytest.approx(4.5, abs=1e-12)
    assert ig_divergence_threshold(2.0, 1.8) == pytest.approx(4.05, abs=1e-12)
    assert ig_divergence_threshold(2.0, 0.8) == math.inf
    # 2 mu^2 underflows to 0 below mu ~ 1e-154, which divided by zero
    assert ig_divergence_threshold(2.5, 1e-300) == math.inf
    assert ig_divergence_threshold(1e-300, 1e-300) == pytest.approx(2e-300, rel=1e-15)


def test_ig_regimes():
    assert ig_regime(2.0, 0.8) == "local-all-finite"
    assert ig_regime(2.0, 1.5) == "local-not-global"
    assert ig_regime(2.0, 2.5) == "not-local"


def test_ig_pairing_carries_regime_notes():
    pair = ig_vs_exp_pairing(2.0, 1.5)
    assert pair.notes["regime"] == "local-not-global"
    assert pair.notes["divergence_threshold"] == pytest.approx(4.5)
    with pytest.raises(UnsupportedModelError):
        ig_vs_exp_pairing(-1.0, 1.0)


def test_ig_expectation_splits_at_threshold():
    # E_{P_mu'}[S] by quadrature: finite below 4.5, divergent above
    from evfam.oracles import expect_quadrature

    pair = ig_vs_exp_pairing(2.0, 1.5)
    mu = np.array([1.5])

    def make_density(mu_prime):
        def weighted(u):
            arr = np.asarray(u, dtype=float)
            log_p = np.asarray(pair.null.carrier_log_density(arr, np.array([mu_prime])))
            log_q = np.asarray(pair.tilted.family.carrier_log_density(arr, mu))
            log_p0 = np.asarray(pair.null.carrier_log_density(arr, mu))
            with np.errstate(over="ignore"):
                return np.exp(log_p + log_q - log_p0)
        return weighted

    below = expect_quadrature(make_density(4.0), lambda u: np.ones_like(u),
                              "positive-line", center=4.0, scale=4.0)
    assert not below.diverged and np.isfinite(below.value)
    # finite does not mean valid: the covariance ordering already failed here
    assert below.value > 1.0
    above = expect_quadrature(make_density(5.0), lambda u: np.ones_like(u),
                              "positive-line", center=5.0, scale=5.0)
    assert above.diverged



# ---------------------------------------------------------------------------
# declared observation laws

LAW_DESIGN = LinearModelDesign(np.random.default_rng(11).normal(size=(12, 3)))

# pairing, and three means inside both of its mean spaces
LAW_PAIRINGS = {
    "ksample-poisson": (lambda: ksample_pairing("poisson", (0.5, 1.0, 1.5)), [[1.0], [3.0], [7.5]]),
    "ksample-gaussian": (lambda: ksample_pairing("gaussian", (0.2, 1.0, 1.8), sigma2=0.7),
                         [[-2.0], [3.0], [5.5]]),
    "ksample-bernoulli": (lambda: ksample_pairing("bernoulli", (0.3, 0.5, 0.7)),
                          [[0.4], [1.5], [2.7]]),
    "gaussian-location": (lambda: gaussian_location_pairing([[2.0, 0.3], [0.3, 1.0]],
                                                            [[1.0, 0.1], [0.1, 0.5]], [1.0, -0.5]),
                          [[1.0, -0.5], [0.0, 0.0], [-3.0, 2.0]]),
    "gaussian-location-constrained": (
        lambda: gaussian_location_constrained([[1.0, 0.4], [0.4, 2.0]], 1, [0.9, 1.0]),
        [[0.1], [1.2], [-2.0]]),
    "gaussian-scale": (lambda: gaussian_scale_pairing(-3.0, 9.0), [[0.5], [18.0], [60.0]]),
    "linmodel": (lambda: linmodel_pairing(LAW_DESIGN, 0.8, [0.5, -0.3, 0.2]), None),
    # scalar NEFs: Poisson, negative binomial (also as abm r=1), gamma and
    # inverse Gaussian laws; the count pairings take a lattice sum
    "negbinom-vs-poisson": (lambda: negbinom_vs_poisson(4.0, 2.0), [[0.6], [2.0], [7.5]]),
    "abm-r1-vs-poisson": (lambda: abm_vs_poisson(3.0, 1, 2.0), [[0.6], [2.0], [7.5]]),
    "ig-vs-exp": (lambda: ig_vs_exp_pairing(2.0, 0.8), [[0.3], [0.8], [1.5]]),
    "tweedie-gamma": (lambda: tweedie_pair((1.0, 2.0), (0.5, 2.0)), [[0.3], [1.0], [4.0]]),
}


def _law_pairing(key):
    build, means = LAW_PAIRINGS[key]
    pair = build()
    if means is None:  # raising the first coordinate stays inside the linmodel mean space
        means = [pair.tilted.mu_star * np.array([f, 1.0, 1.0]) for f in (1.0, 1.5, 3.0)]
    return pair, [np.asarray(m, dtype=float) for m in means]


def _scipy_law(law):
    """A law tuple as a frozen scipy.stats distribution (arms as a vector of them)."""
    kind, *params = law
    if kind == "normal":
        return st.multivariate_normal(*params)
    if kind == "poisson":
        return st.poisson(params[0])
    if kind == "bernoulli":
        return st.bernoulli(params[0])
    if kind == "negbinom":
        n, mean = params
        return st.nbinom(n, n / (n + mean))
    if kind == "gamma":
        shape, mean = params
        return st.gamma(a=shape, scale=mean / shape)
    assert kind == "inverse-gaussian"
    mean, lam = params
    return st.invgauss(mu=mean / lam, scale=lam)


def _law_log_density(law, u):
    dist = _scipy_law(law)
    if law[0] == "normal":
        return dist.logpdf(u.reshape(len(u), -1))
    logs = dist.logpmf(u) if law[0] in ("poisson", "bernoulli", "negbinom") else dist.logpdf(u)
    return logs.reshape(len(u), -1).sum(axis=1)  # independent arms add


def _law_draws(law, n, element_ndim, rng):
    """n elements from the law: one row of arms each when the elements are vectors."""
    size = (n, len(law[1])) if element_ndim and law[0] != "normal" else n
    return np.asarray(_scipy_law(law).rvs(size=size, random_state=rng), dtype=float)


@pytest.mark.parametrize("side", ["null", "alternative"])
@pytest.mark.parametrize("key", sorted(LAW_PAIRINGS))
def test_each_declared_law_is_its_members_carrier(key, side):
    pair, means = _law_pairing(key)
    fam = pair.null if side == "null" else pair.tilted.family
    rng = np.random.default_rng(5)
    for mu in means:
        law = fam.law(mu)
        u = _law_draws(law, 20, fam.element_ndim, rng)
        want = _law_log_density(law, u)
        assert np.allclose(fam.carrier_log_density(u, mu), want, rtol=1e-12, atol=0.0), mu


# (arm means, sample points) of each k-sample kind: the whole Bernoulli cube,
# a corner of the Poisson lattice, and fixed real vectors for the normal arms
KSAMPLE_TILT_CASES = {
    "poisson": ((0.5, 1.0, 1.5), np.indices((4, 4, 4)).reshape(3, -1).T),
    "bernoulli": ((0.3, 0.5, 0.7), np.indices((2, 2, 2)).reshape(3, -1).T),
    "gaussian": ((0.2, 1.0, 1.8), np.random.default_rng(19).normal(1.0, 2.0, (20, 3))),
}


@pytest.mark.parametrize("side", ["null", "alternative"])
@pytest.mark.parametrize("kind", sorted(KSAMPLE_TILT_CASES))
def test_ksample_tilt_by_the_total_is_the_law_at_the_tilted_mean(kind, side):
    # the k-sample families tilt the sample space by the arm total (their suff_stat);
    # the member (beta; mu_star) must be the declared law at its own mean
    arm_means, u = KSAMPLE_TILT_CASES[kind]
    pair = ksample_pairing(kind, arm_means)
    fam = pair.null if side == "null" else pair.tilted.family
    mu_star = pair.tilted.mu_star
    for beta in (-0.7, 0.0, 0.4):
        b = np.array([beta])
        want = law_log_density(fam.law(mean_from_canonical(fam, b, mu_star)), u)
        np.testing.assert_allclose(log_density(fam, b, mu_star, u), want, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("key", sorted(LAW_PAIRINGS))
def test_growth_is_the_kl_of_the_declared_laws(key):
    pair, means = _law_pairing(key)
    for mu in means:
        want = law_kl(pair.tilted.family.law(mu), pair.null.law(mu))
        assert growth_rate(pair.tilted, pair.null, mu) == want


def _kl_from_log_densities(log_q, log_p):
    return float(np.exp(log_q) @ (log_q - log_p))


@pytest.mark.parametrize("mu", [1.0, 3.0, 7.5])
def test_poisson_law_kl_matches_the_lattice_sum(mu):
    pair = ksample_pairing("poisson", (0.5, 1.0, 1.5))
    q, p = pair.tilted.family.law(np.array([mu])), pair.null.law(np.array([mu]))
    u = np.indices((40, 40, 40)).reshape(3, -1).T
    got = law_kl(q, p)
    want = _kl_from_log_densities(st.poisson.logpmf(u, q[1]).sum(axis=1),
                                  st.poisson.logpmf(u, p[1]).sum(axis=1))
    assert got == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("mu", [0.4, 1.5, 2.7])
def test_bernoulli_law_kl_matches_enumeration(mu):
    pair = ksample_pairing("bernoulli", (0.3, 0.5, 0.7))
    q, p = pair.tilted.family.law(np.array([mu])), pair.null.law(np.array([mu]))
    u = np.indices((2, 2, 2)).reshape(3, -1).T
    want = _kl_from_log_densities(st.bernoulli.logpmf(u, q[1]).sum(axis=1),
                                  st.bernoulli.logpmf(u, p[1]).sum(axis=1))
    assert law_kl(q, p) == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("mu", [0.5, 18.0, 60.0])
def test_gaussian_scale_law_kl_matches_quadrature(mu):
    from scipy.integrate import quad

    pair = gaussian_scale_pairing(-3.0, 9.0)
    q, p = pair.tilted.family.law(np.array([mu])), pair.null.law(np.array([mu]))
    assert np.ndim(q[2]) == np.ndim(p[2]) == 0  # both laws declare a scalar variance
    alt = st.norm(q[1][0], math.sqrt(q[2]))
    null = st.norm(0.0, math.sqrt(p[2]))
    want, _ = quad(lambda x: alt.pdf(x) * (alt.logpdf(x) - null.logpdf(x)), -np.inf, np.inf,
                   epsabs=1e-14, epsrel=1e-12, limit=200)
    assert law_kl(q, p) == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("q, p", [
    (("poisson", np.ones(2)), ("normal", np.zeros(2), np.eye(2))),
    (("gamma", 1.0, 1.0), ("poisson", np.ones(1))),
    (("poisson", np.ones(1)), ("gamma", 1.0, 1.0)),
], ids=["poisson-normal", "gamma-poisson", "poisson-gamma"])
def test_law_kl_of_laws_on_different_sample_spaces_is_refused(q, p):
    with pytest.raises(UnsupportedModelError,
                       match=f"between a {q[0]} alternative law and a {p[0]} null law"):
        law_kl(q, p)


# linmodel declares sigma2 I by its variance: the KL takes O(n d) work and agrees
# with the Cholesky route on the dense matrices
@pytest.mark.parametrize("rows", [20, 200, 2000])
def test_isotropic_normal_law_kl_matches_the_dense_route(rows):
    rng = np.random.default_rng(rows)
    pair = linmodel_pairing(LinearModelDesign(rng.normal(size=(rows, 3))), 0.8,
                            rng.normal(size=3))
    mu = pair.tilted.mu_star * np.array([1.5, 1.0, 1.0])
    q, p = pair.tilted.family.law(mu), pair.null.law(mu)
    assert np.ndim(q[2]) == np.ndim(p[2]) == 0
    dense = law_kl((*q[:2], q[2] * np.eye(rows)), (*p[:2], p[2] * np.eye(rows)))
    start = time.perf_counter()
    got = growth_rate(pair.tilted, pair.null, mu)
    elapsed = time.perf_counter() - start
    assert got == pytest.approx(dense, rel=1e-12, abs=0.0)
    assert elapsed < 0.02


# ---------------------------------------------------------------------------
# carriers pinned bit for bit

# family, fixed sample points and means; the values were recorded as int64 bit
# patterns (tests/law_pins.json) before the catalog derived its carriers from
# the declared laws
def _pin_cases():
    kp = ksample_pairing("poisson", (0.5, 1.0, 1.5))
    kg = ksample_pairing("gaussian", (0.2, 1.0, 1.8), sigma2=0.7)
    kb = ksample_pairing("bernoulli", (0.3, 0.5, 0.7))
    loc = gaussian_location_pairing([[2.0, 0.3], [0.3, 1.0]], [[1.0, 0.1], [0.1, 0.5]], [1.0, -0.5])
    con = gaussian_location_constrained([[1.0, 0.4], [0.4, 2.0]], 1, [0.9, 1.0])
    scale = gaussian_scale_pairing(-3.0, 9.0)
    lin = linmodel_pairing(LAW_DESIGN, 0.8, [0.5, -0.3, 0.2])
    counts, positive = np.arange(6.0), np.array([0.2, 1.0, 3.7, 9.0])
    reals = np.array([-2.0, -0.3, 0.0, 1.1, 4.0])
    arm_counts = np.array([[0.0, 1.0, 2.0], [3.0, 0.0, 1.0], [1.0, 1.0, 1.0], [5.0, 2.0, 0.0]])
    arm_reals = np.array([[-1.2, 0.3, 2.0], [0.5, 0.5, -0.4], [3.1, -2.2, 0.9]])
    plane = np.array([[0.3, -1.0], [2.0, 0.5], [-1.5, 1.5]])
    lin_means = [lin.tilted.mu_star * np.array([f, 1.0, 1.0]) for f in (1.0, 1.5)]
    return {
        "poisson": (poisson_family(), counts, [[0.7], [2.3]]),
        "gamma": (gamma_family(2.5), positive, [[0.5], [1.8]]),
        "negbinom": (negbinom_family(4.0), counts, [[0.6], [2.6]]),
        "abm-r1": (abm_family(3.0, 1), counts, [[0.6], [2.6]]),
        "invgauss": (inverse_gaussian_family(1.7), positive, [[0.5], [1.4]]),
        "gaussian-scale-null": (scale.null, reals, [[0.5], [18.0]]),
        "gaussian-scale-alt": (scale.tilted.family, reals, [[0.5], [18.0]]),
        "ksample-poisson-null": (kp.null, arm_counts, [[1.0], [3.0]]),
        "ksample-poisson-alt": (kp.tilted.family, arm_counts, [[1.0], [3.0]]),
        "ksample-gaussian-null": (kg.null, arm_reals, [[-2.0], [3.0]]),
        "ksample-gaussian-alt": (kg.tilted.family, arm_reals, [[-2.0], [3.0]]),
        "ksample-bernoulli-null": (kb.null, np.indices((2, 2, 2)).reshape(3, -1).T.astype(float),
                                   [[0.4], [1.5]]),
        "ksample-bernoulli-alt": (kb.tilted.family, np.indices((2, 2, 2)).reshape(3, -1).T.astype(float),
                                  [[0.4], [1.5]]),
        "gaussian-location-null": (loc.null, plane, [[1.0, -0.5], [0.0, 0.0]]),
        "gaussian-location-alt": (loc.tilted.family, plane, [[1.0, -0.5], [0.0, 0.0]]),
        "gaussian-constrained-null": (con.null, plane, [[0.1], [1.2]]),
        "gaussian-constrained-alt": (con.tilted.family, plane, [[0.1], [1.2]]),
        "linmodel-null": (lin.null, np.random.default_rng(3).normal(size=(3, 12)), lin_means),
        "linmodel-alt": (lin.tilted.family, np.random.default_rng(3).normal(size=(3, 12)), lin_means),
    }


def _pinned_carrier(fam, points, means) -> np.ndarray:
    """Carrier values at ``points`` for each mean, flattened."""
    return np.concatenate([np.asarray(fam.carrier_log_density(points, np.asarray(mu, dtype=float)),
                                      dtype=float).ravel() for mu in means])


PINS_PATH = Path(__file__).with_name("law_pins.json")
# moved at round-off when their densities became the law's: the Bernoulli
# alternative left its root-carrier route, the scale alternative too, and
# linmodel sums per element where it took one aggregate log
ROUNDOFF_CARRIERS = {"ksample-bernoulli-alt", "gaussian-scale-alt", "linmodel-null", "linmodel-alt"}


@pytest.mark.parametrize("key", sorted(_pin_cases()))
def test_law_derived_carriers_and_samplers_keep_their_pinned_bits(key):
    pins = json.loads(PINS_PATH.read_text())[key]["carrier"]
    got = _pinned_carrier(*_pin_cases()[key])
    if key in ROUNDOFF_CARRIERS:
        want = np.array(pins, dtype=np.int64).view(np.float64)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    else:
        assert got.view(np.int64).tolist() == pins


# ---------------------------------------------------------------------------
# the law table

def test_a_declared_law_is_the_only_source_of_density_and_sampler():
    fam = poisson_family()
    with pytest.raises(ValueError, match="takes its density from it"):
        dataclasses.replace(fam, carrier_log_density=lambda u, anchor: u)
    # replace hands the derived carrier back; it is re-derived, not refused
    renamed = dataclasses.replace(fam, name="counts")
    mu = np.array([2.3])
    assert renamed.carrier_log_density(POINTS, mu).tolist() == fam.carrier_log_density(POINTS, mu).tolist()


# KL(Q || P) by mpmath quadrature at 30 digits, rounded to double; the gamma
# pair at shapes (2, 1) is ln 2 - euler_gamma, the inverse Gaussian pair
# (lam_p / lam_q = r) is [r - 1 - ln r] / 2, and a gamma law of shape <= 1
# against an inverse Gaussian one has E_q[1 / X] = inf
@pytest.mark.parametrize("q, p, want", [
    (("inverse-gaussian", 0.8, 2.0), ("gamma", 1.0, 0.8), 0.29484009715950309),
    (("inverse-gaussian", 1.0, 2.0), ("gamma", 2.0, 1.0), 0.057204820708048877),
    (("inverse-gaussian", 1.0, 1.0), ("gamma", 1.0, 1.0), 0.12305439212766114),
    (("gamma", 4.0, 1.0), ("inverse-gaussian", 1.0, 1.0), 0.25322805802644123),
    (("gamma", 1.0, 1.0), ("inverse-gaussian", 1.0, 1.0), math.inf),
    (("gamma", 0.5, 1.0), ("inverse-gaussian", 1.0, 1.0), math.inf),
    (("gamma", 2.0, 1.0), ("gamma", 1.0, 1.0), math.log(2.0) - np.euler_gamma),
    (("gamma", 0.5, 2.0), ("gamma", 3.0, 2.0), 2.1542788950046387),
    (("inverse-gaussian", 1.3, 2.0), ("inverse-gaussian", 1.3, 0.5), 0.31814718055994531),
], ids=["ig-exp", "ig-gamma2", "ig-exp-x2", "gamma4-ig", "gamma1-ig", "gamma-half-ig",
        "gamma2-gamma1", "gamma-half-gamma3", "ig-ig"])
def test_law_kl_closed_forms_match_high_precision_quadrature(q, p, want):
    assert law_kl(q, p) == pytest.approx(want, rel=1e-14, abs=0.0)


def test_scaled_exp1_matches_the_product_and_the_asymptotic_series():
    xs = np.concatenate([np.linspace(0.01, 700.0, 2801), [49.999, 50.0, 50.001]])
    got = np.array([_scaled_exp1(x) for x in xs])
    np.testing.assert_allclose(got, np.exp(xs) * exp1(xs), rtol=1e-14, atol=0.0)
    for x in (1e3, 1e4, 1e8, 1e300):
        term, series = 1.0 / x, 0.0
        for n in range(1, 12):  # (-1)^m m! / x^(m+1) for m < 11; the first omitted term is below 1e-28
            series += term
            term *= -n / x
        assert _scaled_exp1(x) == pytest.approx(series, rel=1e-15, abs=0.0)


def test_gamma_pair_growth_is_ln_2_minus_euler_gamma():
    pair = tweedie_pair((1.0, 2.0), (0.5, 2.0))
    assert growth_rate(pair.tilted, pair.null, pair.tilted.mu_star) == math.log(2.0) - np.euler_gamma
