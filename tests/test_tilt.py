"""Tilted-family construction routes and the log-partition gap."""

from __future__ import annotations

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import gammaln, logsumexp, xlogy

from evfam import tilt
from evfam.conditions import check_sigma_ordering, run_condition_battery, simple_log_evalue
from evfam.domains import DomainDescriptor
from evfam.errors import DomainError, UnsupportedModelError
from evfam.families import (
    canonical_from_mean,
    covariance_at_canonical,
    covariance_at_mean,
    kl_between_means,
    log_partition_at,
    mean_from_canonical,
)
from evfam.models import (
    gaussian_location_family,
    gaussian_scale_family,
    gaussian_scale_pairing,
    ig_vs_exp_pairing,
    negbinom_family,
    negbinom_vs_poisson,
    nef_pairing,
    poisson_family,
)
from evfam.oracles import finite_diff_check
from evfam.tilt import (
    CarrierAlternative,
    TiltedFamily,
    _row_logsumexp,
    build_tilted_family,
    f_gap_info,
)


def _normal_carrier(with_mgf: bool, with_mean: bool = True) -> CarrierAlternative:
    m, s2 = -3.0, 9.0
    c = 1.0 / (2.0 * s2)

    def mgf_log(beta):
        b = float(beta[0])
        if b >= c:
            return float("inf")
        t = c - b
        return -0.5 * np.log(2.0 * s2 * t) + m * m * b / (2.0 * s2 * t)

    return CarrierAlternative(
        name="normal(-3,9)",
        log_density=lambda u: -0.5 * ((np.asarray(u) - m) ** 2 / s2
                                      + np.log(2.0 * np.pi * s2)),
        mean_of_suff_stat=np.array([s2 + m * m]) if with_mean else None,
        mgf_log=mgf_log if with_mgf else None,
        sampler=lambda n, rng: rng.normal(m, np.sqrt(s2), n),
    )


def test_catalog_pairing_holds_its_alternative_family():
    pair = negbinom_vs_poisson(4.0, 2.0)
    assert pair.tilted.family.name == "poisson"
    assert not pair.tilted.stochastic
    assert pair.tilted.mu_star[0] == 2.0


def test_mgf_route_matches_closed_forms():
    null = gaussian_scale_family()
    tilted = build_tilted_family(null, _normal_carrier(with_mgf=True))
    assert not tilted.family.stochastic
    assert tilted.mu_star[0] == pytest.approx(18.0)
    # member covariance at the anchor against the closed pairing formula
    c = 1.0 / 18.0
    t = c
    expected = (4.0 * c * c * 9.0 + t) / (2.0 * t ** 3)
    # the route differentiates the log-mgf numerically
    got = covariance_at_mean(tilted.family, np.array([18.0]))[0, 0]
    assert got == pytest.approx(expected, rel=1e-4)


def test_mgf_route_discovers_canonical_boundary():
    null = gaussian_scale_family()
    tilted = build_tilted_family(null, _normal_carrier(with_mgf=True))
    upper = tilted.family.canonical_domain(np.array([18.0])).upper[0]
    assert upper == pytest.approx(1.0 / 18.0, rel=1e-5)


def test_monte_carlo_route_is_flagged_and_close():
    null = gaussian_scale_family()
    tilted = build_tilted_family(null, _normal_carrier(with_mgf=False, with_mean=False),
                                 mc_samples=200_000, seed=1)
    assert tilted.stochastic and tilted.family.stochastic
    assert tilted.mu_star[0] == pytest.approx(18.0, rel=0.02)
    got = covariance_at_mean(tilted.family, tilted.mu_star)[0, 0]
    c = 1.0 / 18.0
    expected = (4.0 * c * c * 9.0 + c) / (2.0 * c ** 3)
    assert got == pytest.approx(expected, rel=0.05)


def test_monte_carlo_route_is_reproducible():
    null = gaussian_scale_family()
    carrier = _normal_carrier(with_mgf=False, with_mean=False)
    t1 = build_tilted_family(null, carrier, mc_samples=20_000, seed=9)
    t2 = build_tilted_family(null, carrier, mc_samples=20_000, seed=9)
    assert np.array_equal(t1.mu_star, t2.mu_star)


def _skewed_pair_family(mc_samples: int = 3000):
    """Sampler-route family over a 2-d statistic: gamma and correlated normal coordinates."""
    def sampler(n, rng):
        g = rng.gamma(3.0, 0.5, n)
        return np.column_stack([g, rng.normal(0.0, 1.0, n) + 0.4 * g])

    carrier = CarrierAlternative(name="skewed pair", log_density=None,
                                 mean_of_suff_stat=np.array([1.5, 0.6]), sampler=sampler)
    return build_tilted_family(gaussian_location_family(np.eye(2)), carrier,
                               mc_samples=mc_samples, seed=5)


def test_monte_carlo_route_in_two_dimensions_is_pinned():
    # values of the Monte Carlo route at dimension 2, where the log-weights are one
    # matrix-vector product per row and 3000 draws put ten rows in each chunk
    tilted = _skewed_pair_family()
    fam, anchor = tilted.family, tilted.mu_star
    np.testing.assert_array_equal(anchor, [1.4999608336811665, 0.5980769932123335])
    betas = np.array([[0.0, 0.0], [0.3, -0.2], [-0.5, 0.4], [0.2, 0.25]])
    mus = np.array([[1.2, 0.3], [1.8, 1.0], [1.4, 0.9]])
    pinned = [
        (log_partition_at(fam, betas, anchor),
         [0.0, 0.3715072378790456, -0.3868264850709746, 0.5231708038903111]),
        (mean_from_canonical(fam, betas, anchor),
         [[1.499960833681166, 0.5980769932123342], [1.6943788832217495, 0.4695530394619701],
          [1.2760285152737205, 0.9295189927647893], [1.793075615302193, 0.9813978714609914]]),
        (covariance_at_canonical(fam, betas, anchor),
         [[[0.780764897983724, 0.3170566757283838], [0.3170566757283838, 1.1721333433520993]],
          [[1.0196710424754034, 0.42177751309323464], [0.42177751309323464, 1.2135735435319313]],
          [[0.5580013520723135, 0.2190460295507364], [0.2190460295507364, 1.1497715023709154]],
          [[1.220923298617246, 0.5183558589028698], [0.5183558589028698, 1.2712277645497463]]]),
        (canonical_from_mean(fam, mus, anchor),
         [[-0.41840741724536684, -0.1702344654445893], [0.1993093148633411, 0.2648968630249892],
          [-0.26890137750292614, 0.32588387451590234]]),
        (canonical_from_mean(fam, mus, np.array([1.3, 0.5])),
         [[-0.12654923659381873, -0.1535812693916787], [0.4911674917214692, 0.28155005904204544],
          [0.02295679905154959, 0.3425370705518374]]),
    ]
    for got, want in pinned:
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def _scale_family_at_20k():
    tilted = build_tilted_family(gaussian_scale_family(), _normal_carrier(with_mgf=False),
                                 mc_samples=20_000, seed=7)
    return tilted.family, tilted.mu_star


SCALE_BETAS = np.linspace(-0.02, 0.02, 512)[:, None]


@pytest.mark.parametrize("op", [mean_from_canonical, covariance_at_canonical, log_partition_at])
def test_monte_carlo_memory_stays_bounded(op):
    fam, anchor = _scale_family_at_20k()
    op(fam, SCALE_BETAS[:1], anchor)                    # solve the anchor outside the trace
    tracemalloc.start()
    try:
        op(fam, SCALE_BETAS, anchor)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 512 rows of 20 000 weights would take 82 MB; chunks keep a pass near 1 MB
    assert peak < 4 * 2 ** 20


def test_monte_carlo_covariance_reuses_the_mean_pass(monkeypatch):
    fam, anchor = _scale_family_at_20k()
    fresh = covariance_at_canonical(fam, SCALE_BETAS[:40], anchor)
    fam, anchor = _scale_family_at_20k()
    log_partition_at(fam, SCALE_BETAS[:1], anchor)     # solve the anchor first
    passes = []
    monkeypatch.setattr(tilt, "_row_logsumexp",
                        lambda w: passes.append(len(w)) or _row_logsumexp(w))
    mean_from_canonical(fam, SCALE_BETAS[:40], anchor)
    assert sum(passes) == 39                            # the log-partition evaluated row 0
    passes.clear()
    np.testing.assert_array_equal(covariance_at_canonical(fam, SCALE_BETAS[:40], anchor), fresh)
    # the family keeps every evaluated row: asking again, by any moment, makes no weight pass
    for op in (covariance_at_canonical, mean_from_canonical, log_partition_at):
        op(fam, SCALE_BETAS[:40], anchor)
    assert passes == []


def test_monte_carlo_memo_rows_are_the_rows_of_a_fresh_family():
    # 300 draws put 109 rows in a chunk, so one request for all rows evaluates
    # each row among other neighbours than overlapping and one-row requests do
    betas = np.column_stack([np.linspace(-0.4, 0.4, 240), np.linspace(0.3, -0.3, 240) ** 3])
    ops = (log_partition_at, mean_from_canonical, covariance_at_canonical)
    fresh = _skewed_pair_family(300)
    want = [op(fresh.family, betas, fresh.mu_star) for op in ops]

    tilted = _skewed_pair_family(300)
    fam, anchor = tilted.family, tilted.mu_star
    for beta in betas[:40:3]:
        log_partition_at(fam, beta, anchor)
    mean_from_canonical(fam, betas[:50], anchor)
    log_partition_at(fam, betas[30:170:3], anchor)
    covariance_at_canonical(fam, betas[::-7], anchor)
    mean_from_canonical(fam, betas[100:], anchor)
    for op, expected in zip(ops, want):
        np.testing.assert_array_equal(op(fam, betas, anchor), expected)


def _logsumexp_rows() -> list[np.ndarray]:
    rng = np.random.default_rng(3)
    chunks = []
    for shape in [(40, 500), (65, 503), (3, 20_000), (200, 3)]:
        w = rng.normal(scale=30.0, size=shape)
        w[::3, 1] = w[::3].max(axis=1)                  # ties at the row maximum
        chunks.append(w)
    edge = rng.normal(size=(8, 10))
    edge[0, 2] = np.inf
    edge[1] = -np.inf
    edge[2, 3] = np.nan
    edge[3] = 1.0                                       # every entry ties
    edge[4, [1, 6]] = -np.inf
    edge[5, [1, 4]] = np.inf
    edge[6, 0] = 800.0                                  # exp would overflow
    edge[7, 0] = -np.inf
    edge[7, 1] = np.inf
    chunks.append(edge)
    return chunks


@pytest.mark.parametrize("chunk", range(5))
def test_row_logsumexp_is_scipy_bit_for_bit(chunk):
    w = _logsumexp_rows()[chunk]
    got = _row_logsumexp(w)
    want = np.array([logsumexp(row) for row in w])
    assert got.shape == (w.shape[0],)
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


def test_row_logsumexp_of_an_all_minus_inf_row_is_minus_inf():
    got = _row_logsumexp(np.array([[-np.inf, -np.inf], [0.0, 0.0]]))
    assert got[0] == -np.inf and got[1] == math.log(2.0)


def test_mgf_route_kl_reuses_the_pairing_solves():
    evaluated = []

    def mgf_log(beta):
        evaluated.append(float(beta[0]))
        return 2.0 * math.expm1(float(beta[0]))

    carrier = CarrierAlternative(name="poisson(2) by log-mgf", log_density=None,
                                 mean_of_suff_stat=np.array([2.0]), mgf_log=mgf_log)
    fam = build_tilted_family(poisson_family(), carrier).family
    rng = np.random.default_rng(5)
    mu, mu_prime = rng.uniform(0.5, 4.0, (16, 1)), rng.uniform(0.5, 4.0, (16, 1))
    beta = canonical_from_mean(fam, mu, mu_prime)
    evaluated.clear()
    kl = kl_between_means(fam, mu, mu_prime)
    # only the log-partition: K(beta + gamma(mu')) and K(gamma(mu')) per pair,
    # no Newton steps and no finite-difference stencils
    assert len(evaluated) == 2 * len(mu)
    assert np.array_equal(canonical_from_mean(fam, mu, mu_prime), beta)
    np.testing.assert_allclose(kl, (mu * np.log(mu / mu_prime) - mu + mu_prime)[:, 0], rtol=1e-6)


def test_route_requires_some_description():
    null = poisson_family()
    bare = CarrierAlternative(name="bare", log_density=lambda u: np.zeros_like(u),
                              mean_of_suff_stat=None, mgf_log=None, sampler=None)
    with pytest.raises(UnsupportedModelError):
        build_tilted_family(null, bare)


def _gap_gradient(pair, beta, anchor):
    """The gap's gradient: tilted-member mean minus null-member mean."""
    return (mean_from_canonical(pair.tilted.family, beta, anchor)
            - mean_from_canonical(pair.null, beta, anchor))


def test_gap_vanishes_at_zero_tilt():
    pair = gaussian_scale_pairing(-3.0, 9.0)
    anchor = pair.tilted.mu_star
    assert f_gap_info(pair.null, pair.tilted, np.zeros(1), anchor)[0] == pytest.approx(0.0, abs=1e-12)
    grad = _gap_gradient(pair, np.zeros(1), anchor)
    assert np.allclose(grad, 0.0, atol=1e-9)


def test_gap_gradient_matches_finite_difference():
    pair = gaussian_scale_pairing(-3.0, 9.0)
    anchor = pair.tilted.mu_star
    beta = np.array([0.01])
    grad = _gap_gradient(pair, beta, anchor)
    check = finite_diff_check(
        lambda b: f_gap_info(pair.null, pair.tilted, b, anchor)[0], beta, grad, kind="gradient")
    assert check.passed, check.rel_error


def test_gap_nonpositive_for_certified_pairing():
    pair = negbinom_vs_poisson(4.0, 2.0)
    anchor = np.array([2.0])
    upper = pair.null.canonical_domain(anchor).upper[0]
    for b in np.linspace(-8.0, upper * 0.999, 40):
        assert f_gap_info(pair.null, pair.tilted, np.array([b]), anchor)[0] <= 1e-10


def test_gap_info_tags_the_out_of_domain_side():
    pair = ig_vs_exp_pairing(2.0, 1.5)
    anchor = np.array([1.5])
    # null (exponential) boundary 1/mu; tilted (inverse Gaussian) lam/(2 mu^2)
    gap, which = f_gap_info(pair.null, pair.tilted, np.array([0.6]), anchor)
    assert which == "tilted" and gap == np.inf
    gap, which = f_gap_info(pair.null, pair.tilted, np.array([0.9]), anchor)
    assert which == "both"


def test_local_check_pass_and_fail_regimes():
    # the local condition at the carrier anchor is the battery's check on a one-row grid
    ok = ig_vs_exp_pairing(2.0, 0.8)
    rep = check_sigma_ordering(ok.null, ok.tilted, ok.tilted.mu_star[None])
    assert rep.passed and rep.worst_value >= rep.threshold

    bad = ig_vs_exp_pairing(2.0, 2.5)
    rep = check_sigma_ordering(bad.null, bad.tilted, bad.tilted.mu_star[None])
    assert not rep.passed


def test_local_check_rejects_anchor_outside_null():
    pair = negbinom_vs_poisson(4.0, 2.0)
    with pytest.raises(DomainError, match=r"outside mean domain"):
        check_sigma_ordering(pair.null, pair.tilted, np.array([[-1.0]]))


def test_member_pairing_validates_mean_membership():
    # the alternative family has no member at the required mean
    with pytest.raises(DomainError,
                       match=r"alternative mean -2\.0 lies outside the mean domain of poisson"):
        nef_pairing(poisson_family(), poisson_family(), -2.0, name="bad-mean", params={})


def test_tilted_family_is_a_family_and_its_anchor():
    assert [f.name for f in dataclasses.fields(TiltedFamily)] == ["family", "mu_star"]


# the log-MGF route with a carrier density: the carrier of each member is
# gamma(mu) . t(u) - K(gamma(mu)) + log q(u), with gamma solved by damped Newton
@pytest.mark.parametrize("mu", [0.7, 2.0, 6.0])
def test_mgf_route_carrier_gives_the_catalog_evalues(mu):
    null = negbinom_family(4.0)
    carrier = CarrierAlternative(
        name="poisson(2)",
        log_density=lambda u: xlogy(u, 2.0) - 2.0 - gammaln(np.asarray(u, dtype=float) + 1.0),
        mean_of_suff_stat=np.array([2.0]),
        mgf_log=lambda beta: 2.0 * np.expm1(beta[0]),
    )
    tilted = build_tilted_family(null, carrier)
    pair = negbinom_vs_poisson(4.0, 2.0)
    counts = np.arange(6.0)
    got = simple_log_evalue(tilted, null, [mu], counts)
    want = simple_log_evalue(pair.tilted, pair.null, [mu], counts)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-7)


def test_battery_refuses_a_canonical_domain_that_is_not_a_box():
    odd = dataclasses.replace(
        poisson_family(), name="poisson-odd-domain",
        canonical_domain=lambda anchor: DomainDescriptor(
            "custom-predicate", 1, predicate=lambda beta: beta[..., 0] < 1.0))
    pair = nef_pairing(negbinom_family(4.0), odd, 2.0, "odd-domain", {})
    with pytest.raises(UnsupportedModelError, match="poisson-odd-domain"):
        run_condition_battery(pair)
