"""Core family operations against independent routes: closed textbook
formulas where they exist, finite differences everywhere else."""

from __future__ import annotations

import numpy as np
import pytest

from evfam.domains import box_domain, full_space
from evfam.errors import ConvergenceError, DataError, DomainError, UnsupportedModelError
from evfam.families import (
    _cached_rows,
    _RowCache,
    canonical_from_mean,
    covariance_at_canonical,
    covariance_at_mean,
    family_from_root_cumulant,
    kl_between_means,
    log_density,
    log_partition_at,
    mean_from_canonical,
)
from evfam.models import (
    gamma_family,
    gaussian_location_family,
    inverse_gaussian_family,
    negbinom_family,
    poisson_family,
)
from evfam.oracles import finite_diff_check

FAMILIES = {
    "poisson": poisson_family(),
    "gamma": gamma_family(2.5),
    "negbinom": negbinom_family(4.0),
    "invgauss": inverse_gaussian_family(1.7),
}


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_mean_canonical_round_trip(name):
    fam = FAMILIES[name]
    rng = np.random.default_rng(5)
    for _ in range(25):
        mu = np.array([float(rng.uniform(0.2, 8.0))])
        anchor = np.array([float(rng.uniform(0.2, 8.0))])
        beta = canonical_from_mean(fam, mu, anchor)
        back = mean_from_canonical(fam, beta, anchor)
        assert np.allclose(back, mu, rtol=1e-10, atol=1e-12)


def test_poisson_closed_forms():
    fam = poisson_family()
    mu, anchor = np.array([2.5]), np.array([1.2])
    beta = canonical_from_mean(fam, mu, anchor)
    assert beta[0] == pytest.approx(np.log(2.5 / 1.2), rel=1e-12)
    assert log_partition_at(fam, beta, anchor) == pytest.approx(1.2 * (2.5 / 1.2 - 1.0), rel=1e-12)
    assert kl_between_means(fam, mu, anchor) == pytest.approx(
        2.5 * np.log(2.5 / 1.2) - (2.5 - 1.2), rel=1e-12)


def test_gamma_kl_closed_form():
    shape = 2.5
    fam = gamma_family(shape)
    mu, anchor = np.array([3.0]), np.array([1.5])
    # KL between gammas with common shape: r (m/m' - 1 - log(m/m'))
    expected = shape * (3.0 / 1.5 - 1.0 - np.log(3.0 / 1.5))
    assert kl_between_means(fam, mu, anchor) == pytest.approx(expected, rel=1e-12)


def test_gaussian_location_kl_quadratic():
    cov = np.array([[2.0, 0.3], [0.3, 1.0]])
    fam = gaussian_location_family(cov)
    mu, anchor = np.array([0.5, -0.7]), np.array([-0.2, 0.4])
    diff = mu - anchor
    expected = 0.5 * diff @ np.linalg.solve(cov, diff)
    assert kl_between_means(fam, mu, anchor) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_kl_gradient_is_canonical_parameter(name):
    fam = FAMILIES[name]
    anchor = np.array([1.3])
    mu = np.array([2.1])
    beta = canonical_from_mean(fam, mu, anchor)
    check = finite_diff_check(
        lambda m: kl_between_means(fam, m, anchor), mu, beta, kind="gradient")
    assert check.passed, check.rel_error


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_kl_hessian_is_inverse_covariance(name):
    fam = FAMILIES[name]
    anchor = np.array([1.3])
    mu = np.array([2.1])
    inv_cov = np.linalg.inv(covariance_at_mean(fam, mu))
    check = finite_diff_check(
        lambda m: kl_between_means(fam, m, anchor), mu, inv_cov,
        kind="hessian", rel_tol=1e-4)
    assert check.passed, check.rel_error


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_covariance_matches_mean_jacobian(name):
    fam = FAMILIES[name]
    anchor = np.array([1.9])
    beta = np.array([0.07])
    cov = covariance_at_canonical(fam, beta, anchor)
    check = finite_diff_check(
        lambda b: mean_from_canonical(fam, b, anchor), beta, cov, kind="jacobian")
    assert check.passed, check.rel_error


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_reparameterization_preserves_densities(name):
    fam = FAMILIES[name]
    a1, a2 = np.array([1.4]), np.array([3.3])
    beta = np.array([0.09])
    # re-anchoring adds the canonical coordinate of the old anchor seen from the new one
    beta2 = beta + canonical_from_mean(fam, a1, a2)
    u = np.array([0.5, 1.0, 2.0, 4.0]) if name in ("gamma", "invgauss") \
        else np.array([0.0, 1.0, 3.0, 7.0])
    d1 = log_density(fam, beta, a1, u)
    d2 = log_density(fam, beta2, a2, u)
    assert np.allclose(d1, d2, atol=1e-10)


def test_reparameterization_zero_round_trip():
    fam = gamma_family(2.5)
    a1, a2 = np.array([1.4]), np.array([3.3])
    forward = canonical_from_mean(fam, a1, a2)  # beta = 0 at a1, seen from a2
    back = forward + canonical_from_mean(fam, a2, a1)
    assert np.allclose(back, 0.0, atol=1e-12)


def test_log_partition_outside_domain_is_inf():
    fam = gamma_family(1.0)
    anchor = np.array([2.0])
    # upper canonical limit at anchor m is 1/m
    assert log_partition_at(fam, np.array([0.49]), anchor) < np.inf
    assert log_partition_at(fam, np.array([0.51]), anchor) == np.inf


def test_canonical_from_mean_rejects_outside_mean_domain():
    fam = poisson_family()
    with pytest.raises(DomainError):
        canonical_from_mean(fam, np.array([-1.0]), np.array([1.0]))


def test_vec_shape_validation():
    fam = poisson_family()
    with pytest.raises(ValueError):
        fam.vec(np.array([1.0, 2.0]))


def test_root_cumulant_family_newton_paths():
    # gaussian N(mu0, s2) by its cumulant, with no closed inverses supplied:
    # gamma-of-anchor and canonical_from_mean both go through damped Newton
    mu0, s2 = 1.5, 0.8
    fam = family_from_root_cumulant(
        "gauss-root",
        suff_stat=lambda u: np.asarray(u, dtype=float).reshape(-1, 1),
        root_cumulant=lambda b: mu0 * b[..., 0] + 0.5 * s2 * b[..., 0] ** 2,
        root_domain=full_space(1),
        mean_domain=full_space(1),
    )
    anchor = np.array([2.3])
    mu = np.array([-0.7])
    beta = canonical_from_mean(fam, mu, anchor)
    assert beta[0] == pytest.approx((mu[0] - anchor[0]) / s2, rel=1e-8)
    assert mean_from_canonical(fam, beta, anchor)[0] == pytest.approx(mu[0], abs=1e-9)
    assert covariance_at_mean(fam, mu)[0, 0] == pytest.approx(s2, rel=1e-6)
    # re-anchoring identity: logZ at one anchor determines it at another
    b = np.array([0.4])
    lhs = log_partition_at(fam, b, anchor)
    shift = canonical_from_mean(fam, anchor, np.array([mu0]))
    rhs = (fam.log_partition(b + shift, np.array([mu0]))
           - fam.log_partition(shift, np.array([mu0])))
    assert lhs == pytest.approx(0.4 * 2.3 + 0.5 * s2 * 0.16, abs=1e-8)
    assert lhs == pytest.approx(rhs, abs=1e-9)


def test_log_density_batch_and_single_agree():
    fam = poisson_family()
    beta, anchor = np.array([0.2]), np.array([1.5])
    batch = log_density(fam, beta, anchor, np.array([0.0, 2.0, 5.0]))
    single = log_density(fam, beta, anchor, 2.0)
    assert batch[1] == pytest.approx(single, rel=1e-15)


@pytest.mark.parametrize("u, row, value", [([-1.0, 0.5, 2.0], 0, "-1.0"), ([2.0, 0.5], 1, "0.5")])
def test_log_density_refuses_a_count_outside_the_poisson_support(u, row, value):
    # a law-declaring family checks its support in its one density function,
    # so log_density refuses what simple_log_evalue refuses
    with pytest.raises(DataError, match=rf"row {row} holds {value}, outside the support "
                                        r"of the poisson law \(non-negative integer counts\)"):
        log_density(poisson_family(), [0.0], [2.0], u)


def test_log_density_requires_carrier():
    fam = family_from_root_cumulant(
        "no-carrier",
        suff_stat=lambda u: np.asarray(u, dtype=float).reshape(-1, 1),
        root_cumulant=lambda b: 0.5 * b[..., 0] ** 2,
        root_domain=full_space(1),
        mean_domain=full_space(1),
    )
    with pytest.raises(UnsupportedModelError):
        log_density(fam, np.zeros(1), np.zeros(1), 1.0)


# ---------------------------------------------------------------------------
# the row cache behind the gamma, beta and Monte Carlo moment solves

def _recording_solve(seen: list):
    """A solve that records each batch it is handed and returns [2 x0, x0 + x1]."""
    def solve(rows: np.ndarray) -> np.ndarray:
        seen.append(rows.copy())
        return np.column_stack([2.0 * rows[:, 0], rows[:, 0] + rows[:, 1]])
    return solve


def test_cached_rows_solves_each_distinct_row_once_in_first_seen_order():
    cache, seen = _RowCache(2), []
    solve = _recording_solve(seen)
    first = np.array([[3.0, 1.0], [1.0, 2.0], [3.0, 1.0], [1.0, 2.0]])
    second = np.array([[1.0, 2.0], [5.0, 0.5], [3.0, 1.0], [5.0, 0.5], [7.0, 0.25]])
    got_first, got_second = _cached_rows(cache, first, solve), _cached_rows(cache, second, solve)
    assert [batch.tolist() for batch in seen] == [[[3.0, 1.0], [1.0, 2.0]], [[5.0, 0.5], [7.0, 0.25]]]
    for rows, got in ((first, got_first), (second, got_second)):
        want = np.column_stack([2.0 * rows[:, 0], rows[:, 0] + rows[:, 1]])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    _cached_rows(cache, np.concatenate([first, second]), solve)
    assert len(seen) == 2


def test_cached_rows_keys_rows_by_their_bytes():
    cache, seen = _RowCache(2), []
    solve = _recording_solve(seen)
    rows = np.array([[0.0, 1.0], [-0.0, 1.0], [np.nan, 1.0], [np.nan, 1.0], [0.0, 1.0]])
    got = _cached_rows(cache, rows, solve)
    (batch,) = seen
    assert batch.view(np.int64).tolist() == rows[:3].view(np.int64).tolist()
    assert np.signbit(got[:, 0]).tolist() == [False, True, False, False, False]
    assert np.isnan(got[2:4]).all() and not np.isnan(got[[0, 1, 4]]).any()
    _cached_rows(cache, rows[[2, 1]], solve)
    assert len(seen) == 1


def test_cached_rows_returns_a_fresh_array_in_the_batch_shape():
    cache, seen = _RowCache(2), []
    solve = _recording_solve(seen)
    anchors = np.array([[[1.0, 2.0]], [[3.0, 4.0]], [[1.0, 2.0]]])  # (n, 1, d)
    got = _cached_rows(cache, anchors, solve)
    assert got.shape == (3, 1, 2)
    assert got[:, 0].tolist() == [[2.0, 3.0], [6.0, 7.0], [2.0, 3.0]]
    got[...] = -1.0
    assert _cached_rows(cache, anchors, solve)[:, 0].tolist() == [[2.0, 3.0], [6.0, 7.0], [2.0, 3.0]]
    assert _cached_rows(cache, np.empty((0, 2)), solve).shape == (0, 2)
    assert len(seen) == 1
