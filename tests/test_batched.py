"""Batch evaluation: domain membership, the battery on the catalog, Brent root
finding on batches, cold start, and the growth-rate fixes that ride along with
the batched protocol."""

from __future__ import annotations

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import stats
from scipy.optimize import brentq
from scipy.special import expit, logit

from evfam.conditions import (
    CERTIFIED,
    INCONCLUSIVE,
    REFUTED,
    GridSpec,
    growth_rate,
    run_condition_battery,
)
from evfam.domains import DomainDescriptor, box_domain
from evfam.errors import ConvergenceError
from evfam.families import (
    canonical_from_mean,
    covariance_at_mean,
    kl_between_means,
    log_partition_at,
    mean_from_canonical,
)
from evfam.linear_model import (
    LinearModelDesign,
    LinearModelParams,
    linmodel_pairing,
    mean_of_params,
)
from evfam.models import (
    _brentq_rows,
    _invert_potential,
    abm_family,
    abm_vs_poisson,
    gaussian_location_family,
    gaussian_location_constrained,
    gaussian_location_pairing,
    gaussian_scale_family,
    gaussian_scale_pairing,
    ig_vs_exp_pairing,
    ksample_pairing,
    negbinom_family,
    negbinom_vs_poisson,
    Pairing,
    poisson_family,
    tweedie_family,
    tweedie_pair,
)
from evfam.tilt import CarrierAlternative, build_tilted_family

SRC = Path(__file__).resolve().parent.parent / "src"


# ---------------------------------------------------------------------------
# domain membership on (N, d) batches

EDGE_POINTS = np.array([
    [0.5, 0.5], [0.0, 0.5], [1.0, 0.5], [0.5, 0.0], [0.05, 0.5], [0.95, 0.95],
    [np.nan, 0.5], [0.5, np.nan], [np.inf, 0.5], [-np.inf, 0.5], [0.5, np.inf],
    [-1.0, 2.0], [0.3, 0.2], [0.2, 0.3], [0.9, -0.9],
])

DOMAINS = {
    "box": box_domain([0.0, 0.0], [1.0, 1.0]),
    "custom-predicate": DomainDescriptor("custom-predicate", 2, np.array([0.0, -np.inf]), None,
                                         predicate=lambda x: x[..., 0] > x[..., 1] ** 2),
}


@pytest.mark.parametrize("kind", sorted(DOMAINS))
def test_contains_batch_matches_pointwise(kind):
    dom = DOMAINS[kind]
    batch = dom.contains(EDGE_POINTS)
    single = [dom.contains(point) for point in EDGE_POINTS]
    assert batch.shape == (EDGE_POINTS.shape[0],) and batch.dtype == bool
    assert batch.tolist() == single
    assert all(isinstance(v, bool) for v in single)
    # leading axes broadcast: the same answers as a (3, 5, 2) stack
    assert dom.contains(EDGE_POINTS.reshape(3, 5, 2)).tolist() == batch.reshape(3, 5).tolist()


def test_contains_rejects_the_wrong_last_axis():
    with pytest.raises(ValueError):
        DOMAINS["box"].contains(np.zeros((4, 3)))


def test_batched_bounds_answer_per_entry():
    # one box per anchor, as a canonical domain built from a batch of anchors
    dom = box_domain(np.full((3, 1), -np.inf), np.array([[0.5], [1.0], [2.0]]))
    assert dom.contains(np.array([[0.7], [0.7], [0.7]])).tolist() == [False, True, True]
    assert dom.shifted(np.array([[1.0], [0.0], [-1.0]])).upper[:, 0].tolist() == [1.5, 1.0, 1.0]


# ---------------------------------------------------------------------------
# family helpers on a batch against the same helpers point by point

def _mgf_poisson_family():
    carrier = CarrierAlternative(name="poisson(2) by log-mgf", log_density=None,
                                 mean_of_suff_stat=np.array([2.0]),
                                 mgf_log=lambda beta: 2.0 * np.expm1(float(beta[0])))
    return build_tilted_family(negbinom_family(4.0), carrier).family


def _linmodel_means(rng, n):
    design = LinearModelDesign(np.random.default_rng(11).normal(size=(20, 3)))
    return np.array([mean_of_params(design, LinearModelParams(rng.uniform(0.5, 2.0),
                                                              rng.normal(size=3) * [0, 1, 1]))
                     for _ in range(n)])


HELPER_FAMILIES = {
    "poisson": (poisson_family, lambda rng, n: rng.uniform(0.3, 5.0, (n, 1))),
    "negbinom": (lambda: negbinom_family(4.0), lambda rng, n: rng.uniform(0.3, 5.0, (n, 1))),
    "tweedie": (lambda: tweedie_family(0.5, 1.5), lambda rng, n: rng.uniform(0.3, 5.0, (n, 1))),
    "abm-r2": (lambda: abm_family(3.0, 2), lambda rng, n: rng.uniform(0.3, 5.0, (n, 1))),
    "bernoulli-alt": (lambda: ksample_pairing("bernoulli", (0.3, 0.5, 0.7)).tilted.family,
                      lambda rng, n: rng.uniform(0.2, 2.8, (n, 1))),
    "gaussian-scale-alt": (lambda: gaussian_scale_pairing(-3.0, 9.0).tilted.family,
                           lambda rng, n: rng.uniform(0.3, 5.0, (n, 1))),
    "gaussian-location": (lambda: gaussian_location_family([[2.0, 0.3], [0.3, 1.0]]),
                          lambda rng, n: rng.normal(size=(n, 2))),
    "linmodel": (lambda: PAIRINGS["linmodel"]().tilted.family, _linmodel_means),
    "log-mgf-route": (_mgf_poisson_family, lambda rng, n: rng.uniform(0.3, 5.0, (n, 1))),
}
# a few units in the last place: numpy's array kernels and its scalar path
# may round a power differently
HELPER_REL = 1e-14


@pytest.mark.parametrize("key", sorted(HELPER_FAMILIES))
def test_family_helpers_batch_matches_pointwise(key):
    build, draw = HELPER_FAMILIES[key]
    fam = build()
    rng = np.random.default_rng(0)
    mu, anchor = draw(rng, 12), draw(rng, 12)
    beta = canonical_from_mean(fam, mu, anchor)
    cases = [
        (beta, [canonical_from_mean(fam, m, a) for m, a in zip(mu, anchor)]),
        (kl_between_means(fam, mu, anchor),
         [kl_between_means(fam, m, a) for m, a in zip(mu, anchor)]),
        (log_partition_at(fam, 0.5 * beta, anchor),
         [log_partition_at(fam, 0.5 * b, a) for b, a in zip(beta, anchor)]),
        (mean_from_canonical(fam, 0.5 * beta, anchor),
         [mean_from_canonical(fam, 0.5 * b, a) for b, a in zip(beta, anchor)]),
        (covariance_at_mean(fam, mu), [covariance_at_mean(fam, m) for m in mu]),
    ]
    for batch, points in cases:
        np.testing.assert_allclose(batch, np.array(points), rtol=HELPER_REL, atol=0.0)


# ---------------------------------------------------------------------------
# the battery over the catalog: pinned verdicts, counts and worst values

COV_BIG = np.array([[2.0, 0.3], [0.3, 1.0]])
COV_SMALL = np.array([[1.0, 0.1], [0.1, 0.5]])
DESIGN = LinearModelDesign(np.random.default_rng(11).normal(size=(20, 3)))

PAIRINGS = {
    "ksample-poisson": lambda: ksample_pairing("poisson", (0.5, 1.0, 1.5)),
    "ksample-gaussian": lambda: ksample_pairing("gaussian", (0.2, 1.0, 1.8)),
    "ksample-bernoulli": lambda: ksample_pairing("bernoulli", (0.3, 0.5, 0.7)),
    "gaussian-location": lambda: gaussian_location_pairing(COV_BIG, COV_SMALL, [1.0, -0.5]),
    "gaussian-location-swapped": lambda: gaussian_location_pairing(COV_SMALL, COV_BIG, [1.0, -0.5]),
    "gaussian-location-constrained": lambda: gaussian_location_constrained(
        np.array([[1.0, 0.4], [0.4, 2.0]]), 1, [0.9, 1.0]),
    "gaussian-scale": lambda: gaussian_scale_pairing(-3.0, 9.0),
    "negbinom-vs-poisson": lambda: negbinom_vs_poisson(4.0, 2.0),
    "abm-vs-poisson": lambda: abm_vs_poisson(3.0, 2, 2.0),
    "tweedie-same-power": lambda: tweedie_pair((1.0, 1.5), (0.5, 1.5)),
    "tweedie-crossing": lambda: tweedie_pair((1.0, 1.2), (1.0, 1.8)),
    "ig-vs-exp": lambda: ig_vs_exp_pairing(2.0, 0.8),
    "linmodel": lambda: linmodel_pairing(DESIGN, 0.8, [0.3, -0.4, 0.6]),
}

INF = float("inf")
ITEMS = ("covariance_ordering", "canonical_pairing", "kl_ordering", "log_partition_ordering")

# verdict, grid points, pairs, then (n_points, worst value) per item, in ITEMS
# order, at the default GridSpec; tweedie (1, 1.5) vs (1e-3, 2) is left out
# because its certificate is known to be false (the variance curves cross
# off the grid), so pinning it would only pin the defect
PINNED = [
    ("ksample-poisson", CERTIFIED, 65, 512,
     [(65, 0.0), (512, 0.0), (512, 0.0), (454, 0.0)]),
    ("ksample-gaussian", CERTIFIED, 65, 512,
     [(65, 0.0), (512, 0.0), (512, 0.0), (455, 0.0)]),
    ("ksample-bernoulli", CERTIFIED, 65, 512,
     [(65, 0.00040475666116105937), (512, -4.6996804970565646e-08),
      (512, -2.349845417402331e-08), (455, 0.0)]),
    ("gaussian-location", CERTIFIED, 65, 512,
     [(65, 0.2063486058141799), (512, -0.037408984601653955),
      (512, -0.018704492300827047), (585, 0.0)]),
    ("gaussian-location-swapped", REFUTED, 65, 512,
     [(65, -1.049936286506846), (512, 287.7619705815647), (512, 143.88098529078232),
      (585, 82.10193359837564)]),
    ("gaussian-location-constrained", CERTIFIED, 65, 512,
     [(65, 0.0), (512, 0.0), (512, 0.0), (455, 0.0)]),
    ("gaussian-scale", CERTIFIED, 65, 512,
     [(65, 1.2345124703149653e-10), (512, -4.0212562588542155e-11),
      (512, -2.010522304196627e-11), (520, 4.440892098500626e-16)]),
    ("negbinom-vs-poisson", CERTIFIED, 65, 512,
     [(65, 2.499937501479853e-05), (512, -1.6286598287288675e-09),
      (512, -8.143274263591608e-10), (520, 9.208633855450898e-12)]),
    ("abm-vs-poisson", CERTIFIED, 65, 512,
     [(65, 6.666333348068348e-05), (512, -4.3429202542495095e-09),
      (512, -2.1714453838543937e-09), (519, 4.4832356143470475e-12)]),
    ("tweedie-same-power", CERTIFIED, 65, 512,
     [(65, 0.5), (512, -1.876525485561764e-05), (512, -9.390476477876865e-06),
      (520, 7.105427357601002e-15)]),
    ("tweedie-crossing", REFUTED, 65, 512,
     [(65, -250.1886431509587), (512, 22915.693111036366), (512, 20857.218934981945),
      (520, INF)]),
    ("ig-vs-exp", REFUTED, 65, 512,
     [(65, -4999.0), (512, 2041.5506609919466), (512, 1692.9826765544053), (520, INF)]),
    ("linmodel", CERTIFIED, 225, 411,
     [(225, 4.1441954344680285e-11), (411, -0.023886964362787293),
      (411, -0.01180309472483465), (6075, -0.00042998093620383315)]),
]

ROUND_OFF = 1e-8
# numpy's vectorized log/exp/pow may differ from the C library in the last
# bit, and the orderings subtract nearly equal terms, so a non-round-off worst
# value is pinned to 1e-9 relative rather than bit for bit
PIN_REL = 1e-9


@pytest.mark.parametrize("key, overall, grid_points, pair_count, items", PINNED,
                         ids=[row[0] for row in PINNED])
def test_catalog_battery_pinned(key, overall, grid_points, pair_count, items):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = run_condition_battery(PAIRINGS[key]())
    assert report.overall == overall
    assert (report.grid_points, report.pair_count) == (grid_points, pair_count)
    for name, (n_points, worst) in zip(ITEMS, items):
        item = report.items[name]
        assert item.n_points == n_points, name
        if abs(worst) > ROUND_OFF:
            assert item.worst_value == pytest.approx(worst, rel=PIN_REL), name
        else:
            assert abs(item.worst_value) <= ROUND_OFF, name


# the routes that solve for their canonical maps, pinned bit for bit: the
# log-MGF route runs Newton over finite differences of the log-MGF, the Monte
# Carlo route Newton over an empirical cumulant, and the abm r = 2 null and
# the Bernoulli k-sample alternative run Brent's method; all must keep every
# worst value's repr

def _generic_mgf_pairing():
    null = negbinom_family(4.0)
    carrier = CarrierAlternative(name="poisson(2) by log-mgf", log_density=None,
                                 mean_of_suff_stat=np.array([2.0]),
                                 mgf_log=lambda beta: 2.0 * math.expm1(float(beta[0])))
    return Pairing("negbinom-vs-mgf-poisson", null, build_tilted_family(null, carrier), params={})


def _generic_mc_pairing():
    null = gaussian_scale_family()
    carrier = CarrierAlternative(name="normal(-3,9) by sampling", log_density=None,
                                 mean_of_suff_stat=np.array([18.0]),
                                 sampler=lambda n, rng: rng.normal(-3.0, 3.0, n))
    tilted = build_tilted_family(null, carrier, mc_samples=20_000, seed=7)
    return Pairing("gaussian-scale-mc", null, tilted, params={})


GENERIC_PINNED = [
    ("log-mgf", _generic_mgf_pairing, GridSpec(), CERTIFIED, 65, 512,
     [(65, "1.649465212538473e-05"), (512, "-1.6254489171513791e-09"),
      (512, "-8.171580787112156e-10"), (520, "2.2026824808563106e-13")]),
    ("monte-carlo", _generic_mc_pairing, GridSpec(points_per_axis=16, n_pairs=64),
     INCONCLUSIVE, 17, 64,
     [(17, "0.01755437671036012"), (64, "-4.601895528835817e-05"),
      (64, "-2.2997317939101557e-05"), (136, "1.1102230246251565e-16")]),
    ("abm-brent", PAIRINGS["abm-vs-poisson"], GridSpec(), CERTIFIED, 65, 512,
     [(65, "6.666333348068348e-05"), (512, "-4.3429202542495095e-09"),
      (512, "-2.1714453838679463e-09"), (519, "4.4832356143470475e-12")]),
    ("bernoulli-brent", PAIRINGS["ksample-bernoulli"], GridSpec(), CERTIFIED, 65, 512,
     [(65, "0.00040475666116105937"), (512, "-4.6996804970565646e-08"),
      (512, "-2.349845417402331e-08"), (455, "0.0")]),
]


@pytest.mark.parametrize("key, build, spec, overall, grid_points, pair_count, items",
                         GENERIC_PINNED, ids=[row[0] for row in GENERIC_PINNED])
def test_generic_route_battery_pinned(key, build, spec, overall, grid_points, pair_count, items):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = run_condition_battery(build(), spec=spec)
    assert report.overall == overall
    assert (report.grid_points, report.pair_count) == (grid_points, pair_count)
    got = [(report.items[name].n_points, repr(report.items[name].worst_value)) for name in ITEMS]
    assert got == items


# ---------------------------------------------------------------------------
# Brent's method on batches, against scipy's brentq one entry at a time

def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


_C = np.random.default_rng(5).uniform(-3.0, 3.0, 64)
_CUBES = _C ** 3
_CUBES[::8], _CUBES[1::8] = -125.0, 125.0  # f(a) == 0 and f(b) == 0 rows
_UPPER = np.random.default_rng(6).uniform(4.0, 6.0, 64)

# f(x, rows), per-row brackets, xtol
BRENT_CASES = {
    "cubic-with-roots-at-the-ends": (lambda x, r: x ** 3 - _CUBES[r], -5.0, 5.0, 2e-12),
    "expm1-tiny-xtol": (lambda x, r: np.expm1(x) - _C[r] ** 2, -1.0, _UPPER, 1e-300),
    "tanh-reversed-bracket": (lambda x, r: np.tanh(x) - _C[r] / 4.0, 5.0, -5.0, 1e-14),
    "log-per-row-brackets": (lambda x, r: np.log(x) - _C[r], np.exp(_C - 2.0), _UPPER * 10.0, 1e-300),
}


@pytest.mark.parametrize("key", sorted(BRENT_CASES))
def test_brentq_rows_matches_scipy_bit_for_bit(key):
    f, a, b, xtol = BRENT_CASES[key]
    a, b = np.broadcast_to(a, _C.shape), np.broadcast_to(b, _C.shape)
    got = _brentq_rows(f, a, b, xtol=xtol, rtol=8.9e-16, maxiter=100)
    want, iterations = [], set()
    for i in range(_C.size):
        root, info = brentq(lambda t: float(f(np.array([t]), np.array([i]))[0]), a[i], b[i],
                            xtol=xtol, rtol=8.9e-16, maxiter=100, full_output=True)
        want.append(root)
        iterations.add(info.iterations)
    assert np.array_equal(_bits(got), _bits(want))
    assert len(iterations) > 1  # rows leave the batch at different steps


def test_brentq_rows_raises_what_scipy_raises_with_typed_convergence():
    with pytest.raises(ValueError, match="NaN"):
        _brentq_rows(lambda x, r: np.where(r == 1, np.nan, x), [-1.0, -1.0], [1.0, 1.0],
                     xtol=1e-14, rtol=8.9e-16, maxiter=100)
    with pytest.raises(ValueError, match="NaN"):
        brentq(lambda t: np.nan, -1.0, 1.0)
    with pytest.raises(ValueError, match="different signs"):
        _brentq_rows(lambda x, r: x + 2.0 * r, [-1.0, -1.0], [1.0, 1.0],
                     xtol=1e-14, rtol=8.9e-16, maxiter=100)
    with pytest.raises(ValueError, match="different signs"):
        brentq(lambda t: t + 2.0, -1.0, 1.0)
    # scipy raises an untyped RuntimeError here; evfam's ConvergenceError exits 64
    with pytest.raises(RuntimeError):
        brentq(lambda t: t ** 3 - 0.3, -5.0, 5.0, xtol=1e-300, maxiter=3)
    with pytest.raises(ConvergenceError):
        _brentq_rows(lambda x, r: x ** 3 - 0.3, [-5.0], [5.0], xtol=1e-300, rtol=8.9e-16, maxiter=3)


def _abm_phi(s: float, r: int):
    """Phi of V(m) = m (1 + m/s)^r, written as abm_family writes it."""
    def phi(t):
        val = np.log(t) - np.log(s + t)
        for k in range(2, r + 1):
            val += s ** (k - 1) / ((k - 1) * (s + t) ** (k - 1))
        return val
    return phi


def _per_entry_invert(phi, x: float) -> float:
    """Phi^{-1} on (0, inf) one entry at a time, as the scalar path did it."""
    lo = 0.0
    low = lo + 1e-14
    while phi(low) > x:
        low = lo + (low - lo) * 1e-3
        if low == lo:
            return float("nan")
    high = max(2.0 * abs(low), 1.0)
    while phi(high) < x:
        high *= 4.0
        if not np.isfinite(high):
            return float("nan")
    return float(brentq(lambda t: phi(t) - x, low, high, xtol=1e-300, rtol=8.9e-16, maxiter=1000))


@pytest.mark.parametrize("r", [2, 3, 5])
def test_abm_inversion_matches_the_per_entry_path(r):
    s = 3.0
    phi = _abm_phi(s, r)
    fam = abm_family(s, r)
    means = np.geomspace(1e-300, 1e300, 61)
    anchor = np.array([2.0])
    with np.errstate(over="ignore"):
        assert np.array_equal(_bits(fam.beta_map(means[:, None], anchor)[:, 0]),
                              _bits(phi(means) - phi(anchor)))
        # past the float range below, at and past phi_sup = 0 above
        x = np.concatenate([phi(means), [-np.inf, -1e300, -5e-324, 0.0, 1.0]])
        got = _invert_potential(phi, 0.0, np.inf, x)
        # one-element arrays: numpy's vectorized pow may round differently
        # from the C library's scalar pow, which Python floats use
        want = [_per_entry_invert(lambda t: phi(np.array([t]))[0], v) for v in x]
        # the family's mean map at beta = 0 inverts Phi(anchor) itself
        inside = np.isfinite(got[:61]) & (x[:61] < 0.0)
        via_family = fam.mean_map(np.zeros((int(inside.sum()), 1)), means[inside, None])[:, 0]
    assert np.array_equal(_bits(got), _bits(want))
    assert np.array_equal(_bits(via_family), _bits(got[:61][inside]))
    assert np.all(np.isnan(got[[61, 62, 65]]))  # -inf, -1e300 and 1.0
    assert np.all(np.isfinite(got[:30]))
    if r == 2:
        # no power above one in Phi: Python floats round as the batch does
        assert np.array_equal(_bits(got), _bits([_per_entry_invert(phi, float(v)) for v in x]))


def _per_entry_gamma(logits: np.ndarray, target: float) -> float:
    f = lambda g: float(expit(logits + np.asarray(g)[..., None]).sum()) - target
    lo, hi = -1.0, 1.0
    while f(lo) > 0.0:
        lo *= 2.0
    while f(hi) < 0.0:
        hi *= 2.0
    return brentq(f, lo, hi, xtol=1e-14, rtol=8.9e-16)


@pytest.mark.parametrize("arms", [(1e-6, 0.5, 1.0 - 1e-6), (1e-6, 0.2, 0.5, 0.9, 1.0 - 1e-6)])
def test_bernoulli_root_gamma_matches_the_per_entry_path(arms):
    pair = ksample_pairing("bernoulli", arms)
    k = len(arms)
    means = k * np.concatenate([[1e-9, 1e-6], np.linspace(0.01, 0.99, 41), [1.0 - 1e-6, 1.0 - 1e-9]])
    anchor = pair.tilted.mu_star
    got = pair.tilted.family.beta_map(means[:, None], anchor)[:, 0]
    logits = logit(np.asarray(arms))
    at_anchor = _per_entry_gamma(logits, float(anchor[0]))
    want = [_per_entry_gamma(logits, m) - at_anchor for m in means]
    assert np.array_equal(_bits(got), _bits(want))


# ---------------------------------------------------------------------------
# cold start

def test_cli_import_does_not_load_scipy_stats():
    # scipy.stats, scipy.integrate and scipy.optimize are loaded by the code
    # that needs them (Halton pairs, the quadrature ladder), not by the import
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")])
    code = ("import sys, evfam, evfam.cli; "
            "print([m for m in ('scipy.stats', 'scipy.integrate', 'scipy.optimize') "
            "if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# growth rates

def test_negbinom_growth_matches_scipy_sum():
    pair = negbinom_vs_poisson(4.0, 2.0)
    got = growth_rate(pair.tilted, pair.null, np.array([2.0]))
    k = np.arange(200)
    log_q = stats.poisson.logpmf(k, 2.0)
    log_p = stats.nbinom.logpmf(k, 4.0, 4.0 / 6.0)
    want = float(np.sum(np.exp(log_q) * (log_q - log_p)))
    assert got == pytest.approx(want, rel=1e-12, abs=1e-14)


# the product route sums the per-arm Poisson divergences; no lattice is built,
# so alternatives with much mass far from the origin need no truncation
@pytest.mark.parametrize("means", [
    (0.5, 1.0, 1.5),
    (0.5, 1.0, 1.5, 2.0),
    (5.0, 10.0, 20.0, 30.0),
], ids=["k3", "k4", "k4-wide"])
def test_ksample_poisson_growth_matches_the_closed_form(means):
    means = np.array(means)
    pair = ksample_pairing("poisson", means)
    want = float(np.sum(means * np.log(means / means.mean())))
    assert growth_rate(pair.tilted, pair.null, pair.tilted.mu_star) == pytest.approx(want, rel=1e-12)


def test_ksample_poisson_growth_at_five_arms_matches_the_closed_form():
    # a lattice of side 32 would have held 33.5e6 points
    means = np.array([0.5, 1.0, 1.5, 2.0, 2.5])
    pair = ksample_pairing("poisson", means)
    want = float(np.sum(means * np.log(means / means.mean())))
    got = growth_rate(pair.tilted, pair.null, pair.tilted.mu_star)
    assert abs(got - want) <= 1e-12
