"""Batch evaluation: domain membership, the battery on the catalog, the
Bernoulli k-sample root on batches, cold start, and the growth-rate fixes
that ride along with the batched protocol."""

from __future__ import annotations

import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from evfam import conditions
from evfam.conditions import (
    CERTIFIED,
    INCONCLUSIVE,
    REFUTED,
    GridSpec,
    check_logz_ordering,
    check_sigma_ordering,
    growth_rate,
    mean_grid,
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
from evfam.tilt import CarrierAlternative, TiltedFamily, build_tilted_family

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
    "custom-predicate": DomainDescriptor(np.array([0.0, -np.inf]),
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
     [(65, 6.666333348041247e-05), (512, -4.342920254106131e-09),
      (512, -2.1714453840847867e-09), (519, 9.094947017729282e-12)]),
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
# Carlo route Newton over an empirical cumulant, the abm r = 2 null Newton
# on its own potentials in e = s/(s + m), and the Bernoulli k-sample
# alternative bisection on its closed-form bracket; all must keep every worst
# value's repr

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
    ("abm-newton", PAIRINGS["abm-vs-poisson"], GridSpec(), CERTIFIED, 65, 512,
     [(65, "6.666333348041247e-05"), (512, "-4.342920254106131e-09"),
      (512, "-2.1714453840847867e-09"), (519, "9.094947017729282e-12")]),
    ("bernoulli-bisect", PAIRINGS["ksample-bernoulli"], GridSpec(), CERTIFIED, 65, 512,
     [(65, "0.00040475666116105937"), (512, "-4.699680497065622e-08"),
      (512, "-2.3498454229751303e-08"), (455, "0.0")]),
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
# the log-partition on un-broadcast anchors: the battery's (n, K, d) probes
# against (n, 1, d) grid means give, bit for bit, the one-row-per-probe batch
# with each probe's own mean, +inf off the canonical domain included

LOGZ_PAIRINGS = {**PAIRINGS, "log-mgf": _generic_mgf_pairing, "monte-carlo": _generic_mc_pairing}


def _battery_probes(pairing, spec=None):
    """The battery's grid means and log-partition probes, plus one probe past B_p's upper face.

    That probe is 0 on the axes without a finite upper face; the third value
    marks the means where it lies off B_p.
    """
    grid = mean_grid(pairing.tilted.family.mean_domain, spec, include=pairing.tilted.mu_star)
    grid = grid[pairing.null.mean_domain.contains(grid)]
    box = conditions._canonical_boxes(pairing.null, grid)
    probes = conditions._beta_probe_points(box, covariance_at_mean(pairing.null, grid))
    upper = np.broadcast_to(box.upper, grid.shape)
    past = np.where(np.isfinite(upper), upper + 1.0, 0.0)[:, None]
    return grid, np.concatenate([probes, past], axis=1), np.isfinite(upper).any(axis=-1)


@pytest.mark.parametrize("key", sorted(LOGZ_PAIRINGS))
def test_log_partition_on_unbroadcast_anchors_equals_the_flat_batch(key):
    pairing = LOGZ_PAIRINGS[key]()
    spec = GridSpec(points_per_axis=16, n_pairs=64) if key == "monte-carlo" else None
    grid, probes, off_box = _battery_probes(pairing, spec)
    n, k, d = probes.shape
    for fam in (pairing.null, pairing.tilted.family):
        dense = log_partition_at(fam, probes, grid[:, None])
        flat = log_partition_at(fam, probes.reshape(-1, d), np.repeat(grid, k, axis=0))
        assert dense.shape == (n, k)
        assert np.array_equal(_bits(dense).ravel(), _bits(flat))
    past = log_partition_at(pairing.null, probes[:, -1], grid)
    assert np.array_equal(np.isposinf(past), off_box)


def test_log_partition_nan_from_the_descriptor_raises_convergence_error():
    fam = poisson_family()
    nan_past_one = lambda beta, anchor: np.where(beta[..., 0] > 1.0, np.nan,
                                                 fam.log_partition(beta, anchor))
    broken = dataclasses.replace(fam, log_partition=nan_past_one)
    grid = np.array([[0.5], [2.0]])
    probes = np.array([[[0.5], [1.5], [-1.0]], [[0.25], [3.0], [1.0]]])
    with pytest.raises(ConvergenceError, match=r"log-partition returned NaN at beta=\[1\.5\]"):
        log_partition_at(broken, probes, grid[:, None])


def test_linmodel_logz_ordering_hands_over_each_anchor_once():
    pairing = PAIRINGS["linmodel"]()
    rows = []

    def recording(fn):
        def wrapped(*args):
            rows.append(int(np.prod(np.shape(args[-1])[:-1])))
            return fn(*args)
        return wrapped

    def recorded(fam):
        return dataclasses.replace(fam, canonical_domain=recording(fam.canonical_domain),
                                   log_partition=recording(fam.log_partition))

    null, tilted = recorded(pairing.null), TiltedFamily(recorded(pairing.tilted.family),
                                                         pairing.tilted.mu_star)
    grid, probes, _ = _battery_probes(pairing)
    report = run_condition_battery(dataclasses.replace(pairing, null=null, tilted=tilted))
    rows.clear()  # the KL ordering's pairs are anchors too
    verdict = check_logz_ordering(null, tilted, grid)
    assert max(rows) == len(grid) < probes.shape[0] * probes.shape[1]
    # the battery's shared Sigma_p and B_p give the public checks' verdicts
    assert report.items["log_partition_ordering"] == verdict
    assert report.items["covariance_ordering"] == check_sigma_ordering(null, tilted, grid)


# ---------------------------------------------------------------------------
# the Bernoulli k-sample root, against tests/bernoulli_root_ref.json
# (tests/make_bernoulli_root_ref.py wrote it: 40-digit mpmath bisection)

def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


BERNOULLI_ROOT_REF = json.loads(Path(__file__).with_name("bernoulli_root_ref.json").read_text())["cases"]


@pytest.mark.parametrize("case", BERNOULLI_ROOT_REF,
                         ids=[f"arms{i}" for i in range(len(BERNOULLI_ROOT_REF))])
def test_bernoulli_root_gamma_matches_the_per_entry_path(case):
    # beta = gamma(m) - gamma(mu*) at 45 means out to 1e-9 of either edge, where
    # a root that compares a sum near k loses up to 1.4e-7
    pair = ksample_pairing("bernoulli", case["arms"])
    assert pair.tilted.mu_star.tolist() == [case["anchor"]]
    means, want = np.array(case["means"]), np.array(case["beta"])
    got = pair.tilted.family.beta_map(means[:, None], pair.tilted.mu_star)[:, 0]
    assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(1.0, np.abs(want)))


# ---------------------------------------------------------------------------
# cold start

def test_cli_import_does_not_load_scipy_stats():
    # every scipy module (scipy.special for the law densities and divergences,
    # scipy.linalg for the linear model, scipy.integrate for the quadrature
    # ladder) is loaded by the function that calls it, not by the import;
    # evfam never loads scipy.stats, and the test oracles are loaded only by
    # the tests that use them
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")])
    code = ("import sys, evfam, evfam.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.partition('.')[0] == 'scipy' or m == 'evfam.oracles'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"


def test_cli_check_and_growth_do_not_load_scipy_stats():
    # the battery's mean pairs come from evfam's own Halton sequence, and the
    # growth rate of a declared law pair needs no quadrature
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")])
    runs = [
        ["check", "--model", "gaussian-location", "--cov-null=2,0.3;0.3,1",
         "--cov-alt=1,0.1;0.1,0.5", "--alt-mean=1,-0.5"],
        ["check", "--model", "abm-vs-poisson", "--s", "3", "--r", "2", "--mu", "2"],
        ["check", "--model", "ksample-bernoulli", "--alt-means", "0.3,0.5,0.7"],
        ["growth", "--model", "negbinom-vs-poisson", "--successes", "4", "--mu", "2"],
    ]
    code = ("import contextlib, io, sys; from evfam import cli\n"
            f"for argv in {runs!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(argv) == 0, argv\n"
            "print([m for m in ('scipy.stats', 'scipy.integrate', 'scipy.optimize') "
            "if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert (proc.returncode, proc.stdout.strip()) == (0, "[]"), proc.stderr


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
