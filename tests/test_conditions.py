"""Grids, preconditions, the four orderings, verdicts, growth rates."""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import qmc

from evfam import conditions
from evfam.conditions import (
    CERTIFIED,
    INCONCLUSIVE,
    INCONCLUSIVE_PRECONDITIONS,
    REFUTED,
    GridSpec,
    _axis_specs,
    _halton,
    check_preconditions,
    check_sigma_ordering,
    growth_rate,
    mean_grid,
    mean_pairs,
    run_condition_battery,
    simple_evalue,
    simple_log_evalue,
)
from evfam.domains import full_space, positive_orthant
from evfam.errors import DomainError, UnsupportedModelError
from evfam.linear_model import LinearModelDesign, linmodel_pairing, linmodel_psd_check
from evfam.models import (
    Pairing,
    abm_vs_poisson,
    gaussian_location_pairing,
    gaussian_scale_family,
    gaussian_scale_pairing,
    ig_vs_exp_pairing,
    ksample_pairing,
    negbinom_vs_poisson,
    tweedie_pair,
)
from evfam.oracles import expect_monte_carlo
from evfam.tilt import CarrierAlternative, build_tilted_family
from evfam.util import TOL_PSD

SPEC = GridSpec(n_pairs=64)


# ---------------------------------------------------------------------------
# grids

def test_mean_grid_is_deterministic_and_in_domain():
    dom = positive_orthant(1)
    g1 = mean_grid(dom, SPEC)
    g2 = mean_grid(dom, SPEC)
    assert np.array_equal(g1, g2)
    assert g1.shape[1] == 1
    assert np.all(g1 > 0.0)


def test_mean_grid_appends_include_point():
    dom = positive_orthant(1)
    g = mean_grid(dom, SPEC, include=np.array([2.75]))
    assert np.any(np.all(g == 2.75, axis=1))


def test_mean_grid_respects_axis_ranges():
    spec = GridSpec(points_per_axis=16, axis_ranges=((-2.0, 2.0),))
    g = mean_grid(full_space(1), spec)
    assert g.shape == (16, 1)
    assert g.min() >= -2.0 and g.max() <= 2.0


def test_mean_pairs_shape_and_determinism():
    dom = full_space(2)
    p1 = mean_pairs(dom, SPEC)
    p2 = mean_pairs(dom, SPEC)
    assert np.array_equal(p1, p2)
    assert p1.shape[1:] == (2, 2)
    assert p1.shape[0] <= SPEC.n_pairs
    other = mean_pairs(dom, GridSpec(n_pairs=64, seed=5))
    assert not np.array_equal(p1, other)


def _first_accepted_of_a_fourfold_draw(domain, spec: GridSpec) -> np.ndarray:
    """The first n_pairs accepted pairs of 4 n_pairs Halton rows, as one draw."""
    lo, hi, log = (np.tile(np.array(col), 2) for col in zip(*_axis_specs(domain, spec)))
    raw = _halton(2 * domain.dim, spec.seed, 4 * spec.n_pairs)
    points = lo + (hi - lo) * raw
    for j in np.flatnonzero(log):
        ratio = float(hi[j] / lo[j])
        points[:, j] = lo[j] * np.array([ratio ** t for t in raw[:, j]])
    pairs = points.reshape(-1, 2, domain.dim)
    return pairs[np.all(domain.contains(pairs), axis=1)][:spec.n_pairs]


def _perfbench_catalog_linmodel(tmp_path):
    """Mean domain and pair seed of perfbench's catalog-check linear model, input seed 1."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
    loader = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(inputs)
    made = inputs.make_inputs("catalog-check", 1, tmp_path)
    lm = made["linmodel"]
    pair = linmodel_pairing(LinearModelDesign(lm["design"]), lm["sigma2"], lm["gamma"])
    return pair.tilted.family.mean_domain, made["pair_seed"]


# a box domain accepts every row, so n_pairs rows are all that is drawn; the
# linear model's predicate rejects some and takes the fourfold draw, whose
# first rows are the shorter draw's
@pytest.mark.parametrize("key", ["orthant-1", "orthant-2", "perfbench-linmodel"])
def test_mean_pairs_draw_n_pairs_rows_first(key, tmp_path, monkeypatch):
    if key == "perfbench-linmodel":
        domain, seed = _perfbench_catalog_linmodel(tmp_path)
    else:
        domain, seed = positive_orthant(int(key[-1])), 7
    spec = GridSpec(seed=seed)
    sizes = []

    def recording_halton(d, seed, n):
        sizes.append(n)
        return _halton(d, seed, n)

    monkeypatch.setattr(conditions, "_halton", recording_halton)
    got = mean_pairs(domain, spec)
    monkeypatch.undo()
    want = _first_accepted_of_a_fourfold_draw(domain, spec)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    if key == "perfbench-linmodel":
        assert sizes == [spec.n_pairs, 4 * spec.n_pairs]
    else:
        assert (sizes, got.shape[0]) == ([spec.n_pairs], spec.n_pairs)


# d = 40 reaches bases past the first dozen primes; 2**63 is past a C long seed
@pytest.mark.parametrize("d", [2, 4, 6, 12, 40])
def test_halton_equals_scipy_bit_for_bit(d):
    for seed in (0, 1, 2 ** 31 - 2, 2 ** 63):
        for n in (1, 7, 2048, 4096):
            want = qmc.Halton(d=d, seed=seed).random(n)
            assert np.array_equal(_halton(d, seed, n).view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("seed", [-1, 1.5])
def test_halton_rejects_a_seed_that_is_not_a_non_negative_integer(seed):
    with pytest.raises(DomainError, match=rf"^seed {seed} must be a non-negative integer$"):
        mean_pairs(full_space(1), GridSpec(seed=seed))


# ---------------------------------------------------------------------------
# preconditions

def test_preconditions_pass_for_count_pairing():
    pair = negbinom_vs_poisson(4.0, 2.0)
    grid = mean_grid(pair.tilted.family.mean_domain, SPEC)
    pre = check_preconditions(pair.null, pair.tilted, grid)
    assert pre.all_passed


def test_preconditions_flag_canonical_domain_escape():
    pair = ig_vs_exp_pairing(2.0, 1.5)
    grid = mean_grid(pair.tilted.family.mean_domain, SPEC)
    pre = check_preconditions(pair.null, pair.tilted, grid)
    # above mean lam/2 the null's canonical interval outgrows the alternative's
    assert not pre.bp_subset_bq
    assert pre.mean_domain_convex and pre.mq_subset_mp


# ---------------------------------------------------------------------------
# verdict semantics

CERTIFIED_PAIRINGS = [
    lambda: negbinom_vs_poisson(4.0, 2.0),
    lambda: gaussian_scale_pairing(-3.0, 9.0),
    lambda: ksample_pairing("poisson", (0.5, 1.5)),
    lambda: ksample_pairing("gaussian", (0.2, 1.0, 1.8), sigma2=0.7),
    lambda: ksample_pairing("bernoulli", (0.375, 0.625)),
]


@pytest.mark.parametrize("build", CERTIFIED_PAIRINGS)
def test_battery_certifies_catalog_pairings(build):
    report = run_condition_battery(build(), SPEC)
    assert report.overall == CERTIFIED, report.reason
    assert all(item.passed for item in report.items.values())


def test_battery_refutes_crossing_variances():
    report = run_condition_battery(tweedie_pair((1.0, 1.2), (1.0, 1.8)), SPEC)
    assert report.overall == REFUTED
    assert not report.items["covariance_ordering"].passed


def test_battery_refutes_ig_alternative_for_every_anchor():
    for mu in (0.8, 1.5, 2.5):
        report = run_condition_battery(ig_vs_exp_pairing(2.0, mu), SPEC)
        assert report.overall == REFUTED
        assert not report.items["covariance_ordering"].passed


def _monte_carlo_pairing() -> Pairing:
    null = gaussian_scale_family()
    m, s2 = -3.0, 9.0
    carrier = CarrierAlternative(
        name="mc-normal",
        log_density=lambda u: -0.5 * ((np.asarray(u) - m) ** 2 / s2
                                      + np.log(2.0 * np.pi * s2)),
        mean_of_suff_stat=None, mgf_log=None,
        sampler=lambda n, rng: rng.normal(m, math.sqrt(s2), n))
    tilted = build_tilted_family(null, carrier, mc_samples=20_000, seed=0)
    return Pairing(name="mc-demo", null=null, tilted=tilted, params={})


def test_battery_is_inconclusive_for_stochastic_families():
    report = run_condition_battery(_monte_carlo_pairing(), SPEC)
    assert report.overall == INCONCLUSIVE
    assert "Monte Carlo" in report.reason
    assert report.stochastic


# ---------------------------------------------------------------------------
# closed-form margins for the gaussian location pairing

COV_P = np.array([[2.0, 0.3], [0.3, 1.0]])
COV_Q = np.array([[1.0, 0.1], [0.1, 0.5]])


def test_location_item_margins_match_closed_forms():
    pair = gaussian_location_pairing(COV_P, COV_Q, [1.0, -0.5])
    report = run_condition_battery(pair, SPEC)
    assert report.overall == CERTIFIED

    delta = COV_P - COV_Q
    want_cov = float(np.linalg.eigvalsh(delta)[0]
                     / np.abs(np.linalg.eigvalsh(COV_P)).max())
    got_cov = report.items["covariance_ordering"].worst_value
    assert got_cov == pytest.approx(want_cov, rel=1e-9)

    # the pairing margin is delta' (Sp^-1 - Sq^-1) delta over the same pairs
    pairs = mean_pairs(pair.tilted.family.mean_domain, SPEC)
    diff = np.linalg.inv(COV_P) - np.linalg.inv(COV_Q)
    gaps = np.array([(a - b) @ diff @ (a - b) for a, b in pairs])
    assert report.items["canonical_pairing"].worst_value == pytest.approx(
        float(gaps.max()), rel=1e-9)
    # the kl gap is exactly half the pairing gap for gaussians
    assert report.items["kl_ordering"].worst_value == pytest.approx(
        float(gaps.max()) / 2.0, rel=1e-9)
    assert report.items["log_partition_ordering"].worst_value <= 0.0


# one covariance-ordering rule: the relative minimum eigenvalue of Sigma_p - Sigma_q
# against -TOL_PSD, whichever check reads it, at the pairing's anchor mean
LINMODEL_DESIGN = LinearModelDesign(np.random.default_rng(11).normal(size=(12, 3)))
SHARED_COVARIANCE_PAIRS = {
    "negbinom-vs-poisson": lambda: negbinom_vs_poisson(4.0, 2.0),
    "ig-vs-exp-2.5": lambda: ig_vs_exp_pairing(2.0, 2.5),
    "gaussian-location": lambda: gaussian_location_pairing(COV_P, COV_Q, [1.0, -0.5]),
    "gaussian-location-swapped": lambda: gaussian_location_pairing(COV_Q, COV_P, [1.0, -0.5]),
    "linmodel": lambda: linmodel_pairing(LINMODEL_DESIGN, 0.8, [0.5, -0.3, 0.2]),
}


@pytest.mark.parametrize("key", sorted(SHARED_COVARIANCE_PAIRS))
def test_every_covariance_check_reads_one_margin(key):
    pair = SHARED_COVARIANCE_PAIRS[key]()
    mu = pair.tilted.mu_star
    ordering = check_sigma_ordering(pair.null, pair.tilted, mu[None])
    # (passed, relative margin) of each check; a threshold is -TOL_PSD times the scale
    verdicts = {"ordering": (ordering.passed, ordering.worst_value)}
    if key == "linmodel":
        lin = linmodel_psd_check(LINMODEL_DESIGN, pair.notes["theta"], mu)
        verdicts["linmodel"] = (lin.passed, lin.min_eigenvalue / lin.threshold * -TOL_PSD)
    for name, (passed, margin) in verdicts.items():
        assert passed == ordering.passed, name
        assert margin == pytest.approx(ordering.worst_value, rel=1e-12), name
    assert ordering.passed == (key not in ("ig-vs-exp-2.5", "gaussian-location-swapped"))


def test_failed_preconditions_are_not_reported_as_stochastic():
    # the Poisson null's canonical domains are unbounded above, the Tweedie
    # 1.5 alternative's are not, so B_p is not inside B_q; every ordering
    # holds on the grids and nothing here is Monte Carlo
    pair = tweedie_pair((1.0, 1.0), (1e-5, 1.5))
    report = run_condition_battery(pair, SPEC)
    assert report.overall == INCONCLUSIVE_PRECONDITIONS
    assert not report.preconditions.all_passed
    assert all(item.passed for item in report.items.values())
    assert not report.stochastic


# ---------------------------------------------------------------------------
# e-values and growth rates

def test_simple_evalue_validates_mean_and_density():
    pair = negbinom_vs_poisson(4.0, 2.0)
    with pytest.raises(DomainError):
        simple_evalue(pair.tilted, pair.null, np.array([-1.0]), np.array([0.0]))
    density_free = abm_vs_poisson(3.0, 2, 1.5)
    with pytest.raises(UnsupportedModelError):
        simple_evalue(density_free.tilted, density_free.null,
                      np.array([1.5]), np.array([0.0]))


def test_simple_evalue_is_the_exp_of_the_log_evalue():
    pair = negbinom_vs_poisson(4.0, 2.0)
    mu = np.array([2.0])
    counts = np.array([0.0, 1.0, 2.0, 7.0, 300.0])
    logs = simple_log_evalue(pair.tilted, pair.null, mu, counts)
    assert np.array_equal(simple_evalue(pair.tilted, pair.null, mu, counts), np.exp(logs))
    assert simple_log_evalue(pair.tilted, pair.null, mu, 300.0) == logs[-1]
    # the ratio underflows to 0 at 300 while its log stays finite
    assert simple_evalue(pair.tilted, pair.null, mu, 300.0) == 0.0
    assert -894.0 < logs[-1] < -893.0
    with pytest.raises(DomainError):
        simple_log_evalue(pair.tilted, pair.null, np.array([-1.0]), counts)


def test_simple_evalue_overflows_to_inf_without_a_warning():
    pair = ksample_pairing("poisson", (0.01, 10.0))
    mu = np.array([10.01])
    log_value = simple_log_evalue(pair.tilted, pair.null, mu, np.array([0.0, 1200.0]))
    assert 709.8 < log_value < np.inf
    assert simple_evalue(pair.tilted, pair.null, mu, np.array([0.0, 1200.0])) == np.inf


def test_growth_rate_finite_enumeration_frozen():
    pair = ksample_pairing("bernoulli", (0.375, 0.625))
    got = growth_rate(pair.tilted, pair.null, np.array([1.0]))
    # the product route is exact up to the scalar tilt solve inside the member lookup
    assert got == pytest.approx(0.06316788636642343, abs=1e-7)
    kl = lambda a, b: a * math.log(a / b) + (1 - a) * math.log((1 - a) / (1 - b))
    assert got == pytest.approx(kl(0.375, 0.5) + kl(0.625, 0.5), abs=1e-7)


def test_growth_rate_quadrature_matches_monte_carlo():
    pair = ig_vs_exp_pairing(2.0, 0.8)
    mu = np.array([0.8])
    got = growth_rate(pair.tilted, pair.null, mu)

    def log_ratio(u):
        lq = pair.tilted.family.carrier_log_density(np.asarray(u), mu)
        lp = pair.null.carrier_log_density(np.asarray(u), mu)
        return np.asarray(lq - lp, dtype=float)

    mc = expect_monte_carlo(lambda n, rng: rng.wald(0.8, 2.0, n), log_ratio,
                            n=400_000, seed=7)
    assert got == pytest.approx(mc.value, abs=max(mc.error_bound, 1e-4))
    assert got > 0.0


# dropping a law keeps the density derived from it, so only the law check refuses
@pytest.mark.parametrize("side", ["null", "alternative"])
def test_growth_rate_of_a_family_without_a_declared_law_is_refused(side):
    pair = ksample_pairing("poisson", (0.5, 1.0, 1.5))
    if side == "null":
        pair = dataclasses.replace(pair, null=dataclasses.replace(pair.null, law=None))
    else:
        bare = dataclasses.replace(pair.tilted.family, law=None)
        pair = dataclasses.replace(pair, tilted=dataclasses.replace(pair.tilted, family=bare))
    assert simple_evalue(pair.tilted, pair.null, pair.tilted.mu_star, np.ones(3)) > 0.0
    with pytest.raises(UnsupportedModelError, match="declare their laws"):
        growth_rate(pair.tilted, pair.null, pair.tilted.mu_star)


def test_growth_rate_at_matched_mean_is_zero_for_identical_members():
    pair = ksample_pairing("gaussian", (0.9, 0.9))
    got = growth_rate(pair.tilted, pair.null, np.array([1.8]), n_mc=5_000)
    assert got == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# report serialization

def test_report_round_trips_through_json():
    report = run_condition_battery(negbinom_vs_poisson(4.0, 2.0), SPEC)
    payload = json.dumps(report.to_dict(), sort_keys=True)
    back = json.loads(payload)
    assert back["overall"] == CERTIFIED
    assert back["report_version"] == 2
    assert set(back["items"]) == {"covariance_ordering", "canonical_pairing",
                                  "kl_ordering", "log_partition_ordering"}


def test_report_serializes_infinite_margins():
    report = run_condition_battery(ig_vs_exp_pairing(2.0, 1.5), SPEC)
    payload = json.dumps(report.to_dict())
    assert json.loads(payload)["overall"] == REFUTED
