"""End-to-end acceptance checks, one summary line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
print.  Every expected number here is either a closed form computed inside
the test or an independently certified truncated sum or quadrature;
tolerances are stated next to each check.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest
import scipy.stats as st

from evfam.conditions import check_sigma_ordering, run_condition_battery, simple_evalue
from evfam.families import (
    canonical_from_mean,
    covariance_at_mean,
    kl_between_means,
    log_density,
    log_partition_at,
    mean_from_canonical,
)
from evfam.figures import figure_data
from evfam.linear_model import (
    LinearModelDesign,
    LinearModelParams,
    linmodel_pairing,
    linmodel_psd_check,
    mean_of_params,
)
from evfam.models import (
    abm_family,
    abm_vs_poisson,
    gamma_family,
    gaussian_location_family,
    gaussian_location_pairing,
    gaussian_scale_family,
    gaussian_scale_pairing,
    ig_vs_exp_pairing,
    inverse_gaussian_family,
    ksample_null_family,
    ksample_pairing,
    negbinom_family,
    negbinom_vs_poisson,
    poisson_family,
    tweedie_family,
)
from evfam.oracles import expect_quadrature, finite_diff_check, poisson_tail_bound
from evfam.sequential import simulate_two_sample


def _report(index: int, label: str, ok: bool, detail: str, started: float,
            budget: float) -> None:
    elapsed = time.perf_counter() - started
    status = "PASS" if ok else "FAIL"
    print(f"[{index:2d}/10] {status} {label}: {detail} ({elapsed:.1f}s)")
    assert ok, f"{label}: {detail}"
    assert elapsed < budget, f"{label} took {elapsed:.1f}s, budget {budget:.0f}s"


def test_01_poisson_two_sample_expectation_is_constant_one():
    started = time.perf_counter()
    pair = ksample_pairing("poisson", (1.0, 3.0))
    n_cut = 64
    grid = np.arange(n_cut, dtype=float)
    u1, u2 = np.meshgrid(grid, grid, indexing="ij")
    outcomes = np.column_stack([u1.ravel(), u2.ravel()])
    mus = np.linspace(0.2, 10.0, 16)
    worst = 0.0
    for mu in mus:
        probs = np.exp(st.poisson.logpmf(outcomes, mu / 2.0).sum(axis=1))
        vals = simple_evalue(pair.tilted, pair.null, np.array([mu]), outcomes)
        total = float(probs @ vals)
        # the summand is a product poisson with arm rates mu/4 and 3 mu/4
        remainder = sum(poisson_tail_bound(mu * w, n_cut) for w in (0.25, 0.75))
        assert remainder < 1e-12
        worst = max(worst, abs(total - 1.0))
    _report(1, "poisson two-sample truncated sums equal one",
            worst <= 1e-10, f"max |E-1| = {worst:.2e} over 16 null means",
            started, 5.0)


def test_02_bernoulli_two_sample_expectation_and_log_partition_order():
    started = time.perf_counter()
    outcomes = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    alternatives = [(0.375, 0.625), (0.2, 0.8), (0.3, 0.4), (0.45, 0.55),
                    (0.1, 0.3), (0.6, 0.9), (0.25, 0.5), (0.7, 0.8)]
    null_means = np.linspace(0.05, 1.95, 32)
    worst_e = -np.inf
    for arms in alternatives:
        pair = ksample_pairing("bernoulli", arms)
        for mu in null_means:
            p = mu / 2.0
            probs = np.prod(np.where(outcomes > 0.5, p, 1.0 - p), axis=1)
            vals = simple_evalue(pair.tilted, pair.null, np.array([mu]), outcomes)
            worst_e = max(worst_e, float(probs @ vals) - 1.0)

    pair = ksample_pairing("bernoulli", (0.375, 0.625))
    betas = np.linspace(-8.0, 8.0, 64)
    anchors = np.linspace(0.05, 1.95, 64)
    worst_gap = -np.inf
    for mu in anchors:
        anchor = np.array([mu])
        for beta in betas:
            gap = (log_partition_at(pair.tilted.family, np.array([beta]), anchor)
                   - log_partition_at(pair.null, np.array([beta]), anchor))
            worst_gap = max(worst_gap, gap)
    ok = worst_e <= 1e-12 and worst_gap <= 1e-12
    _report(2, "bernoulli two-sample expectations and log-partition order",
            ok, f"max E-1 = {worst_e:.2e} (8 alts x 32 nulls), "
                f"max logZ_q-logZ_p = {worst_gap:.2e} (64x64)",
            started, 5.0)


def test_03_gaussian_scale_moment_identity_and_quadrature():
    started = time.perf_counter()
    carriers = [(-3.0, 9.0), (1.0, 1.0), (2.0, 4.0), (0.5, 0.25), (-1.0, 2.0)]
    worst_margin = np.inf
    for m, s2 in carriers:
        c = 1.0 / (2.0 * s2)
        for t in np.geomspace(c / 64.0, 64.0 * c, 200):
            e = (c * m / t) ** 2 + 1.0 / (2.0 * t)
            var = (t + 4.0 * c * c * m * m) / (2.0 * t ** 3)
            worst_margin = min(worst_margin,
                               (2.0 * e * e - var) / max(1.0, var))

    pair = gaussian_scale_pairing(-3.0, 9.0)
    mu_star = np.array([18.0])
    worst_e = -np.inf
    for s2_null in np.geomspace(0.5, 50.0, 16):
        def weighted(u, _v=s2_null):
            arr = np.asarray(u, dtype=float)
            logs = (pair.null.carrier_log_density(arr, np.array([_v]))
                    + pair.tilted.family.carrier_log_density(arr, mu_star)
                    - pair.null.carrier_log_density(arr, mu_star))
            return np.exp(np.asarray(logs, dtype=float))

        est = expect_quadrature(weighted, lambda u: np.ones_like(u),
                                "real-line", center=0.0, scale=math.sqrt(s2_null))
        assert not est.diverged
        worst_e = max(worst_e, est.value - 1.0)
    ok = worst_margin >= -1e-12 and worst_e <= 1e-6
    _report(3, "gaussian scale variance identity and null expectations",
            ok, f"min moment margin = {worst_margin:.2e} (5 pairs x 200 tilts), "
                f"max E-1 = {worst_e:.2e} (16 null variances)",
            started, 30.0)


def test_04_battery_items_agree_across_the_catalog():
    started = time.perf_counter()
    cov_big = np.array([[2.0, 0.3], [0.3, 1.0]])
    cov_small = np.array([[1.0, 0.1], [0.1, 0.5]])
    all_pass = {
        "location-ordered": gaussian_location_pairing(cov_big, cov_small, [1.0, -0.5]),
        "scale": gaussian_scale_pairing(-3.0, 9.0),
        "poisson-k2": ksample_pairing("poisson", (0.5, 1.5)),
        "poisson-k3": ksample_pairing("poisson", (0.5, 1.0, 1.5)),
        "gaussian-k2": ksample_pairing("gaussian", (0.2, 1.0)),
        "gaussian-k3": ksample_pairing("gaussian", (0.2, 1.0, 1.8)),
        "bernoulli-k2": ksample_pairing("bernoulli", (0.375, 0.625)),
        "bernoulli-k3": ksample_pairing("bernoulli", (0.3, 0.5, 0.7)),
        "negbinom-vs-poisson": negbinom_vs_poisson(4.0, 2.0),
        "abm-r1": abm_vs_poisson(3.0, 1, 2.0),
        "abm-r2": abm_vs_poisson(3.0, 2, 2.0),
    }
    problems = []
    for label, pairing in all_pass.items():
        report = run_condition_battery(pairing)
        flags = {k: v.passed for k, v in report.items.items()}
        if not all(flags.values()):
            problems.append(f"{label} failed {flags}")
        if report.overall != "simple-evariable-certified":
            problems.append(f"{label} verdict {report.overall}")

    reversed_loc = gaussian_location_pairing(cov_small, cov_big, [1.0, -0.5])
    report = run_condition_battery(reversed_loc)
    flags = {k: v.passed for k, v in report.items.items()}
    if any(flags.values()):
        problems.append(f"reversed location not uniformly failing: {flags}")
    if report.overall != "refuted":
        problems.append(f"reversed location verdict {report.overall}")
    _report(4, "condition battery items agree for the whole catalog",
            not problems, "; ".join(problems) or
            "11 pairings all-pass, reversed ordering all-fail",
            started, 120.0)


def _ig_expectation(pair, mu_alt: float, mu_null: float):
    anchor = np.array([mu_alt])

    def weighted(u):
        arr = np.asarray(u, dtype=float)
        logs = (pair.null.carrier_log_density(arr, np.array([mu_null]))
                + pair.tilted.family.carrier_log_density(arr, anchor)
                - pair.null.carrier_log_density(arr, anchor))
        with np.errstate(over="ignore"):
            return np.exp(np.asarray(logs, dtype=float))

    return expect_quadrature(weighted, lambda u: np.ones_like(u),
                             "positive-line", center=mu_null, scale=mu_null)


def test_05_inverse_gaussian_divergence_thresholds_and_regimes():
    started = time.perf_counter()
    lam = 2.0
    problems = []

    for mu in (1.2, 1.5, 1.8):
        threshold = 1.0 / (1.0 / mu - lam / (2.0 * mu * mu))
        pair = ig_vs_exp_pairing(lam, mu)
        step = 0.05
        # half-step offset keeps the scan off the singular boundary itself
        scan = threshold + (np.arange(-8, 8) + 0.5) * step
        flags = [_ig_expectation(pair, mu, x).diverged for x in scan]
        if sorted(flags) != flags:
            problems.append(f"mu={mu}: divergence not monotone along the scan")
            continue
        flip = int(np.argmax(flags))
        if not flags[flip] or flip == 0:
            problems.append(f"mu={mu}: no flip inside "
                            f"({scan[0]:.2f}, {scan[-1]:.2f})")
            continue
        last_finite, first_div = scan[flip - 1], scan[flip]
        if not (last_finite <= threshold + step + 1e-9
                and first_div >= threshold - step - 1e-9):
            problems.append(f"mu={mu}: flip at ({last_finite:.3f}, {first_div:.3f}) "
                            f"vs threshold {threshold:.3f}")

    pair = ig_vs_exp_pairing(lam, 0.8)
    finite_flags = [not _ig_expectation(pair, 0.8, x).diverged
                    for x in np.geomspace(0.1, 8.0, 64)]
    if not all(finite_flags):
        problems.append(f"mu=0.8: {finite_flags.count(False)} of 64 diverged")

    pair = ig_vs_exp_pairing(lam, 1.5)
    for x in (3.0, 4.0, 4.4):
        if _ig_expectation(pair, 1.5, x).diverged:
            problems.append(f"mu=1.5: diverged at {x} below 4.5")
    for x in (4.55, 5.0, 7.0):
        if not _ig_expectation(pair, 1.5, x).diverged:
            problems.append(f"mu=1.5: finite at {x} above 4.5")

    pair = ig_vs_exp_pairing(lam, 2.5)
    rep = check_sigma_ordering(pair.null, pair.tilted, pair.tilted.mu_star[None])
    if rep.passed:
        problems.append("mu=2.5: local covariance check unexpectedly passed")
    _report(5, "inverse gaussian divergence flips at the analytic threshold",
            not problems, "; ".join(problems) or
            "flips within 0.05 for mu in {1.2, 1.5, 1.8}; regimes as classified",
            started, 120.0)


def test_06_linear_model_ordering_and_null_expectations():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    problems = []
    designs = []
    sizes = [(n, d) for n in (5, 10, 20) for d in (1, 2, 3)]
    while len(designs) < 20:
        n, d = sizes[len(designs) % len(sizes)]
        designs.append(LinearModelDesign(rng.normal(size=(n, d + 1))))

    for i, design in enumerate(designs):
        for _ in range(5):
            params = LinearModelParams(sigma2=0.3 + rng.random(),
                                       gamma=rng.normal(size=design.d + 1))
            rep = linmodel_psd_check(design, params.theta,
                                     mean_of_params(design, params), tol=1e-8)
            if not rep.passed:
                problems.append(f"design {i}: min eig {rep.min_eigenvalue:.2e}")
            if rep.schur_margin < -1e-8:
                problems.append(f"design {i}: schur {rep.schur_margin:.2e}")

    def evalues(design: LinearModelDesign, params: LinearModelParams, y) -> np.ndarray:
        pair = linmodel_pairing(design, params.sigma2, params.gamma)
        return simple_evalue(pair.tilted, pair.null, pair.tilted.mu_star, y)

    for i, design in enumerate(designs[:5]):
        params = LinearModelParams(sigma2=1.0, gamma=rng.normal(size=design.d + 1))
        # the same-mean null member is the least-squares fit in the nuisance columns
        nu = design.x @ params.gamma
        coef, *_ = np.linalg.lstsq(design.nuisance, nu, rcond=None)
        gap = nu - design.nuisance @ coef
        draws = (design.nuisance @ coef
                 + rng.standard_normal((100_000, design.n))
                 * math.sqrt(params.sigma2 + gap @ gap / design.n))
        vals = evalues(design, params, draws)
        slack = 3.0 * vals.std() / math.sqrt(vals.size)
        if vals.mean() > 1.0 + slack:
            problems.append(f"mc design {i}: mean {vals.mean():.5f} > 1 + {slack:.5f}")

    design = designs[0]
    trivial = LinearModelParams(sigma2=0.8, gamma=np.array([0.0, *rng.normal(size=design.d)]))
    vals = evalues(design, trivial, rng.normal(size=(50, design.n)))
    if not np.allclose(vals, 1.0, atol=1e-12):
        problems.append("zero tested coefficient does not give unit e-values")
    _report(6, "linear model covariance ordering and null expectations",
            not problems, "; ".join(problems) or
            "20 designs x 5 means PSD; 5 designs MC within 3 sigma; trivial case exact",
            started, 180.0)


DUALITY_FAMILIES = [
    ("poisson", poisson_family(), "positive", 2.0),
    ("gamma", gamma_family(2.5), "positive", 2.0),
    ("negbinom", negbinom_family(4.0), "positive", 2.0),
    ("abm-r2", abm_family(3.0, 2), "positive", 2.0),
    ("tweedie-1.5", tweedie_family(0.7, 1.5), "positive", 2.0),
    ("invgauss", inverse_gaussian_family(2.0), "positive", 2.0),
    ("gaussian-scale", gaussian_scale_family(), "positive", 2.0),
    ("gaussian-location", gaussian_location_family([[1.5]]), "real", 0.5),
    ("bernoulli-2sample", ksample_null_family("bernoulli", 2), "unit-interval", 1.0),
]


def _interior_means(kind: str, rng: np.random.Generator, count: int) -> np.ndarray:
    if kind == "positive":
        return np.exp(rng.uniform(np.log(0.1), np.log(20.0), count))
    if kind == "unit-interval":
        return rng.uniform(0.1, 1.9, count)
    return rng.uniform(-5.0, 5.0, count)


def test_07_duality_gradients_and_hessians():
    started = time.perf_counter()
    rng = np.random.default_rng(7)
    problems = []
    for label, fam, kind, anchor_val in DUALITY_FAMILIES:
        anchor = np.array([anchor_val])
        means = _interior_means(kind, rng, 50)
        for m in means:
            mu = np.array([m])
            beta = canonical_from_mean(fam, mu, anchor)
            checks = {
                "cumulant-gradient": finite_diff_check(
                    lambda b: log_partition_at(fam, b, anchor), beta,
                    mean_from_canonical(fam, beta, anchor), "gradient", 1e-5),
                "divergence-gradient": finite_diff_check(
                    lambda x: kl_between_means(fam, x, anchor), mu,
                    beta, "gradient", 1e-5),
                "divergence-hessian": finite_diff_check(
                    lambda x: kl_between_means(fam, x, anchor), mu,
                    np.linalg.inv(covariance_at_mean(fam, mu)), "hessian", 1e-4),
            }
            for name, check in checks.items():
                if not check.passed:
                    problems.append(f"{label} at {m:.3g}: {name} "
                                    f"rel {check.rel_error:.1e}")
    _report(7, "cumulant and divergence derivatives match finite differences",
            not problems, "; ".join(problems[:4]) or
            f"{len(DUALITY_FAMILIES)} families x 50 points x 3 identities",
            started, 60.0)


REPARAM_FAMILIES = [
    ("poisson", poisson_family(), "positive",
     lambda rng, n: rng.poisson(3.0, n).astype(float)),
    ("gamma", gamma_family(2.5), "positive",
     lambda rng, n: rng.gamma(2.5, 1.0, n)),
    ("negbinom", negbinom_family(4.0), "positive",
     lambda rng, n: rng.negative_binomial(4, 0.5, n).astype(float)),
    ("invgauss", inverse_gaussian_family(1.7), "positive",
     lambda rng, n: rng.wald(1.0, 1.7, n)),
    ("gaussian-scale", gaussian_scale_family(), "positive",
     lambda rng, n: rng.normal(0.0, 1.5, n)),
    ("gaussian-location", gaussian_location_family([[2.0]]), "real",
     lambda rng, n: rng.normal(0.0, 2.0, (n, 1))),
]


def test_08_reparameterization_preserves_log_densities():
    started = time.perf_counter()
    rng = np.random.default_rng(8)
    worst = 0.0
    for label, fam, kind, draw in REPARAM_FAMILIES:
        a_vals = _interior_means(kind, rng, 2)
        anchor_a, anchor_b = np.array([a_vals[0]]), np.array([a_vals[1]])
        dom = fam.canonical_domain(anchor_a)
        hi = dom.upper[0] if np.isfinite(dom.upper[0]) else 1.0
        beta = np.array([hi * (0.5 - 0.9 * rng.random())])
        beta_b = beta + canonical_from_mean(fam, anchor_a, anchor_b)
        u = draw(rng, 100)
        la = log_density(fam, beta, anchor_a, u)
        lb = log_density(fam, beta_b, anchor_b, u)
        worst = max(worst, float(np.max(np.abs(la - lb))))
    _report(8, "log densities are invariant under re-anchoring",
            worst <= 1e-10, f"max pointwise gap = {worst:.2e} "
            f"({len(REPARAM_FAMILIES)} families x 100 points)",
            started, 60.0)


def test_09_sequential_crossing_rate_and_growth():
    started = time.perf_counter()
    null_run = simulate_two_sample((0.5, 0.5), rounds=500, n_paths=10_000, seed=0,
                                   tail_window=100)
    bound = 0.05 + 3.0 * math.sqrt(0.05 * 0.95 / 10_000)
    alt_run = simulate_two_sample((0.375, 0.625), rounds=500, n_paths=10_000, seed=0,
                                  tail_window=100)
    kl = lambda a, b: a * math.log(a / b) + (1 - a) * math.log((1 - a) / (1 - b))
    exact = kl(0.375, 0.5) + kl(0.625, 0.5)
    assert exact == pytest.approx(0.06316788636642343, abs=1e-8)
    ratio = alt_run.tail_log_growth / exact

    replay = simulate_two_sample((0.375, 0.625), rounds=500, n_paths=200, seed=0,
                                 tail_window=100)
    deterministic = np.array_equal(replay.final_log_values,
                                   alt_run.final_log_values[:200])
    ok = (null_run.ever_crossed_fraction <= bound
          and abs(ratio - 1.0) <= 0.05 and deterministic)
    _report(9, "anytime validity and plug-in growth of the sequential test",
            ok, f"null crossing {null_run.ever_crossed_fraction:.4f} <= {bound:.4f}, "
                f"tail growth / exact = {ratio:.4f}, deterministic={deterministic}",
            started, 120.0)


def test_10_figure_data_reproduces_the_standard_structure():
    started = time.perf_counter()
    problems = []

    rows, _ = figure_data("fig1")
    for m, s2 in ((1.0, 1.0), (2.0, 4.0), (-3.0, 9.0)):
        series = f"m={m:g};s2={s2:g}"
        anchors = [r for r in rows if r[1] == series and r[4] == "anchor"]
        projs = [r for r in rows if r[1] == series and r[4] == "projection"]
        if len(anchors) != 1 or abs(anchors[0][2] - s2) > 1e-9 * s2 \
                or abs(anchors[0][3] - m) > 1e-9 * abs(m):
            problems.append(f"fig1 {series}: anchor {anchors}")
        if projs != [("fig1", series, s2 + m * m, 0.0, "projection")]:
            problems.append(f"fig1 {series}: projection {projs}")

    rows, _ = figure_data("fig2")
    for arm in ("arm1", "arm2"):
        ys = np.array([r[3] for r in rows if r[1].startswith(arm)])
        if not (np.all(np.diff(ys) > 0) and ys[0] < 1e-4 and ys[-1] > 1 - 1e-4):
            problems.append(f"fig2 {arm}: not monotone from 0 to 1")

    rows, config = figure_data("fig3")
    by_series = {}
    for r in rows:
        by_series.setdefault(r[1], []).append(r)
    finite_08 = all(r[4] == "finite" for r in by_series["mu=0.8"])
    split_15 = ([r[4] for r in by_series["mu=1.5"] if r[2] < 4.5],
                [r[4] for r in by_series["mu=1.5"] if r[2] > 4.5])
    absent_25 = by_series["mu=2.5"][0][4] == "not-local" and len(by_series["mu=2.5"]) == 1
    if not finite_08:
        problems.append("fig3 mu=0.8: not all finite")
    if set(split_15[0]) != {"finite"} or set(split_15[1]) != {"diverged"}:
        problems.append("fig3 mu=1.5: wrong finite/diverged split at 4.5")
    if not absent_25:
        problems.append("fig3 mu=2.5: expected a single not-local marker")
    if config["thresholds"]["mu=1.5"] != pytest.approx(4.5):
        problems.append("fig3 threshold annotation wrong")
    _report(10, "figure data: anchors, monotone curves, three regimes",
            not problems, "; ".join(problems) or
            "fig1 anchors/projections exact; fig2 monotone; fig3 regimes",
            started, 60.0)
