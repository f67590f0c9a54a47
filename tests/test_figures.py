"""Figure data builders: exact landmark points, monotonicity, CSV output."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.special import expit, logit

from evfam.errors import DomainError, UnsupportedModelError
from evfam.figures import (
    FIG1_CARRIERS,
    bernoulli_tilt_curves,
    figure_data,
    ig_expectation_curves,
    scale_tilt_trajectories,
    write_figure_csv,
)
from evfam.models import ig_vs_exp_pairing
from evfam.oracles import expect_quadrature


def test_scale_trajectories_anchor_and_projection():
    rows, config = scale_tilt_trajectories()
    assert config["carriers"] == [[1.0, 1.0], [2.0, 4.0], [-3.0, 9.0]]
    assert len(rows) == 3 * (config["n_points"] + 1)
    rows = [r for r in rows if r[1] == "m=-3;s2=9"]
    anchors = [r for r in rows if r[4] == "anchor"]
    assert len(anchors) == 1
    # the anchor is the carrier itself: variance 9, location -3
    assert anchors[0][2] == pytest.approx(9.0, rel=1e-12)
    assert anchors[0][3] == pytest.approx(-3.0, rel=1e-12)
    projs = [r for r in rows if r[4] == "projection"]
    assert projs == [("fig1", "m=-3;s2=9", 18.0, 0.0, "projection")]


def test_scale_trajectories_lie_on_the_member_curve():
    rows, _ = scale_tilt_trajectories()
    for m, s2 in FIG1_CARRIERS:
        c = 1.0 / (2.0 * s2)
        for _, _, var, loc, flag in (r for r in rows if r[1] == f"m={m:g};s2={s2:g}"):
            if flag == "projection":
                continue
            # member at parameter t: variance 1/(2t), location m c / t
            t = 1.0 / (2.0 * var)
            assert loc == pytest.approx(m * c / t, rel=1e-12)


def test_bernoulli_curves_monotone_through_anchor():
    rows, _ = bernoulli_tilt_curves(arm_means=(0.375, 0.625))
    for arm, m in (("arm1", 0.375), ("arm2", 0.625)):
        series = [r for r in rows if r[1].startswith(arm)]
        ys = np.array([r[3] for r in series])
        assert np.all(np.diff(ys) > 0.0)
        assert np.all((ys > 0.0) & (ys < 1.0))
        anchor = [r for r in series if r[4] == "anchor"]
        assert len(anchor) == 1 and anchor[0][3] == pytest.approx(m, rel=1e-12)
        # the curve is the logistic in the tilt
        for _, _, beta, y, _ in series:
            assert y == pytest.approx(float(expit(logit(m) + beta)), rel=1e-12)


def test_bernoulli_curves_validate_means():
    with pytest.raises(DomainError):
        bernoulli_tilt_curves(arm_means=(0.0, 0.5))


@pytest.mark.parametrize("arm_means", [(0.3,), (0.2, 0.5, 0.7)])
def test_bernoulli_curves_need_two_means(arm_means):
    with pytest.raises(DomainError, match=f"^fig2 needs exactly two arm means, got {len(arm_means)}$"):
        bernoulli_tilt_curves(arm_means=arm_means)


# lam was never read when every mean exceeded it, so lam = -1 gave three not-local rows
@pytest.mark.parametrize("options, name", [
    ({"lam": -1.0}, "lam"), ({"lam": float("nan")}, "lam"),
    ({"mus": (0.8, float("inf"))}, "mu"), ({"mus": (2.5, 0.0)}, "mu"),
])
def test_ig_curves_refuse_a_parameter_that_is_not_finite_and_positive(options, name):
    with pytest.raises(UnsupportedModelError, match=f"needs a finite {name} > 0"):
        ig_expectation_curves(**options)


def test_ig_curves_flag_divergence_past_threshold():
    rows, config = ig_expectation_curves(lam=2.0, mus=(1.5,))
    assert config["thresholds"]["mu=1.5"] == pytest.approx(4.5)
    assert {flag for *_, flag in rows} == {"finite", "diverged"}
    for _, _, x, y, flag in rows:
        if x < 4.5:
            assert flag == "finite" and np.isfinite(y)
        else:
            assert flag == "diverged" and np.isnan(y)


def test_ig_curves_mark_not_local_alternatives():
    rows, _ = ig_expectation_curves(lam=2.0, mus=(2.5,))
    assert rows == [("fig3", "mu=2.5", 2.5, pytest.approx(np.nan, nan_ok=True),
                     "not-local")]


def test_ig_curves_all_finite_in_the_global_regime():
    rows, _ = ig_expectation_curves(lam=2.0, mus=(0.8,))
    assert all(flag == "finite" for *_, flag in rows)
    assert all(np.isfinite(r[3]) for r in rows)


def test_figure_dispatch_and_unknown_id():
    rows, config = figure_data("fig2")
    assert len(rows) == 2 * 129 and config["n_points"] == 129
    with pytest.raises(DomainError, match="unknown figure id"):
        figure_data("fig9")


def test_csv_writer_is_deterministic(tmp_path):
    rows, config = figure_data("fig1")
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_figure_csv(rows, config, p1)
    write_figure_csv(rows, config, p2)
    t1, t2 = p1.read_text(), p2.read_text()
    assert t1 == t2
    lines = t1.splitlines()
    comments = [ln for ln in lines if ln.startswith("# ")]
    assert comments == sorted(comments)
    header_idx = len(comments)
    assert lines[header_idx] == "figure,series,x,y,flag"
    # every data row parses back to the same floats
    for row, line in zip(rows, lines[header_idx + 1:]):
        cells = line.split(",")
        assert float(cells[2]) == row[2] and float(cells[3]) == row[3]


def _quadrature_expectation(lam, mu, mu_prime):
    """E_{P_mu'}[q_mu / p_mu] by adaptive quadrature of the fused integrand."""
    pairing = ig_vs_exp_pairing(lam, mu)
    null, alt, anchor = pairing.null, pairing.tilted.family, np.array([mu])

    def weighted(u):
        logs = (null.carrier_log_density(u, np.array([mu_prime]))
                + alt.carrier_log_density(u, anchor) - null.carrier_log_density(u, anchor))
        with np.errstate(over="ignore"):
            return np.exp(logs)

    return expect_quadrature(weighted, np.ones_like, "positive-line", center=mu_prime, scale=mu_prime)


# the closed form against the independent quadrature route, on both sides of
# the mu = 1.5 threshold (4.5) and in the all-finite regime, at every eighth
# point of the curve inside grid_range
@pytest.mark.parametrize("mu, grid_range", [(0.8, (0.2, 7.0)), (1.5, (0.5, 6.0))])
def test_ig_curve_points_match_quadrature(mu, grid_range):
    rows, _ = ig_expectation_curves(lam=2.0, mus=(mu,))
    inside = [r for r in rows if grid_range[0] <= r[2] <= grid_range[1]]
    for _, _, mu_prime, y, flag in inside[::8]:
        est = _quadrature_expectation(2.0, mu, mu_prime)
        assert flag == ("diverged" if est.diverged else "finite")
        if flag == "finite":
            assert y == pytest.approx(est.value, rel=1e-10)
