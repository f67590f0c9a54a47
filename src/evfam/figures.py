"""Reproducible data sets behind the package's three standard plots.

Each builder returns plain rows (figure id, series id, x, y, flag) plus the
effective configuration, and the CSV writer embeds that configuration as
comment lines so a data file is self-describing.  A builder refuses an
option outside its range before it makes any row.
"""

from __future__ import annotations

import inspect

import numpy as np

from .errors import DomainError
from .families import canonical_from_mean
from .models import _require_positive, ig_divergence_threshold, ig_regime, ig_vs_exp_pairing
from .tilt import f_gap_info

__all__ = [
    "figure_data",
    "write_figure_csv",
    "scale_tilt_trajectories",
    "bernoulli_tilt_curves",
    "ig_expectation_curves",
]

CSV_HEADER = ("figure", "series", "x", "y", "flag")
FIG1_CARRIERS = ((1.0, 1.0), (2.0, 4.0), (-3.0, 9.0))
FIG1_POINTS = 65
FIG2_BETA_RANGE = 16.0
FIG2_POINTS = 129
FIG3_GRID_RANGE = (0.1, 8.0)
FIG3_POINTS = 64


def scale_tilt_trajectories():
    """Trajectories of tilted normal carriers in the (variance, location) plane.

    Tilting N(m, s^2) through the squared-observation statistic gives the
    members N(m c / t, 1 / (2 t)) for t in (0, inf) with c = 1 / (2 s^2);
    t = c recovers the carrier (flagged ``anchor``) and the projection onto
    the zero-location family sits at variance s^2 + m^2 (flagged
    ``projection``).  Each of ``FIG1_CARRIERS`` gives ``FIG1_POINTS`` members.
    """
    rows = []
    for m, s2 in FIG1_CARRIERS:
        series = f"m={m:g};s2={s2:g}"
        c = 1.0 / (2.0 * s2)
        ts = np.geomspace(c / 16.0, 16.0 * c, FIG1_POINTS)
        anchor_idx = int(np.argmin(np.abs(np.log(ts / c))))
        for i, t in enumerate(ts):
            flag = "anchor" if i == anchor_idx else ""
            rows.append(("fig1", series, 1.0 / (2.0 * t), m * c / t, flag))
        rows.append(("fig1", series, s2 + m * m, 0.0, "projection"))
    config = {"carriers": [list(pair) for pair in FIG1_CARRIERS], "n_points": FIG1_POINTS}
    return rows, config


def bernoulli_tilt_curves(arm_means=(0.375, 0.625)):
    """Per-arm means of the tilted two-sample Bernoulli family against the tilt.

    Both arms move monotonically under a common exponential tilt, from 0 to 1,
    through the carrier means at zero tilt (``FIG2_POINTS`` tilts on +-``FIG2_BETA_RANGE``).
    """
    if len(arm_means) != 2:
        raise DomainError(f"fig2 needs exactly two arm means, got {len(arm_means)}")
    m1, m2 = arm_means
    if not (0.0 < m1 < 1.0 and 0.0 < m2 < 1.0):
        raise DomainError("arm means must lie strictly inside (0, 1)")
    from scipy.special import expit, logit
    betas = np.linspace(-FIG2_BETA_RANGE, FIG2_BETA_RANGE, FIG2_POINTS)
    rows = []
    for arm, m in (("arm1", m1), ("arm2", m2)):
        series = f"{arm};m1={m1:g};m2={m2:g}"
        base = logit(m)
        for beta in betas:
            flag = "anchor" if beta == 0.0 else ""
            rows.append(("fig2", series, float(beta), float(expit(base + beta)), flag))
    config = {"arm_means": [m1, m2], "beta_range": FIG2_BETA_RANGE, "n_points": FIG2_POINTS}
    return rows, config


def ig_expectation_curves(lam: float = 2.0, mus=(0.8, 1.5, 2.5)):
    """Null expectation of the inverse-Gaussian-vs-exponential ratio.

    The null is an exponential family, so under its member with mean mu' the
    ratio's expectation is exp(logZ_q(beta; mu) - logZ_p(beta; mu)) with
    beta the canonical coordinate of mu' seen from the alternative mean mu
    (:func:`tilt.f_gap_info`).  Points where that gap is +inf, past the
    closed-form divergence threshold, are flagged ``diverged``.
    Alternatives whose local covariance check already fails produce no
    curve, just a single ``not-local`` marker.  A curve has ``FIG3_POINTS``
    means mu', log-spaced over ``FIG3_GRID_RANGE``.  ``lam`` and every mean
    must be finite and > 0, as ``ig_vs_exp_pairing`` requires.
    """
    for name, value in (("lam", lam), *(("mu", mu) for mu in mus)):
        _require_positive(value, "inverse-Gaussian-vs-exponential", name)
    grid = np.geomspace(*FIG3_GRID_RANGE, FIG3_POINTS)
    rows = []
    for mu in mus:
        series = f"mu={mu:g}"
        if ig_regime(lam, mu) == "not-local":
            rows.append(("fig3", series, float(mu), float("nan"), "not-local"))
            continue
        pairing = ig_vs_exp_pairing(lam, mu)
        anchor = np.array([mu])
        gap = f_gap_info(pairing.null, pairing.tilted,
                         canonical_from_mean(pairing.null, grid[:, None], anchor), anchor)[0]
        for mu_prime, g in zip(grid, gap):
            flag = "finite" if np.isfinite(g) else "diverged"
            rows.append(("fig3", series, float(mu_prime),
                         float(np.exp(g)) if flag == "finite" else float("nan"), flag))
    config = {
        "lambda": lam,
        "alternative_means": list(mus),
        "grid_range": list(FIG3_GRID_RANGE),
        "n_points": FIG3_POINTS,
        "thresholds": {f"mu={mu:g}": (ig_divergence_threshold(lam, mu)
                                      if ig_regime(lam, mu) == "local-not-global" else None)
                       for mu in mus},
    }
    return rows, config


_BUILDERS = {
    "fig1": scale_tilt_trajectories,
    "fig2": bernoulli_tilt_curves,
    "fig3": ig_expectation_curves,
}


def figure_data(figure_id: str, **options):
    """Rows and effective configuration for one of the standard figures.

    An option that the figure's builder does not take is a DomainError that
    names it as its command-line flag.
    """
    try:
        builder = _BUILDERS[figure_id]
    except KeyError:
        raise DomainError(f"unknown figure id {figure_id!r}; "
                          f"choose from {sorted(_BUILDERS)}") from None
    unknown = [name for name in options if name not in inspect.signature(builder).parameters]
    if unknown:
        raise DomainError(f"figure {figure_id!r} does not take "
                          + ", ".join("--" + name.replace("_", "-") for name in unknown))
    return builder(**options)


def _format_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def write_figure_csv(rows, config: dict, path) -> None:
    """Write figure rows with the configuration embedded as '#' comments."""
    lines = [f"# {key}={config[key]}" for key in sorted(config)]
    lines.append(",".join(CSV_HEADER))
    for row in rows:
        lines.append(",".join(_format_cell(cell) for cell in row))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
