"""Reproducible data sets behind the package's three standard plots.

Each builder returns plain rows (figure id, series id, x, y, flag) plus the
effective configuration, and the CSV writer embeds that configuration as
comment lines so a data file is self-describing.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit, logit

from .errors import DataError
from .families import canonical_from_mean
from .models import ig_divergence_threshold, ig_regime, ig_vs_exp_pairing
from .tilt import f_gap_info

__all__ = [
    "figure_data",
    "write_figure_csv",
    "scale_tilt_trajectories",
    "bernoulli_tilt_curves",
    "ig_expectation_curves",
]

CSV_HEADER = ("figure", "series", "x", "y", "flag")


def scale_tilt_trajectories(carriers=((1.0, 1.0), (2.0, 4.0), (-3.0, 9.0)),
                            n_points: int = 65):
    """Trajectories of tilted normal carriers in the (variance, location) plane.

    Tilting N(m, s^2) through the squared-observation statistic gives the
    members N(m c / t, 1 / (2 t)) for t in (0, inf) with c = 1 / (2 s^2);
    t = c recovers the carrier (flagged ``anchor``) and the projection onto
    the zero-location family sits at variance s^2 + m^2 (flagged
    ``projection``).
    """
    rows = []
    for m, s2 in carriers:
        if s2 <= 0:
            raise DataError("carrier variances must be positive")
        series = f"m={m:g};s2={s2:g}"
        c = 1.0 / (2.0 * s2)
        ts = np.geomspace(c / 16.0, 16.0 * c, n_points)
        anchor_idx = int(np.argmin(np.abs(np.log(ts / c))))
        for i, t in enumerate(ts):
            flag = "anchor" if i == anchor_idx else ""
            rows.append(("fig1", series, 1.0 / (2.0 * t), m * c / t, flag))
        rows.append(("fig1", series, s2 + m * m, 0.0, "projection"))
    config = {"carriers": [list(pair) for pair in carriers], "n_points": n_points}
    return rows, config


def bernoulli_tilt_curves(arm_means=(0.375, 0.625), beta_range: float = 16.0,
                          n_points: int = 129):
    """Per-arm means of the tilted two-sample Bernoulli family against the tilt.

    Both arms move monotonically under a common exponential tilt, from 0 to
    1, passing through the carrier means at zero tilt.
    """
    m1, m2 = arm_means
    if not (0.0 < m1 < 1.0 and 0.0 < m2 < 1.0):
        raise DataError("arm means must lie strictly inside (0, 1)")
    betas = np.linspace(-beta_range, beta_range, n_points)
    rows = []
    for arm, m in (("arm1", m1), ("arm2", m2)):
        series = f"{arm};m1={m1:g};m2={m2:g}"
        base = logit(m)
        for beta in betas:
            flag = "anchor" if beta == 0.0 else ""
            rows.append(("fig2", series, float(beta), float(expit(base + beta)), flag))
    config = {"arm_means": [m1, m2], "beta_range": beta_range, "n_points": n_points}
    return rows, config


def ig_expectation_curves(lam: float = 2.0, mus=(0.8, 1.5, 2.5),
                          grid_range=(0.1, 8.0), n_points: int = 64):
    """Null expectation of the inverse-Gaussian-vs-exponential ratio.

    The null is an exponential family, so under its member with mean mu' the
    ratio's expectation is exp(logZ_q(beta; mu) - logZ_p(beta; mu)) with
    beta the canonical coordinate of mu' seen from the alternative mean mu
    (:func:`tilt.f_gap_info`).  Points where that gap is +inf, past the
    closed-form divergence threshold, are flagged ``diverged``.
    Alternatives whose local covariance check already fails produce no
    curve, just a single ``not-local`` marker.
    """
    grid = np.geomspace(grid_range[0], grid_range[1], n_points)
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
        "grid_range": list(grid_range),
        "n_points": n_points,
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
    """Rows and effective configuration for one of the standard figures."""
    try:
        builder = _BUILDERS[figure_id]
    except KeyError:
        raise DataError(f"unknown figure id {figure_id!r}; "
                        f"choose from {sorted(_BUILDERS)}") from None
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
