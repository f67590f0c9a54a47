"""Existence battery for simple e-values over a whole alternative family.

For a null family P and tilted alternative family Q sharing a sufficient
statistic, the claim under test is: for every mean mu in Q's mean space,
the density ratio q_mu / p_mu of the two members with mean mu has null
expectation at most one.  Under three preconditions (convex alternative
mean space contained in the null's, and null canonical domains contained
in the alternative's at every shared anchor) the claim is equivalent to
each of four checkable orderings:

1. covariance ordering      Sigma_p(mu) - Sigma_q(mu) >= 0 on the mean grid;
2. canonical pairing        (beta_p - beta_q)(mu; mu') . (mu - mu') <= 0;
3. KL ordering              D_p(mu || mu') >= D_q(mu || mu') on mean pairs;
4. log-partition ordering   logZ_p(beta; mu) >= logZ_q(beta; mu) on the
                            null's canonical domain.

The battery evaluates all four on deterministic grids and reports a single
verdict: certified only when the preconditions hold and every ordering
passes; refuted when any ordering fails deterministically; otherwise
inconclusive.  Families with Monte Carlo log-partitions never produce hard
verdicts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .domains import DomainDescriptor
from .errors import DomainError, UnsupportedModelError
from .families import (
    ExpFamilyDescriptor,
    canonical_from_mean,
    covariance_at_mean,
    kl_between_means,
    log_partition_at,
)
from .tilt import TiltedFamily, f_gap_info
from .util import as_batch, float_or_array, rowdot

__all__ = [
    "GridSpec",
    "ItemVerdict",
    "PreconditionReport",
    "ConditionReport",
    "PartitionReport",
    "mean_grid",
    "mean_pairs",
    "check_preconditions",
    "check_sigma_ordering",
    "check_beta_pairing",
    "check_kl_ordering",
    "check_logz_ordering",
    "onedim_shortcut",
    "run_condition_battery",
    "partition_check",
    "simple_evalue",
    "simple_log_evalue",
    "growth_rate",
]

TOL_SCALAR = 1e-9
TOL_PSD = 1e-9
REPORT_VERSION = 1

CERTIFIED = "simple-evariable-certified"
REFUTED = "refuted"
INCONCLUSIVE = "inconclusive-stochastic"


@dataclass(frozen=True)
class GridSpec:
    """Deterministic evaluation grids for the battery.

    Mean grids default to 64 points per axis in one dimension and 8 per
    axis above (capped at ``max_points`` total); positive axes are
    log-spaced and clipped to ``clip``, bounded axes uniform in the
    interior, unbounded axes linear on ``default_range``.  Mean pairs come
    from a seeded Halton sequence over the same ranges.
    """

    points_per_axis: int | None = None
    axis_ranges: tuple[tuple[float, float], ...] | None = None
    n_pairs: int = 512
    seed: int = 0
    clip: tuple[float, float] = (1e-4, 1e4)
    default_range: tuple[float, float] = (-8.0, 8.0)
    max_points: int = 4096


def _axis_specs(domain: DomainDescriptor, spec: GridSpec) -> list[tuple[float, float, bool]]:
    specs = []
    for i in range(domain.dim):
        if spec.axis_ranges is not None:
            lo, hi = spec.axis_ranges[i]
            specs.append((lo, hi, lo > 0.0))
            continue
        lo, hi = float(domain.lower[i]), float(domain.upper[i])
        if np.isfinite(lo) and np.isfinite(hi):
            pad = (hi - lo) * 1e-3
            specs.append((lo + pad, hi - pad, False))
        elif np.isfinite(lo):
            specs.append((max(lo, 0.0) + spec.clip[0], spec.clip[1], True))
        elif np.isfinite(hi):
            specs.append((hi - spec.clip[1], hi - spec.clip[0], False))
        else:
            specs.append((spec.default_range[0], spec.default_range[1], False))
    return specs


def _axis_points(lo: float, hi: float, log: bool, n: int) -> np.ndarray:
    if log:
        return np.geomspace(lo, hi, n)
    return np.linspace(lo, hi, n)


def mean_grid(domain: DomainDescriptor, spec: GridSpec | None = None,
              include: np.ndarray | None = None) -> np.ndarray:
    """Cartesian mean grid inside the domain, optionally forcing a point in."""
    spec = spec or GridSpec()
    per_axis = spec.points_per_axis or (64 if domain.dim == 1 else 8)
    while per_axis ** domain.dim > spec.max_points and per_axis > 2:
        per_axis -= 1
    axes = [_axis_points(lo, hi, log, per_axis) for lo, hi, log in _axis_specs(domain, spec)]
    mesh = np.meshgrid(*axes, indexing="ij")
    grid = np.column_stack([m.ravel() for m in mesh])
    grid = grid[domain.contains(grid)]
    if include is not None and domain.contains(np.asarray(include, dtype=float)):
        grid = np.vstack([grid, np.asarray(include, dtype=float)])
    if grid.shape[0] == 0:
        raise DomainError("mean grid is empty; supply explicit axis ranges")
    return grid


def mean_pairs(domain: DomainDescriptor, spec: GridSpec | None = None) -> np.ndarray:
    """Quasi-random mean pairs (n_pairs, 2, dim) from a seeded Halton sequence.

    The first ``n_pairs`` Halton rows whose two points both lie in the
    domain are kept, in sequence order.
    """
    from scipy.stats import qmc  # loading scipy.stats costs most of a cold start

    spec = spec or GridSpec()
    lo, hi, log = (np.tile(np.array(col), 2) for col in zip(*_axis_specs(domain, spec)))
    raw = qmc.Halton(d=2 * domain.dim, seed=spec.seed).random(4 * spec.n_pairs)
    points = lo + (hi - lo) * raw
    # log axes take the C library's pow one value at a time, so that the
    # pairs do not depend on which SIMD kernel numpy picks on this CPU
    for j in np.flatnonzero(log):
        ratio = float(hi[j] / lo[j])
        points[:, j] = lo[j] * np.fromiter((ratio ** t for t in raw[:, j]), float, raw.shape[0])
    pairs = points.reshape(-1, 2, domain.dim)
    pairs = pairs[np.all(domain.contains(pairs), axis=1)][:spec.n_pairs]
    if pairs.shape[0] == 0:
        raise DomainError("no valid mean pairs found; supply explicit axis ranges")
    return pairs


@dataclass(frozen=True)
class ItemVerdict:
    """Outcome of one ordering over its grid; sign convention per rule."""

    name: str
    passed: bool
    rule: str
    n_points: int
    worst_value: float
    threshold: float
    worst_location: list
    stochastic: bool = False
    note: str = ""


@dataclass(frozen=True)
class PreconditionReport:
    mean_domain_convex: bool
    mq_subset_mp: bool
    bp_subset_bq: bool
    details: dict = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return self.mean_domain_convex and self.mq_subset_mp and self.bp_subset_bq


def _box_subset(inner: DomainDescriptor, outer: DomainDescriptor) -> bool | np.ndarray:
    """Box containment, one answer per box when the bounds carry batch axes."""
    tol_lo = 1e-12 * (1.0 + np.abs(np.where(np.isfinite(outer.lower), outer.lower, 0.0)))
    tol_hi = 1e-12 * (1.0 + np.abs(np.where(np.isfinite(outer.upper), outer.upper, 0.0)))
    inside = np.all((inner.lower >= outer.lower - tol_lo) & (inner.upper <= outer.upper + tol_hi),
                    axis=-1)
    return bool(inside) if inside.ndim == 0 else inside


def check_preconditions(null: ExpFamilyDescriptor, tilted: TiltedFamily,
                        grid: np.ndarray) -> PreconditionReport:
    """Convexity, mean-space containment, canonical-domain containment.

    Box-shaped domains are compared by their bounds; predicate domains fall
    back to containment of the grid points.  Canonical containment is
    checked anchor by anchor over the mean grid.
    """
    alt = tilted.family
    convex = alt.mean_domain.convex
    details: dict = {}
    in_null = null.mean_domain.contains(grid)

    if alt.mean_domain.is_box_like() and null.mean_domain.is_box_like() \
            and null.mean_domain.kind != "custom-predicate":
        mq_in_mp = _box_subset(alt.mean_domain, null.mean_domain)
        details["mean_containment"] = "bounds"
    else:
        mq_in_mp = bool(np.all(in_null))
        details["mean_containment"] = "sampled"

    anchors = grid[in_null]
    bp = null.canonical_domain(anchors)
    bq = alt.canonical_domain(anchors)
    if bp.is_box_like() and bq.is_box_like():
        ok = np.broadcast_to(_box_subset(bp, bq), anchors.shape[:1])
    else:
        owner, probes = _beta_probe_points(null, anchors, n_extra=4)
        finite = np.isfinite(log_partition_at(alt, probes, anchors[owner]))
        ok = np.ones(anchors.shape[0], dtype=bool)
        ok[owner[~finite]] = False
    bp_in_bq = bool(np.all(ok))
    if not bp_in_bq:
        details["canonical_containment_failure_at"] = anchors[np.argmin(ok)].tolist()
    return PreconditionReport(
        mean_domain_convex=bool(convex),
        mq_subset_mp=bool(mq_in_mp),
        bp_subset_bq=bp_in_bq,
        details=details,
    )


def check_sigma_ordering(null: ExpFamilyDescriptor, tilted: TiltedFamily,
                         grid: np.ndarray, tol: float = TOL_PSD) -> ItemVerdict:
    """Ordering 1: Sigma_p - Sigma_q positive semidefinite over the grid.

    The margin at each point is the smallest eigenvalue of the difference
    relative to the spectral norm of Sigma_p.
    """
    alt = tilted.family
    sp = covariance_at_mean(null, grid)
    sq = covariance_at_mean(alt, grid)
    scale = np.max(np.abs(np.linalg.eigvalsh(sp)), axis=-1)
    margins = np.linalg.eigvalsh(sp - sq)[:, 0] / np.maximum(scale, np.finfo(float).tiny)
    worst_idx = int(np.argmin(margins))
    worst = float(margins[worst_idx])
    return ItemVerdict(
        name="covariance_ordering",
        passed=bool(worst >= -tol),
        rule="min eigenvalue of Sigma_p - Sigma_q, relative to ||Sigma_p||, >= -tol",
        n_points=len(margins),
        worst_value=worst,
        threshold=-tol,
        worst_location=grid[worst_idx].tolist(),
        stochastic=null.stochastic or alt.stochastic,
    )


def check_beta_pairing(null: ExpFamilyDescriptor, tilted: TiltedFamily,
                       pairs: np.ndarray, tol: float = TOL_SCALAR) -> ItemVerdict:
    """Ordering 2: (beta_p - beta_q) . (mu - mu') <= 0 over mean pairs."""
    alt = tilted.family
    mu, mu_prime = pairs[:, 0], pairs[:, 1]
    bp = canonical_from_mean(null, mu, mu_prime)
    bq = canonical_from_mean(alt, mu, mu_prime)
    values = rowdot(bp - bq, mu - mu_prime)
    worst_idx = int(np.argmax(values))
    worst = float(values[worst_idx])
    return ItemVerdict(
        name="canonical_pairing",
        passed=bool(worst <= tol),
        rule="(beta_p - beta_q) . (mu - mu') <= tol",
        n_points=len(values),
        worst_value=worst,
        threshold=tol,
        worst_location=pairs[worst_idx].tolist(),
        stochastic=null.stochastic or alt.stochastic,
    )


def check_kl_ordering(null: ExpFamilyDescriptor, tilted: TiltedFamily,
                      pairs: np.ndarray, tol: float = TOL_SCALAR) -> ItemVerdict:
    """Ordering 3: D_p(mu || mu') - D_q(mu || mu') <= 0 over mean pairs."""
    alt = tilted.family
    mu, mu_prime = pairs[:, 0], pairs[:, 1]
    values = kl_between_means(null, mu, mu_prime) - kl_between_means(alt, mu, mu_prime)
    worst_idx = int(np.argmax(values))
    worst = float(values[worst_idx])
    return ItemVerdict(
        name="kl_ordering",
        passed=bool(worst <= tol),
        rule="D_p(mu || mu') - D_q(mu || mu') <= tol",
        n_points=len(values),
        worst_value=worst,
        threshold=tol,
        worst_location=pairs[worst_idx].tolist(),
        stochastic=null.stochastic or alt.stochastic,
    )


def _probe_axis_values(box: DomainDescriptor, scales: np.ndarray) -> np.ndarray:
    """Sorted distinct canonical probe values per (mean, axis); NaN pads the rest.

    Per axis: zero, then four points approaching each finite face, or three
    tilt-scale steps toward an infinite one.  Returns shape (n, dim, 9).
    """
    toward = np.array([1e-4, 1e-2, 1e-1, 0.5])
    steps = np.array([0.5, 2.0, 8.0, np.nan])

    def side(bound: np.ndarray, sign: float) -> np.ndarray:
        finite = np.isfinite(bound)[..., None]
        return np.where(finite, bound[..., None] * (1.0 - toward), sign * steps * scales[..., None])

    upper = np.broadcast_to(box.upper, scales.shape)
    lower = np.broadcast_to(box.lower, scales.shape)
    vals = np.concatenate([np.zeros(scales.shape + (1,)), side(upper, 1.0), side(lower, -1.0)], axis=-1)
    vals.sort(axis=-1)
    vals[..., 1:][vals[..., 1:] == vals[..., :-1]] = np.nan
    vals.sort(axis=-1)
    return vals


def _beta_probe_points(null: ExpFamilyDescriptor, mus: np.ndarray,
                       n_extra: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Canonical probes inside B_p(mu) for every mean of a batch.

    Per mean: near each finite face plus tilt-scale steps, all combinations
    of them in one dimension and of (min, median, max) per axis above; then
    ``n_extra`` points from one fixed uniform draw scaled to the box.
    Returns the owning mean's index and the probe, mean by mean.
    """
    box = null.canonical_domain(mus)
    if not box.is_box_like():
        raise UnsupportedModelError("canonical probing needs a box-like domain")
    n, dim = mus.shape
    cov = covariance_at_mean(null, mus)
    scales = 1.0 / np.sqrt(np.maximum(np.diagonal(cov, axis1=-2, axis2=-1), np.finfo(float).tiny))
    vals = _probe_axis_values(box, scales)
    if dim == 1:
        probes = vals[:, 0, :, None]                                  # (n, 9, 1)
    else:
        # cap the cartesian product by thinning each axis to 3 values: the
        # min, median and max of its values, interpolated as np.quantile does
        count = np.sum(~np.isnan(vals), axis=-1)
        pos = 0.5 * (count - 1)
        below = np.floor(pos).astype(int)
        frac = (pos - below)[..., None]
        a = np.take_along_axis(vals, below[..., None], axis=-1)
        b = np.take_along_axis(vals, np.minimum(below + 1, count - 1)[..., None], axis=-1)
        diff = b - a
        median = np.where(frac >= 0.5, b - diff * (1.0 - frac), a + diff * frac)
        thin = np.concatenate([vals[..., :1], median,
                               np.take_along_axis(vals, (count - 1)[..., None], axis=-1)], axis=-1)
        combos = np.array(list(itertools.product(range(3), repeat=dim)))   # (3^dim, dim)
        probes = thin[:, np.arange(dim), combos]                           # (n, 3^dim, dim)
    # candidates of every mean side by side: (k, n, dim) against per-mean bounds
    owner, which = np.nonzero(box.contains(np.swapaxes(probes, 0, 1)).T)
    out = probes[owner, which]
    if n_extra:
        rng = np.random.default_rng(0)
        draws = np.array([rng.random(dim) for _ in range(n_extra)])        # the same for every mean
        upper = np.broadcast_to(box.upper, mus.shape)
        base = 0.5 * np.where(np.isfinite(upper), upper, 4.0 * scales)
        extra = base[:, None, :] * draws                                   # (n, n_extra, dim)
        inside = box.contains(np.swapaxes(extra, 0, 1)).T
        owner = np.concatenate([owner, np.nonzero(inside)[0]])
        out = np.concatenate([out, extra[inside]])
        order = np.argsort(owner, kind="stable")
        owner, out = owner[order], out[order]
    return owner, out


def check_logz_ordering(null: ExpFamilyDescriptor, tilted: TiltedFamily,
                        grid: np.ndarray, tol: float = TOL_SCALAR) -> ItemVerdict:
    """Ordering 4: logZ_p >= logZ_q on the null's canonical domain.

    At each grid mean, canonical probes cover near-boundary and tilt-scale
    points of B_p(mu).  A probe where logZ_q is infinite while logZ_p is
    finite violates the containment this ordering presumes and is reported
    as a +inf gap; probes past the null's own finite range are skipped.
    """
    owner, probes = _beta_probe_points(null, grid)
    gaps, which = f_gap_info(null, tilted, probes, grid[owner])
    counted = (which != "null") & (which != "both")
    worst, worst_loc = -np.inf, []
    if np.any(counted):
        idx = np.flatnonzero(counted)[int(np.argmax(gaps[counted]))]
        worst, worst_loc = gaps[idx], [grid[owner[idx]].tolist(), probes[idx].tolist()]
    return ItemVerdict(
        name="log_partition_ordering",
        passed=bool(worst <= tol),
        rule="logZ_q(beta; mu) - logZ_p(beta; mu) <= tol on B_p(mu)",
        n_points=int(np.count_nonzero(counted)),
        worst_value=float(worst),
        threshold=tol,
        worst_location=worst_loc,
        stochastic=null.stochastic or tilted.family.stochastic,
    )


@dataclass(frozen=True)
class ShortcutReport:
    """One-dimensional shortcut: variance ordering plus matching domains."""

    applicable: bool
    variance_ordering_ok: bool
    mean_domains_equal: bool
    canonical_domains_equal: bool
    worst_margin: float
    n_points: int


def onedim_shortcut(null: ExpFamilyDescriptor, tilted: TiltedFamily,
                    grid: np.ndarray | None = None, spec: GridSpec | None = None,
                    tol: float = TOL_PSD) -> ShortcutReport:
    """Scalar-family shortcut to the full battery.

    When sigma_p^2 >= sigma_q^2 on the alternative's mean space and either
    the mean spaces or all the canonical domains coincide, the pairing
    satisfies the whole battery; this checks those two hypotheses directly.
    """
    alt = tilted.family
    if null.dim != 1 or alt.dim != 1:
        raise UnsupportedModelError("the one-dimensional shortcut needs scalar families")
    if grid is None:
        grid = mean_grid(alt.mean_domain, spec, include=tilted.mu_star)
    sp = covariance_at_mean(null, grid)[:, 0, 0]
    sq = covariance_at_mean(alt, grid)[:, 0, 0]
    margins = (sp - sq) / np.maximum(np.abs(sp), np.finfo(float).tiny)
    worst = float(np.min(margins))
    variance_ok = bool(worst >= -tol)

    means_equal = null.mean_domain.is_box_like() and alt.mean_domain.is_box_like() \
        and _box_subset(null.mean_domain, alt.mean_domain) \
        and _box_subset(alt.mean_domain, null.mean_domain)
    canon_equal = bool(np.all(null.mean_domain.contains(grid)))
    if canon_equal:
        bp, bq = null.canonical_domain(grid), alt.canonical_domain(grid)
        canon_equal = bp.is_box_like() and bq.is_box_like() \
            and bool(np.all(_box_subset(bp, bq) & _box_subset(bq, bp)))
    return ShortcutReport(
        applicable=bool(variance_ok and (means_equal or canon_equal)),
        variance_ordering_ok=variance_ok,
        mean_domains_equal=bool(means_equal),
        canonical_domains_equal=bool(canon_equal),
        worst_margin=worst,
        n_points=len(margins),
    )


@dataclass(frozen=True)
class ConditionReport:
    """Full battery outcome with the grids and tolerances that produced it."""

    model: str
    params: dict
    preconditions: PreconditionReport
    items: dict[str, ItemVerdict]
    overall: str
    reason: str
    grid_points: int
    pair_count: int
    tolerances: dict
    stochastic: bool

    def to_dict(self) -> dict:
        def scrub(value):
            if isinstance(value, dict):
                return {k: scrub(v) for k, v in value.items()}
            if isinstance(value, (list, tuple)):
                return [scrub(v) for v in value]
            if isinstance(value, np.ndarray):
                return scrub(value.tolist())
            if isinstance(value, (np.floating, float)):
                value = float(value)
                return value if np.isfinite(value) else repr(value)
            if isinstance(value, (np.integer,)):
                return int(value)
            if isinstance(value, (np.bool_,)):
                return bool(value)
            return value

        items = {
            key: {
                "passed": bool(v.passed),
                "rule": v.rule,
                "n_points": v.n_points,
                "worst_value": scrub(v.worst_value),
                "threshold": scrub(v.threshold),
                "worst_location": scrub(v.worst_location),
                "stochastic": bool(v.stochastic),
                "note": v.note,
            }
            for key, v in self.items.items()
        }
        return {
            "report_version": REPORT_VERSION,
            "model": self.model,
            "params": scrub(self.params),
            "preconditions": {
                "mean_domain_convex": self.preconditions.mean_domain_convex,
                "mq_subset_mp": self.preconditions.mq_subset_mp,
                "bp_subset_bq": self.preconditions.bp_subset_bq,
                "details": scrub(self.preconditions.details),
            },
            "items": items,
            "overall": self.overall,
            "reason": self.reason,
            "grid_points": self.grid_points,
            "pair_count": self.pair_count,
            "tolerances": scrub(self.tolerances),
            "stochastic": self.stochastic,
        }


def run_condition_battery(pairing, spec: GridSpec | None = None,
                          grid: np.ndarray | None = None,
                          pairs: np.ndarray | None = None,
                          tol_scalar: float = TOL_SCALAR,
                          tol_psd: float = TOL_PSD) -> ConditionReport:
    """Run preconditions and all four orderings for a pairing.

    Verdict rules: any deterministic ordering failure refutes the
    family-wide claim; certification additionally needs every precondition.
    Stochastic log-partitions cap the verdict at inconclusive.
    """
    null, tilted = pairing.null, pairing.tilted
    alt = tilted.family
    if grid is None:
        grid = mean_grid(alt.mean_domain, spec, include=tilted.mu_star)
    if pairs is None:
        pairs = mean_pairs(alt.mean_domain, spec)
    pre = check_preconditions(null, tilted, grid)
    items = {
        "covariance_ordering": check_sigma_ordering(null, tilted, grid, tol_psd),
        "canonical_pairing": check_beta_pairing(null, tilted, pairs, tol_scalar),
        "kl_ordering": check_kl_ordering(null, tilted, pairs, tol_scalar),
        "log_partition_ordering": check_logz_ordering(null, tilted, grid, tol_scalar),
    }
    stochastic = null.stochastic or alt.stochastic
    failed = [key for key, verdict in items.items() if not verdict.passed]
    if stochastic:
        overall, reason = INCONCLUSIVE, "log-partition estimates are Monte Carlo"
    elif failed:
        overall, reason = REFUTED, f"failed: {', '.join(failed)}"
    elif pre.all_passed:
        overall, reason = CERTIFIED, "preconditions and all orderings hold on the grids"
    else:
        overall, reason = INCONCLUSIVE, "orderings hold on the grids but preconditions fail"
    return ConditionReport(
        model=pairing.name,
        params=pairing.params,
        preconditions=pre,
        items=items,
        overall=overall,
        reason=reason,
        grid_points=int(grid.shape[0]),
        pair_count=int(pairs.shape[0]),
        tolerances={"scalar": tol_scalar, "psd_relative": tol_psd},
        stochastic=stochastic,
    )


@dataclass(frozen=True)
class PartitionReport:
    """Covariance ordering across the slices of a partitioned alternative."""

    overall: str
    slices: dict[str, dict]


def partition_check(slices: Mapping[str, object],
                              grids: Mapping[str, np.ndarray] | None = None,
                              spec: GridSpec | None = None,
                              tol_psd: float = TOL_PSD) -> PartitionReport:
    """Check each slice of a partitioned alternative separately.

    A simple e-value for the union alternative exists slice by slice; this
    runs the preconditions and the covariance ordering per slice and
    aggregates: certified only when every slice passes, refuted on any
    deterministic slice failure.
    """
    results: dict[str, dict] = {}
    any_failed = False
    any_soft = False
    for label, pairing in slices.items():
        grid = None if grids is None else grids.get(label)
        if grid is None:
            grid = mean_grid(pairing.tilted.family.mean_domain, spec,
                             include=pairing.tilted.mu_star)
        pre = check_preconditions(pairing.null, pairing.tilted, grid)
        verdict = check_sigma_ordering(pairing.null, pairing.tilted, grid, tol_psd)
        results[label] = {"preconditions": pre, "covariance_ordering": verdict}
        if verdict.stochastic:
            any_soft = True
        elif not verdict.passed:
            any_failed = True
        elif not pre.all_passed:
            any_soft = True
    if any_failed:
        overall = REFUTED
    elif any_soft:
        overall = INCONCLUSIVE
    else:
        overall = CERTIFIED
    return PartitionReport(overall=overall, slices=results)


def _require_densities(tilted: TiltedFamily, null: ExpFamilyDescriptor, what: str) -> None:
    if null.carrier_log_density is None or tilted.family.carrier_log_density is None:
        raise UnsupportedModelError(f"both families need density evaluation for {what}")


def _log_densities(tilted: TiltedFamily, null: ExpFamilyDescriptor, batch: np.ndarray,
                   mu_vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Log-densities (log q_mu, log p_mu) of the two same-mean members on a batch."""
    log_q = np.asarray(tilted.family.carrier_log_density(batch, mu_vec), dtype=float)
    log_p = np.asarray(null.carrier_log_density(batch, mu_vec), dtype=float)
    return log_q, log_p


def simple_log_evalue(tilted: TiltedFamily, null: ExpFamilyDescriptor, mu, u):
    """Log density ratio log q_mu(u) - log p_mu(u) of the two members with mean ``mu``.

    Stays finite where the ratio itself underflows to 0 or overflows to inf.
    """
    mu_vec = null.vec(mu)
    if not null.mean_domain.contains(mu_vec) or not tilted.family.mean_domain.contains(mu_vec):
        raise DomainError(f"mean {mu_vec} must lie in both mean spaces")
    _require_densities(tilted, null, "e-values")
    batch, single = as_batch(u, null.element_ndim)
    log_q, log_p = _log_densities(tilted, null, batch, mu_vec)
    logs = log_q - log_p
    return float(logs[0]) if single else logs


def simple_evalue(tilted: TiltedFamily, null: ExpFamilyDescriptor, mu, u):
    """Density ratio q_mu(u) / p_mu(u) of the two members with mean ``mu``.

    The exponential of :func:`simple_log_evalue`; a ratio past the float
    range is returned as inf without a warning.
    """
    with np.errstate(over="ignore"):
        return float_or_array(np.exp(simple_log_evalue(tilted, null, mu, u)))


def _growth_hints(tilted: TiltedFamily, mu_vec: np.ndarray, seed: int) -> tuple[float, float]:
    sampler = tilted.family.sampler
    if sampler is None:
        return 0.0, 1.0
    draws = np.asarray(sampler(mu_vec, 256, np.random.default_rng(seed)), dtype=float).ravel()
    spread = float(draws.std())
    return float(draws.mean()), max(spread, 1e-6)


def growth_rate(tilted: TiltedFamily, null: ExpFamilyDescriptor, mu,
                n_mc: int = 200_000, seed: int = 0) -> float:
    """Expected log e-value under the alternative member with mean ``mu``.

    This is the KL divergence from that member to its same-mean null
    companion: exact summation on finite or countable supports, adaptive
    quadrature on scalar continuous supports, Monte Carlo otherwise.
    """
    from .oracles import expect_quadrature

    mu_vec = null.vec(mu)
    _require_densities(tilted, null, "growth rates")
    support = null.support or tilted.family.support
    if support is None:
        raise UnsupportedModelError("growth rate needs a declared support")

    def log_ratio(batch: np.ndarray) -> np.ndarray:
        lq, lp = _log_densities(tilted, null, batch, mu_vec)
        return lq - lp

    if support.kind == "finite":
        lq, lp = _log_densities(tilted, null, np.asarray(support.points(), dtype=float), mu_vec)
        return float(np.exp(lq) @ (lq - lp))

    if support.kind == "countable-vector":
        k = support.axes
        total = 0.0
        covered = 0.0
        size = 32
        prev = None
        for _ in range(12):
            idx = np.indices((size,) * k).reshape(k, -1).T.astype(float)
            if null.element_ndim == 0:
                idx = idx[:, 0]
            lq, lp = _log_densities(tilted, null, idx, mu_vec)
            weights = np.exp(lq)
            total = float(weights @ (lq - lp))
            covered = float(weights.sum())
            if prev is not None and abs(total - prev) <= 1e-12 * (1.0 + abs(total)) \
                    and covered > 1.0 - 1e-10:
                return total
            prev = total
            size *= 2
            if size ** k > 4_000_000:
                break
        return total

    if support.kind in ("real-scalar", "positive-scalar"):
        center, scale = _growth_hints(tilted, mu_vec, seed)

        def density(x: np.ndarray) -> np.ndarray:
            return np.exp(np.asarray(tilted.family.carrier_log_density(np.atleast_1d(x), mu_vec),
                                     dtype=float))

        def integrand(x: np.ndarray) -> np.ndarray:
            return log_ratio(np.atleast_1d(x))

        domain = "positive-line" if support.kind == "positive-scalar" else "real-line"
        est = expect_quadrature(density, integrand, domain, center=center, scale=scale)
        return est.value

    if tilted.family.sampler is None:
        raise UnsupportedModelError("growth rate on vector supports needs a sampler")
    draws = tilted.family.sampler(mu_vec, n_mc, np.random.default_rng(seed))
    return float(np.mean(log_ratio(np.asarray(draws, dtype=float))))
