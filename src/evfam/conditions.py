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
inconclusive: ``inconclusive-preconditions`` when the orderings hold but a
precondition fails, ``inconclusive-stochastic`` for families with Monte
Carlo log-partitions, which never produce hard verdicts.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

from .domains import DomainDescriptor
from .errors import DomainError, UnsupportedModelError
from .families import (
    ExpFamilyDescriptor,
    canonical_from_mean,
    covariance_at_mean,
    kl_between_means,
    law_kl,
)
from .tilt import TiltedFamily, f_gap_info
from .util import TOL_PSD, as_batch, float_or_array, psd_margin, rowdot

__all__ = [
    "GridSpec",
    "ItemVerdict",
    "PreconditionReport",
    "ConditionReport",
    "mean_grid",
    "mean_pairs",
    "check_preconditions",
    "check_sigma_ordering",
    "check_beta_pairing",
    "check_kl_ordering",
    "check_logz_ordering",
    "run_condition_battery",
    "simple_evalue",
    "simple_log_evalue",
    "growth_rate",
]

TOL_SCALAR = 1e-9
REPORT_VERSION = 2
MAX_GRID_POINTS = 4096
LOG_AXIS_RANGE = (1e-4, 1e4)
FREE_AXIS_RANGE = (-8.0, 8.0)

CERTIFIED = "simple-evariable-certified"
REFUTED = "refuted"
INCONCLUSIVE = "inconclusive-stochastic"
INCONCLUSIVE_PRECONDITIONS = "inconclusive-preconditions"


def _verdict(stochastic: bool, failed: bool, preconditions_met: bool) -> str:
    """The verdict rule of the battery.

    Monte Carlo orderings prove nothing, so they decide first; a failed
    deterministic ordering refutes; orderings that hold beside a failed
    precondition leave the claim open.
    """
    if stochastic:
        return INCONCLUSIVE
    if failed:
        return REFUTED
    return CERTIFIED if preconditions_met else INCONCLUSIVE_PRECONDITIONS


@dataclass(frozen=True)
class GridSpec:
    """Deterministic evaluation grids for the battery.

    Mean grids default to 64 points per axis in one dimension and 8 per
    axis above (capped at MAX_GRID_POINTS total); positive axes are
    log-spaced on LOG_AXIS_RANGE, bounded axes uniform in the interior,
    unbounded axes linear on FREE_AXIS_RANGE.  Mean pairs come from evfam's
    own Owen-scrambled Halton sequence seeded by ``seed`` (a non-negative
    integer) over the same ranges; it equals
    ``scipy.stats.qmc.Halton(d, seed=seed)`` bit for bit at scipy 1.17.1.
    Its first ``n_pairs`` rows are drawn, and ``4 * n_pairs`` only when the
    domain rejects some of them (``mean_pairs``).
    """

    points_per_axis: int | None = None
    axis_ranges: tuple[tuple[float, float], ...] | None = None
    n_pairs: int = 512
    seed: int = 0


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
            specs.append((max(lo, 0.0) + LOG_AXIS_RANGE[0], LOG_AXIS_RANGE[1], True))
        elif np.isfinite(hi):
            specs.append((hi - LOG_AXIS_RANGE[1], hi - LOG_AXIS_RANGE[0], False))
        else:
            specs.append((*FREE_AXIS_RANGE, False))
    return specs


def mean_grid(domain: DomainDescriptor, spec: GridSpec | None = None,
              include: np.ndarray | None = None) -> np.ndarray:
    """Cartesian mean grid inside the domain, optionally forcing a point in."""
    spec = spec or GridSpec()
    per_axis = spec.points_per_axis or (64 if domain.dim == 1 else 8)
    while per_axis ** domain.dim > MAX_GRID_POINTS and per_axis > 2:
        per_axis -= 1
    axes = [(np.geomspace if log else np.linspace)(lo, hi, per_axis)
            for lo, hi, log in _axis_specs(domain, spec)]
    mesh = np.meshgrid(*axes, indexing="ij")
    grid = np.column_stack([m.ravel() for m in mesh])
    grid = grid[domain.contains(grid)]
    if include is not None and domain.contains(np.asarray(include, dtype=float)):
        grid = np.vstack([grid, np.asarray(include, dtype=float)])
    if grid.shape[0] == 0:
        raise DomainError("mean grid is empty; supply explicit axis ranges")
    return grid


def _halton(d: int, seed: int, n: int) -> np.ndarray:
    """The first ``n`` points of Owen's scrambled Halton sequence in ``[0, 1)^d``.

    A. B. Owen, "A randomized Halton algorithm in R" (arXiv:1706.02808): axis
    k is the base-b radical inverse of the row index, b the k-th prime, with
    digit j passed through its own random permutation of 0..b-1.  The
    permutations are drawn, and the digits summed, in the order scipy's
    ``qmc.Halton(d, seed=seed).random(n)`` uses, so the points equal it bit
    for bit.
    """
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise DomainError(f"seed {seed} must be a non-negative integer")
    rng = np.random.default_rng(seed)
    primes: list[int] = []
    candidate = 2
    while len(primes) < d:
        if all(candidate % p for p in primes if p * p <= candidate):
            primes.append(candidate)
        candidate += 1
    out = np.empty((n, d))
    for col, base in enumerate(primes):
        # one permutation per digit that still moves a double: base**-j > 2**-54
        perms = np.repeat(np.arange(base)[None], math.ceil(54 / math.log2(base)) - 1, axis=0)
        for perm in perms:
            rng.shuffle(perm)
        q = np.arange(n)
        seq = np.zeros(n)
        b2r = 1.0 / base
        for perm in perms:
            if q.any():
                q, r = np.divmod(q, base)
                seq += perm[r] * b2r
            else:  # every higher digit is 0
                seq += perm[0] * b2r
            b2r /= base
        out[:, col] = seq
    return out


def mean_pairs(domain: DomainDescriptor, spec: GridSpec | None = None) -> np.ndarray:
    """Quasi-random mean pairs (n_pairs, 2, dim) from a seeded Halton sequence.

    The sequence is ``_halton``, evfam's own Owen-scrambled Halton, equal
    bit for bit to ``scipy.stats.qmc.Halton(2 * dim, seed=spec.seed)`` at
    scipy 1.17.1.  The first ``n_pairs`` rows whose two points both lie in
    the domain are kept, in sequence order: ``n_pairs`` rows are drawn, and
    ``4 * n_pairs`` (the same rows first) only when the domain rejects some.
    """
    spec = spec or GridSpec()
    lo, hi, log = (np.tile(np.array(col), 2) for col in zip(*_axis_specs(domain, spec)))
    for n in (spec.n_pairs, 4 * spec.n_pairs):
        raw = _halton(2 * domain.dim, spec.seed, n)
        points = lo + (hi - lo) * raw
        # log axes take the C library's pow one value at a time, so that the
        # pairs do not depend on which SIMD kernel numpy picks on this CPU
        for j in np.flatnonzero(log):
            ratio = float(hi[j] / lo[j])
            points[:, j] = lo[j] * np.fromiter((ratio ** t for t in raw[:, j]), float, n)
        pairs = points.reshape(-1, 2, domain.dim)
        pairs = pairs[np.all(domain.contains(pairs), axis=1)][:spec.n_pairs]
        if pairs.shape[0] == spec.n_pairs:
            break
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


def _ordering_verdict(null: ExpFamilyDescriptor, tilted: TiltedFamily, name: str, rule: str,
                      values: np.ndarray, locations: np.ndarray, threshold: float,
                      at_least: bool = False) -> ItemVerdict:
    """Verdict of one ordering from its value at each of ``locations``.

    The ordering holds where a value is at most ``threshold`` (at least, if
    ``at_least``); the worst value is the first one furthest past that side.
    """
    idx = int(np.argmin(values) if at_least else np.argmax(values))
    worst = float(values[idx])
    passed = bool(worst >= threshold if at_least else worst <= threshold)
    return ItemVerdict(name, passed, rule, len(values), worst, threshold, locations[idx].tolist(),
                       null.stochastic or tilted.family.stochastic)


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


def _canonical_boxes(fam: ExpFamilyDescriptor, anchors: np.ndarray) -> DomainDescriptor:
    """The canonical domains of ``fam`` at a batch of anchors, which must be boxes."""
    box = fam.canonical_domain(anchors)
    if not box.is_box_like():
        raise UnsupportedModelError(f"{fam.name}: the battery needs box-shaped canonical domains, "
                                    f"got a {box.kind} domain")
    return box


def check_preconditions(null: ExpFamilyDescriptor, tilted: TiltedFamily,
                        grid: np.ndarray) -> PreconditionReport:
    """Convexity, mean-space containment, canonical-domain containment.

    Box-shaped mean domains are compared by their bounds; a predicate mean
    domain falls back to containment of the grid points.  Canonical domains
    are boxes, compared by their bounds anchor by anchor over the mean grid.
    """
    alt = tilted.family
    convex = alt.mean_domain.convex
    details: dict = {}
    in_null = null.mean_domain.contains(grid)

    if alt.mean_domain.is_box_like() and null.mean_domain.is_box_like():
        mq_in_mp = _box_subset(alt.mean_domain, null.mean_domain)
        details["mean_containment"] = "bounds"
    else:
        mq_in_mp = bool(np.all(in_null))
        details["mean_containment"] = "sampled"

    anchors = grid[in_null]
    ok = np.broadcast_to(_box_subset(_canonical_boxes(null, anchors), _canonical_boxes(alt, anchors)),
                         anchors.shape[:1])
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
                         grid: np.ndarray) -> ItemVerdict:
    """Ordering 1: Sigma_p - Sigma_q positive semidefinite over the grid.

    The margin at each point is the smallest eigenvalue of the difference
    relative to the spectral norm of Sigma_p (:func:`util.psd_margin`).
    """
    eigs, scale = psd_margin(covariance_at_mean(null, grid), covariance_at_mean(tilted.family, grid))
    return _ordering_verdict(null, tilted, "covariance_ordering",
                             "min eigenvalue of Sigma_p - Sigma_q, relative to ||Sigma_p||, >= -tol",
                             eigs[:, 0] / scale, grid, -TOL_PSD, at_least=True)


def check_beta_pairing(null: ExpFamilyDescriptor, tilted: TiltedFamily,
                       pairs: np.ndarray) -> ItemVerdict:
    """Ordering 2: (beta_p - beta_q) . (mu - mu') <= 0 over mean pairs."""
    mu, mu_prime = pairs[:, 0], pairs[:, 1]
    bp = canonical_from_mean(null, mu, mu_prime)
    bq = canonical_from_mean(tilted.family, mu, mu_prime)
    return _ordering_verdict(null, tilted, "canonical_pairing", "(beta_p - beta_q) . (mu - mu') <= tol",
                             rowdot(bp - bq, mu - mu_prime), pairs, TOL_SCALAR)


def check_kl_ordering(null: ExpFamilyDescriptor, tilted: TiltedFamily,
                      pairs: np.ndarray) -> ItemVerdict:
    """Ordering 3: D_p(mu || mu') - D_q(mu || mu') <= 0 over mean pairs."""
    mu, mu_prime = pairs[:, 0], pairs[:, 1]
    values = kl_between_means(null, mu, mu_prime) - kl_between_means(tilted.family, mu, mu_prime)
    return _ordering_verdict(null, tilted, "kl_ordering", "D_p(mu || mu') - D_q(mu || mu') <= tol",
                             values, pairs, TOL_SCALAR)


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


def _beta_probe_points(null: ExpFamilyDescriptor, mus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Canonical probes inside B_p(mu) for every mean of a batch.

    Per mean: near each finite face plus tilt-scale steps, all combinations
    of them in one dimension and of (min, median, max) per axis above.
    Returns the owning mean's index and the probe, mean by mean.
    """
    box = _canonical_boxes(null, mus)
    dim = mus.shape[1]
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
    return owner, probes[owner, which]


def check_logz_ordering(null: ExpFamilyDescriptor, tilted: TiltedFamily,
                        grid: np.ndarray) -> ItemVerdict:
    """Ordering 4: logZ_p >= logZ_q on the null's canonical domain.

    At each grid mean, canonical probes cover near-boundary and tilt-scale
    points of B_p(mu).  A probe where logZ_q is infinite while logZ_p is
    finite violates the containment this ordering presumes and is reported
    as a +inf gap; probes past the null's own finite range are skipped.
    Locations are [grid mean, probe] pairs; with no probe counted it holds at -inf.
    """
    owner, probes = _beta_probe_points(null, grid)
    gaps, which = f_gap_info(null, tilted, probes, grid[owner])
    counted = (which != "null") & (which != "both")
    rule = "logZ_q(beta; mu) - logZ_p(beta; mu) <= tol on B_p(mu)"
    if not np.any(counted):
        return ItemVerdict("log_partition_ordering", True, rule, 0, -np.inf, TOL_SCALAR, [],
                           null.stochastic or tilted.family.stochastic)
    return _ordering_verdict(null, tilted, "log_partition_ordering", rule, gaps[counted],
                             np.stack([grid[owner], probes], axis=1)[counted], TOL_SCALAR)


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
        """JSON-ready fields in declaration order; an item drops its name, which is its key."""
        report = _scrub(self)
        for item in report["items"].values():
            del item["name"]
        return {"report_version": REPORT_VERSION, **report}


def _scrub(value):
    """Plain JSON values, as ``dataclasses.asdict`` gives them but without its deep copy."""
    if isinstance(value, (str, int)):
        return value
    if isinstance(value, (np.floating, float)):
        value = float(value)
        return value if math.isfinite(value) else repr(value)
    if isinstance(value, dict):
        return {k: _scrub(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_scrub(v) for v in value]
    if isinstance(value, np.ndarray):
        return _scrub(value.tolist())
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if is_dataclass(value):
        return {f.name: _scrub(getattr(value, f.name)) for f in fields(value)}
    return value


def run_condition_battery(pairing, spec: GridSpec | None = None) -> ConditionReport:
    """Run preconditions and all four orderings for a pairing.

    Verdict rules: any deterministic ordering failure refutes the
    family-wide claim; certification additionally needs every precondition,
    and orderings that hold with a precondition failing are
    ``inconclusive-preconditions``.  Stochastic log-partitions cap the
    verdict at ``inconclusive-stochastic``.
    """
    null, tilted = pairing.null, pairing.tilted
    alt = tilted.family
    grid = mean_grid(alt.mean_domain, spec, include=tilted.mu_star)
    pairs = mean_pairs(alt.mean_domain, spec)
    pre = check_preconditions(null, tilted, grid)
    items = {
        "covariance_ordering": check_sigma_ordering(null, tilted, grid),
        "canonical_pairing": check_beta_pairing(null, tilted, pairs),
        "kl_ordering": check_kl_ordering(null, tilted, pairs),
        "log_partition_ordering": check_logz_ordering(null, tilted, grid),
    }
    stochastic = null.stochastic or alt.stochastic
    failed = [key for key, verdict in items.items() if not verdict.passed]
    overall = _verdict(stochastic, bool(failed), pre.all_passed)
    reason = {INCONCLUSIVE: "log-partition estimates are Monte Carlo",
              REFUTED: f"failed: {', '.join(failed)}",
              CERTIFIED: "preconditions and all orderings hold on the grids",
              INCONCLUSIVE_PRECONDITIONS: "orderings hold on the grids but preconditions fail"}[overall]
    return ConditionReport(
        model=pairing.name,
        params=pairing.params,
        preconditions=pre,
        items=items,
        overall=overall,
        reason=reason,
        grid_points=int(grid.shape[0]),
        pair_count=int(pairs.shape[0]),
        tolerances={"scalar": TOL_SCALAR, "psd_relative": TOL_PSD},
        stochastic=stochastic,
    )


def _require_densities(tilted: TiltedFamily, null: ExpFamilyDescriptor, what: str) -> None:
    if null.carrier_log_density is None or tilted.family.carrier_log_density is None:
        raise UnsupportedModelError(f"both families need density evaluation for {what}")


def _shared_mean(tilted: TiltedFamily, null: ExpFamilyDescriptor, mu) -> np.ndarray:
    """``mu`` as a vector; it must lie in both mean spaces."""
    mu_vec = null.vec(mu)
    if not null.mean_domain.contains(mu_vec) or not tilted.family.mean_domain.contains(mu_vec):
        raise DomainError(f"mean {mu_vec} must lie in both mean spaces")
    return mu_vec


def simple_log_evalue(tilted: TiltedFamily, null: ExpFamilyDescriptor, mu, u):
    """Log density ratio log q_mu(u) - log p_mu(u) of the two members with mean ``mu``.

    Stays finite where the ratio itself underflows to 0 or overflows to inf.
    """
    mu_vec = _shared_mean(tilted, null, mu)
    _require_densities(tilted, null, "e-values")
    batch, single = as_batch(u, null.element_ndim)
    log_q = np.asarray(tilted.family.carrier_log_density(batch, mu_vec), dtype=float)
    log_p = np.asarray(null.carrier_log_density(batch, mu_vec), dtype=float)
    logs = log_q - log_p
    return float(logs[0]) if single else logs


def simple_evalue(tilted: TiltedFamily, null: ExpFamilyDescriptor, mu, u):
    """Density ratio q_mu(u) / p_mu(u) of the two members with mean ``mu``.

    The exponential of :func:`simple_log_evalue`; a ratio past the float
    range is returned as inf without a warning.
    """
    with np.errstate(over="ignore"):
        return float_or_array(np.exp(simple_log_evalue(tilted, null, mu, u)))


def growth_rate(tilted: TiltedFamily, null: ExpFamilyDescriptor, mu,
                n_mc: int = 200_000, seed: int = 0) -> float:
    """Expected log e-value under the alternative member with mean ``mu``.

    This is the KL divergence from that member to its same-mean null
    companion, :func:`families.law_kl` of the two members' declared laws.
    ``mu`` must lie in both mean spaces, and both families must declare
    their laws (``law``); otherwise it raises an UnsupportedModelError.
    ``n_mc`` and ``seed`` are unused, since no route samples; they stay for
    callers that pass them (``perfbench/workloads.py``).
    """
    mu_vec = _shared_mean(tilted, null, mu)
    _require_densities(tilted, null, "growth rates")
    if tilted.family.law is None or null.law is None:
        raise UnsupportedModelError("growth rate needs both families to declare their laws")
    return law_kl(tilted.family.law(mu_vec), null.law(mu_vec))
