"""Existence battery for simple e-values over a whole alternative family.

For a null family P and tilted alternative family Q sharing a sufficient
statistic, the claim under test is: for every mean mu in Q's mean space,
the density ratio q_mu / p_mu of the two members with mean mu has null
expectation at most one.  Under two preconditions (alternative mean space
contained in the null's, and null canonical domains contained in the
alternative's at every shared anchor) the claim is equivalent to each of
four checkable orderings.  Convexity needs no check: the mean space of a
regular family is the interior of its convex support (Brown 1986, Thm 3.6).

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
    _cov,
    _kl,
    _require_mean,
    canonical_from_mean,
    covariance_at_mean,
    kl_between_means,
    law_kl,
)
from .tilt import TiltedFamily, _gap
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
REPORT_VERSION = 3
MAX_GRID_POINTS = 4096
# log-partition probes, n_grid * 3^dim: 5.06 M fit (dimension 9), 30.3 M do not (10)
MAX_PROBE_ROWS = 1 << 23
LOG_AXIS_RANGE = (1e-4, 1e4)
FREE_AXIS_RANGE = (-8.0, 8.0)

CERTIFIED = "simple-evariable-certified"
REFUTED = "refuted"
INCONCLUSIVE = "inconclusive-stochastic"
INCONCLUSIVE_PRECONDITIONS = "inconclusive-preconditions"


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
    Its first ``n_pairs`` rows are drawn, and ``4 * n_pairs`` if the domain
    rejects some, at once for a domain with a predicate (``mean_pairs``).  A
    ``points_per_axis`` other than None or an integer >= 1, an ``n_pairs``
    that is not an integer >= 1 and a negative or non-integer ``seed`` are
    refused by name.
    """

    points_per_axis: int | None = None
    n_pairs: int = 512
    seed: int = 0

    def __post_init__(self) -> None:
        for name, least in (("points_per_axis", 1), ("n_pairs", 1), ("seed", 0)):
            value = getattr(self, name)
            if name == "points_per_axis" and value is None:
                continue
            if not isinstance(value, (int, np.integer)) or value < least:
                raise DomainError(f"{name} {value} must be a "
                                  f"{'positive' if least else 'non-negative'} integer")


def _axis_specs(domain: DomainDescriptor) -> list[tuple[float, float, bool]]:
    specs = []
    for i in range(domain.dim):
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
    per_axis = spec.points_per_axis
    if per_axis is None:
        per_axis = 64 if domain.dim == 1 else 8
    # past MAX_GRID_POINTS per axis the loop below steps down one at a time
    per_axis = min(per_axis, MAX_GRID_POINTS)
    while per_axis ** domain.dim > MAX_GRID_POINTS and per_axis > 2:
        per_axis -= 1
    axes = [(np.geomspace if log else np.linspace)(lo, hi, per_axis)
            for lo, hi, log in _axis_specs(domain)]
    mesh = np.meshgrid(*axes, indexing="ij")
    grid = np.column_stack([m.ravel() for m in mesh])
    grid = grid[domain.contains(grid)]
    if include is not None and domain.contains(np.asarray(include, dtype=float)):
        grid = np.vstack([grid, np.asarray(include, dtype=float)])
    if grid.shape[0] == 0:
        raise DomainError("mean grid is empty: no grid point lies in the domain")
    return grid


def _halton(d: int, seed: int, n: int) -> np.ndarray:
    """The first ``n`` points of Owen's scrambled Halton sequence in ``[0, 1)^d``.

    A. B. Owen, "A randomized Halton algorithm in R" (arXiv:1706.02808): axis
    k is the base-b radical inverse of the row index, b the k-th prime, with
    digit j passed through its own random permutation of 0..b-1.  The
    permutations are drawn, and the digits summed, in the order scipy's
    ``qmc.Halton(d, seed=seed).random(n)`` uses, so the points equal it bit
    for bit.  ``seed`` is a non-negative integer (``GridSpec`` checks it).

    Each axis is built level by level over the digits that vary below n:
    level j extends the partial sums of the b^j lowest indices to b^(j+1), so
    entry r adds row r's digit terms in digit order.  Above the top varying
    digit every row adds the same digit-0 terms.  In base 2 those are distinct
    powers of 2 down to 2^-53, whose partial sums below 1 are all exact, so
    they add as one sum; the other axes add theirs one digit at a time, a
    zero term where an axis has no such digit (x + 0.0 = x for x >= 0).
    """
    rng = np.random.default_rng(seed)
    primes: list[int] = []
    candidate = 2
    while len(primes) < d:
        if all(candidate % p for p in primes if p * p <= candidate):
            primes.append(candidate)
        candidate += 1
    axes, tails = np.empty((d, n)), np.zeros((d, 53))  # base 2 has the most digits
    for col, base in enumerate(primes):
        # one permutation per digit that still moves a double: base**-j > 2**-54
        digits = math.ceil(54 / math.log2(base)) - 1
        # draws as rng.shuffle on each row in turn
        perms = rng.permuted(np.repeat(np.arange(base)[None], digits, axis=0), axis=1)
        # the scales divide by base in turn: b, b/b = 1, then 1/b, (1/b)/b, ...
        terms = perms * np.divide.accumulate(np.full(digits + 2, float(base)))[2:, None]
        sums, width, level = np.zeros(1), 1, 0
        while width < n:  # digit `level` of some index below n is not 0
            sums = (sums[None, :] + terms[level, :(n - 1) // width + 1, None]).ravel()[:n]
            width, level = width * base, level + 1
        axes[col] = sums
        tails[col, level:digits] = terms[level:, 0]
    axes[0] += tails[0].sum()
    for j in np.flatnonzero(np.any(tails[1:], axis=0)):
        axes[1:] += tails[1:, j, None]
    return axes.T.copy()


def mean_pairs(domain: DomainDescriptor, spec: GridSpec | None = None) -> np.ndarray:
    """Quasi-random mean pairs (n_pairs, 2, dim) from a seeded Halton sequence.

    The sequence is ``_halton``, evfam's own Owen-scrambled Halton, equal
    bit for bit to ``scipy.stats.qmc.Halton(2 * dim, seed=spec.seed)`` at
    scipy 1.17.1.  The first ``n_pairs`` rows whose two points both lie in
    the domain are kept, in sequence order: ``n_pairs`` rows are drawn, and
    ``4 * n_pairs`` (the same rows first) if the domain rejects some; only a
    predicate can, so a domain with one draws ``4 * n_pairs`` rows at once.
    """
    spec = spec or GridSpec()
    lo, hi, log = (np.tile(np.array(col), 2) for col in zip(*_axis_specs(domain)))
    for n in (spec.n_pairs, 4 * spec.n_pairs)[domain.predicate is not None:]:
        raw = _halton(2 * domain.dim, spec.seed, n)
        points = lo + (hi - lo) * raw
        # log axes take the C library's pow one value at a time, so that the
        # pairs do not depend on which SIMD kernel numpy picks on this CPU
        for j in np.flatnonzero(log):
            ratio = float(hi[j] / lo[j])
            points[:, j] = lo[j] * np.fromiter(map(ratio.__pow__, raw[:, j].tolist()), float, n)
        pairs = points.reshape(-1, 2, domain.dim)
        pairs = pairs[np.all(domain.contains(pairs), axis=1)][:spec.n_pairs]
        if pairs.shape[0] == spec.n_pairs:
            break
    if pairs.shape[0] == 0:
        raise DomainError("no valid mean pairs found: no drawn pair lies in the domain")
    return pairs


@dataclass(frozen=True)
class ItemVerdict:
    """Outcome of one ordering over its grid; sign convention per rule."""

    passed: bool
    rule: str
    n_points: int
    worst_value: float
    threshold: float
    worst_location: list


def _ordering_verdict(rule: str, values: np.ndarray, locations: np.ndarray, threshold: float,
                      at_least: bool = False) -> ItemVerdict:
    """Verdict of one ordering from its value at each of ``locations``.

    The ordering holds where a value is at most ``threshold`` (at least, if
    ``at_least``); the worst value is the first one furthest past that side.
    """
    idx = int(np.argmin(values) if at_least else np.argmax(values))
    worst = float(values[idx])
    passed = bool(worst >= threshold if at_least else worst <= threshold)
    return ItemVerdict(passed, rule, len(values), worst, threshold, locations[idx].tolist())


@dataclass(frozen=True)
class PreconditionReport:
    mq_subset_mp: bool
    bp_subset_bq: bool
    details: dict = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return self.mq_subset_mp and self.bp_subset_bq


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
    if box.predicate is not None:
        raise UnsupportedModelError(f"{fam.name}: the battery needs box-shaped canonical domains, "
                                    "got a predicate domain")
    return box


def check_preconditions(null: ExpFamilyDescriptor, tilted: TiltedFamily,
                        grid: np.ndarray) -> PreconditionReport:
    """Mean-space containment and canonical-domain containment.

    Box-shaped mean domains are compared by their bounds; a predicate mean
    domain falls back to containment of the grid points.  Canonical domains
    are boxes, compared by their bounds anchor by anchor over the mean grid.
    """
    return _preconditions(null, tilted.family, grid, null.mean_domain.contains(grid))[0]


def _preconditions(null: ExpFamilyDescriptor, alt: ExpFamilyDescriptor, grid: np.ndarray,
                   in_null: np.ndarray) -> tuple[PreconditionReport, DomainDescriptor, DomainDescriptor]:
    """``check_preconditions`` given the grid's null membership, with B_p and B_q at its null means."""
    anchors = grid[in_null]
    box_p, box_q = _canonical_boxes(null, anchors), _canonical_boxes(alt, anchors)
    details: dict = {}
    if alt.mean_domain.predicate is None and null.mean_domain.predicate is None:
        mq_in_mp = _box_subset(alt.mean_domain, null.mean_domain)
        details["mean_containment"] = "bounds"
    else:
        mq_in_mp = bool(np.all(in_null))
        details["mean_containment"] = "sampled"

    ok = np.broadcast_to(_box_subset(box_p, box_q), anchors.shape[:1])
    bp_in_bq = bool(np.all(ok))
    if not bp_in_bq:
        details["canonical_containment_failure_at"] = anchors[np.argmin(ok)].tolist()
    report = PreconditionReport(mq_subset_mp=bool(mq_in_mp), bp_subset_bq=bp_in_bq, details=details)
    return report, box_p, box_q


def check_sigma_ordering(null: ExpFamilyDescriptor, tilted: TiltedFamily,
                         grid: np.ndarray) -> ItemVerdict:
    """Ordering 1: Sigma_p - Sigma_q positive semidefinite over the grid.

    The margin at each point is the smallest eigenvalue of the difference
    relative to the spectral norm of Sigma_p (:func:`util.psd_margin`).
    """
    return _sigma_verdict(null, tilted.family, grid, covariance_at_mean(null, grid),
                          covariance_at_mean(tilted.family, grid))


def _sigma_verdict(null: ExpFamilyDescriptor, alt: ExpFamilyDescriptor, grid: np.ndarray,
                   cov_p: np.ndarray, cov_q: np.ndarray) -> ItemVerdict:
    """``check_sigma_ordering`` given Sigma_p and Sigma_q at the grid."""
    with np.errstate(invalid="ignore"):  # inf - inf, or inf / inf: refused below
        eigs, scale = psd_margin(cov_p, cov_q)
        margin = eigs[:, 0] / scale
    if np.isnan(margin).any():
        raise DomainError(f"covariance ordering of {null.name} against {alt.name} "
                          f"is NaN at grid mean {grid[np.isnan(margin)][0].tolist()}")
    return _ordering_verdict("min eigenvalue of Sigma_p - Sigma_q, relative to ||Sigma_p||, >= -tol",
                             margin, grid, -TOL_PSD, at_least=True)


def check_beta_pairing(null: ExpFamilyDescriptor, tilted: TiltedFamily,
                       pairs: np.ndarray) -> ItemVerdict:
    """Ordering 2: (beta_p - beta_q) . (mu - mu') <= 0 over mean pairs."""
    return _pairing_verdict(pairs, *(canonical_from_mean(fam, pairs[:, 0], pairs[:, 1])
                                     for fam in (null, tilted.family)))


def _pairing_verdict(pairs: np.ndarray, bp: np.ndarray, bq: np.ndarray) -> ItemVerdict:
    """``check_beta_pairing`` given beta_p and beta_q at the pairs."""
    with np.errstate(over="ignore"):  # a product past the float range is its honest inf
        values = rowdot(bp - bq, pairs[:, 0] - pairs[:, 1])
    return _ordering_verdict("(beta_p - beta_q) . (mu - mu') <= tol", values, pairs, TOL_SCALAR)


def check_kl_ordering(null: ExpFamilyDescriptor, tilted: TiltedFamily,
                      pairs: np.ndarray) -> ItemVerdict:
    """Ordering 3: D_p(mu || mu') - D_q(mu || mu') <= 0 over mean pairs."""
    return _kl_verdict(pairs, *(kl_between_means(fam, pairs[:, 0], pairs[:, 1])
                                for fam in (null, tilted.family)))


def _kl_verdict(pairs: np.ndarray, kl_p: np.ndarray, kl_q: np.ndarray) -> ItemVerdict:
    """``check_kl_ordering`` given D_p and D_q at the pairs."""
    return _ordering_verdict("D_p(mu || mu') - D_q(mu || mu') <= tol", kl_p - kl_q, pairs, TOL_SCALAR)


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


def _beta_probe_points(box: DomainDescriptor, cov: np.ndarray) -> np.ndarray:
    """Canonical probes for every mean of a batch, from B_p(mu) and Sigma_p(mu).

    Per mean: near each finite face plus tilt-scale steps, all combinations
    of them in one dimension and of (min, median, max) per axis above.
    Returns (n, K, dim), NaN-padded; past MAX_PROBE_ROWS probes it refuses by name.
    """
    n, dim = cov.shape[:2]
    if n * 3 ** dim > MAX_PROBE_ROWS:
        raise DomainError(f"the log-partition ordering in dimension {dim} needs "
                          f"{n * 3 ** dim} canonical probes, past {MAX_PROBE_ROWS}")
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
    return probes


def check_logz_ordering(null: ExpFamilyDescriptor, tilted: TiltedFamily,
                        grid: np.ndarray) -> ItemVerdict:
    """Ordering 4: logZ_p >= logZ_q on the null's canonical domain.

    At each grid mean, canonical probes cover near-boundary and tilt-scale
    points of B_p(mu).  A probe where logZ_q is infinite while logZ_p is
    finite violates the containment this ordering presumes and is reported
    as a +inf gap; probes past the null's own finite range are skipped.
    Locations are [grid mean, probe] pairs; with no probe counted it holds at -inf.
    """
    alt = tilted.family
    return _logz_verdict(null, alt, grid, _canonical_boxes(null, grid), covariance_at_mean(null, grid),
                         _canonical_boxes(alt, _require_mean(alt, grid)))


def _logz_verdict(null: ExpFamilyDescriptor, alt: ExpFamilyDescriptor, grid: np.ndarray,
                  box_p: DomainDescriptor, cov_p: np.ndarray, box_q: DomainDescriptor) -> ItemVerdict:
    """``check_logz_ordering`` given B_p, Sigma_p and B_q at the grid."""
    probes = _beta_probe_points(box_p, cov_p)
    # one box per grid mean, against that mean's row of probes
    gaps, null_out = _gap(null, alt, probes, grid[:, None], *(
        DomainDescriptor(box.lower[..., None, :], box.upper[..., None, :]) for box in (box_p, box_q)))
    counted = ~null_out  # owner-major; NaN padding lies off B_p, so it is null_out
    rule = "logZ_q(beta; mu) - logZ_p(beta; mu) <= tol on B_p(mu)"
    if not np.any(counted):
        return ItemVerdict(True, rule, 0, -np.inf, TOL_SCALAR, [])
    return _ordering_verdict(rule, gaps[counted], np.stack(
        [np.broadcast_to(grid[:, None], probes.shape)[counted], probes[counted]], axis=1), TOL_SCALAR)


@dataclass(frozen=True)
class ConditionReport:
    """Full battery outcome; each item carries the threshold it was compared against."""

    model: str
    params: dict
    preconditions: PreconditionReport
    items: dict[str, ItemVerdict]
    overall: str
    reason: str
    grid_points: int
    pair_count: int

    def to_dict(self) -> dict:
        """JSON-ready fields in declaration order."""
        return {"report_version": REPORT_VERSION, **_scrub(self)}


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

    The orderings run on the grid means and mean pairs that lie in both
    mean spaces (a DomainError if there are none); the preconditions see the
    whole grid.  Verdict rules: any deterministic ordering failure refutes
    the family-wide claim; certification additionally needs every
    precondition, and orderings that hold with a precondition failing are
    ``inconclusive-preconditions``.  Stochastic log-partitions cap the
    verdict at ``inconclusive-stochastic``.
    """
    null, tilted = pairing.null, pairing.tilted
    alt = tilted.family
    grid = mean_grid(alt.mean_domain, spec, include=tilted.mu_star)
    pairs = mean_pairs(alt.mean_domain, spec)
    # both draw inside the alternative's mean space; the orderings compare the two
    # families at means that lie in the null's too, checked here once: the stages
    # call the families' unchecked kernels, and one B_p, B_q and Sigma_p serve them all
    in_null = null.mean_domain.contains(grid)
    pre, box_p, box_q = _preconditions(null, alt, grid, in_null)
    grid = grid[in_null]
    pairs = pairs[np.all(null.mean_domain.contains(pairs), axis=1)]
    if grid.shape[0] == 0 or pairs.shape[0] == 0:
        raise DomainError(f"{alt.name}: no grid mean or no mean pair lies in the mean space "
                          f"of {null.name}")
    mu, mu_prime = pairs[:, 0], pairs[:, 1]
    cov_p = _cov(null.cov_map, np.zeros_like(grid), grid)
    sigma = _sigma_verdict(null, alt, grid, cov_p, _cov(alt.cov_map, np.zeros_like(grid), grid))
    bp, bq = (np.asarray(fam.beta_map(mu, mu_prime), dtype=float) for fam in (null, alt))
    items = {
        "covariance_ordering": sigma,
        "canonical_pairing": _pairing_verdict(pairs, bp, bq),
        "kl_ordering": _kl_verdict(pairs, _kl(null, bp, mu, mu_prime), _kl(alt, bq, mu, mu_prime)),
        "log_partition_ordering": _logz_verdict(null, alt, grid, box_p, cov_p, box_q),
    }
    failed = [key for key, verdict in items.items() if not verdict.passed]
    # Monte Carlo orderings prove nothing, so they decide first
    overall = (INCONCLUSIVE if null.stochastic or alt.stochastic else REFUTED if failed
               else CERTIFIED if pre.all_passed else INCONCLUSIVE_PRECONDITIONS)
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
    )


def _shared_mean(tilted: TiltedFamily, null: ExpFamilyDescriptor, mu, what: str) -> np.ndarray:
    """``mu`` as a vector; it must lie in both mean spaces, whose families evaluate densities."""
    mu_vec = null.vec(mu)
    if not null.mean_domain.contains(mu_vec) or not tilted.family.mean_domain.contains(mu_vec):
        raise DomainError(f"mean {mu_vec} must lie in both mean spaces")
    if null.carrier_log_density is None or tilted.family.carrier_log_density is None:
        raise UnsupportedModelError(f"both families need density evaluation for {what}")
    return mu_vec


def simple_log_evalue(tilted: TiltedFamily, null: ExpFamilyDescriptor, mu, u):
    """Log density ratio log q_mu(u) - log p_mu(u) of the two members with mean ``mu``.

    Stays finite where the ratio itself underflows to 0 or overflows to inf.
    A family that declares its law refuses, with a DataError, the first
    element of ``u`` outside that law's support; the null's law is checked first.
    """
    mu_vec = _shared_mean(tilted, null, mu, "e-values")
    batch, single = as_batch(u, null.element_ndim)
    log_p = np.asarray(null.carrier_log_density(batch, mu_vec), dtype=float)
    log_q = np.asarray(tilted.family.carrier_log_density(batch, mu_vec), dtype=float)
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
    mu_vec = _shared_mean(tilted, null, mu, "growth rates")
    if tilted.family.law is None or null.law is None:
        raise UnsupportedModelError("growth rate needs both families to declare their laws")
    return law_kl(tilted.family.law(mu_vec), null.law(mu_vec))
