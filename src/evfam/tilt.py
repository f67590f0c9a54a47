"""Tilted alternative families generated by a single carrier density.

Given a null family with sufficient statistic t and an alternative carrier
q on the same observation space, exponentially tilting q by beta . t(u)
produces an auxiliary family whose log-partition at the carrier anchor is
the cumulant of t(U) under q.  Anchoring elsewhere only shifts the
canonical coordinate, so the family built from any of its own members is
the same family (re-anchoring closure).

Catalog pairings know that family in closed form and hold it directly
(``models._member_pairing``).  ``build_tilted_family`` builds it for a
carrier known only through

1. a closed-form cumulant (log MGF), with the canonical domain discovered
   by bisection along each axis; or
2. a sampler: an empirical cumulant over one fixed draw from the carrier.
   The result is smooth and fully differentiable but stochastic, which is
   recorded on the family and blocks hard certification downstream.  Every
   moment is a self-normalized importance-weighted average over the draw:
   one weight pass per distinct tilt row (log-weights, their logsumexp,
   normalized weights) gives the cumulant, the mean and the covariance of
   that row, which the family keeps for its lifetime, so a row asked for
   again, by any of the three, makes no second pass.  Passes run a few rows
   at a time, so memory stays bounded by MC_CHUNK_ELEMENTS per call.

``f_gap_info`` gives the log-partition difference logZ_q - logZ_p at a
shared anchor, with a mask of the points past the null's domain; its
gradient is the mean difference between the two tilted members, and its
value at the origin is zero by the anchor normalization.  The local
covariance condition at one mean is the battery's own check,
``conditions.check_sigma_ordering`` on a one-row grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .domains import DomainDescriptor, box_domain
from .errors import DomainError, UnsupportedModelError
from .families import (
    ExpFamilyDescriptor,
    _RowCache,
    _cached_rows,
    _logz,
    _require_mean,
    family_from_root_cumulant,
)
from .util import pointwise

__all__ = [
    "CarrierAlternative",
    "TiltedFamily",
    "build_tilted_family",
    "f_gap_info",
]

MC_SAMPLES_DEFAULT = 200_000
# rows x draws of one Monte Carlo weight pass: a chunk's log-weights, weights
# and covariance residuals take a few times this many floats (times the
# dimension for the residuals), whatever the number of rows requested
MC_CHUNK_ELEMENTS = 1 << 15
DOMAIN_BISECT_STEPS = 40
DOMAIN_PROBE_MAX = 1e12


@dataclass(frozen=True)
class CarrierAlternative:
    """An alternative density known only by its log MGF or a sampler.

    ``log_density`` maps a batch of observations to log q(u);
    ``mean_of_suff_stat`` is E_q[t(U)], the anchor mean of the family.
    ``mgf_log`` is beta -> log E_q[exp(beta . t(U))] for one ``(dim,)``
    point when available (may return +inf); the tilted family evaluates it
    point by point.  ``sampler(n, rng)`` draws from q.
    """

    name: str
    log_density: Callable[[np.ndarray], np.ndarray] | None
    mean_of_suff_stat: np.ndarray
    mgf_log: Callable[[np.ndarray], float] | None = None
    sampler: Callable[[int, np.random.Generator], np.ndarray] | None = None


@dataclass(frozen=True)
class TiltedFamily:
    """The auxiliary family generated by a carrier, anchored at its mean."""

    family: ExpFamilyDescriptor
    mu_star: np.ndarray


def _discover_box(mgf_log: Callable[[np.ndarray], float], dim: int) -> DomainDescriptor:
    """Axis-aligned finiteness region of a cumulant, by bisection per ray."""
    def finite_at(beta: np.ndarray) -> bool:
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                val = mgf_log(beta)
            except (OverflowError, ValueError, FloatingPointError):
                return False
        return bool(np.isfinite(val))

    lower = np.empty(dim)
    upper = np.empty(dim)
    for axis in range(dim):
        for sign, store in ((1.0, upper), (-1.0, lower)):
            probe = np.zeros(dim)
            radius = 1.0
            probe[axis] = sign * radius
            while finite_at(probe) and radius < DOMAIN_PROBE_MAX:
                radius *= 2.0
                probe[axis] = sign * radius
            if radius >= DOMAIN_PROBE_MAX:
                store[axis] = sign * np.inf
                continue
            good, bad = radius / 2.0 if radius > 1.0 else 0.0, radius
            for _ in range(DOMAIN_BISECT_STEPS):
                mid = 0.5 * (good + bad)
                probe[axis] = sign * mid
                if finite_at(probe):
                    good = mid
                else:
                    bad = mid
            store[axis] = sign * good
    return box_domain(lower, upper)


def _row_logsumexp(w: np.ndarray) -> np.ndarray:
    """logsumexp of each row of a 2-d array, bit for bit as scipy.special.logsumexp.

    scipy's algorithm as reductions along the rows: the ties at the row
    maximum leave the shifted sum, which enters as log1p(rest / ties) +
    log(ties) + max.  A row whose result is not finite gets
    log(sum(exp(row))), so an all -inf row gives -inf.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        top = np.max(w, axis=-1, keepdims=True)
        at_top = w == top
        ties = np.count_nonzero(at_top, axis=-1, keepdims=True)
        shifted = w - top
        np.copyto(shifted, -np.inf, where=at_top)
        rest = np.sum(np.exp(shifted, out=shifted), axis=-1, keepdims=True)
        out = (np.log1p(rest / ties) + np.log(ties) + top)[:, 0]
        bad = ~np.isfinite(out)
        if np.any(bad):
            out[bad] = np.log(np.sum(np.exp(w[bad]), axis=-1))
    return out


def _by_chunks(rows: np.ndarray, draws: int, reduce: Callable) -> np.ndarray:
    """``reduce`` over the rows of a non-empty (n, dim) batch, a few rows at a time.

    Each row of log-weights has one entry per draw; chunking keeps the
    (rows x draws) temporaries of a weight pass near MC_CHUNK_ELEMENTS
    whatever the batch size.
    """
    step = max(1, MC_CHUNK_ELEMENTS // draws)
    return np.concatenate([reduce(rows[i:i + step]) for i in range(0, len(rows), step)])


def build_tilted_family(
    null: ExpFamilyDescriptor,
    carrier: CarrierAlternative,
    mc_samples: int = MC_SAMPLES_DEFAULT,
    seed: int = 0,
) -> TiltedFamily:
    """Construct the tilted family of a carrier over the null's statistic."""
    mu_star = np.atleast_1d(np.asarray(carrier.mean_of_suff_stat, dtype=float))
    if mu_star.shape != (null.dim,):
        raise DomainError(
            f"carrier mean has shape {mu_star.shape}, statistic is {null.dim}-dimensional")

    if carrier.mgf_log is not None:
        family = family_from_root_cumulant(
            f"tilt[{carrier.name}]",
            suff_stat=null.suff_stat,
            root_cumulant=pointwise(carrier.mgf_log),
            root_domain=_discover_box(carrier.mgf_log, null.dim),
            mean_domain=null.mean_domain,
            root_carrier_log_density=carrier.log_density,
            element_ndim=null.element_ndim,
        )
        return TiltedFamily(family=family, mu_star=mu_star)

    if carrier.sampler is not None:
        rng = np.random.Generator(np.random.Philox(key=seed))
        draws = carrier.sampler(mc_samples, rng)
        stats = np.asarray(null.suff_stat(draws), dtype=float)
        anchor = stats.mean(axis=0)
        # advertise only the central empirical range: tilting toward the
        # extreme order statistics is numerically hopeless and statistically
        # meaningless with one fixed draw
        lo, hi = np.quantile(stats, 0.01, axis=0), np.quantile(stats, 0.99, axis=0)
        span = np.maximum(hi - lo, 1e-12)
        dim = null.dim

        def log_weights(rows: np.ndarray) -> np.ndarray:
            # at dim 1 each beta . t has one term, so the elementwise product is
            # exact; at dim >= 2 one matrix-vector product per row, as gemm's
            # last bits depend on how many rows share the call
            return rows * stats[:, 0] if dim == 1 else np.matmul(stats, rows[..., None])[..., 0]

        def moments(rows: np.ndarray) -> np.ndarray:
            """Packed [logsumexp, mean, covariance] of each row from one weight pass."""
            w = log_weights(rows)
            lse = _row_logsumexp(w)
            weights = np.exp(np.subtract(w, lse[:, None], out=w), out=w)
            # one vector-matrix product per row: a row's mean does not depend
            # on which other rows share its chunk
            mean = np.matmul(weights[:, None, :], stats)[:, 0]
            resid = stats - mean[:, None, :]
            cov = np.matmul((resid * weights[..., None]).swapaxes(1, 2), resid)
            return np.concatenate([lse[:, None], mean, cov.reshape(len(rows), -1)], axis=1)

        # The packed moments of every row evaluated so far, keyed by the row's
        # bytes and kept for the family's lifetime like its gamma and beta
        # caches: 1 + d + d^2 floats per distinct row.  Newton starts, the
        # log-partition's gamma rows and the Jacobian at accepted rows all
        # ask again for rows already evaluated.
        moment_cache = _RowCache(1 + dim + dim * dim)

        def cached_moments(beta: np.ndarray) -> np.ndarray:
            return _cached_rows(moment_cache, beta, lambda rows: _by_chunks(rows, len(stats), moments))

        def empirical_cumulant(beta: np.ndarray) -> np.ndarray:
            return cached_moments(beta)[..., 0] - np.log(mc_samples)

        def empirical_mean(beta: np.ndarray) -> np.ndarray:
            return cached_moments(beta)[..., 1:1 + dim]

        def empirical_cov(beta: np.ndarray) -> np.ndarray:
            return cached_moments(beta)[..., 1 + dim:].reshape(beta.shape + (dim,))

        family = family_from_root_cumulant(
            f"tilt-mc[{carrier.name}]",
            suff_stat=null.suff_stat,
            root_cumulant=empirical_cumulant,
            root_domain=box_domain(np.full(null.dim, -np.inf), np.full(null.dim, np.inf)),
            mean_domain=box_domain(lo + 1e-9 * span, hi - 1e-9 * span),
            root_mean=empirical_mean,
            root_cov=empirical_cov,
            element_ndim=null.element_ndim,
            stochastic=True,
        )
        return TiltedFamily(family=family, mu_star=anchor)

    raise UnsupportedModelError(
        "carrier provides neither a log MGF nor a sampler")


def f_gap_info(null: ExpFamilyDescriptor, tilted: TiltedFamily, beta, anchor):
    """Gap logZ_q - logZ_p, +inf wherever either side is, and where logZ_p is +inf.

    Returns ``(gap, null_out)``: for one point a float and a bool, for
    ``(..., dim)`` batches two arrays of the leading shape.  ``null_out``
    marks the points past the null's canonical domain.  Each anchor must lie in both mean spaces.
    """
    anchor = _require_mean(tilted.family, _require_mean(null, anchor, "anchor"), "anchor")
    gap, p_out = _gap(null, tilted.family, null.points(beta), anchor)
    return (float(gap), bool(p_out)) if gap.ndim == 0 else (gap, p_out)


def _gap(null: ExpFamilyDescriptor, alt: ExpFamilyDescriptor, beta: np.ndarray, anchor: np.ndarray,
         box_p: DomainDescriptor | None = None, box_q: DomainDescriptor | None = None):
    """``f_gap_info`` at validated anchors, as arrays, in B_p ``box_p`` and B_q ``box_q`` if given."""
    logz_p, logz_q = _logz(null, beta, anchor, box_p), _logz(alt, beta, anchor, box_q)
    p_out = ~np.isfinite(logz_p)
    with np.errstate(invalid="ignore"):
        return np.where(p_out | ~np.isfinite(logz_q), np.inf, logz_q - logz_p), p_out
