"""Open parameter domains for mean and canonical spaces.

A domain is a product of open intervals (a box, whose bounds may be
infinite), optionally cut down by a predicate, for domains that are not
axis-aligned (e.g. means coupled through a quadratic form).

Membership checks are deterministic and strict: all stated domains are open,
so boundary points are outside.

Broadcasting contract: points are arrays of shape ``(..., dim)`` and
``contains`` answers for every point of the batch at once, returning a
boolean array of the leading shape (a plain ``bool`` for a single ``(dim,)``
point).  Bounds may themselves carry leading axes, one box per anchor, so a
descriptor built from a batch of anchors (a family's canonical domains over
a mean grid) tests a matching batch of points in one call.  A predicate
receives an ``(n, dim)`` array of points already inside the bounding box
and returns ``n`` booleans, e.g. ``lambda x: x[..., 0] > x[..., 1] ** 2``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["DomainDescriptor", "box_domain", "positive_orthant", "full_space"]


@dataclass(frozen=True)
class DomainDescriptor:
    """An open subset of R^d used as a mean or canonical parameter space.

    ``lower`` and ``upper`` are arrays of shape (..., dim) with
    ``lower < upper`` componentwise (infinities allowed); leading axes
    describe one box per batch entry.  A missing bound is infinite, and at
    least one must be given: its last axis is the dimension.  With a
    ``predicate``, membership is additionally delegated to it and the
    bounds describe a bounding box, which may be fully infinite.
    """

    lower: np.ndarray | None
    upper: np.ndarray | None = None
    predicate: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self) -> None:
        if self.lower is None and self.upper is None:
            raise ValueError("a domain needs at least one bound array to fix its dimension")
        lower = None if self.lower is None else np.asarray(self.lower, dtype=float)
        upper = None if self.upper is None else np.asarray(self.upper, dtype=float)
        lower = np.full(upper.shape, -np.inf) if lower is None else lower
        upper = np.full(lower.shape, np.inf) if upper is None else upper
        if lower.shape != upper.shape or lower.ndim == 0:
            raise ValueError("domain bounds must have matching shapes (..., dim)")
        if not np.all(lower < upper):
            raise ValueError("domain requires lower < upper componentwise")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def dim(self) -> int:
        return self.lower.shape[-1]

    def contains(self, x: np.ndarray | float) -> bool | np.ndarray:
        """Strict interior membership of each point of a ``(..., dim)`` batch.

        Non-finite points are outside.  Returns a ``bool`` for a single point and a boolean array
        of the leading shape otherwise.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim == 0:
            x = x.reshape(1)
        dim = self.dim
        if x.shape[-1:] != (dim,):
            raise ValueError(f"point has shape {x.shape}, domain is {dim}-dimensional")
        inside = np.all(np.isfinite(x) & (x > self.lower) & (x < self.upper), axis=-1)
        if self.predicate is not None and np.any(inside):
            flat = np.broadcast_to(x, inside.shape + (dim,)).reshape(-1, dim)
            keep = inside.reshape(-1)
            keep[keep] = np.asarray(self.predicate(flat[keep]), dtype=bool)
            inside = keep.reshape(inside.shape)
        return bool(inside) if inside.ndim == 0 else inside

    def shifted(self, delta: np.ndarray) -> "DomainDescriptor":
        """Translate a box by ``delta`` (used for re-anchoring).

        ``delta`` of shape (..., dim) gives one translated box per entry.
        """
        if self.predicate is not None:
            raise ValueError("cannot shift a predicate domain")
        delta = np.asarray(delta, dtype=float)
        lower, upper = np.broadcast_arrays(self.lower + delta, self.upper + delta)
        return DomainDescriptor(lower, upper)


def box_domain(lower, upper) -> DomainDescriptor:
    return DomainDescriptor(np.atleast_1d(np.asarray(lower, dtype=float)), upper)


def positive_orthant(dim: int = 1) -> DomainDescriptor:
    return box_domain(np.zeros(dim), np.full(dim, np.inf))


def full_space(dim: int = 1) -> DomainDescriptor:
    return box_domain(np.full(dim, -np.inf), np.full(dim, np.inf))
