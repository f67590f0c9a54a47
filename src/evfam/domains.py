"""Open parameter domains for mean and canonical spaces.

A domain is one of three kinds:

* ``box``: a product of open intervals, bounds may be infinite;
* ``half-space-product``: same representation as a box, but tagged to record
  that it arose as a product of one-sided constraints (e.g. the canonical
  domain ``(-inf, c) x R^d`` of a family that is steep in one coordinate);
* ``custom-predicate``: membership decided by a callable, for domains that
  are not axis-aligned (e.g. means coupled through a quadratic form).

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

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = ["DomainDescriptor", "box_domain", "positive_orthant", "full_space"]


@dataclass(frozen=True)
class DomainDescriptor:
    """An open subset of R^d used as a mean or canonical parameter space.

    For ``box`` and ``half-space-product`` kinds, ``lower`` and ``upper``
    are arrays of shape (..., dim) with ``lower < upper`` componentwise
    (infinities allowed); leading axes describe one box per batch entry.
    For ``custom-predicate``, membership is additionally delegated to
    ``predicate`` and the bounds are advisory only (they may describe a
    bounding box, or be fully infinite).
    """

    kind: str
    dim: int
    lower: np.ndarray = field(default=None)
    upper: np.ndarray = field(default=None)
    predicate: Callable[[np.ndarray], np.ndarray] | None = None
    convex: bool = True

    def __post_init__(self) -> None:
        if self.kind not in ("box", "half-space-product", "custom-predicate"):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        lower = None if self.lower is None else np.asarray(self.lower, dtype=float)
        upper = None if self.upper is None else np.asarray(self.upper, dtype=float)
        shape = next((b.shape for b in (lower, upper) if b is not None), (self.dim,))
        lower = np.full(shape, -np.inf) if lower is None else lower
        upper = np.full(shape, np.inf) if upper is None else upper
        if lower.shape != upper.shape or lower.shape[-1:] != (self.dim,):
            raise ValueError("domain bounds must have matching shapes (..., dim)")
        if not np.all(lower < upper):
            raise ValueError("domain requires lower < upper componentwise")
        if self.kind == "custom-predicate" and self.predicate is None:
            raise ValueError("custom-predicate domain needs a predicate")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    def contains(self, x: np.ndarray | float, margin: float = 0.0) -> bool | np.ndarray:
        """Strict interior membership of each point of a ``(..., dim)`` batch.

        ``margin`` shrinks the box on both sides.  Non-finite points are
        outside.  Returns a ``bool`` for a single point and a boolean array
        of the leading shape otherwise.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim == 0:
            x = x.reshape(1)
        if x.shape[-1:] != (self.dim,):
            raise ValueError(f"point has shape {x.shape}, domain is {self.dim}-dimensional")
        inside = np.all(np.isfinite(x) & (x > self.lower + margin) & (x < self.upper - margin),
                        axis=-1)
        if self.kind == "custom-predicate" and np.any(inside):
            flat = np.broadcast_to(x, inside.shape + (self.dim,)).reshape(-1, self.dim)
            keep = inside.reshape(-1)
            keep[keep] = np.asarray(self.predicate(flat[keep]), dtype=bool)
            inside = keep.reshape(inside.shape)
        return bool(inside) if inside.ndim == 0 else inside

    def shifted(self, delta: np.ndarray) -> "DomainDescriptor":
        """Translate a box-like domain by ``delta`` (used for re-anchoring).

        ``delta`` of shape (..., dim) gives one translated box per entry.
        """
        if self.kind == "custom-predicate":
            raise ValueError("cannot shift a custom-predicate domain")
        delta = np.asarray(delta, dtype=float)
        lower, upper = np.broadcast_arrays(self.lower + delta, self.upper + delta)
        return DomainDescriptor(self.kind, self.dim, lower, upper, convex=self.convex)

    def is_box_like(self) -> bool:
        return self.kind in ("box", "half-space-product")


def box_domain(lower, upper) -> DomainDescriptor:
    lower = np.atleast_1d(np.asarray(lower, dtype=float))
    return DomainDescriptor("box", lower.shape[-1], lower, upper)


def positive_orthant(dim: int = 1) -> DomainDescriptor:
    return box_domain(np.zeros(dim), np.full(dim, np.inf))


def full_space(dim: int = 1) -> DomainDescriptor:
    return box_domain(np.full(dim, -np.inf), np.full(dim, np.inf))
