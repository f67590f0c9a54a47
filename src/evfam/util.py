"""Small shared helpers: batch shapes, row-by-row products and the covariance ordering."""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["as_batch", "finite_or", "float_or_array", "pointwise", "rowdot", "matvec", "psd_margin",
           "TOL_PSD"]

# the covariance ordering's tolerance on the relative minimum eigenvalue (psd_margin)
TOL_PSD = 1e-9


def float_or_array(values):
    """A float for a batch with no leading axes (one point), the array otherwise."""
    return float(values) if np.ndim(values) == 0 else np.asarray(values)


def finite_or(first: Callable, second: Callable, *args) -> np.ndarray:
    """``first(*args)``, with ``second`` of the broadcast ``args`` where that is not finite.

    For two forms of one value, the second safe where the first overflows
    or cancels: every finite entry keeps the first form, bit for bit, and
    the first form's floating-point warnings are silenced.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = np.asarray(first(*args), dtype=float)
    bad = ~np.isfinite(out)
    if np.any(bad):
        out[bad] = second(*(np.broadcast_to(arg, out.shape)[bad] for arg in args))
    return out


def rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products along the last axis of two broadcasting (..., n) batches.

    Each entry is one stacked vector product, so a batch gives the same
    numbers as its rows taken one at a time.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``m @ v`` for every vector of a (..., n) batch, row by row as in ``rowdot``."""
    return (m @ v[..., :, None])[..., 0]


def pointwise(fn: Callable[[np.ndarray], object]) -> Callable[[np.ndarray], np.ndarray]:
    """Lift a function of one (n,) point to (..., n) batches, one call per point."""
    def batched(points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        flat = points.reshape(-1, points.shape[-1])
        vals = np.array([fn(p) for p in flat], dtype=float)
        return vals.reshape(points.shape[:-1] + vals.shape[1:])

    return batched


def as_batch(u, element_ndim: int) -> tuple[np.ndarray, bool]:
    """Promote a single element to a batch of one.

    Elements of a sample space have a fixed ndim (0 for scalar observations,
    1 for vector observations); batches add one leading axis.  Returns the
    batch array and whether the input was a single element.
    """
    arr = np.asarray(u, dtype=float)
    if arr.ndim == element_ndim:
        return arr[None, ...], True
    if arr.ndim == element_ndim + 1:
        return arr, False
    raise ValueError(f"expected ndim {element_ndim} or {element_ndim + 1}, got {arr.ndim}")


def psd_margin(sigma_p: np.ndarray, sigma_q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of Sigma_p - Sigma_q, ascending, and the spectral norm of Sigma_p.

    For (d, d) or (..., d, d) batches; the norm is floored at the smallest normal
    float.  The ordering holds where ``eigs[..., 0] / scale >= -TOL_PSD``.
    """
    eigs = np.linalg.eigvalsh(sigma_p - sigma_q)
    scale = np.maximum(np.max(np.abs(np.linalg.eigvalsh(sigma_p)), axis=-1), np.finfo(float).tiny)
    return eigs, scale
