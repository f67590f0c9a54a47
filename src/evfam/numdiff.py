"""Central finite differences with coordinate-wise relative steps.

Step sizes follow h_i = base * (1 + |x_i|), with base ``DEFAULT_STEP`` = 1e-6,
near-optimal for first derivatives in double precision, and
``DEFAULT_STEP_SECOND`` = 1e-4 (about eps^(1/4)) for second derivatives.

Every helper builds its whole stencil as one array and calls ``f`` once:
``f`` maps points of shape ``(..., n)`` to values of shape ``(...)`` (or
``(..., m)`` for a Jacobian), broadcasting over the leading axes.  ``x`` may
itself be a batch ``(..., n)``; derivatives come back per batch entry.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["fd_gradient", "fd_jacobian", "fd_hessian", "DEFAULT_STEP", "DEFAULT_STEP_SECOND"]

DEFAULT_STEP = 1e-6
DEFAULT_STEP_SECOND = 1e-4


def _central(f: Callable, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """f at x + h_i e_i and x - h_i e_i for every axis i, stacked on axis -2 / -1."""
    h = DEFAULT_STEP * (1.0 + np.abs(x))
    shifts = h[..., None, :] * np.eye(x.shape[-1])             # (..., n, n), row i = h_i e_i
    stencil = np.concatenate([x[..., None, :] + shifts, x[..., None, :] - shifts], axis=-2)
    vals = np.asarray(f(stencil), dtype=float)
    n = x.shape[-1]
    vals = np.moveaxis(vals, x.ndim - 1, -1) if vals.ndim > x.ndim else vals
    return vals[..., :n], vals[..., n:], h


def fd_gradient(f: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
    """Central-difference gradient of a scalar function, shape (..., n)."""
    x = np.asarray(x, dtype=float)
    plus, minus, h = _central(f, x)
    return (plus - minus) / (2.0 * h)


def fd_jacobian(f: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian of a vector function, shape (..., m, n)."""
    x = np.asarray(x, dtype=float)
    plus, minus, h = _central(f, x)
    return (plus - minus) / (2.0 * h[..., None, :])


def fd_hessian(f: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
    """Central-difference Hessian of a scalar function, shape (..., n, n).

    Diagonal entries use the three-point second difference, off-diagonal
    entries the four-point cross formula; the result is exactly symmetric.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    h = DEFAULT_STEP_SECOND * (1.0 + np.abs(x))
    unit = h[..., None, :] * np.eye(n)                         # (..., n, n), row i = h_i e_i
    iu, ju = np.triu_indices(n, 1)
    ei, ej = unit[..., iu, :], unit[..., ju, :]
    offsets = np.concatenate([unit, -unit, ei + ej, ei - ej, -ei + ej, -ei - ej,
                              np.zeros_like(unit[..., :1, :])], axis=-2)
    vals = np.asarray(f(x[..., None, :] + offsets), dtype=float)
    k = iu.size
    plus, minus = vals[..., :n], vals[..., n:2 * n]
    pp, pm, mp, mm = (vals[..., 2 * n + j * k:2 * n + (j + 1) * k] for j in range(4))
    f0 = vals[..., -1:]
    hess = np.empty(x.shape + (n,))
    diag = np.arange(n)
    hess[..., diag, diag] = (plus - 2.0 * f0 + minus) / h ** 2
    cross = (pp - pm - mp + mm) / (4.0 * h[..., iu] * h[..., ju])
    hess[..., iu, ju] = cross
    hess[..., ju, iu] = cross
    return hess
