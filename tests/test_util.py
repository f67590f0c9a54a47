"""Shared helpers: the one-point lift against its per-point reference."""

from __future__ import annotations

import math

import numpy as np
import pytest

from evfam.util import pointwise


def _pointwise_reference(fn):
    """The lift as one array conversion per point, kept as the reference."""
    def batched(points):
        points = np.asarray(points, dtype=float)
        flat = points.reshape(-1, points.shape[-1])
        vals = np.array([np.asarray(fn(p), dtype=float) for p in flat])
        return vals.reshape(points.shape[:-1] + vals.shape[1:])

    return batched


ONE_POINT = {
    "float": lambda p: 2.0 * math.expm1(float(p[0])),
    "np.float64": lambda p: np.float64(p[0]) ** 3 - np.sin(p[-1]),
    "int": lambda p: int(p[0] > 0.25),
    "inf": lambda p: math.inf if p[0] > 0.5 else -0.0,
    # vector-valued, as finite_diff_check lifts a map for its Jacobian
    "vector": lambda p: np.array([p[0] * p[-1], np.exp(p[0]), -p[-1]]),
}


@pytest.mark.parametrize("fn", ONE_POINT.values(), ids=ONE_POINT.keys())
@pytest.mark.parametrize("shape", [(2,), (7, 2), (3, 4, 1), (0, 2)])
def test_pointwise_keeps_the_per_point_bits(fn, shape):
    points = np.linspace(-1.5, 1.5, math.prod(shape)).reshape(shape)
    got, want = pointwise(fn)(points), _pointwise_reference(fn)(points)
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
