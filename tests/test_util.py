"""Shared helpers: the one-point lift against its per-point reference, and
the one covariance-ordering rule on orderings whose margin is known."""

from __future__ import annotations

import math

import numpy as np
import pytest

from evfam.util import TOL_PSD, pointwise, psd_margin


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


# the ordering holds where eigs[..., 0] / scale >= -TOL_PSD
@pytest.mark.parametrize("sigma_p, sigma_q, margin, holds", [
    ([[2.0, 0.3], [0.3, 1.0]], [[2.0, 0.3], [0.3, 1.0]], 0.0, True),
    (np.diag([2.0, 1.0]), np.diag([1.0, 1.5]), -0.25, False),
    # Sigma_p - Sigma_q = diag(1, -2^-40): round-off scale, about -1e-12 of the norm
    (np.eye(2), np.diag([0.0, 1.0 + 2.0 ** -40]), -(2.0 ** -40), True),
], ids=["equal", "crossing", "round-off"])
def test_psd_margin_on_orderings_of_known_margin(sigma_p, sigma_q, margin, holds):
    eigs, scale = psd_margin(np.asarray(sigma_p), np.asarray(sigma_q))
    assert eigs[0] / scale == margin
    assert (eigs[0] / scale >= -TOL_PSD) == holds


def test_psd_margin_of_a_stack_is_each_matrix_bit_for_bit():
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(2, 6, 3, 3))
    sigma_p, sigma_q = a @ a.transpose(0, 2, 1), b @ b.transpose(0, 2, 1)
    eigs, scale = psd_margin(sigma_p, sigma_q)
    assert eigs.shape == (6, 3) and scale.shape == (6,)
    for i in range(6):
        one_eigs, one_scale = psd_margin(sigma_p[i], sigma_q[i])
        np.testing.assert_array_equal(eigs[i].view(np.int64), one_eigs.view(np.int64))
        assert scale[i] == one_scale
