"""Open-domain descriptors and the small shared helpers."""

from __future__ import annotations

import numpy as np
import pytest

from evfam.domains import DomainDescriptor, box_domain, positive_orthant
from evfam.numdiff import fd_gradient, fd_hessian, fd_jacobian
from evfam.util import as_batch


def test_box_membership_is_strict():
    dom = box_domain([0.0], [1.0])
    assert dom.contains(np.array([0.5]))
    assert not dom.contains(np.array([0.0]))
    assert not dom.contains(np.array([1.0]))
    assert not dom.contains(np.array([np.nan]))
    assert not dom.contains(np.array([np.inf]))


def test_custom_predicate_combines_with_box():
    dom = DomainDescriptor(np.array([0.0, -np.inf]), predicate=lambda x: x[..., 0] > x[..., 1] ** 2)
    assert dom.contains(np.array([4.0, 1.5]))
    assert not dom.contains(np.array([1.0, 1.5]))
    assert not dom.contains(np.array([-1.0, 0.0]))


def test_domain_validation_errors():
    with pytest.raises(ValueError, match="at least one bound"):
        DomainDescriptor(None, predicate=lambda x: x[..., 0] > 0.0)
    with pytest.raises(ValueError):
        box_domain([1.0], [0.0])
    dom = positive_orthant(2)
    with pytest.raises(ValueError):
        dom.contains(np.array([1.0]))


def test_shift_translates_boxes_only():
    dom = box_domain([0.0, -1.0], [2.0, 1.0])
    moved = dom.shifted(np.array([1.0, 1.0]))
    assert moved.contains(np.array([2.5, 1.5]))
    assert not moved.contains(np.array([0.5, 0.0]))
    custom = DomainDescriptor(np.full(1, -np.inf), predicate=lambda x: True)
    with pytest.raises(ValueError):
        custom.shifted(np.array([1.0]))


def test_as_batch_scalar_and_vector_elements():
    batch, single = as_batch(3.0, 0)
    assert single and batch.shape == (1,)
    batch, single = as_batch(np.array([1.0, 2.0, 3.0]), 0)
    assert not single and batch.shape == (3,)
    batch, single = as_batch(np.array([1.0, 2.0]), 1)
    assert single and batch.shape == (1, 2)
    batch, single = as_batch(np.ones((5, 2)), 1)
    assert not single and batch.shape == (5, 2)


def test_finite_differences_on_polynomials():
    f = lambda x: x[..., 0] ** 3 + 2.0 * x[..., 0] * x[..., 1]
    x = np.array([1.2, -0.7])
    assert np.allclose(fd_gradient(f, x), [3 * 1.2 ** 2 + 2 * -0.7, 2 * 1.2],
                       rtol=1e-7)
    hess = fd_hessian(f, x)
    assert np.allclose(hess, [[6 * 1.2, 2.0], [2.0, 0.0]], atol=1e-5)
    g = lambda x: np.stack([x[..., 0] * x[..., 1], x[..., 1] ** 2], axis=-1)
    jac = fd_jacobian(g, x)
    assert np.allclose(jac, [[-0.7, 1.2], [0.0, 2 * -0.7]], rtol=1e-6, atol=1e-9)
