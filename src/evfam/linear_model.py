"""Testing one regression coefficient with unknown variance and nuisance slopes.

Observations are y in R^n from N(X gamma, sigma2 I) with a fixed design X
whose column 0 holds the tested covariate.  Writing theta = gamma_0 /
sigma2, the distributions with a common theta form a (d+1)-dimensional
exponential family in the statistic

    T(y) = (sum_i y_i^2, sum_i y_i x_{i1}, ..., sum_i y_i x_{id});

the tested coordinate is absorbed into the carrier exp(theta sum_i y_i
x_{i0}) and does not enter T.  The null is the theta = 0 slice.  All
theta-families share the mean space {mu : mu_0 > mu_f' G_ff^{-1} mu_f}
with G_ff the Gram matrix of the nuisance columns, which is convex (the
region above a positive quadratic).

The null member with an alternative member's mean, ``params_from_mean(design,
0.0, mu)``, is its least-squares projection: the fit in the nuisance
columns, with the variance inflated by the mean squared fitted-value gap.
The likelihood ratio against it is the member's simple e-value,
``conditions.simple_evalue`` on ``linmodel_pairing``.  The covariance
difference between same-mean null and alternative members has blocks

    dA = A* - A°,  dB = 2 (sigma*^2 - sigma°^2) Xf' nu*,
    dC = (sigma*^2 - sigma°^2) G_ff,

and its positive semidefiniteness is checked both by eigenvalues and by the
Schur complement of the dC block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .domains import DomainDescriptor
from .errors import DataError, DomainError
from .families import ExpFamilyDescriptor
from .models import Pairing, _member_pairing, _require_positive
from .util import TOL_PSD, float_or_array as _scalar, matvec, psd_margin, rowdot

__all__ = [
    "LinearModelDesign",
    "LinearModelParams",
    "LinModelPsdReport",
    "linmodel_family",
    "params_from_mean",
    "mean_of_params",
    "covariance_of_params",
    "linmodel_psd_check",
    "linmodel_pairing",
]


@dataclass(frozen=True)
class LinearModelDesign:
    """Fixed design matrix, column 0 = tested covariate, columns 1.. = nuisance."""

    x: np.ndarray

    def __post_init__(self) -> None:
        x = np.atleast_2d(np.asarray(self.x, dtype=float))
        if x.ndim != 2:
            raise DataError("design must be a 2-d array")
        n, p = x.shape
        if p < 1 or n < p:
            raise DataError(f"design needs n >= d+1 >= 1 columns, got shape {x.shape}")
        sv = np.linalg.svd(x, compute_uv=False)
        if sv[-1] <= max(n, p) * np.finfo(float).eps * sv[0]:
            raise DataError("design matrix is rank deficient")
        object.__setattr__(self, "x", x)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1] - 1

    @property
    def nuisance(self) -> np.ndarray:
        return self.x[:, 1:]

    @property
    def gram_ff(self) -> np.ndarray:
        return self.nuisance.T @ self.nuisance

    @cached_property
    def gram(self) -> np.ndarray:
        """X'X: squared norms and nuisance cross-products of fitted values need only it."""
        return self.x.T @ self.x

    @cached_property
    def gram_ff_cholesky(self) -> tuple[np.ndarray, bool]:
        """Cholesky factor of the nuisance Gram matrix, computed once per design."""
        from scipy.linalg import cho_factor  # scipy.linalg loads with the linear model only

        return cho_factor(self.gram_ff, lower=True)

    @cached_property
    def nuisance_fit_f0(self) -> np.ndarray:
        """G_ff^{-1} g_f0, the tested column's fit in the nuisance columns, solved once per design."""
        return _solve_ff(self, self.nuisance.T @ self.x[:, 0])


@dataclass(frozen=True)
class LinearModelParams:
    """Members: noise variance and full coefficient vector.

    One member has a float ``sigma2`` and a (d+1,) ``gamma``; a batch has
    ``sigma2`` of shape (...) and ``gamma`` of shape (..., d+1).
    """

    sigma2: float | np.ndarray
    gamma: np.ndarray

    def __post_init__(self) -> None:
        if np.any(np.asarray(self.sigma2) <= 0):
            raise DomainError("sigma2 must be positive")
        object.__setattr__(self, "gamma", np.asarray(self.gamma, dtype=float))

    @property
    def theta(self) -> float | np.ndarray:
        return _scalar(self.gamma[..., 0] / self.sigma2)


def mean_of_params(design: LinearModelDesign, params: LinearModelParams) -> np.ndarray:
    g_gamma = matvec(design.gram, params.gamma)
    first = design.n * np.asarray(params.sigma2) + rowdot(g_gamma, params.gamma)
    return np.concatenate([first[..., None], g_gamma[..., 1:]], axis=-1)


def covariance_of_params(design: LinearModelDesign, params: LinearModelParams) -> np.ndarray:
    """Covariance of T(Y) under the member(s), assembled from its blocks."""
    s2 = np.asarray(params.sigma2)
    g_gamma = matvec(design.gram, params.gamma)
    top = 2.0 * s2 * (2.0 * rowdot(g_gamma, params.gamma) + design.n * s2)
    side = 2.0 * s2[..., None] * g_gamma[..., 1:]
    cov = np.empty(s2.shape + (design.d + 1, design.d + 1))
    cov[..., 0, 0] = top
    cov[..., 0, 1:] = side
    cov[..., 1:, 0] = side
    cov[..., 1:, 1:] = s2[..., None, None] * design.gram_ff
    return cov


def _solve_ff(design: LinearModelDesign, rhs: np.ndarray) -> np.ndarray:
    """G_ff^{-1} rhs for every (..., d) right-hand side, by the cached Cholesky factor."""
    rhs = np.asarray(rhs, dtype=float)
    if design.d == 0:
        return np.zeros(rhs.shape)
    from scipy.linalg import cho_solve

    cols = rhs.reshape(-1, design.d).T
    return cho_solve(design.gram_ff_cholesky, cols, check_finite=False).T.reshape(rhs.shape)


def _mean_domain(design: LinearModelDesign) -> DomainDescriptor:
    def predicate(mu: np.ndarray) -> np.ndarray:
        return mu[..., 0] > rowdot(mu[..., 1:], _solve_ff(design, mu[..., 1:]))

    lower = np.full(design.d + 1, -np.inf)
    lower[0] = 0.0
    return DomainDescriptor(lower, predicate=predicate)


def params_from_mean(design: LinearModelDesign, theta: float, mu) -> LinearModelParams:
    """Invert the mean map within the family of a fixed theta.

    The nuisance normal equations make gamma affine in v = sigma2, so the
    first mean coordinate becomes a quadratic in v with a negative value at
    v = 0 whenever mu is in the mean space; its unique positive root is the
    member's variance.  ``mu`` may be one mean or a (..., d+1) batch; the
    members come back batched the same way.  A mean whose root does not
    round to a finite positive float lies past the float range and is
    refused by name.
    """
    mu = np.asarray(mu, dtype=float)
    if mu.shape[-1:] != (design.d + 1,):
        mu = mu.reshape(design.d + 1)
    p = _solve_ff(design, mu[..., 1:])
    gamma_a = np.concatenate([np.zeros(mu.shape[:-1] + (1,)), p], axis=-1)
    g_a = matvec(design.gram, gamma_a)
    a0 = rowdot(g_a, gamma_a) - mu[..., 0]
    if np.any(a0 >= 0.0):
        bad = mu if mu.ndim == 1 else mu[a0 >= 0.0][0]
        raise DomainError(f"mean {bad} outside the linear-model mean space")
    with np.errstate(all="ignore"):
        gamma_b = np.concatenate([[theta], -design.nuisance_fit_f0 * theta])
        fb = design.x @ gamma_b
        a2 = float(fb @ fb)
        a1 = design.n + 2.0 * (g_a @ gamma_b)
        v = np.where(a2 <= 1e-14 * np.maximum(1.0, a1 * a1), -a0 / a1,
                     (-a1 + np.sqrt(a1 * a1 - 4.0 * a2 * a0)) / (2.0 * a2))
    past = ~((0.0 < v) & (v < np.inf))
    if np.any(past):
        bad = mu if mu.ndim == 1 else mu[past][0]
        raise DomainError(f"mean {bad} of the theta={theta:g} linear model lies past the float "
                          "range: its variance does not round to a finite positive float")
    return LinearModelParams(sigma2=_scalar(v), gamma=gamma_a + v[..., None] * gamma_b)


def linmodel_family(design: LinearModelDesign, theta: float) -> ExpFamilyDescriptor:
    """The exponential family of N(X gamma, sigma2 I) laws with fixed theta."""
    n, d = design.n, design.d
    mean_domain = _mean_domain(design)

    def params_at(mu: np.ndarray) -> LinearModelParams:
        return params_from_mean(design, theta, mu)

    def natural_of(params: LinearModelParams) -> np.ndarray:
        s2 = np.asarray(params.sigma2)[..., None]
        return np.concatenate([-0.5 / s2, params.gamma[..., 1:] / s2], axis=-1)

    def params_of_natural(eta: np.ndarray) -> LinearModelParams:
        s2 = -0.5 / eta[..., 0]
        full = np.concatenate([np.full(eta.shape[:-1] + (1,), theta), eta[..., 1:]], axis=-1)
        return LinearModelParams(sigma2=_scalar(s2), gamma=s2[..., None] * full)

    def potential(params: LinearModelParams) -> np.ndarray:
        s2 = np.asarray(params.sigma2)
        norm2 = rowdot(matvec(design.gram, params.gamma), params.gamma)
        return norm2 / (2.0 * s2) + 0.5 * n * np.log(2.0 * math.pi * s2)

    def suff_stat(y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float).reshape(-1, n)
        return np.column_stack([np.sum(y ** 2, axis=1), y @ design.nuisance])

    def log_partition(beta: np.ndarray, anchor: np.ndarray) -> np.ndarray:
        eta0 = natural_of(params_at(anchor))
        eta = eta0 + beta
        inside = eta[..., 0] < 0.0
        out = np.full(inside.shape, np.inf)
        if np.any(inside):  # the anchor's potential once per anchor, not once per beta
            anchored = np.broadcast_to(potential(params_of_natural(eta0)), inside.shape)
            out[inside] = potential(params_of_natural(eta[inside])) - anchored[inside]
        return out

    def canonical_domain(anchor: np.ndarray) -> DomainDescriptor:
        sigma2 = np.asarray(params_at(anchor).sigma2)
        upper = np.full(sigma2.shape + (d + 1,), np.inf)
        upper[..., 0] = 0.5 / sigma2
        return DomainDescriptor(None, upper)

    def mean_map(beta: np.ndarray, anchor: np.ndarray) -> np.ndarray:
        eta = natural_of(params_at(anchor)) + beta
        return mean_of_params(design, params_of_natural(eta))

    def cov_map(beta: np.ndarray, anchor: np.ndarray) -> np.ndarray:
        eta = natural_of(params_at(anchor)) + beta
        return covariance_of_params(design, params_of_natural(eta))

    def beta_map(mu: np.ndarray, anchor: np.ndarray) -> np.ndarray:
        return natural_of(params_at(mu)) - natural_of(params_at(anchor))

    def law(mean: np.ndarray) -> tuple:
        params = params_at(mean)
        return "normal", matvec(design.x, params.gamma), float(params.sigma2)  # sigma2 I

    return ExpFamilyDescriptor(
        name=f"linmodel(n={n},d={d},theta={theta:g})",
        suff_stat=suff_stat,
        log_partition=log_partition,
        mean_domain=mean_domain,
        canonical_domain=canonical_domain,
        mean_map=mean_map,
        cov_map=cov_map,
        beta_map=beta_map,
        element_ndim=1,
        law=law,
    )


@dataclass(frozen=True)
class LinModelPsdReport:
    """Covariance ordering at one mean point, with the Schur cross-check."""

    passed: bool
    min_eigenvalue: float
    threshold: float
    schur_margin: float
    variance_gap: float


def linmodel_psd_check(design: LinearModelDesign, theta: float, mu,
                       tol: float = TOL_PSD) -> LinModelPsdReport:
    """Compare same-mean null and theta-family covariances at ``mu``.

    Verifies the difference by its eigenvalues and independently by the
    Schur complement of its nuisance block; the two must agree in sign.
    """
    mu = np.asarray(mu, dtype=float).reshape(design.d + 1)
    null_params = params_from_mean(design, 0.0, mu)
    alt_params = params_from_mean(design, theta, mu)
    sigma_null = covariance_of_params(design, null_params)
    sigma_alt = covariance_of_params(design, alt_params)
    eigs, scale = psd_margin(sigma_null, sigma_alt)
    delta = sigma_null - sigma_alt
    gap = null_params.sigma2 - alt_params.sigma2
    if design.d == 0 or abs(gap) * float(np.max(np.abs(design.gram_ff))) < 1e-300:
        schur = float(delta[0, 0])
    else:
        schur = float(delta[0, 0] - delta[1:, 0] @ np.linalg.solve(delta[1:, 1:], delta[1:, 0]))
    return LinModelPsdReport(
        passed=bool(eigs[0] / scale >= -tol),
        min_eigenvalue=float(eigs[0]),
        threshold=-tol * float(scale),
        schur_margin=schur,
        variance_gap=gap,
    )


def linmodel_pairing(design: LinearModelDesign, sigma2: float, gamma) -> Pairing:
    """Alternative member (sigma2, gamma) against the theta = 0 null family.

    A sigma2 that is not finite and > 0, a gamma of the wrong length and a
    member whose mean or covariance is not finite are refused by name;
    ``params_from_mean`` refuses one whose variance does not come back.
    """
    _require_positive(sigma2, "linmodel", "sigma2")
    gamma = np.asarray(gamma, dtype=float).ravel()
    if gamma.size != design.d + 1:
        raise DomainError(f"linmodel gamma has length {gamma.size}; "
                          f"the design has {design.d + 1} columns")
    params = LinearModelParams(sigma2=sigma2, gamma=gamma)
    with np.errstate(all="ignore"):  # theta = gamma_0 / sigma2 overflows at a tiny sigma2
        mean = mean_of_params(design, params)
        cov = covariance_of_params(design, params)
        theta = params.theta
    if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
        raise DomainError(f"linmodel alternative sigma2={float(sigma2)!r}, "
                          f"gamma={params.gamma.tolist()} lies past the float range")
    return _member_pairing(
        "linmodel", linmodel_family(design, 0.0), linmodel_family(design, theta), mean,
        params={"n": design.n, "d": design.d, "sigma2": sigma2, "gamma": params.gamma.tolist()},
    )
