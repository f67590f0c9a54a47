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

Projecting an alternative member onto the null solves the least-squares
normal equations in the nuisance columns and inflates the variance by the
mean squared fitted-value gap; the likelihood ratio against that projection
is the simple e-value for the member.  The covariance difference between
same-mean null and alternative members has blocks

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
from scipy.linalg import cho_factor, cho_solve

from .domains import DomainDescriptor
from .errors import DataError, DomainError
from .families import ExpFamilyDescriptor, law_log_density
from .models import Pairing, _member_pairing
from .util import TOL_PSD, float_or_array as _scalar, matvec, psd_margin, rowdot

__all__ = [
    "LinearModelDesign",
    "LinearModelParams",
    "LinModelPsdReport",
    "linmodel_family",
    "params_from_mean",
    "mean_of_params",
    "covariance_of_params",
    "project_onto_null",
    "linmodel_evalue",
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

    @property
    def gram_f0(self) -> np.ndarray:
        return self.nuisance.T @ self.x[:, 0]

    @cached_property
    def gram(self) -> np.ndarray:
        """X'X: squared norms and nuisance cross-products of fitted values need only it."""
        return self.x.T @ self.x

    @cached_property
    def gram_ff_cholesky(self) -> tuple[np.ndarray, bool]:
        """Cholesky factor of the nuisance Gram matrix, computed once per design."""
        return cho_factor(self.gram_ff, lower=True)


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


def _fitted(design: LinearModelDesign, params: LinearModelParams) -> np.ndarray:
    return matvec(design.x, params.gamma)


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
    cols = rhs.reshape(-1, design.d).T
    return cho_solve(design.gram_ff_cholesky, cols, check_finite=False).T.reshape(rhs.shape)


def _nuisance_quadratic(design: LinearModelDesign, mu_f: np.ndarray) -> np.ndarray:
    return rowdot(mu_f, _solve_ff(design, mu_f))


def _mean_domain(design: LinearModelDesign) -> DomainDescriptor:
    def predicate(mu: np.ndarray) -> np.ndarray:
        return mu[..., 0] > _nuisance_quadratic(design, mu[..., 1:])

    lower = np.full(design.d + 1, -np.inf)
    lower[0] = 0.0
    return DomainDescriptor("custom-predicate", design.d + 1, lower, None,
                            predicate=predicate, convex=True)


def params_from_mean(design: LinearModelDesign, theta: float, mu) -> LinearModelParams:
    """Invert the mean map within the family of a fixed theta.

    The nuisance normal equations make gamma affine in v = sigma2, so the
    first mean coordinate becomes a quadratic in v with a negative value at
    v = 0 whenever mu is in the mean space; its unique positive root is the
    member's variance.  ``mu`` may be one mean or a (..., d+1) batch; the
    members come back batched the same way.
    """
    mu = np.asarray(mu, dtype=float)
    if mu.shape[-1:] != (design.d + 1,):
        mu = mu.reshape(design.d + 1)
    p = _solve_ff(design, mu[..., 1:])
    q = _solve_ff(design, design.gram_f0) * theta
    gamma_a = np.concatenate([np.zeros(mu.shape[:-1] + (1,)), p], axis=-1)
    gamma_b = np.concatenate([[theta], -q])
    g_a = matvec(design.gram, gamma_a)
    fb = design.x @ gamma_b
    a2 = float(fb @ fb)
    a1 = design.n + 2.0 * (g_a @ gamma_b)
    a0 = rowdot(g_a, gamma_a) - mu[..., 0]
    if np.any(a0 >= 0.0):
        bad = mu if mu.ndim == 1 else mu[a0 >= 0.0][0]
        raise DomainError(f"mean {bad} outside the linear-model mean space")
    with np.errstate(divide="ignore", invalid="ignore"):
        v = np.where(a2 <= 1e-14 * np.maximum(1.0, a1 * a1), -a0 / a1,
                     (-a1 + np.sqrt(a1 * a1 - 4.0 * a2 * a0)) / (2.0 * a2))
    return LinearModelParams(sigma2=_scalar(v), gamma=gamma_a + v[..., None] * gamma_b)


def project_onto_null(design: LinearModelDesign, params: LinearModelParams) -> LinearModelParams:
    """Closest null member: least-squares fit in the nuisance columns.

    The fitted values match on every nuisance column and the projected
    variance absorbs the squared fit gap, sigma*^2 = sigma^2 +
    ||nu - nu*||^2 / n, so the projection never shrinks the variance.
    """
    nu = _fitted(design, params)
    gamma_f = _solve_ff(design, design.nuisance.T @ nu)
    gamma_null = np.concatenate([[0.0], gamma_f])
    gap = nu - design.x @ gamma_null
    return LinearModelParams(sigma2=params.sigma2 + float(gap @ gap) / design.n, gamma=gamma_null)


def linmodel_evalue(design: LinearModelDesign, params: LinearModelParams, y) -> np.ndarray | float:
    """Simple e-value: member density over its null projection, at data y."""
    y_arr = np.asarray(y, dtype=float)
    batch = y_arr.reshape(-1, design.n)
    log_q, log_p = (law_log_density(("normal", _fitted(design, p), p.sigma2), batch)
                    for p in (params, project_onto_null(design, params)))
    vals = np.exp(log_q - log_p)
    return float(vals[0]) if y_arr.ndim == 1 else vals


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
        eta, eta0 = np.broadcast_arrays(eta0 + beta, eta0)
        inside = eta[..., 0] < 0.0
        out = np.full(inside.shape, np.inf)
        if np.any(inside):
            out[inside] = (potential(params_of_natural(eta[inside]))
                           - potential(params_of_natural(eta0[inside])))
        return out

    def canonical_domain(anchor: np.ndarray) -> DomainDescriptor:
        sigma2 = np.asarray(params_at(anchor).sigma2)
        upper = np.full(sigma2.shape + (d + 1,), np.inf)
        upper[..., 0] = 0.5 / sigma2
        return DomainDescriptor("box", d + 1, None, upper)

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
        return "normal", _fitted(design, params), float(params.sigma2)  # sigma2 I

    return ExpFamilyDescriptor(
        name=f"linmodel(n={n},d={d},theta={theta:g})",
        dim=d + 1,
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
    mu: np.ndarray
    min_eigenvalue: float
    threshold: float
    schur_margin: float
    variance_gap: float
    null_params: LinearModelParams
    alt_params: LinearModelParams


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
        mu=mu,
        min_eigenvalue=float(eigs[0]),
        threshold=-tol * float(scale),
        schur_margin=schur,
        variance_gap=gap,
        null_params=null_params,
        alt_params=alt_params,
    )


def linmodel_pairing(design: LinearModelDesign, sigma2: float, gamma) -> Pairing:
    """Alternative member (sigma2, gamma) against the theta = 0 null family."""
    params = LinearModelParams(sigma2=sigma2, gamma=np.asarray(gamma, dtype=float).reshape(design.d + 1))
    theta = params.theta
    null = linmodel_family(design, 0.0)
    family = linmodel_family(design, theta)
    return _member_pairing(
        "linmodel", null, family, mean_of_params(design, params),
        params={"n": design.n, "d": design.d, "sigma2": sigma2, "gamma": params.gamma.tolist()},
        notes={"theta": theta, "projection": project_onto_null(design, params), "alt_params": params},
    )
