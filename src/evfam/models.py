"""Worked model catalog: null families and alternative pairings.

Scalar natural exponential families are built from their variance function
V on the mean domain through two potentials,

    Phi(m)  = int dm / V(m)      (canonical coordinate of the mean-m member),
    Psi(m)  = int m dm / V(m)    (log-partition along the mean path),

so that beta(m; m') = Phi(m) - Phi(m'), logZ(beta; m') = Psi(m) - Psi(m')
with m = Phi^{-1}(beta + Phi(m')), and D(P_m || P_m') follows from duality.
Every closed form in the catalog (Poisson, gamma, negative binomial, the
ABM class V(m) = m (1 + m/s)^r, Tweedie powers V(m) = a m^g with g >= 1,
inverse Gaussian) is an instance of this one mechanism, which keeps the
algebra in a single place.  A family with a named observation law declares
only that law (``ExpFamilyDescriptor.law``), never its density or sampler.

Pairings bundle a null family with a tilted alternative family anchored at
the alternative's sufficient-statistic mean.  The simple e-value of a
pairing at anchor mu is q_mu(u) / p_mu(u), the density ratio of the two
members sharing that mean.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.special import expit, logit

from .domains import DomainDescriptor, box_domain, full_space, positive_orthant
from .errors import ConvergenceError, DomainError, UnsupportedModelError
from .families import ExpFamilyDescriptor, family_from_root_cumulant
from .tilt import TiltedFamily
from .util import matvec, rowdot

__all__ = [
    "Pairing",
    "poisson_family",
    "gamma_family",
    "negbinom_family",
    "abm_family",
    "tweedie_family",
    "inverse_gaussian_family",
    "gaussian_location_family",
    "gaussian_scale_family",
    "ksample_null_family",
    "ksample_pairing",
    "gaussian_location_pairing",
    "gaussian_location_constrained",
    "gaussian_scale_pairing",
    "nef_pairing",
    "negbinom_vs_poisson",
    "abm_vs_poisson",
    "tweedie_pair",
    "ig_vs_exp_pairing",
    "ig_divergence_threshold",
    "ig_regime",
]


def _scalar_stat(u: np.ndarray) -> np.ndarray:
    return np.asarray(u, dtype=float).reshape(-1, 1)


def _sum_stat(u: np.ndarray) -> np.ndarray:
    return np.asarray(u, dtype=float).sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# root finding on batches

def _nan_checked(fx, x: np.ndarray) -> np.ndarray:
    fx = np.asarray(fx, dtype=float)
    bad = np.isnan(fx)
    if bad.any():
        raise ValueError(f"the function value at x={x[bad][0]!r} is NaN; the solver cannot continue")
    return fx


def _brentq_rows(f: Callable[[np.ndarray, np.ndarray], np.ndarray], a, b,
                 xtol: float, rtol: float, maxiter: int) -> np.ndarray:
    """Brent's method on every row of a batch of brackets [a_i, b_i].

    This is scipy's ``brentq`` C loop (Brent 1973, *Algorithms for
    Minimization without Derivatives*, ch. 4) ported step for step to
    arrays: the same branch tests, the same operation order in the
    interpolation and extrapolation steps and the same ``delta`` nudge, so
    every row gets the root ``scipy.optimize.brentq`` returns for it, bit for
    bit.  ``f(x, rows)`` evaluates the function of the batch rows ``rows``
    at ``x``; it is called only on the rows still iterating.

    A NaN function value or a row whose ends share a sign raises
    ValueError, as scipy does; a row still iterating after ``maxiter`` steps
    raises ConvergenceError.
    """
    xpre = np.array(a, dtype=float).ravel()
    xcur = np.array(b, dtype=float).ravel()
    rows = np.arange(xpre.size)
    fpre = _nan_checked(f(xpre, rows), xpre)
    fcur = _nan_checked(f(xcur, rows), xcur)
    root = np.where(fpre == 0, xpre, xcur)
    run = (fpre != 0) & (fcur != 0)
    if np.any(run & (np.signbit(fpre) == np.signbit(fcur))):
        raise ValueError("f(a) and f(b) must have different signs")
    rows, xpre, xcur, fpre, fcur = rows[run], xpre[run], xcur[run], fpre[run], fcur[run]
    xblk = fblk = spre = scur = np.zeros(rows.size)
    for _ in range(maxiter):
        flip = (fpre != 0) & (fcur != 0) & (np.signbit(fpre) != np.signbit(fcur))
        step = xcur - xpre
        xblk, fblk = np.where(flip, xpre, xblk), np.where(flip, fpre, fblk)
        spre, scur = np.where(flip, step, spre), np.where(flip, step, scur)
        swap = np.abs(fblk) < np.abs(fcur)
        xpre, xcur, xblk = np.where(swap, xcur, xpre), np.where(swap, xblk, xcur), np.where(swap, xcur, xblk)
        fpre, fcur, fblk = np.where(swap, fcur, fpre), np.where(swap, fblk, fcur), np.where(swap, fcur, fblk)

        delta = (xtol + rtol * np.abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        done = (fcur == 0) | (np.abs(sbis) < delta)
        if done.any():
            root[rows[done]] = xcur[done]
            keep = ~done
            rows, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis = (
                v[keep] for v in (rows, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis))
        if not rows.size:
            return root

        # both candidate steps for every row; np.where keeps the one scipy takes
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            stry = np.where(xpre == xblk,
                            -fcur * (xcur - xpre) / (fcur - fpre),
                            -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre)))
        lim = 3 * np.abs(sbis) - delta
        short = (np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre)) \
            & (2 * np.abs(stry) < np.where(np.abs(spre) < lim, np.abs(spre), lim))
        spre, scur = np.where(short, scur, sbis), np.where(short, stry, sbis)
        xpre, fpre = xcur, fcur
        xcur = np.where(np.abs(scur) > delta, xcur + scur, xcur + np.where(sbis > 0, delta, -delta))
        fcur = _nan_checked(f(xcur, rows), xcur)
    raise ConvergenceError(f"Brent solve: {rows.size} roots not converged after {maxiter} iterations")


def _require_positive(value: float, owner: str, name: str) -> None:
    if not 0.0 < value < np.inf:
        raise UnsupportedModelError(f"{owner} needs a finite {name} > 0, got {name}={value!r}")


def _invert_potential(phi: Callable[[np.ndarray], np.ndarray], lo: float, hi: float,
                      x: np.ndarray) -> np.ndarray:
    """Phi^{-1}(x) for an increasing Phi on the mean interval (lo, hi), lo finite.

    Each entry gets its own bracket: the lower end starts 1e-14 of the
    interval's width (1 when unbounded) above lo and moves toward lo by a
    factor 1e-3 while Phi there exceeds the target; an unbounded upper end
    starts at max(2 low, 1) and grows by 4 while Phi there is below it.
    One Brent solve then takes every bracketed entry.  NaN where the mean
    lies past the float range: the lower end rounds onto lo, or the upper
    end overflows.
    """
    x = np.asarray(x, dtype=float)
    target = x.ravel()
    live = np.ones(target.shape, dtype=bool)
    width = (hi - lo) if np.isfinite(hi) else 1.0
    low = np.full(target.shape, lo + 1e-14 * width)
    run = phi(low) > target
    while run.any():
        low[run] = lo + (low[run] - lo) * 1e-3
        live &= ~(run & (low == lo))  # mean below float range
        run &= live
        run[run] = phi(low[run]) > target[run]
    if np.isfinite(hi):
        high = np.full(target.shape, hi - 1e-14 * (hi - lo))
    else:
        high = np.maximum(2.0 * np.abs(low), 1.0)
        run = live.copy()
        run[live] = phi(high[live]) < target[live]
        while run.any():
            high[run] *= 4.0
            live &= ~(run & ~np.isfinite(high))  # mean beyond float range
            run &= live
            run[run] = phi(high[run]) < target[run]
    out = np.full(target.shape, np.nan)
    goal = target[live]
    out[live] = _brentq_rows(lambda t, rows: phi(t) - goal[rows], low[live], high[live],
                             xtol=1e-300, rtol=8.9e-16, maxiter=1000)
    return out.reshape(x.shape)


# ---------------------------------------------------------------------------
# scalar NEFs from variance-function potentials

def _nef_from_potentials(
    name: str,
    variance: Callable[[np.ndarray], np.ndarray],
    phi: Callable[[np.ndarray], np.ndarray],
    psi: Callable[[np.ndarray], np.ndarray],
    phi_sup: float,
    mean_domain: DomainDescriptor,
    phi_inv: Callable[[np.ndarray], np.ndarray] | None = None,
    suff_stat: Callable | None = None,
    element_ndim: int = 0,
    log_partition_closed: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
    law: Callable[[np.ndarray], tuple] | None = None,
) -> ExpFamilyDescriptor:
    """One-dimensional family from its mean-domain potentials.

    The potentials are numpy expressions evaluated elementwise on arrays of
    means (or canonical values, for ``phi_inv``).  ``phi_sup`` is the
    supremum of Phi over the mean domain; the canonical domain at anchor m'
    is the open interval (-inf, phi_sup - Phi(m')), reflecting that
    Phi(0+) = -inf for every catalog variance function.  When ``phi_inv``
    is missing the mean map inverts Phi by bracketed root finding, every
    entry of a batch in one Brent solve (Phi is strictly increasing, slope
    1/V); the mean domain's lower bound must then be finite.  A direct
    ``log_partition_closed(beta, anchor_mean)`` bypasses the potential
    composition where that composition cancels badly near a mean boundary.
    ``law`` is passed to the descriptor as it is.
    """
    lo, hi = float(mean_domain.lower[0]), float(mean_domain.upper[0])

    def invert(x: np.ndarray) -> np.ndarray:
        """Phi^{-1}; NaN or inf where the mean lies past the float range."""
        if phi_inv is not None:
            return phi_inv(x)
        return _invert_potential(phi, lo, hi, x)

    def log_partition(beta: np.ndarray, anchor: np.ndarray) -> np.ndarray:
        b, a = np.broadcast_arrays(beta[..., 0], anchor[..., 0])
        x = b + phi(a)
        inside = x < phi_sup
        val = np.full(x.shape, np.inf)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if log_partition_closed is not None:
                val[inside] = log_partition_closed(b[inside], a[inside])
            else:
                val[inside] = psi(invert(x[inside])) - psi(a[inside])
        # inside the domain but past the float range (or the inverted mean
        # rounds onto the boundary); inf is the honest value
        val[~np.isfinite(val)] = np.inf
        return val

    def mean_map(beta: np.ndarray, anchor: np.ndarray) -> np.ndarray:
        x = beta[..., 0] + phi(anchor[..., 0])
        if np.any(x >= phi_sup):
            raise DomainError(f"{name}: canonical point at or beyond the domain boundary")
        with np.errstate(over="ignore"):
            m = np.asarray(invert(x), dtype=float)
        if not np.all(np.isfinite(m)):
            raise DomainError(f"{name}: mean beyond float range")
        return m[..., None]

    def cov_map(beta: np.ndarray, anchor: np.ndarray) -> np.ndarray:
        m = mean_map(beta, anchor)
        return np.broadcast_to(variance(m), m.shape)[..., None]

    def beta_map(mu: np.ndarray, anchor: np.ndarray) -> np.ndarray:
        return (phi(mu[..., 0]) - phi(anchor[..., 0]))[..., None]

    def canonical_domain(anchor: np.ndarray) -> DomainDescriptor:
        upper = np.asarray(phi_sup - phi(anchor[..., 0]))[..., None]
        return box_domain(np.full(upper.shape, -np.inf), upper)

    return ExpFamilyDescriptor(
        name=name,
        dim=1,
        suff_stat=suff_stat if suff_stat is not None else _scalar_stat,
        log_partition=log_partition,
        mean_domain=mean_domain,
        canonical_domain=canonical_domain,
        mean_map=mean_map,
        cov_map=cov_map,
        beta_map=beta_map,
        element_ndim=element_ndim,
        law=law,
    )


# V(m) = m: Phi = log, Psi(m) = m; the Poisson family and the Poisson k-sample
# null and alternative (whose statistic is the arm total) all use these
_POISSON_POTENTIALS = dict(
    variance=lambda m: m,
    phi=np.log,
    phi_inv=np.exp,
    psi=lambda m: m,
    phi_sup=float("inf"),
)


def poisson_family() -> ExpFamilyDescriptor:
    """Poisson counts; V(m) = m, logZ(beta; m') = m' (e^beta - 1)."""
    return _nef_from_potentials(
        "poisson",
        **_POISSON_POTENTIALS,
        mean_domain=positive_orthant(1),
        law=lambda mean: ("poisson", mean),
    )


def gamma_family(shape: float) -> ExpFamilyDescriptor:
    """Gamma with fixed shape; V(m) = m^2 / shape.  shape = 1 is exponential."""
    _require_positive(shape, "gamma family", "shape")
    return _nef_from_potentials(
        f"gamma(shape={shape:g})",
        variance=lambda m: m * m / shape,
        phi=lambda m: -shape / m,
        phi_inv=lambda x: -shape / x,
        psi=lambda m: shape * np.log(m),
        phi_sup=0.0,
        mean_domain=positive_orthant(1),
        law=lambda mean: ("gamma", shape, mean[0]),
    )


def negbinom_family(successes: float) -> ExpFamilyDescriptor:
    """Negative binomial with fixed success count; V(m) = m + m^2 / successes."""
    _require_positive(successes, "negative binomial family", "successes")
    n = float(successes)
    return _nef_from_potentials(
        f"negbinom(n={n:g})",
        variance=lambda m: m * (1.0 + m / n),
        phi=lambda m: np.log(m / (n + m)),
        phi_inv=lambda x: n * np.exp(x) / (1.0 - np.exp(x)),
        psi=lambda m: n * np.log(n + m),
        phi_sup=0.0,
        mean_domain=positive_orthant(1),
        law=lambda mean: ("negbinom", n, mean[0]),
    )


def abm_family(s: float, r: int) -> ExpFamilyDescriptor:
    """The class V(m) = m (1 + m/s)^r for integer r >= 0.

    r = 0 is Poisson and r = 1 the negative binomial with successes s; those
    instances keep their observation laws.  For r >= 2 the family is
    density-free here: canonical maps, log-partitions and divergences all
    come from the potentials, which is what the condition battery needs.

    Partial fractions give 1/V(t) = 1/t - sum_{k=1}^r s^{k-1} / (s+t)^k and
    t/V(t) = s^r / (s+t)^r, from which Phi and Psi below follow by direct
    integration.
    """
    _require_positive(s, "abm family", "s")
    if r < 0 or int(r) != r:
        raise UnsupportedModelError("abm family needs integer r >= 0")
    r = int(r)
    if r >= 2 and r * np.log(s) >= np.log(np.finfo(float).max):  # Phi and Psi take s^1 .. s^r
        raise UnsupportedModelError(f"abm family: s ** r overflows the float range for s={s!r}, r={r}")
    if r == 0:
        return poisson_family()

    def phi(t: np.ndarray) -> np.ndarray:
        val = np.log(t) - np.log(s + t)
        for k in range(2, r + 1):
            val += s ** (k - 1) / ((k - 1) * (s + t) ** (k - 1))
        return val

    def psi(t: np.ndarray) -> np.ndarray:
        if r == 1:
            return s * np.log(s + t)
        return -s ** r / ((r - 1) * (s + t) ** (r - 1))

    phi_inv = (lambda x: s * np.exp(x) / (1.0 - np.exp(x))) if r == 1 else None

    return _nef_from_potentials(
        f"abm(s={s:g},r={r})",
        variance=lambda m: m * (1.0 + m / s) ** r,
        phi=phi,
        phi_inv=phi_inv,
        psi=psi,
        phi_sup=0.0,
        mean_domain=positive_orthant(1),
        law=(lambda mean: ("negbinom", s, mean[0])) if r == 1 else None,
    )


def tweedie_family(a: float, power: float) -> ExpFamilyDescriptor:
    """Power variance V(m) = a m^power on (0, inf), power >= 1 only.

    power in [0, 1) is rejected because no exponential families have such
    variance functions, and power < 0 because those families are not
    regular.  Densities attach only where the instance is a familiar
    family: power 1 with a = 1 (Poisson), power 2 (gamma with shape 1/a),
    power 3 (inverse Gaussian with lam = 1/a); other instances support the
    canonical maps and divergences but no density evaluation.
    """
    _require_positive(a, "tweedie family", "a")
    if not np.isfinite(power):
        raise UnsupportedModelError(f"tweedie family needs a finite power, got power={power!r}")
    if power < 0:
        raise UnsupportedModelError(
            "tweedie variance power < 0: family is not regular, outside scope")
    if power < 1:
        raise UnsupportedModelError(
            "tweedie variance power in [0, 1): no exponential families of this form")
    if power == 1 and a == 1.0:
        return poisson_family()
    if power == 2:
        return gamma_family(1.0 / a)
    if power == 3:
        return inverse_gaussian_family(1.0 / a)

    if power == 1:
        phi = lambda m: np.log(m) / a
        phi_inv = lambda x: np.exp(a * x)
        phi_sup = float("inf")
    else:
        phi = lambda m: m ** (1.0 - power) / (a * (1.0 - power))
        phi_inv = lambda x: ((1.0 - power) * a * x) ** (1.0 / (1.0 - power))
        phi_sup = 0.0
    return _nef_from_potentials(
        f"tweedie(a={a:g},power={power:g})",
        variance=lambda m: a * m ** power,
        phi=phi,
        phi_inv=phi_inv,
        psi=lambda m: m ** (2.0 - power) / (a * (2.0 - power)),
        phi_sup=phi_sup,
        mean_domain=positive_orthant(1),
    )


def inverse_gaussian_family(lam: float) -> ExpFamilyDescriptor:
    """Inverse Gaussian with fixed shape lam; V(m) = m^3 / lam."""
    _require_positive(lam, "inverse Gaussian family", "lam")
    return _nef_from_potentials(
        f"invgauss(lam={lam:g})",
        variance=lambda m: m ** 3 / lam,
        phi=lambda m: -lam / (2.0 * m * m),
        phi_inv=lambda x: np.sqrt(-lam / (2.0 * x)),
        psi=lambda m: -lam / m,
        phi_sup=0.0,
        mean_domain=positive_orthant(1),
        law=lambda mean: ("inverse-gaussian", mean[0], lam),
    )


# ---------------------------------------------------------------------------
# Gaussian families

def _gaussian_logz(beta: np.ndarray, anchor: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """beta . anchor + beta' cov beta / 2 for (..., d) batches."""
    return rowdot(beta, anchor) + 0.5 * rowdot(matvec(cov.T, beta), beta)


def _solve_each(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """matrix^{-1} rhs for every (..., d) right-hand side."""
    return np.linalg.solve(matrix, rhs[..., None])[..., 0]


def _location_family(name: str, u_cov: np.ndarray, stat_cov: np.ndarray,
                     suff_stat: Callable[[np.ndarray], np.ndarray],
                     u_mean_of: Callable[[np.ndarray], np.ndarray]) -> ExpFamilyDescriptor:
    """Normal observations U with positive definite covariance ``u_cov`` and a linear statistic.

    The statistic has covariance ``stat_cov`` whatever the mean, and the
    member whose statistic mean is ``anchor`` is N(``u_mean_of(anchor)``,
    ``u_cov``).
    """
    dim = stat_cov.shape[0]
    return ExpFamilyDescriptor(
        name=name,
        dim=dim,
        suff_stat=suff_stat,
        log_partition=lambda beta, anchor: _gaussian_logz(beta, anchor, stat_cov),
        mean_domain=full_space(dim),
        canonical_domain=lambda anchor: full_space(dim),
        mean_map=lambda beta, anchor: anchor + matvec(stat_cov, beta),
        cov_map=lambda beta, anchor: stat_cov,
        beta_map=lambda mu, anchor: _solve_each(stat_cov, mu - anchor),
        element_ndim=1,
        law=lambda anchor: ("normal", u_mean_of(anchor), u_cov),
    )


def _covariance(cov, label: str) -> np.ndarray:
    """``cov`` as a float matrix; it must be symmetric positive definite (``label`` names it)."""
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    d = cov.shape[0]
    if cov.shape != (d, d) or not np.allclose(cov, cov.T):
        raise UnsupportedModelError("location family needs a symmetric covariance")
    try:
        np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise DomainError(
            f"bad covariance {label}: {cov.tolist()} is not positive definite") from None
    return cov


def gaussian_location_family(cov, label: str = "cov") -> ExpFamilyDescriptor:
    """Multivariate normal with known covariance, mean as the parameter.

    ``label`` names the covariance in the error raised when it is not
    positive definite.
    """
    cov = _covariance(cov, label)
    d = cov.shape[0]
    return _location_family(f"gaussian-location(d={d})", cov, cov,
                            lambda u: np.asarray(u, dtype=float).reshape(-1, d),
                            lambda anchor: anchor)


def gaussian_scale_family() -> ExpFamilyDescriptor:
    """Centered normals parameterized by variance; statistic t(u) = u^2.

    As a family in the mean of u^2 this has V(m) = 2 m^2, so the potentials
    are Phi(m) = -1/(2m), Psi(m) = log(m)/2, giving the familiar
    logZ(beta; v) = -log(1 - 2 beta v)/2 on beta < 1/(2v).
    """
    return _nef_from_potentials(
        "gaussian-scale",
        variance=lambda m: 2.0 * m * m,
        phi=lambda m: -0.5 / m,
        phi_inv=lambda x: -0.5 / x,
        psi=lambda m: 0.5 * np.log(m),
        phi_sup=0.0,
        mean_domain=positive_orthant(1),
        suff_stat=lambda u: np.asarray(u, dtype=float).reshape(-1, 1) ** 2,
        law=lambda mean: ("normal", np.zeros(1), mean[0]),
    )


# ---------------------------------------------------------------------------
# k-sample null families (iid arms, statistic = sum of arms)

def _arm_family(name: str, kind: str, k: int, sigma2: float,
                arms_at: Callable[[np.ndarray], np.ndarray]) -> ExpFamilyDescriptor:
    """k independent Poisson or Gaussian arms, statistic the arm total.

    ``arms_at(m)`` gives the arm means of the member with total mean m; the
    total's variance function is m for Poisson arms and k sigma2 for
    Gaussian arms, whatever the split between arms.
    """
    if kind == "poisson":
        return _nef_from_potentials(
            name,
            **_POISSON_POTENTIALS,
            mean_domain=positive_orthant(1),
            suff_stat=_sum_stat,
            element_ndim=1,
            law=lambda mean: ("poisson", np.broadcast_to(arms_at(mean[0]), (k,))),
        )
    _require_positive(sigma2, "gaussian k-sample", "sigma2")
    return _nef_from_potentials(
        name,
        variance=lambda m: k * sigma2,
        phi=lambda m: m / (k * sigma2),
        phi_inv=lambda x: k * sigma2 * x,
        psi=lambda m: m * m / (2.0 * k * sigma2),
        phi_sup=float("inf"),
        mean_domain=full_space(1),
        suff_stat=_sum_stat,
        element_ndim=1,
        law=lambda mean: ("normal", np.broadcast_to(arms_at(mean[0]), (k,)), sigma2),  # sigma2 I
    )


def ksample_null_family(kind: str, k: int, sigma2: float = 1.0) -> ExpFamilyDescriptor:
    """Null for a k-sample comparison: k iid arms, mean of the arm total.

    The member with total mean m has arm mean m/k; the variance function of
    the total follows from the arm law (m for Poisson arms, m (1 - m/k) for
    Bernoulli, k sigma2 constant for Gaussian).
    """
    if k < 2:
        raise UnsupportedModelError("k-sample families need k >= 2")
    if kind in ("poisson", "gaussian"):
        return _arm_family(f"{kind}-{k}sample", kind, k, sigma2, lambda m: m / k)
    if kind == "bernoulli":
        return _nef_from_potentials(
            f"bernoulli-{k}sample",
            variance=lambda m: m * (1.0 - m / k),
            phi=lambda m: np.log(m) - np.log(k - m),
            phi_inv=lambda x: k * expit(x),
            psi=lambda m: -k * np.log(k - m),
            phi_sup=float("inf"),
            mean_domain=box_domain([0.0], [float(k)]),
            suff_stat=_sum_stat,
            element_ndim=1,
            # the potential route cancels in k - m near the upper boundary
            log_partition_closed=lambda beta, m: k * np.log1p(m / k * np.expm1(beta)),
            law=lambda mean: ("bernoulli", np.full(k, mean[0] / k)),
        )
    raise UnsupportedModelError(f"unknown k-sample kind {kind!r}")


# ---------------------------------------------------------------------------
# pairings

@dataclass(frozen=True)
class Pairing:
    """A null family with a tilted alternative anchored at the same mean."""

    name: str
    null: ExpFamilyDescriptor
    tilted: TiltedFamily
    params: dict
    notes: dict = field(default_factory=dict)


def _validate_arm_means(kind: str, alt_means: np.ndarray) -> None:
    if kind == "bernoulli":
        if np.any(alt_means <= 0.0) or np.any(alt_means >= 1.0):
            raise DomainError("bernoulli arm means must lie in (0, 1)")
    elif kind == "poisson":
        if np.any(alt_means <= 0.0):
            raise DomainError("poisson arm means must be positive")


def _member_pairing(name: str, null: ExpFamilyDescriptor, family: ExpFamilyDescriptor,
                    anchor, params: dict, notes: dict | None = None) -> Pairing:
    """Pair ``null`` with the member of ``family`` whose statistic mean is ``anchor``.

    ``family`` is the exponential family the alternative generates over the
    null's statistic, so it is the tilted family as it stands.
    """
    mu_star = np.atleast_1d(np.asarray(anchor, dtype=float))
    if mu_star.shape != (null.dim,):
        raise DomainError(
            f"carrier mean has shape {mu_star.shape}, statistic is {null.dim}-dimensional")
    if not family.mean_domain.contains(mu_star):
        raise DomainError(f"alternative mean {', '.join(map(repr, mu_star.tolist()))} "
                          f"lies outside the mean domain of {family.name}")
    return Pairing(name=name, null=null, tilted=TiltedFamily(family, mu_star), params=params,
                   notes=notes or {})


def ksample_pairing(kind: str, alt_means, sigma2: float = 1.0) -> Pairing:
    """Product alternative with unequal arm means against the iid null.

    The simple e-value at the shared total mean is the classic k-sample
    ratio prod_i p_{m_i}(u_i) / p_{mbar}(u_i) with mbar the arm average.
    Tilting the product alternative by the total moves Poisson arms
    proportionally, Gaussian arms by a common shift, and Bernoulli arms
    along coupled logistic curves.
    """
    alt_means = np.asarray(alt_means, dtype=float)
    k = alt_means.size
    null = ksample_null_family(kind, k, sigma2=sigma2)
    _validate_arm_means(kind, alt_means)
    mu_star = float(alt_means.sum())

    if kind == "poisson":
        ratios = alt_means / mu_star
        family = _arm_family(f"poisson-{k}sample-alt", kind, k, sigma2, lambda m: ratios * m)
    elif kind == "gaussian":
        offsets = alt_means - mu_star / k
        family = _arm_family(f"gaussian-{k}sample-alt", kind, k, sigma2, lambda m: offsets + m / k)
    else:  # bernoulli; ksample_null_family rejects every other kind
        logits = np.asarray(logit(alt_means), dtype=float)

        def arm_means_at(gamma) -> np.ndarray:
            return expit(logits + np.asarray(gamma)[..., None])

        def root_gamma(mu: np.ndarray) -> np.ndarray:
            target = np.asarray(mu, dtype=float)[..., 0]
            goal = target.ravel()
            f = lambda g, rows: arm_means_at(g).sum(axis=-1) - goal[rows]
            rows = np.arange(goal.size)
            # each end doubles from -1 or 1 until it brackets its target; a
            # target outside (0, k) stops at infinity without a bracket
            lo, hi = np.full(goal.shape, -1.0), np.full(goal.shape, 1.0)
            run = f(lo, rows) > 0.0
            while run.any():
                lo[run] *= 2.0
                run[run] = np.isfinite(lo[run]) & (f(lo[run], rows[run]) > 0.0)
            run = f(hi, rows) < 0.0
            while run.any():
                hi[run] *= 2.0
                run[run] = np.isfinite(hi[run]) & (f(hi[run], rows[run]) < 0.0)
            gamma = _brentq_rows(f, lo, hi, xtol=1e-14, rtol=8.9e-16, maxiter=100)
            return gamma.reshape(target.shape + (1,))

        @lru_cache(maxsize=None)  # the law is read once per carrier or sampler call
        def gamma_at(total: float) -> float:
            return float(root_gamma(np.array([total]))[0])

        def root_cumulant(beta: np.ndarray) -> np.ndarray:
            return np.sum(np.log1p(alt_means * np.expm1(beta[..., 0, None])), axis=-1)

        def root_mean(beta: np.ndarray) -> np.ndarray:
            return arm_means_at(beta[..., 0]).sum(axis=-1)[..., None]

        def root_cov(beta: np.ndarray) -> np.ndarray:
            w = arm_means_at(beta[..., 0])
            return np.sum(w * (1.0 - w), axis=-1)[..., None, None]

        family = family_from_root_cumulant(
            f"bernoulli-{k}sample-alt",
            dim=1,
            suff_stat=_sum_stat,
            root_anchor=[mu_star],
            root_cumulant=root_cumulant,
            root_domain=full_space(1),
            mean_domain=box_domain([0.0], [float(k)]),
            root_mean=root_mean,
            root_cov=root_cov,
            root_beta=root_gamma,
            element_ndim=1,
            law=lambda mean: ("bernoulli", arm_means_at(gamma_at(float(mean[0])))),
        )

    params = {"kind": kind, "k": k, "alt_means": alt_means.tolist()}
    if kind == "gaussian":
        params["sigma2"] = sigma2
    return _member_pairing(f"ksample-{kind}", null, family, family.vec(mu_star), params)


def gaussian_location_pairing(cov_null, cov_alt, alt_mean) -> Pairing:
    """Gaussian mean testing with distinct known covariances.

    The tilted alternative family is the location family with the
    alternative covariance, so the covariance-ordering condition reduces to
    cov_null - cov_alt being positive semidefinite, independently of the
    mean point.
    """
    null = gaussian_location_family(cov_null, label="cov_null")
    family = gaussian_location_family(cov_alt, label="cov_alt")
    alt_mean = family.vec(alt_mean)
    cov_alt = np.atleast_2d(np.asarray(cov_alt, dtype=float))
    return _member_pairing(
        "gaussian-location", null, family, alt_mean,
        params={"cov_null": np.atleast_2d(cov_null).tolist(),
                "cov_alt": cov_alt.tolist(), "alt_mean": alt_mean.tolist()},
    )


def gaussian_location_constrained(cov, d0: int, alt_mean) -> Pairing:
    """Gaussian location null with the first d0 mean coordinates pinned to zero.

    Projecting onto the sufficient statistic T = (Sigma^{-1} U)_{free}, both
    the constrained null and the alternative family are location families
    with the same covariance (Sigma^{-1})_{free,free}, so the covariance
    difference vanishes identically: the simple e-value exists and, when the
    alternative also has zero constrained block, equals one.
    """
    cov = _covariance(cov, "cov")
    d = cov.shape[0]
    if not 0 < d0 < d:
        raise UnsupportedModelError("constrained location pairing needs 0 < d0 < dim")
    alt_mean = np.asarray(alt_mean, dtype=float).reshape(d)
    free = slice(d0, d)
    prec = np.linalg.inv(cov)
    a_rows = prec[free, :]
    stat_cov = prec[free, free]
    dprime = d - d0
    embed = np.zeros((d, dprime))
    embed[free, :] = np.eye(dprime)

    stat = lambda u: np.asarray(u, dtype=float).reshape(-1, d) @ a_rows.T
    tag = f"(d={d},d0={d0})"

    # null members have U-mean (0, nu) with T-mean C nu; alternative members
    # shift alt_mean inside the free coordinates only (Sigma A^T = embedding).
    null = _location_family(f"gaussian-constrained-null{tag}", cov, stat_cov, stat,
                            lambda t_mean: embed @ np.linalg.solve(stat_cov, t_mean))
    mu_star = a_rows @ alt_mean
    family = _location_family(f"gaussian-constrained-alt{tag}", cov, stat_cov, stat,
                              lambda t_mean: alt_mean + embed @ np.linalg.solve(stat_cov, t_mean - mu_star))

    return _member_pairing(
        "gaussian-location-constrained", null, family, mu_star,
        params={"cov": cov.tolist(), "d0": d0, "alt_mean": alt_mean.tolist()},
        notes={"alt_in_null": bool(np.allclose(alt_mean[:d0], 0.0))},
    )


def gaussian_scale_pairing(m: float, s2: float) -> Pairing:
    """Normal alternative N(m, s2) against the centered-normal scale null.

    The tilted family consists of normals N(c m / (c - beta), 1/(2(c - beta)))
    with c = 1/(2 s2); its second-moment mean and variance have the closed
    forms coded below, and the inverse mean map solves a quadratic in
    t = c - beta.  The anchor mean is s2 + m^2 and the member at that anchor
    is the alternative itself.
    """
    _require_positive(s2, "gaussian scale pairing", "s2")
    null = gaussian_scale_family()
    c = 0.5 / s2
    cm2 = c * c * m * m
    mu_star = s2 + m * m

    def root_cumulant(beta: np.ndarray) -> np.ndarray:
        t = c - beta[..., 0]
        return -0.5 * np.log(2.0 * s2 * t) + m * m * beta[..., 0] / (2.0 * s2 * t)

    def root_mean(beta: np.ndarray) -> np.ndarray:
        t = c - beta[..., 0]
        return ((2.0 * cm2 + t) / (2.0 * t * t))[..., None]

    def root_cov(beta: np.ndarray) -> np.ndarray:
        t = c - beta[..., 0]
        return ((4.0 * cm2 + t) / (2.0 * t ** 3))[..., None, None]

    def root_beta(mu: np.ndarray) -> np.ndarray:
        target = np.asarray(mu, dtype=float)[..., 0]
        t = (1.0 + np.sqrt(1.0 + 16.0 * target * cm2)) / (4.0 * target)
        return (c - t)[..., None]

    def law(mean: np.ndarray) -> tuple:
        t = c - float(root_beta(mean)[0])
        return "normal", np.array([c * m / t]), 0.5 / t

    family = family_from_root_cumulant(
        f"gaussian-scale-alt(m={m:g},s2={s2:g})",
        dim=1,
        suff_stat=lambda u: np.asarray(u, dtype=float).reshape(-1, 1) ** 2,
        root_anchor=[mu_star],
        root_cumulant=root_cumulant,
        root_domain=box_domain([-np.inf], [c]),
        mean_domain=positive_orthant(1),
        root_mean=root_mean,
        root_cov=root_cov,
        root_beta=root_beta,
        law=law,
    )
    return _member_pairing("gaussian-scale", null, family, mu_star, params={"m": m, "s2": s2})


def nef_pairing(null: ExpFamilyDescriptor, alt: ExpFamilyDescriptor, mu_star: float,
                name: str, params: dict, notes: dict | None = None) -> Pairing:
    """Pair two scalar NEFs on the same observation space at a shared anchor mean."""
    return _member_pairing(name, null, alt, alt.vec(mu_star), params, notes)


def negbinom_vs_poisson(successes: float, mu_star: float) -> Pairing:
    """Negative binomial null against a Poisson alternative at mean mu_star."""
    return nef_pairing(
        negbinom_family(successes), poisson_family(), mu_star,
        name="negbinom-vs-poisson",
        params={"successes": successes, "mu": mu_star},
    )


def abm_vs_poisson(s: float, r: int, mu_star: float) -> Pairing:
    """ABM null V(m) = m (1 + m/s)^r against a Poisson alternative."""
    return nef_pairing(
        abm_family(s, r), poisson_family(), mu_star,
        name="abm-vs-poisson",
        params={"s": s, "r": r, "mu": mu_star},
    )


def tweedie_pair(null_ag: tuple[float, float], alt_ag: tuple[float, float], mu_star: float = 1.0) -> Pairing:
    """Two Tweedie power families at a shared anchor mean.

    The variance ordering a_p m^{g_p} >= a_q m^{g_q} holds on all of
    (0, inf) only when the powers coincide; otherwise the two variance
    curves cross and the battery refutes on any grid wide enough to
    straddle the crossing.
    """
    ap, gp = null_ag
    aq, gq = alt_ag
    if gp != gq:
        order = "crosses"
    else:
        order = "dominates" if ap >= aq else "dominated"
    return nef_pairing(
        tweedie_family(ap, gp), tweedie_family(aq, gq), mu_star,
        name="tweedie-pair",
        params={"null": [ap, gp], "alt": [aq, gq], "mu": mu_star},
        notes={"variance_order": order},
    )


def ig_divergence_threshold(lam: float, mu: float) -> float:
    """Null mean above which E_{P_mu'}[q_mu / p_mu] is infinite; inf if never."""
    if 2.0 * mu <= lam:
        return float("inf")
    # lam / (2 mu) / mu, not lam / (2 mu^2): the square underflows to 0 below mu ~ 1e-154
    return 1.0 / (1.0 / mu - lam / (2.0 * mu) / mu)


def ig_regime(lam: float, mu: float) -> str:
    if mu > lam:
        return "not-local"
    if 2.0 * mu > lam:
        return "local-not-global"
    return "local-all-finite"


def ig_vs_exp_pairing(lam: float, mu: float) -> Pairing:
    """Inverse Gaussian alternative against the exponential null.

    Three regimes in the anchor mean mu: for mu <= lam/2 every null
    expectation of the simple e-value is finite; for lam/2 < mu <= lam the
    local covariance ordering still holds but expectations diverge beyond
    the threshold null mean 1 / (1/mu - lam/(2 mu^2)); for mu > lam even the
    local check fails.
    """
    _require_positive(lam, "inverse-Gaussian-vs-exponential", "lam")
    _require_positive(mu, "inverse-Gaussian-vs-exponential", "mu")
    return nef_pairing(
        gamma_family(1.0), inverse_gaussian_family(lam), mu,
        name="ig-vs-exp",
        params={"lam": lam, "mu": mu},
        notes={
            "regime": ig_regime(lam, mu),
            "divergence_threshold": ig_divergence_threshold(lam, mu),
        },
    )
