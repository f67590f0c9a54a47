"""Regular exponential families in mean-value parameterization.

A family member anchored at the mean vector ``mu_star`` has density

    p_{beta; mu_star}(u) = exp(beta . t(u) - logZ(beta; mu_star)) * p_{mu_star}(u)

with respect to the anchor member itself, so that logZ(0; mu_star) = 0 and
grad_beta logZ(0; mu_star) = mu_star.  All families here are regular and
steep: the gradient of the log-partition is a bijection between the open
canonical domain and the open mean domain, and its Jacobian (the sufficient
statistic covariance) is positive definite in the interior.

A descriptor bundles the callable handles (sufficient statistic, anchored
log-partition, carrier log-density) plus optional closed forms for the mean
map, covariance map and inverse mean map.  A family with a named observation
law declares only that law, and its carrier density, sampler and support come
from the table of law kinds below.  Operations fall back to damped Newton
inversion and central finite differences when a closed form is not
provided, so a family defined only through its log-partition still supports
the full API.

Numerical contracts:

* mean/canonical inversion converges when the mean residual satisfies
  ||mean(beta) - mu||_inf <= 1e-9 * (1 + ||mu||_inf);
* KL divergences between members are evaluated through the convex-duality
  identity D(P_mu || P_mu') = beta . mu - logZ(beta; mu') with
  beta = canonical_from_mean(mu; mu'), never by a separate formula;
* log-partitions return +inf outside the canonical domain instead of
  raising, so that domain boundaries can be probed safely.

Broadcasting contract: every map takes batches.  Parameters are arrays of
shape ``(..., dim)`` and broadcast against each other over the leading axes;
a single ``(dim,)`` point is the batch with no leading axes and gives a
float (or one vector / matrix) as before.  The descriptor callables follow
the same rule: ``log_partition(beta, anchor)`` returns shape ``(...)``,
``mean_map`` and ``beta_map`` shape ``(..., dim)``, ``cov_map`` shape
``(..., dim, dim)``, and ``canonical_domain(anchor)`` returns one domain
whose bounds have the anchors' leading axes.  The public helpers below
validate shape, finiteness and domain membership once per batch and then
hand whole arrays to the descriptor.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import gammaln, xlog1py, xlogy

from .domains import DomainDescriptor
from .errors import ConvergenceError, DomainError, UnsupportedModelError
from .numdiff import fd_gradient, fd_hessian, fd_jacobian
from .util import as_batch, float_or_array as _scalar, rowdot

__all__ = [
    "SupportSpec",
    "ExpFamilyDescriptor",
    "log_partition_at",
    "mean_from_canonical",
    "canonical_from_mean",
    "covariance_at_canonical",
    "covariance_at_mean",
    "kl_between_means",
    "reparameterize",
    "log_density",
    "family_from_root_cumulant",
    "law_kl",
    "law_log_density",
]

MEAN_TOL = 1e-9
NEWTON_MAX_ITER = 200
NEWTON_MAX_HALVINGS = 60


@dataclass(frozen=True)
class SupportSpec:
    """Shape of the sample space, used to pick expectation strategies.

    kind is one of:
      "finite"           -- finitely many elements, ``points()`` enumerates them;
      "countable-vector" -- product of copies of {0, 1, 2, ...};
      "real-scalar"      -- scalar observations on the real line;
      "positive-scalar"  -- scalar observations on (0, inf);
      "real-vector"      -- observations in R^axes.
    """

    kind: str
    axes: int = 1
    points: Callable[[], np.ndarray] | None = None


@dataclass(frozen=True)
class ExpFamilyDescriptor:
    """Callable bundle defining one anchored exponential family.

    ``suff_stat`` maps a batch of sample-space elements to an (m, dim)
    array.  ``log_partition(beta, anchor)`` and ``carrier_log_density(u,
    anchor)`` implement the anchored normalization above; the carrier at an
    anchor is the log-density of the member whose mean is that anchor.
    ``canonical_domain`` maps anchors to the open sets of valid tilts.

    The optional ``mean_map`` / ``cov_map`` / ``beta_map`` entries are
    closed forms for grad logZ, its Hessian and the inverse mean map;
    ``sampler(mean, n, rng)`` draws from the member with the given mean.
    ``stochastic`` marks families whose log-partition is a Monte Carlo
    estimate, which blocks hard certification downstream.  ``law(mean)``
    names the observation law of the member with that mean:
    ``("poisson", arm_means)`` or ``("bernoulli", arm_probs)`` (independent
    arms), ``("normal", mean_vector, cov)`` (a scalar variance v stands for
    v I), ``("negbinom", successes, mean)``, ``("gamma", shape, mean)`` or
    ``("inverse-gaussian", mean, lam)``.  A family that declares it passes
    no carrier, sampler or support: the first two are derived from the law,
    and :meth:`support_at` reads the support off the law at a mean
    (evaluating a law can cost a root solve, so construction does not).

    The parameter callables take ``(..., dim)`` batches (see the module
    docstring); they may assume their inputs were validated.
    """

    name: str
    dim: int
    suff_stat: Callable[[np.ndarray], np.ndarray]
    log_partition: Callable[[np.ndarray, np.ndarray], np.ndarray]
    mean_domain: DomainDescriptor
    canonical_domain: Callable[[np.ndarray], DomainDescriptor]
    carrier_log_density: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    mean_map: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    cov_map: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    beta_map: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    sampler: Callable[[np.ndarray, int, np.random.Generator], np.ndarray] | None = None
    support: SupportSpec | None = None
    element_ndim: int = 0
    stochastic: bool = False
    law: Callable[[np.ndarray], tuple] | None = None

    def __post_init__(self) -> None:
        if self.law is None:
            return
        derived = (None, _law_log_density, _law_sample)  # dataclasses.replace hands these back
        if self.support is not None or any(getattr(f, "func", f) not in derived
                                           for f in (self.carrier_log_density, self.sampler)):
            raise ValueError(f"{self.name}: a family that declares its law takes its density, "
                             "sampler and support from it")
        object.__setattr__(self, "carrier_log_density", partial(_law_log_density, self.law))
        object.__setattr__(self, "sampler", partial(_law_sample, self.law, self.element_ndim))

    def support_at(self, mean) -> SupportSpec | None:
        """The declared ``support``, or the one the law of the member with this mean implies."""
        if self.law is None:
            return self.support
        kind, first = self.law(mean)[:2]  # vector elements: first is the arm or mean vector
        axes = len(first) if self.element_ndim else 1
        space = _LAW_KINDS[kind].spaces[self.element_ndim]
        if space != "finite":
            return SupportSpec(space, axes)
        return SupportSpec(space, axes,  # the 2^axes points of {0, 1}^axes, one per row
                           lambda: np.indices((2,) * axes).reshape(axes, -1).T.astype(float))

    def vec(self, x) -> np.ndarray:
        """Coerce a parameter to a float vector of the family dimension."""
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        if arr.shape != (self.dim,):
            raise ValueError(f"{self.name}: parameter shape {arr.shape}, expected ({self.dim},)")
        return arr

    def points(self, x) -> np.ndarray:
        """Coerce a parameter or a ``(..., dim)`` batch of them to floats."""
        arr = np.asarray(x, dtype=float)
        if arr.ndim == 0:
            arr = arr.reshape(1)
        if arr.shape[-1:] != (self.dim,):
            raise ValueError(f"{self.name}: parameter shape {arr.shape}, expected (..., {self.dim})")
        return arr


def _require_mean(fam: ExpFamilyDescriptor, mu, label: str = "mean") -> np.ndarray:
    mu = fam.points(mu)
    inside = fam.mean_domain.contains(mu)
    if not np.all(inside):
        bad = mu if mu.ndim == 1 else mu[~inside][0]
        raise DomainError(f"{fam.name}: {label} {bad} outside mean domain")
    return mu


def _require_canonical(fam: ExpFamilyDescriptor, beta: np.ndarray, anchor: np.ndarray) -> None:
    inside = fam.canonical_domain(anchor).contains(beta)
    if not np.all(inside):
        b, a = np.broadcast_arrays(beta, anchor)
        first = tuple(np.argwhere(~np.broadcast_to(inside, b.shape[:-1]))[0])
        raise DomainError(f"{fam.name}: beta {b[first]} outside canonical domain "
                          f"at anchor {a[first]}")


def _logz(fam: ExpFamilyDescriptor, beta: np.ndarray, anchor: np.ndarray) -> np.ndarray:
    """Log-partition over a validated anchor batch; +inf off the canonical domain."""
    beta, anchor = np.broadcast_arrays(beta, anchor)
    inside = np.broadcast_to(fam.canonical_domain(anchor).contains(beta), beta.shape[:-1])
    out = np.full(beta.shape[:-1], np.inf)
    if np.any(inside):
        vals = np.asarray(fam.log_partition(beta[inside], anchor[inside]), dtype=float)
        if np.any(np.isnan(vals)):
            raise ConvergenceError(f"{fam.name}: log-partition returned NaN at "
                                   f"beta={beta[inside][np.isnan(vals)][0]}")
        out[inside] = vals
    return out


def _mean(fam: ExpFamilyDescriptor, beta: np.ndarray, anchor: np.ndarray) -> np.ndarray:
    """Mean map over validated canonical points; finite differences of logZ if no closed form."""
    if fam.mean_map is not None:
        return np.asarray(fam.mean_map(beta, anchor), dtype=float)
    beta, anchor = np.broadcast_arrays(beta, anchor)
    grad = fd_gradient(lambda b: _logz(fam, b, anchor[..., None, :]), beta)
    if not np.all(np.isfinite(grad)):
        raise DomainError(f"{fam.name}: finite-difference mean undefined near beta={beta} "
                          "(too close to the domain boundary)")
    return grad


def _cov(fam: ExpFamilyDescriptor, beta: np.ndarray, anchor: np.ndarray) -> np.ndarray:
    """Symmetrized covariance over validated canonical points."""
    beta, anchor = np.broadcast_arrays(beta, anchor)
    if fam.cov_map is not None:
        cov = np.asarray(fam.cov_map(beta, anchor), dtype=float)
    elif fam.mean_map is not None:
        cov = fd_jacobian(lambda b: _checked_mean(fam, b, anchor[..., None, :]), beta)
    else:
        cov = fd_hessian(lambda b: _logz(fam, b, anchor[..., None, :]), beta)
    cov = np.broadcast_to(cov, beta.shape + (fam.dim,))
    return 0.5 * (cov + np.swapaxes(cov, -1, -2))


def _checked_mean(fam: ExpFamilyDescriptor, beta: np.ndarray, anchor: np.ndarray) -> np.ndarray:
    _require_canonical(fam, beta, anchor)
    return _mean(fam, beta, anchor)


def log_partition_at(fam: ExpFamilyDescriptor, beta, anchor):
    """Anchored log-partition; +inf outside the canonical domain."""
    beta = fam.points(beta)
    anchor = _require_mean(fam, anchor, "anchor")
    return _scalar(_logz(fam, beta, anchor))


def mean_from_canonical(fam: ExpFamilyDescriptor, beta, anchor) -> np.ndarray:
    """Mean of the tilted member, i.e. grad_beta logZ(beta; anchor)."""
    beta = fam.points(beta)
    anchor = _require_mean(fam, anchor, "anchor")
    return _checked_mean(fam, beta, anchor)


def covariance_at_canonical(fam: ExpFamilyDescriptor, beta, anchor) -> np.ndarray:
    """Sufficient-statistic covariance of the tilted member (symmetric PD)."""
    beta = fam.points(beta)
    anchor = _require_mean(fam, anchor, "anchor")
    _require_canonical(fam, beta, anchor)
    return _cov(fam, beta, anchor)


def covariance_at_mean(fam: ExpFamilyDescriptor, mu) -> np.ndarray:
    """Covariance of the member with mean ``mu`` (anchor it there, tilt zero)."""
    mu = _require_mean(fam, mu)
    return _cov(fam, np.zeros_like(mu), mu)


def _damped_newton(label: str, target: np.ndarray, mean_of: Callable, cov_of: Callable,
                   domain: DomainDescriptor) -> np.ndarray:
    """Solve mean_of(beta) = target row by row, from beta = 0, by damped Newton.

    ``target`` has shape (n, d).  ``mean_of(beta, rows)`` and ``cov_of(beta,
    rows)`` evaluate the map and its Jacobian for the listed rows only;
    ``domain`` (bounds broadcastable to (n, d)) holds the admissible betas.
    Each row stops as soon as its residual satisfies
    ||mean - target||_inf <= MEAN_TOL (1 + ||target||_inf); a step is halved
    until it stays in the domain and lowers the residual norm.
    """
    beta = np.zeros_like(target)
    current = np.asarray(mean_of(beta, np.arange(target.shape[0])), dtype=float)
    tol = MEAN_TOL * (1.0 + np.max(np.abs(target), axis=-1))
    err = np.linalg.norm(current - target, axis=-1)
    for _ in range(NEWTON_MAX_ITER):
        rows = np.flatnonzero(~(np.max(np.abs(current - target), axis=-1) <= tol))
        if rows.size == 0:
            return beta
        try:
            step = np.linalg.solve(cov_of(beta[rows], rows),
                                   (current[rows] - target[rows])[..., None])[..., 0]
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"{label}: singular curvature during inversion") from exc
        scale = np.ones(rows.size)
        pending = np.ones(rows.size, dtype=bool)
        for _ in range(NEWTON_MAX_HALVINGS):
            slots = np.flatnonzero(pending)
            idx = rows[slots]
            cand = beta[idx] - scale[slots, None] * step[slots]
            trial = beta.copy()
            trial[idx] = cand
            ok = np.asarray(domain.contains(trial), dtype=bool).reshape(-1)[idx]
            cand_mean = np.full_like(cand, np.nan)
            # an overshooting step may overflow; its residual is then inf and it is rejected
            with np.errstate(over="ignore", invalid="ignore"):
                if np.any(ok):
                    cand_mean[ok] = mean_of(cand[ok], idx[ok])
                cand_err = np.linalg.norm(cand_mean - target[idx], axis=-1)
            accept = ok & np.isfinite(cand_err) & (cand_err < err[idx])
            took = idx[accept]
            beta[took], current[took], err[took] = cand[accept], cand_mean[accept], cand_err[accept]
            pending[slots[accept]] = False
            if not np.any(pending):
                break
            scale[pending] *= 0.5
        else:
            stuck = target[rows[pending][0]]
            raise ConvergenceError(f"{label}: damped Newton stalled inverting mean {stuck}")
    stuck = np.flatnonzero(~(np.max(np.abs(current - target), axis=-1) <= tol))[0]
    raise ConvergenceError(f"{label}: mean inversion did not converge for {target[stuck]} "
                           f"(residual {err[stuck]:.3e})")


def _beta(fam: ExpFamilyDescriptor, mu: np.ndarray, anchor: np.ndarray) -> np.ndarray:
    """Inverse mean map over validated means and anchors."""
    if fam.beta_map is not None:
        return np.asarray(fam.beta_map(mu, anchor), dtype=float)
    mu, anchor = np.broadcast_arrays(mu, anchor)
    lead = mu.shape[:-1]
    mu, anchor = mu.reshape(-1, fam.dim), anchor.reshape(-1, fam.dim)
    beta = _damped_newton(fam.name, mu,
                          lambda b, rows: _mean(fam, b, anchor[rows]),
                          lambda b, rows: _cov(fam, b, anchor[rows]),
                          fam.canonical_domain(anchor))
    return beta.reshape(lead + (fam.dim,))


def _cached_rows(cache: dict[bytes, np.ndarray], rows: np.ndarray,
                 solve: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """``solve`` over the rows of a (..., k) batch, each distinct row once per cache.

    Rows are keyed by their bytes; only rows not yet in ``cache`` reach
    ``solve``, as one (n, k) batch.  Returns one solved row per input row.
    """
    flat = np.ascontiguousarray(rows, dtype=float).reshape(-1, np.shape(rows)[-1])
    keys = [row.tobytes() for row in flat]
    missing = {key: row for key, row in zip(keys, flat) if key not in cache}
    if missing:
        cache.update(zip(missing, solve(np.array(list(missing.values())))))
    return np.array([cache[key] for key in keys])


def canonical_from_mean(fam: ExpFamilyDescriptor, mu, anchor) -> np.ndarray:
    """Canonical coordinate of the member with mean ``mu``, relative to ``anchor``."""
    mu = _require_mean(fam, mu)
    anchor = _require_mean(fam, anchor, "anchor")
    return _beta(fam, mu, anchor)


def kl_between_means(fam: ExpFamilyDescriptor, mu, mu_prime):
    """D(P_mu || P_mu') via duality: beta . mu - logZ(beta; mu')."""
    mu = _require_mean(fam, mu)
    mu_prime = _require_mean(fam, mu_prime)
    beta = _beta(fam, mu, mu_prime)
    logz = _logz(fam, beta, mu_prime)
    if not np.all(np.isfinite(logz)):
        raise ConvergenceError(f"{fam.name}: log-partition divergent inside the mean image")
    return _scalar(rowdot(beta, mu) - logz)


def reparameterize(fam: ExpFamilyDescriptor, beta, anchor_from, anchor_to) -> np.ndarray:
    """Express the member (beta; anchor_from) relative to anchor_to.

    Canonical coordinates relative to different anchors differ by the
    canonical coordinate of one anchor seen from the other, so the member is
    unchanged: log-densities agree pointwise.
    """
    return fam.points(beta) + canonical_from_mean(fam, anchor_from, anchor_to)


def log_density(fam: ExpFamilyDescriptor, beta, anchor, u):
    """Log-density of one tilted member at sample point(s) ``u``.

    Accepts a single element or a batch with one leading axis; returns a
    float or an array accordingly.
    """
    if fam.carrier_log_density is None:
        raise UnsupportedModelError(f"{fam.name}: no density evaluation available")
    beta = fam.vec(beta)
    anchor = _require_mean(fam, fam.vec(anchor), "anchor")
    logz = float(_logz(fam, beta, anchor))
    if not np.isfinite(logz):
        raise DomainError(f"{fam.name}: beta {beta} outside canonical domain at anchor {anchor}")
    batch, single = as_batch(u, fam.element_ndim)
    stats = np.asarray(fam.suff_stat(batch), dtype=float)
    vals = stats @ beta - logz + np.asarray(fam.carrier_log_density(batch, anchor), dtype=float)
    return float(vals[0]) if single else vals


def family_from_root_cumulant(
    name: str,
    dim: int,
    suff_stat: Callable[[np.ndarray], np.ndarray],
    root_anchor,
    root_cumulant: Callable[[np.ndarray], np.ndarray],
    root_domain: DomainDescriptor,
    mean_domain: DomainDescriptor,
    root_carrier_log_density: Callable[[np.ndarray], np.ndarray] | None = None,
    root_mean: Callable[[np.ndarray], np.ndarray] | None = None,
    root_cov: Callable[[np.ndarray], np.ndarray] | None = None,
    root_beta: Callable[[np.ndarray], np.ndarray] | None = None,
    element_ndim: int = 0,
    stochastic: bool = False,
    law: Callable[[np.ndarray], tuple] | None = None,
) -> ExpFamilyDescriptor:
    """Build an anchored family from a single cumulant at one root anchor.

    ``root_cumulant`` is K(beta) = log E[exp(beta . X)] under the root
    member, so K(0) = 0 and K'(0) = root_anchor.  Re-anchoring at a mean mu
    shifts by gamma(mu), the root coordinate solving K'(gamma) = mu:

        logZ(beta; mu) = K(beta + gamma(mu)) - K(gamma(mu)),
        carrier(u; mu) = gamma(mu) . t(u) - K(gamma(mu)) + root carrier(u).

    The root callables follow the batch contract: ``root_cumulant`` maps
    ``(..., dim)`` to ``(...)``, ``root_mean`` and ``root_beta`` to
    ``(..., dim)`` and ``root_cov`` to ``(..., dim, dim)``.  gamma is found
    by the closed form when given, otherwise by damped Newton inversion of
    K'; solved anchors are cached, so grid sweeps that revisit anchors do
    not repeat the solve.

    The inverse mean map is always provided.  With ``root_beta`` it is
    gamma(mu) - gamma(anchor); without it, each (mean, anchor) row is solved
    once by the damped Newton of the generic fallback (from beta = 0 at the
    anchor) and cached, so the KL ordering reuses the pairing's solves.
    ``law`` is passed to the descriptor as it is.
    """
    def eval_cumulant(beta: np.ndarray) -> np.ndarray:
        inside = np.broadcast_to(root_domain.contains(beta), beta.shape[:-1])
        out = np.full(beta.shape[:-1], np.inf)
        if np.any(inside):
            out[inside] = root_cumulant(beta[inside])
        return out

    def eval_root_mean(beta: np.ndarray) -> np.ndarray:
        if root_mean is not None:
            return np.asarray(root_mean(beta), dtype=float)
        return fd_gradient(eval_cumulant, beta)

    def eval_root_cov(beta: np.ndarray) -> np.ndarray:
        if root_cov is not None:
            return np.asarray(root_cov(beta), dtype=float)
        if root_mean is not None:
            return fd_jacobian(eval_root_mean, beta)
        return fd_hessian(eval_cumulant, beta)

    gamma_cache: dict[bytes, np.ndarray] = {}

    def solve_gammas(targets: np.ndarray) -> np.ndarray:
        if root_beta is not None:
            return np.asarray(root_beta(targets), dtype=float)
        return _damped_newton(name, targets, lambda b, rows: eval_root_mean(b),
                              lambda b, rows: eval_root_cov(b), root_domain)

    def gamma_of(anchor: np.ndarray) -> np.ndarray:
        return _cached_rows(gamma_cache, anchor, solve_gammas).reshape(np.shape(anchor))

    def log_partition(beta: np.ndarray, anchor: np.ndarray) -> np.ndarray:
        gamma = gamma_of(anchor)
        return eval_cumulant(beta + gamma) - eval_cumulant(gamma)

    def canonical_domain(anchor: np.ndarray) -> DomainDescriptor:
        return root_domain.shifted(-gamma_of(anchor))

    carrier = None
    if root_carrier_log_density is not None:
        def carrier(u: np.ndarray, anchor: np.ndarray) -> np.ndarray:
            gamma = gamma_of(anchor)
            stats = np.asarray(suff_stat(u), dtype=float)
            return stats @ gamma - eval_cumulant(gamma) + np.asarray(root_carrier_log_density(u), dtype=float)

    def mean_map(beta: np.ndarray, anchor: np.ndarray) -> np.ndarray:
        return eval_root_mean(beta + gamma_of(anchor))

    def cov_map(beta: np.ndarray, anchor: np.ndarray) -> np.ndarray:
        return eval_root_cov(beta + gamma_of(anchor))

    family = ExpFamilyDescriptor(
        name=name,
        dim=dim,
        suff_stat=suff_stat,
        log_partition=log_partition,
        mean_domain=mean_domain,
        canonical_domain=canonical_domain,
        carrier_log_density=carrier,
        mean_map=mean_map,
        cov_map=cov_map,
        element_ndim=element_ndim,
        stochastic=stochastic,
        law=law,
    )
    if root_beta is not None:
        def beta_map(mu: np.ndarray, anchor: np.ndarray) -> np.ndarray:
            return gamma_of(mu) - gamma_of(anchor)
    else:
        # ``family`` has no beta_map, so _beta runs the generic damped Newton
        # at the anchor; differencing two Newton-solved gammas rounds differently
        beta_cache: dict[bytes, np.ndarray] = {}

        def beta_map(mu: np.ndarray, anchor: np.ndarray) -> np.ndarray:
            mu, anchor = np.broadcast_arrays(mu, anchor)
            solved = _cached_rows(beta_cache, np.concatenate([mu, anchor], axis=-1),
                                  lambda rows: _beta(family, rows[:, :dim], rows[:, dim:]))
            return solved.reshape(mu.shape)

    return replace(family, beta_map=beta_map)


# ---------------------------------------------------------------------------
# observation laws: one table of kinds gives each law's log-density, sampler,
# support and same-kind divergence

def _normal_log(u: np.ndarray, mean: np.ndarray, cov) -> np.ndarray:
    if np.ndim(cov) == 0:  # v I: one term per element
        return -0.5 * ((u - mean) ** 2 / cov + np.log(2.0 * np.pi * cov))
    chol = np.linalg.cholesky(cov)
    resid = np.linalg.solve(chol, (u - mean).T)
    logdet = 2.0 * np.sum(np.log(np.diag(chol)))
    return -0.5 * (np.sum(resid ** 2, axis=0) + len(mean) * np.log(2.0 * np.pi) + logdet)


def _normal_sample(rng: np.random.Generator, size, mean: np.ndarray, cov) -> np.ndarray:
    if np.ndim(cov) == 0:
        return rng.normal(mean, np.sqrt(cov), size)
    return mean + rng.standard_normal(size) @ np.linalg.cholesky(cov).T


def _normal_kl(q: tuple, p: tuple) -> float:
    (m_q, cov_q), (m_p, cov_p) = q, p
    d = len(m_q)
    if np.ndim(cov_q) == np.ndim(cov_p) == 0:
        diag_p, diag_q, copies = np.sqrt(cov_p), np.sqrt(cov_q), d
        ratio, shift = diag_q / diag_p, (m_p - m_q) / diag_p
    else:
        chol_p, chol_q = np.linalg.cholesky(cov_p), np.linalg.cholesky(cov_q)
        ratio = np.linalg.solve(chol_p, chol_q)  # tr(S_p^-1 S_q) is its squared norm
        shift = np.linalg.solve(chol_p, m_p - m_q)
        diag_p, diag_q, copies = np.diag(chol_p), np.diag(chol_q), 1
    logdet = 2.0 * copies * np.sum(np.log(diag_p) - np.log(diag_q))
    return float(0.5 * (copies * np.sum(ratio * ratio) - d + shift @ shift + logdet))


def _arms_kl(term: Callable) -> Callable[[tuple, tuple], float]:
    """KL of independent arms: ``term`` of the broadcast arm parameters, summed."""
    return lambda q, p: float(np.sum(term(*np.broadcast_arrays(np.asarray(q[0], dtype=float),
                                                                np.asarray(p[0], dtype=float)))))


class _LawKind(NamedTuple):
    log_density: Callable   # (u, *params) -> log-density per element, or per observation
    sample: Callable        # (rng, size, *params) -> draws
    spaces: tuple           # SupportSpec kind for scalar elements, for vector elements
    kl: Callable | None     # (q params, p params) -> KL(Q || P); None: no closed form


_LAW_KINDS = {
    "poisson": _LawKind(
        lambda u, arms: xlogy(u, arms) - arms - gammaln(u + 1.0),
        lambda rng, size, arms: rng.poisson(arms, size).astype(float),
        ("countable-vector", "countable-vector"),
        _arms_kl(lambda a, b: a * np.log(a / b) - a + b)),
    "bernoulli": _LawKind(
        lambda u, probs: xlogy(u, probs) + xlog1py(1.0 - u, -probs),
        lambda rng, size, probs: (rng.random(size) < probs).astype(float),
        (None, "finite"),
        _arms_kl(lambda a, b: a * np.log(a / b) + (1.0 - a) * np.log((1.0 - a) / (1.0 - b)))),
    "normal": _LawKind(_normal_log, _normal_sample, ("real-scalar", "real-vector"), _normal_kl),
    "negbinom": _LawKind(
        lambda u, n, mean: (gammaln(u + n) - gammaln(n) - gammaln(u + 1.0)
                            + n * np.log1p(-mean / (n + mean)) + xlogy(u, mean / (n + mean))),
        lambda rng, size, n, mean: rng.negative_binomial(n, n / (n + mean), size).astype(float),
        ("countable-vector", None), None),
    "gamma": _LawKind(
        lambda u, shape, mean: (xlogy(shape - 1.0, u) - u / (mean / shape) - gammaln(shape)
                                - shape * np.log(mean / shape)),
        lambda rng, size, shape, mean: rng.gamma(shape, mean / shape, size),
        ("positive-scalar", None), None),
    "inverse-gaussian": _LawKind(
        lambda u, mean, lam: (0.5 * (np.log(lam) - np.log(2.0 * np.pi) - 3.0 * np.log(u))
                              - lam * (u - mean) ** 2 / (2.0 * mean ** 2 * u)),
        lambda rng, size, mean, lam: rng.wald(mean, lam, size),
        ("positive-scalar", None), None),
}


def law_log_density(law: tuple, u) -> np.ndarray:
    """Log-density of an observation law (a ``law`` tuple) at each element of the batch ``u``."""
    vals = _LAW_KINDS[law[0]].log_density(np.asarray(u, dtype=float), *law[1:])
    return vals.sum(axis=1) if vals.ndim > 1 else vals  # independent elements add


def _law_log_density(law: Callable, u: np.ndarray, anchor: np.ndarray) -> np.ndarray:
    """Carrier of a law-declaring family: the log-density of the anchor member's law."""
    return law_log_density(law(anchor), u)


def _law_sample(law: Callable, element_ndim: int, mean: np.ndarray, n: int, rng) -> np.ndarray:
    """Sampler of a law-declaring family: n draws, one element (one row of arms) each."""
    kind, *params = law(mean)
    return _LAW_KINDS[kind].sample(rng, (n, len(params[0])) if element_ndim else n, *params)


def law_kl(q: tuple, p: tuple) -> float | None:
    """KL(Q || P) between two observation laws; None without a closed form.

    The laws are ``ExpFamilyDescriptor.law`` tuples of one kind: Poisson or
    Bernoulli arms, whose divergences add, or normal laws, for which

        KL = [tr(S_p^-1 S_q) - d + D' S_p^-1 D + log det S_p - log det S_q] / 2

    with D = m_p - m_q, evaluated through the Cholesky factors of both
    covariances, which the families declaring the law keep positive definite.
    A normal law may give its covariance as one variance v, meaning v I; when
    both laws do, the factors are the scalars sqrt(v), each diagonal term
    counts d times, and the divergence takes O(d) work.
    """
    kl = _LAW_KINDS[q[0]].kl if q[0] == p[0] else None
    return None if kl is None else kl(q[1:], p[1:])
