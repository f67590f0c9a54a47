"""Regular exponential families in mean-value parameterization.

A family member anchored at the mean vector ``mu_star`` has density

    p_{beta; mu_star}(u) = exp(beta . t(u) - logZ(beta; mu_star)) * p_{mu_star}(u)

with respect to the anchor member itself, so that logZ(0; mu_star) = 0 and
grad_beta logZ(0; mu_star) = mu_star.  All families here are regular and
steep: the gradient of the log-partition is a bijection between the open
canonical domain and the open mean domain, and its Jacobian (the sufficient
statistic covariance) is positive definite in the interior.

A descriptor bundles the callable handles (sufficient statistic, anchored
log-partition, carrier log-density) with the mean map, covariance map and
inverse mean map, which every descriptor supplies.  Canonical domains are
boxes.  A family with a named observation law declares only that law, and
its carrier density comes from the table of law kinds below.  A family
known only by a cumulant gets its maps from ``family_from_root_cumulant``,
which takes central finite differences and damped Newton inversion where a
closed form is missing.

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
``(..., dim, dim)``, and ``canonical_domain(anchor)`` returns one box
whose bounds have the anchors' leading axes.  The public helpers below
validate shape, finiteness and domain membership once per batch and then
hand whole arrays to the descriptor.  Anchors may come un-broadcast, e.g.
``(n, 1, dim)`` against ``(n, K, dim)`` betas; the log-partition hands
them on as they are, so each distinct anchor's work runs once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .domains import DomainDescriptor
from .errors import ConvergenceError, DataError, DomainError, UnsupportedModelError
from .numdiff import fd_gradient, fd_hessian
from .util import as_batch, finite_or, float_or_array as _scalar, rowdot

__all__ = [
    "ExpFamilyDescriptor",
    "log_partition_at",
    "mean_from_canonical",
    "canonical_from_mean",
    "covariance_at_canonical",
    "covariance_at_mean",
    "kl_between_means",
    "log_density",
    "family_from_root_cumulant",
    "law_kl",
    "law_log_density",
]

MEAN_TOL = 1e-9
NEWTON_MAX_ITER = 200
NEWTON_MAX_HALVINGS = 60


@dataclass(frozen=True)
class ExpFamilyDescriptor:
    """Callable bundle defining one anchored exponential family.

    ``suff_stat`` maps a batch of sample-space elements to an (m, dim)
    array.  ``log_partition(beta, anchor)`` and ``carrier_log_density(u,
    anchor)`` implement the anchored normalization above; the carrier at an
    anchor is the log-density of the member whose mean is that anchor.
    ``canonical_domain`` maps anchors to the open boxes of valid tilts (a
    domain without a predicate; the battery refuses one with a predicate).
    The dimension ``dim`` is the mean domain's.

    ``mean_map`` / ``cov_map`` / ``beta_map`` give grad logZ, its Hessian
    and the inverse mean map; every descriptor supplies all three
    (``family_from_root_cumulant`` derives them from a cumulant).
    ``stochastic`` marks families whose log-partition is a Monte Carlo
    estimate, which blocks hard certification downstream.  ``law(mean)``
    names the observation law of the member with that mean:
    ``("poisson", arm_means)`` or ``("bernoulli", arm_probs)`` (independent
    arms), ``("normal", mean_vector, cov)`` (a scalar variance v stands for
    v I), ``("negbinom", successes, mean)``, ``("gamma", shape, mean)`` or
    ``("inverse-gaussian", mean, lam)``.  A family that declares it passes
    no carrier: the carrier is the law's log-density (evaluating a law can
    cost a root solve, so construction does not).

    The parameter callables take ``(..., dim)`` batches (see the module
    docstring); they may assume their inputs were validated.
    """

    name: str
    suff_stat: Callable[[np.ndarray], np.ndarray]
    log_partition: Callable[[np.ndarray, np.ndarray], np.ndarray]
    mean_domain: DomainDescriptor
    canonical_domain: Callable[[np.ndarray], DomainDescriptor]
    mean_map: Callable[[np.ndarray, np.ndarray], np.ndarray]
    cov_map: Callable[[np.ndarray, np.ndarray], np.ndarray]
    beta_map: Callable[[np.ndarray, np.ndarray], np.ndarray]
    carrier_log_density: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    element_ndim: int = 0
    stochastic: bool = False
    law: Callable[[np.ndarray], tuple] | None = None

    def __post_init__(self) -> None:
        if self.law is None:
            return
        carrier = self.carrier_log_density  # dataclasses.replace hands the derived one back
        if getattr(carrier, "func", carrier) not in (None, _law_log_density):
            raise ValueError(f"{self.name}: a family that declares its law takes its density from it")
        object.__setattr__(self, "carrier_log_density", partial(_law_log_density, self.law))

    @property
    def dim(self) -> int:
        """The dimension of the sufficient statistic, the mean domain's."""
        return self.mean_domain.dim

    def vec(self, x) -> np.ndarray:
        """Coerce a parameter to a float vector of the family dimension."""
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        if arr.shape != (self.dim,):
            raise ValueError(f"{self.name}: parameter shape {arr.shape}, expected ({self.dim},)")
        return arr

    def points(self, x) -> np.ndarray:
        """Coerce a parameter or a ``(..., dim)`` batch of them to floats."""
        arr = np.atleast_1d(np.asarray(x, dtype=float))
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


def _require_canonical(fam: ExpFamilyDescriptor, beta, anchor) -> tuple[np.ndarray, np.ndarray]:
    """``beta`` and ``anchor`` as floats; the anchor must lie in the mean domain, beta in B(anchor)."""
    beta, anchor = fam.points(beta), _require_mean(fam, anchor, "anchor")
    inside = fam.canonical_domain(anchor).contains(beta)
    if not np.all(inside):
        b, a = np.broadcast_arrays(beta, anchor)
        first = tuple(np.argwhere(~np.broadcast_to(inside, b.shape[:-1]))[0])
        raise DomainError(f"{fam.name}: beta {b[first]} outside canonical domain "
                          f"at anchor {a[first]}")
    return beta, anchor


def _logz(fam: ExpFamilyDescriptor, beta: np.ndarray, anchor: np.ndarray,
          box: DomainDescriptor | None = None) -> np.ndarray:
    """Log-partition over a validated anchor batch; +inf off the canonical domain.

    Anchors reach the descriptor un-broadcast; a beta off the domain (``box``, if given) is evaluated at 0.
    """
    shape = np.broadcast_shapes(beta.shape, anchor.shape)
    box = fam.canonical_domain(anchor) if box is None else box
    inside = np.broadcast_to(box.contains(beta), shape[:-1])
    vals = np.asarray(fam.log_partition(np.where(inside[..., None], beta, 0.0), anchor), dtype=float)
    nan = np.isnan(vals) & inside
    if np.any(nan):
        raise ConvergenceError(f"{fam.name}: log-partition returned NaN at "
                               f"beta={np.broadcast_to(beta, shape)[nan][0]}")
    return np.where(inside, vals, np.inf)


def _cov(cov_map: Callable, beta: np.ndarray, anchor: np.ndarray) -> np.ndarray:
    """Symmetrized ``cov_map`` over validated canonical points; inf past the float range."""
    beta, anchor = np.broadcast_arrays(beta, anchor)
    with np.errstate(over="ignore"):
        cov = np.broadcast_to(np.asarray(cov_map(beta, anchor), dtype=float), beta.shape + beta.shape[-1:])
        return 0.5 * cov + 0.5 * np.swapaxes(cov, -1, -2)  # halve first: cov + cov' may overflow


def log_partition_at(fam: ExpFamilyDescriptor, beta, anchor):
    """Anchored log-partition; +inf outside the canonical domain."""
    return _scalar(_logz(fam, fam.points(beta), _require_mean(fam, anchor, "anchor")))


def mean_from_canonical(fam: ExpFamilyDescriptor, beta, anchor) -> np.ndarray:
    """Mean of the tilted member, i.e. grad_beta logZ(beta; anchor)."""
    return np.asarray(fam.mean_map(*_require_canonical(fam, beta, anchor)), dtype=float)


def covariance_at_canonical(fam: ExpFamilyDescriptor, beta, anchor) -> np.ndarray:
    """Sufficient-statistic covariance of the tilted member (symmetric PD)."""
    return _cov(fam.cov_map, *_require_canonical(fam, beta, anchor))


def covariance_at_mean(fam: ExpFamilyDescriptor, mu) -> np.ndarray:
    """Covariance of the member with mean ``mu`` (anchor it there, tilt zero)."""
    mu = _require_mean(fam, mu)
    return _cov(fam.cov_map, np.zeros_like(mu), mu)


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


class _RowCache:
    """What one ``solve`` returned, a row per distinct input row, in first-seen order.

    ``slot`` maps an input row's bytes to its solved row in ``solved``, one
    (capacity, width) array whose capacity doubles as it fills.
    """

    def __init__(self, width: int) -> None:
        self.slot: dict[bytes, int] = {}
        self.solved = np.empty((0, width))


def _cached_rows(cache: _RowCache, rows: np.ndarray,
                 solve: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """``solve`` over the rows of a (..., k) batch, each distinct row once per cache.

    Rows are keyed by their bytes; only rows not yet in ``cache`` reach
    ``solve``, as one (n, k) batch in first-seen order.  Returns a fresh
    (..., width) array holding each input row's solved row, gathered by one index.
    """
    flat = np.ascontiguousarray(rows, dtype=float).reshape(-1, np.shape(rows)[-1])
    keys = flat.view(np.dtype((np.void, flat.shape[1] * flat.itemsize)))[:, 0].tolist()
    slot = cache.slot
    missing = {key: i for i, key in enumerate(keys) if key not in slot}
    if missing:
        solved, used = solve(flat.take(list(missing.values()), axis=0)), len(slot)
        if used + len(solved) > len(cache.solved):
            grown = np.empty((2 * (used + len(solved)), cache.solved.shape[1]))
            grown[:used] = cache.solved[:used]
            cache.solved = grown
        cache.solved[used:used + len(solved)] = solved
        slot.update(zip(missing, range(used, used + len(solved))))
    at = np.fromiter(map(slot.__getitem__, keys), np.intp, len(keys)).reshape(np.shape(rows)[:-1])
    return cache.solved.take(at, axis=0)


def canonical_from_mean(fam: ExpFamilyDescriptor, mu, anchor) -> np.ndarray:
    """Canonical coordinate of the member with mean ``mu``, relative to ``anchor``."""
    return np.asarray(fam.beta_map(_require_mean(fam, mu), _require_mean(fam, anchor, "anchor")), dtype=float)


def kl_between_means(fam: ExpFamilyDescriptor, mu, mu_prime):
    """D(P_mu || P_mu') via duality: beta . mu - logZ(beta; mu')."""
    mu, mu_prime = _require_mean(fam, mu), _require_mean(fam, mu_prime)
    return _scalar(_kl(fam, np.asarray(fam.beta_map(mu, mu_prime), dtype=float), mu, mu_prime))


def _kl(fam: ExpFamilyDescriptor, beta: np.ndarray, mu: np.ndarray, mu_prime: np.ndarray) -> np.ndarray:
    """``kl_between_means`` at validated means, given beta = beta_map(mu, mu')."""
    logz = _logz(fam, beta, mu_prime)
    if not np.all(np.isfinite(logz)):
        raise ConvergenceError(f"{fam.name}: log-partition divergent inside the mean image")
    with np.errstate(over="ignore"):  # a product past the float range is its honest inf
        return rowdot(beta, mu) - logz


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
    suff_stat: Callable[[np.ndarray], np.ndarray],
    root_cumulant: Callable[[np.ndarray], np.ndarray],
    root_domain: DomainDescriptor,
    mean_domain: DomainDescriptor,
    root_carrier_log_density: Callable[[np.ndarray], np.ndarray] | None = None,
    root_mean: Callable[[np.ndarray], np.ndarray] | None = None,
    root_cov: Callable[[np.ndarray], np.ndarray] | None = None,
    root_beta: Callable[[np.ndarray], np.ndarray] | None = None,
    element_ndim: int = 0,
    stochastic: bool = False,
    root_law: Callable[[np.ndarray], tuple] | None = None,
) -> ExpFamilyDescriptor:
    """Build an anchored family from a single cumulant at one root anchor.

    ``root_cumulant`` is K(beta) = log E[exp(beta . X)] under the root
    member, so K(0) = 0 and K'(0) is the root member's mean.  Re-anchoring
    at a mean mu shifts by gamma(mu), the root coordinate solving K'(gamma) = mu:

        logZ(beta; mu) = K(beta + gamma(mu)) - K(gamma(mu)),
        carrier(u; mu) = gamma(mu) . t(u) - K(gamma(mu)) + root carrier(u).

    The root callables follow the batch contract: ``root_cumulant`` maps
    ``(..., dim)`` to ``(...)``, ``root_mean`` and ``root_beta`` to
    ``(..., dim)`` and ``root_cov`` to ``(..., dim, dim)``.  Without
    ``root_mean`` and ``root_cov`` the mean and covariance are central finite
    differences of K.  gamma is found by the closed form when given,
    otherwise by damped Newton inversion of K'; solved anchors are cached,
    so grid sweeps that revisit anchors do not repeat the solve.

    With ``root_beta`` the inverse mean map is gamma(mu) - gamma(anchor);
    without it, each (mean, anchor) row is solved once by damped Newton on
    the family's own mean and symmetrized covariance maps, from beta = 0 at
    the anchor, and cached, so the KL ordering reuses the pairing's solves.
    ``root_law(gamma)`` names the observation law of the member at root
    coordinate gamma; the descriptor's law at a mean reads gamma from the same
    cache, so a law costs no solve of its own.
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
        return fd_hessian(eval_cumulant, beta)

    gamma_cache = _RowCache(root_domain.dim)

    def solve_gammas(targets: np.ndarray) -> np.ndarray:
        if root_beta is not None:
            return np.asarray(root_beta(targets), dtype=float)
        return _damped_newton(name, targets, lambda b, rows: eval_root_mean(b),
                              lambda b, rows: eval_root_cov(b), root_domain)

    def gamma_of(anchor: np.ndarray) -> np.ndarray:
        return _cached_rows(gamma_cache, anchor, solve_gammas)

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

    if root_beta is not None:
        def beta_map(mu: np.ndarray, anchor: np.ndarray) -> np.ndarray:
            gamma = gamma_of(np.stack(np.broadcast_arrays(mu, anchor)))  # both ends in one solve
            return gamma[0] - gamma[1]
    else:
        # solved at the anchor: differencing two Newton-solved gammas rounds differently
        beta_cache = _RowCache(root_domain.dim)

        def solve_betas(rows: np.ndarray) -> np.ndarray:
            mu, anchor = np.split(rows, 2, axis=1)
            return _damped_newton(name, mu, lambda b, idx: mean_map(b, anchor[idx]),
                                  lambda b, idx: _cov(cov_map, b, anchor[idx]),
                                  canonical_domain(anchor))

        def beta_map(mu: np.ndarray, anchor: np.ndarray) -> np.ndarray:
            mu, anchor = np.broadcast_arrays(mu, anchor)
            return _cached_rows(beta_cache, np.concatenate([mu, anchor], axis=-1), solve_betas)

    return ExpFamilyDescriptor(
        name=name,
        suff_stat=suff_stat,
        log_partition=log_partition,
        mean_domain=mean_domain,
        canonical_domain=canonical_domain,
        mean_map=mean_map,
        cov_map=cov_map,
        beta_map=beta_map,
        carrier_log_density=carrier,
        element_ndim=element_ndim,
        stochastic=stochastic,
        law=None if root_law is None else lambda mean: root_law(gamma_of(mean)),
    )


# ---------------------------------------------------------------------------
# observation laws: one table of kinds gives each law's log-density, and one
# table of kind pairs gives the divergence between two laws

def _normal_log(u: np.ndarray, mean: np.ndarray, cov) -> np.ndarray:
    if np.ndim(cov) == 0:  # v I: one term per element
        return -0.5 * ((u - mean) ** 2 / cov + np.log(2.0 * np.pi * cov))
    chol = np.linalg.cholesky(cov)
    resid = np.linalg.solve(chol, (u - mean).T)
    logdet = 2.0 * np.sum(np.log(np.diag(chol)))
    return -0.5 * (np.sum(resid ** 2, axis=0) + len(mean) * np.log(2.0 * np.pi) + logdet)


# scipy.special is imported where it is called: importing evfam loads no scipy module
def _poisson_log(u: np.ndarray, arms) -> np.ndarray:
    from scipy.special import gammaln, xlogy
    return xlogy(u, arms) - arms - gammaln(u + 1.0)


def _bernoulli_log(u: np.ndarray, probs) -> np.ndarray:
    from scipy.special import xlog1py, xlogy
    return xlogy(u, probs) + xlog1py(1.0 - u, -probs)


def _negbinom_log(u: np.ndarray, n, mean) -> np.ndarray:
    from scipy.special import gammaln, xlogy
    return (gammaln(u + n) - gammaln(n) - gammaln(u + 1.0)
            + n * np.log1p(-mean / (n + mean)) + xlogy(u, mean / (n + mean)))


def _gamma_log(u: np.ndarray, shape, mean) -> np.ndarray:
    from scipy.special import gammaln, xlogy
    return (xlogy(shape - 1.0, u) - u / (mean / shape) - gammaln(shape)
            - shape * np.log(mean / shape))


def _inverse_gaussian_log(u: np.ndarray, mean, lam) -> np.ndarray:
    # mean ** 2 underflows below means of about 1e-154
    quad = finite_or(lambda u, m: lam * (u - m) ** 2 / (2.0 * m ** 2 * u),
                     lambda u, m: lam / (2.0 * u) * ((u - m) / m) ** 2, u, mean)
    return 0.5 * (np.log(lam) - np.log(2.0 * np.pi) - 3.0 * np.log(u)) - quad


def _is_count(u: np.ndarray) -> np.ndarray:
    return (u >= 0.0) & (u == np.floor(u)) & (u < np.inf)


def _is_positive(u: np.ndarray) -> np.ndarray:
    return (u > 0.0) & (u < np.inf)


# kind -> (log-density of (u, *params) per element, or per observation; the
# elements' support, as a test and in words)
_LAW_KINDS = {
    "poisson": (_poisson_log, _is_count, "non-negative integer counts"),
    "bernoulli": (_bernoulli_log, lambda u: (u == 0.0) | (u == 1.0), "0 or 1"),
    "normal": (_normal_log, np.isfinite, "finite reals"),
    "negbinom": (_negbinom_log, _is_count, "non-negative integer counts"),
    "gamma": (_gamma_log, _is_positive, "finite positive reals"),
    "inverse-gaussian": (_inverse_gaussian_log, _is_positive, "finite positive reals"),
}


def law_log_density(law: tuple, u) -> np.ndarray:
    """Log-density of an observation law (a ``law`` tuple) at each element of the batch ``u``."""
    vals = _LAW_KINDS[law[0]][0](np.asarray(u, dtype=float), *law[1:])
    return vals.sum(axis=1) if vals.ndim > 1 else vals  # independent elements add


def _require_law_support(law: tuple, u: np.ndarray) -> None:
    """Refuse, with a DataError, the first row of the batch ``u`` outside the law's support."""
    _, inside, words = _LAW_KINDS[law[0]]
    ok = inside(u)
    bad = np.flatnonzero(~np.all(ok, axis=1) if ok.ndim > 1 else ~ok)
    if bad.size:
        row = bad[0]
        value = u[row] if ok.ndim == 1 else u[row][~ok[row]][0]
        raise DataError(f"row {row} holds {float(value)!r}, outside the support of the "
                        f"{law[0]} law ({words})")


def _law_log_density(law: Callable, u: np.ndarray, anchor: np.ndarray) -> np.ndarray:
    """Carrier of a law-declaring family: the log-density of the anchor member's law.

    The first row of the batch ``u`` outside that law's support is refused with a DataError.
    """
    member = law(anchor)
    _require_law_support(member, u)
    return law_log_density(member, u)


# Divergence rules: each takes the two full law tuples (q, p) of members with
# one mean and returns KL(Q || P).

def _arms_kl(term: Callable) -> Callable[[tuple, tuple], float]:
    """KL of independent arms: ``term`` of the broadcast arm parameters, summed."""
    return lambda q, p: float(np.sum(term(*np.broadcast_arrays(np.asarray(q[1], dtype=float),
                                                                np.asarray(p[1], dtype=float)))))


def _normal_kl(q: tuple, p: tuple) -> float:
    (_, m_q, cov_q), (_, m_p, cov_p) = q, p
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


def _scaled_exp1(x: float) -> float:
    """e^x E_1(x) for x > 0, finite where e^x overflows (x past about 709).

    Up to x = 50 it is the product; above, the even contraction of the
    continued fraction of Abramowitz and Stegun 5.1.22, from its 40th term back:
    e^x E_1(x) = 1 / (x + 1 - 1 / (x + 3 - 4 / (x + 5 - 9 / (x + 7 - ...)))).
    """
    if x <= 50.0:
        from scipy.special import exp1
        return float(np.exp(x) * exp1(x))
    tail = 0.0
    for n in range(40, 0, -1):
        tail = n * n / (x + 2 * n + 1 - tail)
    return 1.0 / (x + 1.0 - tail)


def _inverse_gaussian_gamma_kl(q: tuple, p: tuple) -> float:
    from scipy.special import gammaln
    (_, mean, lam), k = q, p[1]
    # with x = 2 lam / mean, E_q[log X] = log mean - e^x E_1(x), and the mean cancels
    log_x = np.log(2.0) + np.log(lam) - np.log(mean)
    x = float(np.exp(log_x))
    # below 1e-300, e^x E_1(x) = -euler_gamma - log x to within x log x
    scaled = _scaled_exp1(x) if x > 1e-300 else -np.euler_gamma - log_x
    return float(0.5 * (log_x - np.log(4.0 * np.pi)) - 0.5 + k - k * np.log(k) + gammaln(k)
                 + (k + 0.5) * scaled)


def _gamma_inverse_gaussian_kl(q: tuple, p: tuple) -> float:
    (_, k, mean), lam = q, p[2]
    if k <= 1.0:
        return np.inf  # E_q[1 / X] diverges
    from scipy.special import gammaln, psi
    return float((k + 0.5) * psi(k) - k - gammaln(k)
                 - 0.5 * (np.log(lam) - np.log(mean) + np.log(k) - np.log(2.0 * np.pi))
                 + lam / (2.0 * mean * (k - 1.0)))


def _count_lattice_kl(q: tuple, p: tuple) -> float:
    """Sum q log(q / p) over the counts 0, 1, 2, ... on a lattice that doubles from 32.

    It stops once two sides agree to 1e-12 and the lattice holds all but 1e-10
    of Q's mass; past 65536 counts it refuses a lattice that misses more, or a NaN sum.
    """
    prev = None
    for size in (32 << j for j in range(12)):
        counts = np.arange(size, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            lq, lp = law_log_density(q, counts), law_log_density(p, counts)
            weights = np.exp(lq)
            total = float(weights @ (lq - lp))
        if np.isnan(total):
            raise ConvergenceError(f"growth rate: the lattice sum between a {q[0]} alternative "
                                   f"law and a {p[0]} null law is NaN")
        covered = float(weights.sum())
        if prev is not None and abs(total - prev) <= 1e-12 * (1.0 + abs(total)) \
                and covered > 1.0 - 1e-10:
            return total
        prev = total
    if covered > 1.0 - 1e-10:
        return total
    raise ConvergenceError(f"growth rate: countable support truncated: k=1, lattice side {size}, "
                           f"alternative mass missing from the lattice {1.0 - covered:.3g}")


def _gamma_kl(q: tuple, p: tuple) -> float:  # shapes q[1], p[1]; the shared mean cancels
    from scipy.special import gammaln, psi
    return float((q[1] - p[1]) * (psi(q[1]) - 1.0) + gammaln(p[1]) - gammaln(q[1])
                 + p[1] * (np.log(q[1]) - np.log(p[1])))


_LAW_KL = {
    ("poisson", "poisson"): _arms_kl(lambda a, b: a * np.log(a / b) - a + b),
    ("bernoulli", "bernoulli"): _arms_kl(
        lambda a, b: a * np.log(a / b) + (1.0 - a) * np.log((1.0 - a) / (1.0 - b))),
    ("normal", "normal"): _normal_kl,
    ("gamma", "gamma"): _gamma_kl,
    ("inverse-gaussian", "inverse-gaussian"): lambda q, p: float(  # shapes q[2], p[2]
        0.5 * (p[2] / q[2] - 1.0 - np.log(p[2]) + np.log(q[2]))),
    ("inverse-gaussian", "gamma"): _inverse_gaussian_gamma_kl,
    ("gamma", "inverse-gaussian"): _gamma_inverse_gaussian_kl,
    ("poisson", "negbinom"): _count_lattice_kl,
    ("negbinom", "poisson"): _count_lattice_kl,
    ("negbinom", "negbinom"): _count_lattice_kl,
}


def law_kl(q: tuple, p: tuple) -> float:
    """KL(Q || P) between the observation laws of two members with one mean.

    The laws are ``ExpFamilyDescriptor.law`` tuples, and the pair of their
    kinds picks the rule:

    * Poisson or Bernoulli arms: the arms' divergences add;
    * normal laws: [tr(S_p^-1 S_q) - d + D' S_p^-1 D + log det S_p - log det S_q] / 2
      with D = m_p - m_q, through the Cholesky factors of both covariances
      (a covariance given as one variance v means v I; when both laws do,
      each diagonal term counts d times and the work is O(d));
    * gamma shapes k_q, k_p: (k_q - k_p)(psi(k_q) - 1) + log G(k_p) - log G(k_q)
      + k_p log(k_q / k_p);
    * inverse Gaussian shapes lam_q, lam_p: [r - 1 - log r] / 2 with r = lam_p / lam_q;
    * inverse Gaussian (lam) against gamma (k), with x = 2 lam / mean:
      log(x / 4 pi) / 2 - 1/2 + k - k log k + log G(k) + (k + 1/2) e^x E_1(x);
    * gamma (k) against inverse Gaussian (lam):
      (k + 1/2) psi(k) - k - log G(k) - log(lam k / (2 pi mean)) / 2 + lam / (2 mean (k - 1)),
      and +inf for k <= 1;
    * Poisson and negative binomial laws against each other: a lattice sum over
      the counts (a ConvergenceError when it misses more than 1e-10 of Q's mass).

    Any other pair of kinds lies on different sample spaces and raises an
    UnsupportedModelError naming both.
    """
    rule = _LAW_KL.get((q[0], p[0]))
    if rule is None:
        raise UnsupportedModelError(f"growth rate: no divergence between a {q[0]} alternative "
                                    f"law and a {p[0]} null law (different sample spaces)")
    with np.errstate(over="ignore"):  # a term past the float range is an infinite divergence
        return rule(q, p)
