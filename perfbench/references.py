"""Independent reference answers for the benchmark's output checks.

Nothing here calls evfam.  Growth rates are closed forms or scipy
quadrature over ``scipy.stats`` densities, e-value rows are ``scipy.stats``
log-pmf ratios, and Monte Carlo standard errors come from fresh draws of
the log-likelihood ratio under the alternative.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, stats


def _bern_kl(a: float, b: float) -> float:
    return a * math.log(a / b) + (1.0 - a) * math.log((1.0 - a) / (1.0 - b))


def ksample_poisson_growth(means) -> float:
    means = np.asarray(means, dtype=float)
    return float(np.sum(means * np.log(means / means.mean())))


def ksample_bernoulli_growth(means) -> float:
    pbar = float(np.mean(means))
    return sum(_bern_kl(p, pbar) for p in means)


def ksample_gaussian_growth(means, sigma2: float = 1.0) -> float:
    means = np.asarray(means, dtype=float)
    return float(np.sum((means - means.mean()) ** 2) / (2.0 * sigma2))


def ksample_gaussian_mc_se(means, n_mc: int, sigma2: float = 1.0) -> float:
    means = np.asarray(means, dtype=float)
    y = np.random.default_rng(1).normal(means, math.sqrt(sigma2), (20_000, means.size))
    sd = math.sqrt(sigma2)
    llr = (stats.norm.logpdf(y, means, sd) - stats.norm.logpdf(y, means.mean(), sd)).sum(axis=1)
    return float(llr.std() / math.sqrt(n_mc))


def gaussian_location_growth(cov_null, cov_alt) -> float:
    """KL(N(m, cov_alt) || N(m, cov_null)); the shared mean cancels."""
    cov_null, cov_alt = np.asarray(cov_null, float), np.asarray(cov_alt, float)
    d = cov_null.shape[0]
    trace = float(np.trace(np.linalg.solve(cov_null, cov_alt)))
    logdet = np.linalg.slogdet(cov_null)[1] - np.linalg.slogdet(cov_alt)[1]
    return 0.5 * (trace - d + logdet)


def gaussian_location_mc_se(cov_null, cov_alt, mean, n_mc: int) -> float:
    y = np.random.default_rng(2).multivariate_normal(mean, cov_alt, 20_000)
    llr = (stats.multivariate_normal(mean, cov_alt).logpdf(y)
           - stats.multivariate_normal(mean, cov_null).logpdf(y))
    return float(llr.std() / math.sqrt(n_mc))


def gaussian_scale_growth(m: float, s2: float) -> float:
    """KL(N(m, s2) || N(0, s2 + m^2))."""
    return 0.5 * math.log((s2 + m * m) / s2)


def ig_vs_exp_growth(lam: float, mu: float) -> float:
    """KL(IG(mu, lam) || Exp(mean mu)) by adaptive quadrature."""
    alt = stats.invgauss(mu / lam, scale=lam)
    null = stats.expon(scale=mu)

    def integrand(x: float) -> float:
        return float(alt.pdf(x) * (alt.logpdf(x) - null.logpdf(x)))

    value, _ = integrate.quad(integrand, 0.0, np.inf, epsabs=1e-13, epsrel=1e-11, limit=200)
    return float(value)


def _linmodel_null_member(x: np.ndarray, sigma2: float, gamma: np.ndarray):
    """Same-mean theta = 0 member: least squares in the nuisance columns."""
    fitted = x @ gamma
    nuisance = x[:, 1:]
    gamma_f, *_ = np.linalg.lstsq(nuisance, fitted, rcond=None)
    null_fitted = nuisance @ gamma_f
    n = x.shape[0]
    null_sigma2 = sigma2 + (fitted @ fitted - null_fitted @ null_fitted) / n
    return fitted, null_fitted, null_sigma2


def linmodel_growth(x, sigma2: float, gamma) -> float:
    """KL(N(X gamma, sigma2 I) || N(X_f gamma_f, sigma0^2 I)) at the same mean."""
    x, gamma = np.asarray(x, float), np.asarray(gamma, float)
    fitted, null_fitted, null_sigma2 = _linmodel_null_member(x, sigma2, gamma)
    n = x.shape[0]
    ratio = sigma2 / null_sigma2
    gap = fitted - null_fitted
    return float(0.5 * n * (ratio - 1.0 - math.log(ratio)) + gap @ gap / (2.0 * null_sigma2))


def linmodel_mc_se(x, sigma2: float, gamma, n_mc: int) -> float:
    x, gamma = np.asarray(x, float), np.asarray(gamma, float)
    fitted, null_fitted, null_sigma2 = _linmodel_null_member(x, sigma2, gamma)
    y = np.random.default_rng(3).normal(fitted, math.sqrt(sigma2), (20_000, fitted.size))
    llr = (stats.norm.logpdf(y, fitted, math.sqrt(sigma2)).sum(axis=1)
           - stats.norm.logpdf(y, null_fitted, math.sqrt(null_sigma2)).sum(axis=1))
    return float(llr.std() / math.sqrt(n_mc))


def negbinom_poisson_growth(successes: float, mu: float) -> float:
    """KL(Poisson(mu) || NegBin(successes, mean mu)) by a sum over 0..199 (tail < 1e-200)."""
    y = np.arange(0, 200)
    lq = stats.poisson.logpmf(y, mu)
    lp = stats.nbinom.logpmf(y, successes, successes / (successes + mu))
    return float(np.exp(lq) @ (lq - lp))


def negbinom_log_evalues(counts, successes: float, mu: float) -> np.ndarray:
    """log of Poisson(mu) pmf over the negative binomial pmf with mean mu."""
    p = successes / (successes + mu)
    return stats.poisson.logpmf(counts, mu) - stats.nbinom.logpmf(counts, successes, p)


def ksample_poisson_log_evalues(counts, means) -> np.ndarray:
    """Product-Poisson ratio at the alternative's own total mean."""
    means = np.asarray(means, dtype=float)
    return (stats.poisson.logpmf(counts, means)
            - stats.poisson.logpmf(counts, means.mean())).sum(axis=1)


def bernoulli_two_sample_growth(m1: float, m2: float) -> float:
    pbar = 0.5 * (m1 + m2)
    return _bern_kl(m1, pbar) + _bern_kl(m2, pbar)
