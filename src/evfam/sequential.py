"""Anytime-valid sequential testing built on per-round density ratios.

An e-process multiplies one nonnegative unit-mean factor per round, so its
running product can be compared against 1/alpha at any data-dependent
stopping time without inflating the type-I error.  The two-sample
Bernoulli process here picks its per-round alternative by plugging in
posterior means from earlier rounds only, which keeps every factor a valid
e-value for the equal-means null.  Each arm keeps Beta(a, b) counts; round
t's factor is the ratio of the product Bernoulli(m1) x Bernoulli(m2) at the
two posterior means to its same-mean null member, Bernoulli((m1 + m2) / 2)
in both arms.  The running log value is the cumulative sum of the log
factors, floored at ``LOG_FLOOR`` so that it stays finite.

:func:`simulate_two_sample` is the one implementation.  It draws each
path's outcomes from its own Philox stream and evaluates paths in blocks of
whole arrays, so its memory grows with the block size, not with the number
of paths.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np
from scipy.special import xlogy

from .errors import DomainError

__all__ = [
    "SimulationResult",
    "simulate_two_sample",
]

LOG_FLOOR = -745.0


@dataclass(frozen=True)
class SimulationResult:
    """Aggregates over simulated e-process paths."""

    ever_crossed_fraction: float
    first_crossing: np.ndarray
    final_log_values: np.ndarray
    mean_log_growth: float
    tail_log_growth: float
    tail_window: int
    rounds: int
    n_paths: int
    alpha: float
    arm_means: tuple[float, float]
    seed: int


def _fill_uniforms(out: np.ndarray, first_path: int, seed: int) -> None:
    """Fill ``out[i]`` with the (rounds, 2) uniforms of path ``first_path + i``.

    One Philox generator is re-keyed to ``(seed, path)`` through its public
    ``state`` setter for each path, which gives the same stream as a fresh
    ``Philox(key=(seed, path))`` without building a generator per path.
    """
    gen = np.random.Generator(np.random.Philox(key=np.zeros(2, dtype=np.uint64)))
    state = gen.bit_generator.state  # a fresh stream: counter 0, empty buffer
    key = state["state"]["key"]
    for row in range(out.shape[0]):
        key[:] = (seed, first_path + row)
        gen.bit_generator.state = state
        gen.random(out=out[row])


def simulate_two_sample(arm_means, rounds: int = 500, n_paths: int = 1000,
                        alpha: float = 0.05, seed: int = 0,
                        prior=(1.0, 1.0, 1.0, 1.0), tail_window: int = 100,
                        block_size: int = 500) -> SimulationResult:
    """Simulate the Beta plug-in e-process over independent outcome paths.

    Each path draws from its own counter-based stream keyed by (seed, path
    index), so results are reproducible regardless of blocking.  The tail
    growth rate averages the per-round log increments over the final
    ``tail_window`` rounds, after the plug-in means have settled.

    ``block_size`` bounds the number of paths held in memory at once.  A
    block holds its uniforms and a few float64 arrays of shape ``(2,
    block_size, rounds)``, about 100 bytes per path and round at the peak:
    25 MB for the default 500 paths of 500 rounds.  The results do not
    depend on it.
    """
    m1, m2 = (float(v) for v in arm_means)
    if not (0.0 < m1 < 1.0 and 0.0 < m2 < 1.0):
        raise DomainError(f"arm means {(m1, m2)!r} must lie strictly inside (0, 1)")
    if rounds < 1:
        raise DomainError(f"rounds {rounds!r} must be at least 1")
    if tail_window <= 0 or tail_window > rounds:
        raise DomainError(f"tail window {tail_window!r} must lie in 1..{rounds}, the rounds")
    try:
        seed = operator.index(seed)
    except TypeError:
        raise DomainError(f"seed {seed!r} must be an integer") from None
    if not 0 <= seed < 2 ** 64:
        raise DomainError(f"seed {seed} must lie in 0..2**64-1, the range of a Philox key word")
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha {alpha!r} must lie strictly inside (0, 1)")
    if n_paths < 1:
        raise DomainError(f"n_paths {n_paths!r} must be at least 1")
    a1, b1, a2, b2 = (float(v) for v in prior)
    if not all(0.0 < v < np.inf for v in (a1, b1, a2, b2)):
        raise DomainError(f"Beta prior {(a1, b1, a2, b2)!r} must be four finite values > 0")
    threshold = np.log(1.0 / alpha)
    # one row per arm of the (2, paths, rounds) block: a, and a + b + t in round t
    wins_prior = np.array([a1, a2])[:, None, None]
    totals = (np.array([a1 + b1, a2 + b2])[:, None] + np.arange(rounds, dtype=float))[:, None, :]

    crossed = np.zeros(n_paths, dtype=bool)
    first_crossing = np.full(n_paths, np.nan)
    final_log = np.empty(n_paths)
    tail_sums = np.empty(n_paths)
    uniforms = np.empty((min(block_size, n_paths), rounds, 2))

    for start in range(0, n_paths, block_size):
        stop = min(start + block_size, n_paths)
        u = uniforms[:stop - start]
        _fill_uniforms(u, start, seed)
        x = np.stack([u[..., 0] < m1, u[..., 1] < m2])
        # successes before round t: the running count minus round t's own outcome
        p = (wins_prior + (np.cumsum(x, axis=2, dtype=np.int32) - x)) / totals
        p_bar = 0.5 * (p[0] + p[1])
        # only the observed outcome's ratio enters an arm's log factor; xlogy(1, r) is
        # libm's log, where np.log's SIMD loop can differ in the last bit
        log_ratio = np.where(x, p, 1.0 - p)
        log_ratio /= np.where(x, p_bar, 1.0 - p_bar)
        xlogy(1.0, log_ratio, out=log_ratio)
        log_path = np.maximum(np.cumsum(log_ratio[0] + log_ratio[1], axis=1), LOG_FLOOR)
        over = log_path >= threshold
        block_crossed = over.any(axis=1)
        crossed[start:stop] = block_crossed
        hits = np.argmax(over, axis=1) + 1.0
        first_crossing[start:stop] = np.where(block_crossed, hits, np.nan)
        final_log[start:stop] = log_path[:, -1]
        before_tail = log_path[:, rounds - tail_window - 1] if tail_window < rounds else 0.0
        tail_sums[start:stop] = log_path[:, -1] - before_tail

    return SimulationResult(
        ever_crossed_fraction=float(crossed.mean()),
        first_crossing=first_crossing,
        final_log_values=final_log,
        mean_log_growth=float(final_log.mean() / rounds),
        tail_log_growth=float(tail_sums.mean() / tail_window),
        tail_window=tail_window,
        rounds=rounds,
        n_paths=n_paths,
        alpha=alpha,
        arm_means=(m1, m2),
        seed=seed,
    )
