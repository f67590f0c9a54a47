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
``BLOCK_PATHS``, in place on buffers allocated once per call, so its memory
does not grow with the number of paths.  A prior that rounds a reachable
posterior mean to 0 or 1 is refused.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "SimulationResult",
    "simulate_two_sample",
]

LOG_FLOOR = -745.0
BLOCK_PATHS = 128


@dataclass(frozen=True)
class SimulationResult:
    """Aggregates over simulated e-process paths."""

    ever_crossed_fraction: float
    first_crossing: np.ndarray
    final_log_values: np.ndarray
    mean_log_growth: float
    tail_log_growth: float


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
                        prior=(1.0, 1.0, 1.0, 1.0), tail_window: int = 100) -> SimulationResult:
    """Simulate the Beta plug-in e-process over independent outcome paths.

    Each path draws from its own counter-based stream keyed by (seed, path
    index), so results are reproducible regardless of blocking.  The tail
    growth rate averages the per-round log increments over the final
    ``tail_window`` rounds, after the plug-in means have settled.

    Paths run in blocks of ``BLOCK_PATHS``, which bounds the number held in
    memory at once.  The call allocates its buffers once: the uniforms and
    three float64 arrays of shape ``(2, BLOCK_PATHS, rounds)`` and one of
    ``(BLOCK_PATHS, rounds)``, 72 bytes per path and round, 4.6 MB for 500
    rounds.  The results do not depend on the block size.

    A prior is refused with a :class:`DomainError` when a posterior mean
    the run can reach, ``(a + k) / (a + b + t)`` for ``k <= t < rounds``,
    rounds to 0 or 1 in float64, where a factor would be 0/0 or infinite.
    """
    arm_means, prior = tuple(arm_means), tuple(prior)
    if len(arm_means) != 2:
        raise DomainError("sequential simulation needs exactly two arm means")
    if len(prior) != 4:
        raise DomainError("prior must have four values: a1,b1,a2,b2")
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
    from scipy.special import xlogy
    threshold = np.log(1.0 / alpha)
    # one row per arm of the (2, paths, rounds) block: a, and a + b + t in round t
    steps = np.arange(rounds, dtype=float)
    wins_prior = np.array([a1, a2])[:, None, None]
    totals = (np.array([a1 + b1, a2 + b2])[:, None] + steps)[:, None, :]
    # round t's posterior means at 0 and at t successes bound those at every other count
    if not (np.min(wins_prior / totals) > 0.0 and np.max((wins_prior + steps) / totals) < 1.0):
        raise DomainError(f"Beta prior {(a1, b1, a2, b2)!r} takes a posterior mean to 0 or 1 "
                          f"within {rounds} rounds in float64")

    crossed = np.zeros(n_paths, dtype=bool)
    first_crossing = np.full(n_paths, np.nan)
    final_log = np.empty(n_paths)
    tail_sums = np.empty(n_paths)
    block_size = min(BLOCK_PATHS, n_paths)
    uniforms = np.empty((block_size, rounds, 2))
    # every step runs in place on these: outcomes x, posterior means p and a scratch s
    buffers = np.empty((3, 2, block_size, rounds))
    log_buffer = np.empty((block_size, rounds))
    means = np.array([m1, m2])[:, None, None]

    for start in range(0, n_paths, block_size):
        stop = min(start + block_size, n_paths)
        u = uniforms[:stop - start]
        (x, p, s), log_path = buffers[:, :, :stop - start], log_buffer[:stop - start]
        _fill_uniforms(u, start, seed)
        np.less(np.moveaxis(u, 2, 0), means, out=x)
        # successes before round t, exact in float64: the running count minus round t's outcome
        np.cumsum(x, axis=2, out=p)
        p -= x
        p += wins_prior
        p /= totals
        p_bar = np.add(p[0], p[1], out=log_path)
        p_bar *= 0.5
        # only the observed outcome's ratio enters an arm's log factor: with s = 2x - 1, the
        # branch-free (1 - x) + s v is v where x = 1 and 1 - v where x = 0, bit for bit
        np.multiply(x, 2.0, out=s)
        s -= 1.0
        not_x = np.subtract(1.0, x, out=x)
        p *= s
        p += not_x
        s *= p_bar
        s += not_x
        p /= s
        # xlogy(1, r) is libm's log, where np.log's SIMD loop can differ in the last bit
        xlogy(1.0, p, out=p)
        np.add(p[0], p[1], out=log_path)
        np.cumsum(log_path, axis=1, out=log_path)
        np.maximum(log_path, LOG_FLOOR, out=log_path)
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
    )
