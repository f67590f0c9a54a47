"""The two-sample Beta plug-in e-process: its round factor, a plain replay, and path simulation."""

from __future__ import annotations

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from evfam.errors import DomainError
from evfam.sequential import LOG_FLOOR, simulate_two_sample


def _round_log_factor(m1: float, m2: float, x1: bool, x2: bool) -> float:
    """Log ratio of Bernoulli(m1) x Bernoulli(m2) to its same-mean null at one outcome.

    The null member shares the alternative's mean, so both of its arms use
    the average (m1 + m2) / 2.
    """
    m_bar = 0.5 * (m1 + m2)
    return ((math.log(m1 / m_bar) if x1 else math.log((1.0 - m1) / (1.0 - m_bar)))
            + (math.log(m2 / m_bar) if x2 else math.log((1.0 - m2) / (1.0 - m_bar))))


def _replay_path(u: np.ndarray, arm_means, prior, threshold: float):
    """One path of the plug-in process, one round at a time, from its (rounds, 2) uniforms.

    Returns the floored final log value, the first round at or above
    ``threshold`` (nan if none) and the lowest unfloored running sum.
    """
    a1, b1, a2, b2 = prior
    total, lowest, first = 0.0, 0.0, math.nan
    for t, (u1, u2) in enumerate(u, start=1):
        x1, x2 = bool(u1 < arm_means[0]), bool(u2 < arm_means[1])
        total += _round_log_factor(a1 / (a1 + b1), a2 / (a2 + b2), x1, x2)
        lowest = min(lowest, total)
        if math.isnan(first) and max(total, LOG_FLOOR) >= threshold:
            first = float(t)
        a1, b1, a2, b2 = a1 + x1, b1 + (not x1), a2 + x2, b2 + (not x2)
    return max(total, LOG_FLOOR), first, lowest


def _path_uniforms(seed: int, path: int, rounds: int) -> np.ndarray:
    """The outcome stream of one simulated path: Philox keyed by (seed, path)."""
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, path], dtype=np.uint64)))
    return gen.random((rounds, 2))


def test_round_factor_frozen_two_sample_value():
    # alternative (0.375, 0.625) against the shared-mean null at 0.5
    got = _round_log_factor(0.375, 0.625, False, True)
    assert got == pytest.approx(math.log(1.5625), abs=1e-14)
    assert math.exp(got) == pytest.approx(0.625 * 0.625 / 0.25, abs=1e-12)


def test_round_factor_has_unit_null_mean():
    for m1, m2 in ((0.3, 0.5), (0.9, 0.2), (0.375, 0.625)):
        m_bar = 0.5 * (m1 + m2)
        total = 0.0
        for x1 in (False, True):
            for x2 in (False, True):
                prob = (m_bar if x1 else 1 - m_bar) * (m_bar if x2 else 1 - m_bar)
                total += prob * math.exp(_round_log_factor(m1, m2, x1, x2))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_plugin_process_first_round_is_flat():
    # a symmetric prior plugs in 1/2 for both arms: the first factor is identically one
    for x1 in (False, True):
        for x2 in (False, True):
            assert _round_log_factor(0.5, 0.5, x1, x2) == 0.0
    for prior in ((1.0, 1.0, 1.0, 1.0), (3.0, 3.0, 0.5, 0.5)):
        res = simulate_two_sample((0.2, 0.9), rounds=1, n_paths=50, seed=2, prior=prior,
                                  tail_window=1)
        np.testing.assert_array_equal(res.final_log_values, 0.0)
    lopsided = simulate_two_sample((0.2, 0.9), rounds=1, n_paths=50, seed=2,
                                   prior=(3.0, 1.0, 0.5, 0.5), tail_window=1)
    assert np.all(lopsided.final_log_values != 0.0)


def test_plugin_process_matches_manual_product():
    res = simulate_two_sample((0.4, 0.55), rounds=30, n_paths=5, seed=0,
                              prior=(2.0, 1.0, 1.0, 3.0), tail_window=5)
    for path in range(5):
        manual = 0.0
        counts = [2.0, 1.0, 1.0, 3.0]
        for u1, u2 in _path_uniforms(0, path, 30):
            x1, x2 = int(u1 < 0.4), int(u2 < 0.55)
            m1 = counts[0] / (counts[0] + counts[1])
            m2 = counts[2] / (counts[2] + counts[3])
            manual += _round_log_factor(m1, m2, bool(x1), bool(x2))
            counts[0] += x1
            counts[1] += 1 - x1
            counts[2] += x2
            counts[3] += 1 - x2
        assert res.final_log_values[path] == pytest.approx(manual, abs=1e-10)


def test_crossing_threshold_uses_running_maximum():
    # a null path that crossed and fell back below the threshold still counts
    res = simulate_two_sample((0.5, 0.5), rounds=200, n_paths=200, seed=0, alpha=0.5,
                              tail_window=10)
    crossed = ~np.isnan(res.first_crossing)
    fell_back = crossed & (res.final_log_values < math.log(2.0))
    assert fell_back.any()
    assert res.ever_crossed_fraction == crossed.mean()


def test_simulation_is_deterministic_and_block_invariant():
    kwargs = dict(arm_means=(0.375, 0.625), rounds=60, n_paths=40, seed=3,
                  tail_window=20)
    r1 = simulate_two_sample(**kwargs)
    r2 = simulate_two_sample(**kwargs)
    assert np.array_equal(r1.final_log_values, r2.final_log_values)
    # one path per block, a ragged last block, exactly one block, a block past n_paths
    for block_size in (1, 7, 40, 500):
        r3 = simulate_two_sample(**kwargs, block_size=block_size)
        assert np.array_equal(r1.final_log_values, r3.final_log_values)
        np.testing.assert_array_equal(r1.first_crossing, r3.first_crossing)
    r4 = simulate_two_sample(arm_means=(0.375, 0.625), rounds=60, n_paths=40,
                             seed=4, tail_window=20)
    assert not np.array_equal(r1.final_log_values, r4.final_log_values)


# repr of (ever_crossed_fraction, mean_log_growth, tail_log_growth), then sha256 of the
# final_log_values and first_crossing bytes, as the per-path generator loop gave them
PINNED_RUNS = {
    "arms-0.375-0.625": (
        dict(arm_means=(0.375, 0.625), rounds=500, n_paths=4000, seed=21),
        "(1.0, 0.057601959152427995, 0.06222995802859268)",
        "a0d36578665bb34d65b9b26fe13de27f18b53a149025a3f1f52557e21519d25a",
        "74f6ec8f73a03a5b89487d53db405f6f2cd1bac5293bf7fe5a7443414d66e88d"),
    "null-0.5-0.5": (
        dict(arm_means=(0.5, 0.5), rounds=500, n_paths=4000, seed=21),
        "(0.0305, -0.004910945808680944, -0.001230304648596372)",
        "6affff42c042708b9be3b484a0c1e18fcde32dc61d31682855d63647c057f289",
        "950f0b2b4b0d0742c958c9862ef560a747393f4ba7715aa60fb6210646b22735"),
    "prior-alpha-window": (
        dict(arm_means=(0.2, 0.35), rounds=300, n_paths=700, seed=5, alpha=0.01,
             prior=(2.0, 0.5, 0.5, 3.0), tail_window=300),
        "(0.45571428571428574, 0.01221207134007876, 0.01221207134007876)",
        "91830e01a00f0fcdae22cc1bc3f30f49b477b0caff522d11a6e1a625404f910d",
        "8e09b5cc82510a0888ffadfe7ccfda3bf7e314e7e295f20b53b0c3eda054e152"),
}


@pytest.mark.parametrize("kwargs, scalars, final_sha, crossing_sha", PINNED_RUNS.values(),
                         ids=PINNED_RUNS.keys())
def test_simulation_keeps_its_bits(kwargs, scalars, final_sha, crossing_sha):
    res = simulate_two_sample(**kwargs)
    assert repr((res.ever_crossed_fraction, res.mean_log_growth, res.tail_log_growth)) == scalars
    assert hashlib.sha256(res.final_log_values.tobytes()).hexdigest() == final_sha
    assert hashlib.sha256(res.first_crossing.tobytes()).hexdigest() == crossing_sha


def test_simulation_memory_is_bounded_by_the_block():
    tracemalloc.start()
    try:
        simulate_two_sample(arm_means=(0.375, 0.625), rounds=500, n_paths=4000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a 500-path block of 500 rounds needs about 25 MB; 2000-path blocks needed 100 MB
    assert peak < 40e6


# (simulation settings, whether every path dips below LOG_FLOOR and comes back above it);
# the first two have paths that cross and paths that do not
REPLAYED_RUNS = [
    (dict(arm_means=(0.3, 0.7), rounds=60, n_paths=40, seed=11), False),
    (dict(arm_means=(0.2, 0.6), rounds=80, n_paths=30, seed=5, alpha=0.01,
          prior=(2.0, 0.5, 0.5, 3.0)), False),
    # a prior that bets against the arms drives every path far below the floor first
    (dict(arm_means=(0.01, 0.99), rounds=1500, n_paths=4, seed=7,
          prior=(600.0, 1.0, 1.0, 600.0)), True),
]


def test_simulation_agrees_with_the_scalar_process():
    for kwargs, floored in REPLAYED_RUNS:
        res = simulate_two_sample(**kwargs, tail_window=10)
        threshold = np.log(1.0 / kwargs.get("alpha", 0.05))
        replayed = np.array([
            _replay_path(_path_uniforms(kwargs["seed"], path, kwargs["rounds"]),
                         kwargs["arm_means"], kwargs.get("prior", (1.0, 1.0, 1.0, 1.0)),
                         threshold)
            for path in range(kwargs["n_paths"])])
        final, first, lowest = replayed.T
        np.testing.assert_allclose(res.final_log_values, final, rtol=0.0, atol=1e-10)
        np.testing.assert_array_equal(res.first_crossing, first)
        # the floor applies to the cumulative sum, not to each running value
        assert np.all((lowest < LOG_FLOOR) & (final > LOG_FLOOR)) == floored
        assert floored or 0.0 < np.isnan(first).mean() < 1.0


def test_simulation_null_crossing_is_rare():
    res = simulate_two_sample(arm_means=(0.5, 0.5), rounds=120, n_paths=600,
                              seed=0, tail_window=30)
    # anytime validity: crossing probability at most alpha, plus sampling slack
    assert res.ever_crossed_fraction <= 0.05 + 3.0 * math.sqrt(0.05 * 0.95 / 600)
    assert np.isnan(res.first_crossing).mean() == pytest.approx(
        1.0 - res.ever_crossed_fraction)


def test_simulation_alternative_grows_and_crosses():
    res = simulate_two_sample(arm_means=(0.2, 0.8), rounds=120, n_paths=200,
                              seed=0, tail_window=30)
    assert res.ever_crossed_fraction > 0.95
    assert res.mean_log_growth > 0.1
    finite = res.first_crossing[~np.isnan(res.first_crossing)]
    assert np.all((finite >= 1) & (finite <= 120))


def test_simulation_validates_arguments():
    with pytest.raises(DomainError):
        simulate_two_sample(arm_means=(0.0, 0.5), rounds=10, n_paths=2)
    with pytest.raises(DomainError):
        simulate_two_sample(arm_means=(0.4, 0.5), rounds=10, n_paths=2,
                            tail_window=11)
    # rounds 0 was blamed on the tail window: "tail window 100 must lie in 1..0, the rounds"
    with pytest.raises(DomainError, match=r"^rounds 0 must be at least 1$"):
        simulate_two_sample(arm_means=(0.4, 0.5), rounds=0, n_paths=2)


# a float seed was cast into the Philox key: 1.5 ran seed 1 and reported 1.5
@pytest.mark.parametrize("seed", [1.5, 2.0, "3", None])
def test_non_integer_seed_is_refused(seed):
    with pytest.raises(DomainError, match="seed .* must be an integer"):
        simulate_two_sample((0.3, 0.6), rounds=20, n_paths=5, seed=seed, tail_window=5)


def test_numpy_integer_seed_runs_that_seed():
    kwargs = dict(arm_means=(0.3, 0.6), rounds=20, n_paths=5, tail_window=5)
    res = simulate_two_sample(seed=np.int64(3), **kwargs)
    assert res.seed == 3 and type(res.seed) is int
    np.testing.assert_array_equal(res.final_log_values,
                                  simulate_two_sample(seed=3, **kwargs).final_log_values)
