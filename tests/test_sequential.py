"""E-process bookkeeping, the Beta plug-in process, and path simulation."""

from __future__ import annotations

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from evfam.errors import DataError, DomainError
from evfam.sequential import (
    BetaPluginEProcess,
    EProcessState,
    eprocess_update,
    mixture_log_evalue,
    round_log_evalue,
    simulate_two_sample,
)


def test_round_factor_frozen_two_sample_value():
    # alternative (0.375, 0.625) against the shared-mean null at 0.5
    got = round_log_evalue(0.375, 0.625, 0, 1)
    assert got == pytest.approx(math.log(1.5625), abs=1e-14)
    assert math.exp(got) == pytest.approx(0.625 * 0.625 / 0.25, abs=1e-12)


def test_round_factor_has_unit_null_mean():
    for m1, m2 in ((0.3, 0.5), (0.9, 0.2), (0.375, 0.625)):
        m_bar = 0.5 * (m1 + m2)
        total = 0.0
        for x1 in (0, 1):
            for x2 in (0, 1):
                prob = (m_bar if x1 else 1 - m_bar) * (m_bar if x2 else 1 - m_bar)
                total += prob * math.exp(round_log_evalue(m1, m2, x1, x2))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_round_factor_validates_means():
    with pytest.raises(DataError):
        round_log_evalue(0.0, 0.5, 0, 1)
    with pytest.raises(DataError):
        round_log_evalue(0.5, 1.2, 0, 1)


def test_state_update_tracks_maximum():
    state = EProcessState()
    state = eprocess_update(state, 0.4)
    state = eprocess_update(state, -1.0)
    assert state.rounds == 2
    assert state.log_value == pytest.approx(-0.6)
    assert state.max_log_value == pytest.approx(0.4)
    floored = eprocess_update(EProcessState(), -1e6)
    assert floored.log_value == -745.0


def test_mixture_is_average_on_the_log_scale():
    got = mixture_log_evalue([math.log(4.0), math.log(1.0)])
    assert got == pytest.approx(math.log(2.5), abs=1e-12)
    with pytest.raises(DataError):
        mixture_log_evalue([])


def test_plugin_process_first_round_is_flat():
    proc = BetaPluginEProcess()
    assert proc.plugin_means() == (0.5, 0.5)
    log_factor = proc.update(1, 0)
    # symmetric prior: the first factor is identically one
    assert log_factor == pytest.approx(0.0, abs=1e-14)
    assert proc.plugin_means() == (2.0 / 3.0, 1.0 / 3.0)


def test_plugin_process_matches_manual_product():
    rng = np.random.default_rng(0)
    xs = rng.integers(0, 2, size=(30, 2))
    proc = BetaPluginEProcess(prior=(2.0, 1.0, 1.0, 3.0))
    manual = 0.0
    counts = [2.0, 1.0, 1.0, 3.0]
    for x1, x2 in xs:
        m1 = counts[0] / (counts[0] + counts[1])
        m2 = counts[2] / (counts[2] + counts[3])
        manual += round_log_evalue(m1, m2, int(x1), int(x2))
        counts[0] += x1
        counts[1] += 1 - x1
        counts[2] += x2
        counts[3] += 1 - x2
        proc.update(int(x1), int(x2))
    assert proc.log_value == pytest.approx(manual, abs=1e-10)
    assert proc.state.rounds == 30


def test_plugin_process_validates_inputs():
    with pytest.raises(DataError):
        BetaPluginEProcess(prior=(0.0, 1.0, 1.0, 1.0))
    with pytest.raises(DataError):
        BetaPluginEProcess(alpha=1.5)
    proc = BetaPluginEProcess()
    with pytest.raises(DataError):
        proc.update(2, 0)


def test_crossing_threshold_uses_running_maximum():
    proc = BetaPluginEProcess(alpha=0.5)
    proc.state = eprocess_update(proc.state, math.log(3.0))
    assert proc.crossed
    proc.state = eprocess_update(proc.state, math.log(0.01))
    assert proc.crossed


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


def test_simulation_agrees_with_the_scalar_process():
    res = simulate_two_sample(arm_means=(0.3, 0.7), rounds=25, n_paths=3, seed=11,
                              tail_window=5)
    # replay path 2 through the scalar class using the same outcome stream
    rng = np.random.Generator(np.random.Philox(key=np.array([11, 2], dtype=np.uint64)))
    u = rng.random((25, 2))
    proc = BetaPluginEProcess()
    for t in range(25):
        proc.update(int(u[t, 0] < 0.3), int(u[t, 1] < 0.7))
    assert res.final_log_values[2] == pytest.approx(proc.log_value, abs=1e-10)


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
