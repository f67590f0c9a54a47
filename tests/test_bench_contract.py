"""What the benchmark harness in perfbench/ uses of evfam still exists and works.

perfbench/ is imported as it is, never edited: an API change that breaks the
harness's spans or its generic-route pairings fails here first.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

from evfam import errors, tilt
from evfam.conditions import GridSpec, growth_rate, run_condition_battery
from evfam.linear_model import LinearModelDesign, linmodel_pairing

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import inputs  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _attr(module: str, *names: str):
    obj = importlib.import_module(module)
    for name in names:
        obj = getattr(obj, name)
    return obj


@pytest.mark.parametrize("target", [
    *spans.TRACED.values(), *spans.CLASS_TRACED.values(), *spans.PAIRING_BUILDERS,
], ids=lambda target: ".".join(target))
def test_every_traced_name_is_a_callable(target):
    assert callable(_attr(*target))


@pytest.mark.parametrize("build, expected", [
    (workloads._log_mgf_pairing, "simple-evariable-certified"),
    (lambda: workloads._monte_carlo_pairing(7), "inconclusive-stochastic"),
], ids=["log-mgf", "monte-carlo"])
def test_generic_route_pairings_run_the_battery(build, expected):
    report = run_condition_battery(build(), spec=GridSpec(points_per_axis=8, n_pairs=16))
    assert report.overall == expected


def test_monte_carlo_battery_makes_one_weight_pass_per_distinct_root_row(monkeypatch, tmp_path):
    (op,) = [op for op in workloads.generic_ops(inputs.make_inputs("generic-check", 1, tmp_path))
             if op.label == "gaussian-scale-monte-carlo"]
    requested, passes = set(), []
    cached_rows, row_logsumexp = tilt._cached_rows, tilt._row_logsumexp

    def requesting(cache, rows, solve):
        requested.update(row.tobytes() for row in rows.reshape(-1, rows.shape[-1]))
        return cached_rows(cache, rows, solve)

    monkeypatch.setattr(tilt, "_cached_rows", requesting)
    monkeypatch.setattr(tilt, "_row_logsumexp", lambda w: passes.append(len(w)) or row_logsumexp(w))
    assert op.check(op.run(0)) is None
    assert sum(passes) == len(requested)


def test_every_growth_op_returns_a_float_that_passes_its_check(tmp_path):
    # the harness subtracts the reference from each value, so a growth rate must
    # be a Python float; the one typed error expected is abm r = 2's missing density
    ops = workloads.growth_ops(inputs.make_inputs("data-path", 21, tmp_path))
    failures = {}
    for op in ops:
        try:
            output = op.run(0)
        except Exception as exc:  # the harness hands a raised error to the op's check
            output = exc
        if type(output) is not float and not isinstance(output, errors.EvfamError):
            failures[op.label] = f"returned {type(output).__name__}"
        elif (reason := op.check(output)) is not None:
            failures[op.label] = reason
    assert failures == {}


def test_every_evalue_and_sequential_op_passes_its_check(tmp_path):
    # the harness reads the evalue CSV back and judges the simulation's growth
    ops = [op for op in workloads.data_path_ops(inputs.make_inputs("data-path", 21, tmp_path),
                                                tmp_path)
           if op.kind in ("evalue", "sequential")]
    assert [op.kind for op in ops] == ["evalue", "evalue", "sequential", "sequential"]
    failures = {op.label: reason for op in ops if (reason := op.check(op.run(0))) is not None}
    assert failures == {}


def test_linmodel_growth_is_the_reference_closed_form(tmp_path):
    lm = inputs.make_inputs("data-path", 21, tmp_path)["linmodel"]
    pairing = linmodel_pairing(LinearModelDesign(lm["design"]), lm["sigma2"], lm["gamma"])
    got = growth_rate(pairing.tilted, pairing.null, pairing.tilted.mu_star)
    want = workloads.ref().linmodel_growth(lm["design"], lm["sigma2"], lm["gamma"])
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)
