"""What the benchmark harness in perfbench/ uses of evfam still exists and works.

perfbench/ is imported as it is, never edited: an API change that breaks the
harness's spans or its generic-route pairings fails here first.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter
from pathlib import Path

import pytest

from evfam import errors, linear_model, tilt
from evfam.conditions import GridSpec, growth_rate, run_condition_battery
from evfam.domains import DomainDescriptor
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


def _count_calls(monkeypatch, counts: Counter, module: str, attr: str) -> None:
    """Count the calls to ``module.attr`` through every evfam module that binds it by name."""
    original = getattr(importlib.import_module(module), attr)

    def counted(*args, **kwargs):
        counts[attr] += 1
        return original(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.partition(".")[0] == "evfam":
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, counted)


# The work of one in-process catalog check.  The battery checks its grid and
# pairs once, and its stages call the families' kernels, so no _require_mean
# runs; at the parent of this change the four read 26 / 12 / 3, 23 / 12 with 20
# params_from_mean calls, 22 / 12 and 22 / 12.  The Bernoulli root solves its
# grid, then both ends of every pair in one call; linmodel solves its members
# once per stage that reads them; its predicate domain draws and checks its
# fourfold mean pairs once.
@pytest.mark.parametrize("label, contains, require_mean, bernoulli_gamma, params_from_mean", [
    ("ksample-bernoulli", 14, 0, 2, 0),
    ("linmodel", 10, 0, 0, 14),
    ("negbinom-vs-poisson", 10, 0, 0, 0),
    ("gaussian-location", 10, 0, 0, 0),
])
def test_one_catalog_check_makes_the_counted_calls(monkeypatch, tmp_path, label, contains,
                                                   require_mean, bernoulli_gamma, params_from_mean):
    (op,) = [op for op in workloads.catalog_ops(inputs.make_inputs("catalog-check", 1, tmp_path))
             if op.label == label]
    counts: Counter = Counter()
    for module, attr in (("evfam.families", "_require_mean"), ("evfam.models", "_bernoulli_gamma"),
                         ("evfam.linear_model", "params_from_mean")):
        _count_calls(monkeypatch, counts, module, attr)
    contains_calls = DomainDescriptor.contains
    monkeypatch.setattr(DomainDescriptor, "contains",
                        lambda self, x: counts.update(["contains"]) or contains_calls(self, x))
    assert op.check(op.run(0)) is None
    assert [counts[key] for key in ("contains", "_require_mean", "_bernoulli_gamma", "params_from_mean")] \
        == [contains, require_mean, bernoulli_gamma, params_from_mean]


def test_linmodel_solves_the_tested_columns_nuisance_fit_once(monkeypatch, tmp_path):
    # G_ff^-1 g_f0 belongs to the design: the null and alternative families share
    # one solve, where each params_from_mean call used to make its own
    lm = inputs.make_inputs("catalog-check", 1, tmp_path)["linmodel"]
    design = LinearModelDesign(lm["design"])
    g_f0 = design.nuisance.T @ design.x[:, 0]
    solve_ff, solves = linear_model._solve_ff, []

    def recording(design, rhs):
        solves.append(bool(rhs.shape == g_f0.shape and (rhs == g_f0).all()))
        return solve_ff(design, rhs)

    monkeypatch.setattr(linear_model, "_solve_ff", recording)
    pairing = linmodel_pairing(design, lm["sigma2"], lm["gamma"])
    report = run_condition_battery(pairing, spec=GridSpec(points_per_axis=4, n_pairs=16))
    assert report.overall == "simple-evariable-certified"
    assert solves.count(True) == 1 and len(solves) > 10
