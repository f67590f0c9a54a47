"""What the benchmark harness in perfbench/ uses of evfam still exists and works.

perfbench/ is imported as it is, never edited: an API change that breaks the
harness's spans or its generic-route pairings fails here first.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

from evfam.conditions import GridSpec, run_condition_battery

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
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
