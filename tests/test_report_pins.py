"""Battery reports pinned byte for byte.

tests/report_pins.json holds, as recorded before the orderings shared one
verdict constructor and one covariance-ordering rule, the ``evfam check``
JSON of every catalog case in perfbench/workloads.py (pair seed of input
seed 1) and ``to_dict()`` of its three generic batteries.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import inputs  # noqa: E402
import workloads  # noqa: E402

PINS = json.loads(Path(__file__).with_name("report_pins.json").read_text())


def _op(make_ops, workload: str, label: str, tmp_path):
    (op,) = [op for op in make_ops(inputs.make_inputs(workload, 1, tmp_path)) if op.label == label]
    return op


def test_every_catalog_case_and_battery_is_pinned(tmp_path):
    assert sorted(op.label for op in workloads.catalog_ops(inputs.make_inputs(
        "catalog-check", 1, tmp_path / "c"))) == sorted(PINS["check"])
    assert sorted(op.label for op in workloads.generic_ops(inputs.make_inputs(
        "generic-check", 1, tmp_path / "g"))) == sorted(PINS["battery"])


@pytest.mark.parametrize("label", sorted(PINS["check"]))
def test_check_json_keeps_its_pinned_bytes(tmp_path, label):
    _code, stdout, _err = _op(workloads.catalog_ops, "catalog-check", label, tmp_path).run(0)
    assert stdout == PINS["check"][label]


@pytest.mark.parametrize("label", sorted(PINS["battery"]))
def test_battery_report_keeps_its_pinned_bytes(tmp_path, label):
    report = _op(workloads.generic_ops, "generic-check", label, tmp_path).run(0)
    assert json.dumps(report.to_dict()) == PINS["battery"][label]
