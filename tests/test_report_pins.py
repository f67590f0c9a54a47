"""Battery reports pinned byte for byte.

tests/report_pins.json holds the ``evfam check`` JSON of every catalog case
in perfbench/workloads.py (pair seed of input seed 1) and ``to_dict()`` of
its three generic batteries.  It was re-recorded at ``report_version`` 3,
which dropped the fields that restated another one (each item's ``note``
and ``stochastic``, the report's ``stochastic`` and ``tolerances``, and the
``mean_domain_convex`` precondition); every other byte is as recorded
before the orderings shared one verdict constructor and one
covariance-ordering rule.

``PYTHONPATH=src python tests/test_report_pins.py`` rewrites the file from
the current code, for a change that moves the report on purpose.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import inputs  # noqa: E402
import workloads  # noqa: E402

PINS_PATH = Path(__file__).with_name("report_pins.json")
PINS = json.loads(PINS_PATH.read_text())


def _ops(make_ops, workload: str, tmp_path) -> dict:
    """The workload's ops by label; each label must name one op, or its pin is ambiguous."""
    ops = make_ops(inputs.make_inputs(workload, 1, tmp_path))
    by_label = {op.label: op for op in ops}
    assert len(by_label) == len(ops), sorted(op.label for op in ops)
    return by_label


def _check_bytes(op) -> str:
    _code, stdout, _err = op.run(0)
    return stdout


def _battery_bytes(op) -> str:
    return json.dumps(op.run(0).to_dict())


def test_every_catalog_case_and_battery_is_pinned(tmp_path):
    assert sorted(_ops(workloads.catalog_ops, "catalog-check", tmp_path / "c")) == sorted(PINS["check"])
    assert sorted(_ops(workloads.generic_ops, "generic-check", tmp_path / "g")) == sorted(PINS["battery"])


@pytest.mark.parametrize("label", sorted(PINS["check"]))
def test_check_json_keeps_its_pinned_bytes(tmp_path, label):
    op = _ops(workloads.catalog_ops, "catalog-check", tmp_path)[label]
    assert _check_bytes(op) == PINS["check"][label]


@pytest.mark.parametrize("label", sorted(PINS["battery"]))
def test_battery_report_keeps_its_pinned_bytes(tmp_path, label):
    op = _ops(workloads.generic_ops, "generic-check", tmp_path)[label]
    assert _battery_bytes(op) == PINS["battery"][label]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        checks = _ops(workloads.catalog_ops, "catalog-check", Path(tmp) / "c")
        batteries = _ops(workloads.generic_ops, "generic-check", Path(tmp) / "g")
        pins = {"check": {label: _check_bytes(checks[label]) for label in sorted(checks)},
                "battery": {label: _battery_bytes(batteries[label]) for label in sorted(batteries)}}
    PINS_PATH.write_text(json.dumps(pins, indent=1) + "\n")
    print(f"wrote {len(pins['check'])} check and {len(pins['battery'])} battery pins to {PINS_PATH}")
