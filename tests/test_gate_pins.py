"""The gate's suite reports, byte for byte.

`benchmarks/gate_pins.json` maps each gate run, labelled by its suite and
its non-default options (`kappa m=4`, `backend-oracle q=3 quiver=a1`), to
the sha256 of its report without `timestamp` and `elapsed_ms`, dumped as
JSON with sorted keys.  A change that keeps every verdict but moves one
rendered side, count or parameter changes a digest.
"""

import hashlib
import json
from pathlib import Path

import pytest

from hallforge.suites import RunConfig, run_suite

PINS = json.loads((Path(__file__).resolve().parent.parent / "benchmarks"
                   / "gate_pins.json").read_text())


def _config(label):
    suite, *options = label.split()
    kw = {}
    for option in options:
        key, value = option.split("=")
        kw[key] = value if key == "quiver" else int(value)
    return RunConfig(suite=suite, **kw)


def test_every_gate_run_is_pinned():
    assert len(PINS) == 15


@pytest.mark.parametrize("label", sorted(PINS))
def test_gate_report_matches_its_pin(label):
    report = run_suite(_config(label))
    body = {k: v for k, v in report.items()
            if k not in ("timestamp", "elapsed_ms")}
    digest = hashlib.sha256(
        json.dumps(body, sort_keys=True).encode()).hexdigest()
    assert digest == PINS[label]
