"""`reproduce-paper` must write the frozen module reports.

The frozen copies live in perfbench/frozen/ and are only read here.  They
omit the wall-clock keys and carry a placeholder for the seed of the
randomized autocorrelation trials, so the fresh reports are compared in
that form.
"""

import json
from pathlib import Path

import pytest

from z2schur import cli

FROZEN = Path(__file__).resolve().parent.parent / "perfbench" / "frozen"
TIMING_KEYS = {"runtime_ms", "seconds", "order16_seconds"}
SEED = 7


def without_timings(obj):
    if isinstance(obj, dict):
        return {k: without_timings(v) for k, v in obj.items() if k not in TIMING_KEYS}
    if isinstance(obj, list):
        return [without_timings(v) for v in obj]
    return obj


def comparable(report: dict) -> dict:
    report = without_timings(report)
    for row in report["criteria"]:
        for trial in row["details"].get("randomized", ()):
            assert trial["seed"] == SEED
            trial["seed"] = "SEED"
    return report


@pytest.mark.parametrize("max_n, code, summary", [
    (16, 1, "10/12 criteria passed"),  # criteria 3 and 6 refute their claims
    (4, 0, "12/12 criteria passed"),
])
def test_reports_equal_the_frozen_copies(tmp_path, capsys, max_n, code, summary):
    argv = ["reproduce-paper", "--max-n", str(max_n), "--seed", str(SEED),
            "--out", str(tmp_path)]
    assert cli.main(argv) == code
    assert summary in capsys.readouterr().out.splitlines()
    frozen = json.loads((FROZEN / f"suite-max{max_n}.json").read_text())
    written = {p.stem: comparable(json.loads(p.read_text()))
               for p in tmp_path.glob("*.json")}
    assert sorted(written) == sorted(frozen)
    for module, report in frozen.items():
        assert written[module] == report, module
