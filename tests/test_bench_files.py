"""The benchmark trajectory files at the repository root.

Each performance change records its before/after numbers in a
BENCH_<date>.json beside BENCHMARK.json.  Every such file must name each
workload of BENCHMARK.json and give, for each end-to-end metric, the
parent's and the change's value in that metric's unit.  Per-layer
values are optional; those given must use the units of BENCHMARK.json.
"""

import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _check_values(entry, unit: str, where: str) -> None:
    assert isinstance(entry, dict), f"{where}: not an object"
    assert entry.get("unit") == unit, f"{where}: unit {entry.get('unit')!r}, not {unit!r}"
    for side in ("parent", "change"):
        assert _is_number(entry.get(side)), f"{where}: no numeric {side} value"


def test_there_is_a_bench_file():
    assert BENCH_FILES, "no BENCH_*.json at the repository root"


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_covers_every_workload_and_end_to_end_metric(path):
    data = json.loads(path.read_text())
    workloads = data.get("workloads")
    assert isinstance(workloads, dict), "no workloads object"
    for workload in BENCHMARK["workloads"]:
        name = workload["name"]
        assert name in workloads, f"workload {name} missing"
        end_to_end = workloads[name].get("end_to_end", {})
        for metric in BENCHMARK["end_to_end"]:
            _check_values(
                end_to_end.get(metric["name"]),
                metric["unit"],
                f"{name}.{metric['name']}",
            )
        units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
        for metric, entry in workloads[name].get("per_layer", {}).items():
            assert metric in units, f"{name}: unknown per-layer metric {metric}"
            _check_values(entry, units[metric], f"{name}.{metric}")
