"""Smoke test of the layered benchmark, collected by the root ``pytest`` run.

Every workload runs in-process on inputs small enough for the whole file to
stay within a few seconds; the names it checks are those of
``BENCHMARK.json``, so the file, ``run.py`` and the workers cannot drift
apart unnoticed.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace
from pathlib import Path

import pytest

import layers
import run
import worker
from workloads import WORKLOADS

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())

#: (document size, registrations) per workload, in place of the full sizes.
SMALL = {
    "solo_bib": (12, 6),
    "fleet_bib6": (12, 6),
    "fleet_alias10k": (0.05, 120),
    "join_xmark": (0.2, 1),
}


def small(name: str):
    """The workload on small inputs; coverage is a property of the full sizes."""
    size, registrations = SMALL[name]
    return replace(WORKLOADS[name], size=size, registrations=registrations, min_coverage=0.0)


def test_benchmark_json_names_the_workloads_run_py_knows():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["paths"] == ["benchmarks/layered"]
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in SPEC["end_to_end"])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_end_to_end_metrics(name):
    first = worker.measure(small(name), seed=7, seconds=0, max_ops=2)
    second = worker.measure(small(name), seed=7, seconds=0, max_ops=2)
    expected = {m["name"] for m in SPEC["end_to_end"]} | {"failed_share"}
    assert set(first["metrics"]) == expected
    assert all(math.isfinite(value) and value >= 0 for value in first["metrics"].values())
    assert first["attempted"] == 2 and first["failed"] == 0
    assert first["metrics"]["failed_share"] == 0
    assert first["metrics"]["peak_buffer_bytes"] == second["metrics"]["peak_buffer_bytes"] > 0

    first["correct"] = True
    line = json.loads(run.driver_line(first, SPEC["end_to_end"]))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    for metric in SPEC["end_to_end"]:
        assert line["metrics"][metric["name"]]["unit"] == metric["unit"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_per_layer_metrics(name, tmp_path):
    report = layers.trace(small(name), seed=7, seconds=0, max_ops=1, out_dir=tmp_path)
    assert set(report["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert all(math.isfinite(value) for value in report["metrics"].values())
    assert report["failed"] == 0 and report["problems"] == []
    assert report["slowest_layer"] in report["self_shares"]
    spans = json.loads(Path(report["trace_file"]).read_text())["spans"]
    assert {"name", "start", "end", "parent", "op_id"} <= set(spans[0])
    if not WORKLOADS[name].solo:
        assert report["metrics"]["session.results"] == SMALL[name][1]
        assert report["metrics"]["route.busy_s"] > 0
