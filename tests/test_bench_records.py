"""The layout of the committed benchmark records: every BENCH_*.json at the
root holds an about, a claim and its runs, each run carries the meta and
result lines of one perfbench/run.py run with its seed, side and workload,
the two sides have equal run counts per workload, every result reports
exactly the end-to-end metrics of BENCHMARK.json, and the claim names one
of the record's workloads and one of those metrics."""

import json
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {metric["name"] for metric in BENCHMARK["end_to_end"]}
WORKLOADS = {workload["name"] for workload in BENCHMARK["workloads"]}


def test_records_are_found():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_record_layout(path):
    record = json.loads(path.read_text())
    assert record.keys() == {"about", "claim", "runs"}
    runs = record["runs"]
    for run in runs:
        assert run.keys() == {"meta", "result", "seed", "side", "workload"}
        assert run["workload"] in WORKLOADS
        assert run["result"]["metrics"].keys() == END_TO_END
    counts = Counter((run["workload"], run["side"]) for run in runs)
    sides = {side for _, side in counts}
    workloads = {workload for workload, _ in counts}
    assert len(sides) == 2
    for workload in workloads:
        assert len({counts[workload, side] for side in sides}) == 1, workload
    words = set(record["claim"].split())
    assert words & workloads and words & END_TO_END, record["claim"]
