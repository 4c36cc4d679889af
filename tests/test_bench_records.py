"""The benchmark records ``BENCH_<workload>.json`` at the repository root.

Each file holds, for one workload of ``BENCHMARK.json``, one entry per
PR that measured it with ``perfbench/run.py``: the parent and change
commits (null where unknown), the claimed metric (null for none), the
run length, the seeds and, per end-to-end metric, the median of the
parent's runs and of the change's runs.  ``BENCHMARK.json`` is read,
never written.
"""

import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
METRICS = {m["name"]: m for m in BENCHMARK["end_to_end"]}
RECORDS = sorted(ROOT.glob("BENCH_*.json"))

ENTRY_KEYS = {"pr", "parent", "change", "claim", "seconds", "seeds", "medians"}
OPTIONAL_KEYS = {"pairs", "wins", "note"}


def _number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def test_every_workload_has_a_record():
    assert [p.name for p in RECORDS] == [f"BENCH_{w}.json" for w in sorted(WORKLOADS)]


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_names_only_declared_workloads_and_metrics(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert set(record) == {"workload", "command", "entries"}
    assert record["workload"] in WORKLOADS
    assert path.name == f"BENCH_{record['workload']}.json"
    prs = [e["pr"] for e in record["entries"]]
    assert prs and prs == sorted(set(prs))
    for entry in record["entries"]:
        assert ENTRY_KEYS <= set(entry) <= ENTRY_KEYS | OPTIONAL_KEYS, entry["pr"]
        for commit in (entry["parent"], entry["change"]):
            assert commit is None or (isinstance(commit, str) and len(commit) >= 7)
        assert _number(entry["seconds"]) and entry["seconds"] > 0
        assert entry["seeds"] and all(type(s) is int for s in entry["seeds"])
        medians = entry["medians"]
        assert medians and set(medians) <= set(METRICS), entry["pr"]
        for pair in medians.values():
            assert len(pair) == 2 and all(_number(x) for x in pair)
        for metric, runs in entry.get("pairs", {}).items():
            assert metric in medians
            assert all(len(p) == 2 and all(_number(x) for x in p) for p in runs)
        assert set(entry.get("wins", {})) <= set(medians)
        claim = entry["claim"]
        if claim is not None:
            # a claimed metric moved the way BENCHMARK.json calls better
            parent, change = medians[claim]
            if METRICS[claim]["better"] == "lower":
                assert change < parent, entry["pr"]
            else:
                assert change > parent, entry["pr"]
