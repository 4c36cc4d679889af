"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# jobs cheap enough to run twice in a test, one or more per workload
CHEAP = {
    "group-complex": ["les c4_f2"],
    "lie-complex": ["les h3q2_d0"],
    "census-jets": [
        "classify v4_f2_t1",
        "semidirect-ops c2_f2sq_t1",
        "semidirect-ops shipped_z3_inverse",
        "check shipped_z3_carry_extension",
        "check shipped_lie_solvable",
        "check shipped_gl2_adjugate_det",
    ],
}


def _digests(workload: str, seed: int) -> dict[str, str]:
    fixtures, _ = workloads.build(workload, seed)
    return {
        name: hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()
        for name, data in fixtures.items()
    }


def _cheap_reports(workload: str, seed: int) -> dict[str, dict]:
    main = run.import_program()
    paths, jobs = run.write_fixtures(workload, seed)
    out = {}
    try:
        for job in jobs:
            if job.name in CHEAP[workload]:
                code, text = run.call(main, job, paths)
                assert code == 0, (job.name, code)
                out[job.name] = json.loads(text)
    finally:
        run.remove_workdir()
    return out


def test_seeds_change_digests_but_not_references():
    frozen = reference.load()
    for workload in workloads.WORKLOADS:
        assert _digests(workload, 1) != _digests(workload, 2)
        first, second = _cheap_reports(workload, 1), _cheap_reports(workload, 2)
        assert first.keys() == set(CHEAP[workload])
        for name in first:
            assert reference.comparable(first[name]) == reference.comparable(second[name])
            assert reference.comparable(first[name]) == frozen[name]


def test_group_relabelling_is_an_automorphism_and_lie_relabelling_an_isomorphism():
    fixtures, _ = workloads.build("group-complex", 3)
    table = workloads.s3_table()
    assert fixtures["s3_f3"]["group"]["table"] == table
    assert fixtures["s3_f3"]["difference"] == workloads.inverses(table)
    assert len(workloads.automorphisms(table)) == 6
    assert len(workloads.automorphisms(workloads.cyclic_table(5))) == 4
    lie, _ = workloads.build("lie-complex", 3)
    (key, vector), = lie["h3q3_d0"]["brackets"].items()
    assert sorted(x for x in vector if x != "0") in (["1"], ["-1"])
    assert lie["h3q3_dneg"]["D"] == workloads.heisenberg_plus_abelian(6, "-1")["D"]


def test_h3_plus_q2_ordinary_column_is_the_kuenneth_closed_form():
    main = run.import_program()
    fixtures, _ = workloads.build("lie-complex", 5)
    paths = workloads.write({"h3q2": fixtures["h3q2_d0"]}, os.path.join(run.WORKDIR, "kuenneth"))
    job = workloads.job("cohomology", "h3q2", "cohomology", *workloads.DEGREE_3)
    try:
        code, text = run.call(main, job, paths)
    finally:
        run.remove_workdir()
    assert code == 0
    rows = json.loads(text)["tables"]["cohomology"]
    assert [r["ordinary"] for r in rows] == reference.ORDINARY_H3Q2


def test_reference_check_flags_wrong_reports():
    frozen = reference.load()
    report = _cheap_reports("census-jets", 4)["classify v4_f2_t1"]
    text = json.dumps(report)
    assert reference.problems("classify v4_f2_t1", 0, text, frozen) == []
    assert reference.problems("classify v4_f2_t1", 1, text, frozen)
    assert reference.problems("classify v4_f2_t1", 0, "not json", frozen)
    report["tables"]["classification"]["classes-by-isomorphism"] = 31
    assert len(reference.problems("classify v4_f2_t1", 0, json.dumps(report), frozen)) == 2


def test_spans_nest_and_children_fit_in_their_parent():
    main = run.import_program()
    paths, jobs = run.write_fixtures("census-jets", 2)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced_main = tracer.wrap("cli.main", main)
        for job in jobs:
            if job.name in CHEAP["census-jets"]:
                assert run.call(traced_main, job, paths)[0] == 0
    finally:
        tracer.uninstall()
        run.remove_workdir()
    recorded = tracer.spans
    assert len(recorded) > 100
    assert {s.kind for s in recorded} >= {"cli.main", "extensions.iso", "linalg.elim"}
    children = [0.0] * len(recorded)
    for s in recorded:
        if s.parent < 0:
            assert s.kind == "cli.main"
            continue
        parent = recorded[s.parent]
        assert parent.start <= s.start <= s.end <= parent.end
        children[s.parent] += s.seconds
    for s in recorded:
        assert children[s.sid] <= s.seconds
    assert all(t >= 0 for t in spans.self_times(recorded))
    assert not tracer._patches


def test_traced_counts_repeat_for_a_seed():
    def traced(seed: int) -> dict:
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", "census-jets",
             "--seed", str(seed), "--seconds", "1", "--trace", "1"],
            cwd=os.path.dirname(HERE), capture_output=True, text=True, check=True,
        )
        result = json.loads(out.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] != "s"
                and k != "trace.overhead"}

    first, second = traced(7), traced(7)
    assert first == second
    assert first["extensions.iso_searches"] > 0 and first["scalars.jet_ops"] > 0


def test_high_percentile_needs_ten_values_beyond():
    assert run.high_percentile([3.0, 1.0, 2.0]) == 3.0
    values = [float(i) for i in range(20)]
    assert run.high_percentile(values) == 9.0
    assert sum(v > run.high_percentile(values) for v in values) == 10
