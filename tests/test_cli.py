"""Command-line interface: exit codes, report rendering, and
determinism, exercised in-process on the shipped fixtures."""

import dataclasses
import json
import os
import pathlib
import subprocess
import sys

import pytest

from diffcoh import cli, exactness, extensions, fixtures, groups, linalg
from diffcoh.catalog import cyclic, inverse_map, klein_four, symmetric
from diffcoh.cli import main
from diffcoh.extensions import classify_extensions
from diffcoh.fixtures import MATRIX_SIZE_CAP, load_fixture
from diffcoh.programs import PROGRAM_DEPTH_CAP, format_program
from diffcoh.scalars import Rationals

from oracles import FractionRationals

FIXDIR = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def fx(name):
    return str(FIXDIR / name)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_validates_a_clean_group_fixture(capsys):
    code, out, err = run(["check", fx("z3_inverse.json")], capsys)
    assert code == 0
    assert err == ""
    assert "check group-table: ok" in out
    assert "check difference-operator: ok" in out
    assert "check representation: ok" in out
    assert out.endswith("ok: true\n")


def test_check_rebuilds_the_carry_extension(capsys):
    code, out, _ = run(["check", fx("z3_carry_extension.json")], capsys)
    assert code == 0
    assert "check cocycle-pair: ok" in out
    assert "table extension:" in out
    assert "base-order: 3" in out
    assert "total-order: 9" in out


def test_check_reports_staged_verdicts_with_witness(tmp_path, capsys):
    # d(1+1) = 1 but d(1) + d(1) = 2, so the identity fails at (1, 1)
    broken = {
        "group": {"table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]], "identity": 0},
        "difference": [0, 1, 1],
    }
    p = tmp_path / "broken.json"
    p.write_text(json.dumps(broken))
    code, out, _ = run(["check", str(p)], capsys)
    assert code == 1
    assert "check group-table: ok" in out
    assert "check difference-operator: FAIL" in out
    assert "witness" in out
    assert out.endswith("ok: false\n")


def test_check_flags_a_non_cocycle_pair(tmp_path, capsys):
    data = json.loads((FIXDIR / "z3_carry_extension.json").read_text())
    data["cocycle"]["beta"]["values"] = []
    p = tmp_path / "badpair.json"
    p.write_text(json.dumps(data))
    code, out, _ = run(["check", str(p)], capsys)
    assert code == 1
    assert "check cocycle-pair: FAIL" in out


def test_check_runs_jet_fixtures(capsys):
    code, out, _ = run(["check", fx("gl2_adjugate_det.json")], capsys)
    assert code == 0
    assert "check difference-program: ok" in out
    assert "check rep-program: ok" in out
    assert "seed 0" in out


def test_cohomology_table_is_frozen(capsys):
    code, out, _ = run(
        ["cohomology", fx("z3_inverse.json"), "--max-degree", "2"], capsys
    )
    assert code == 0
    assert "degree=1 difference=0 ordinary=1 pair=1" in out
    assert "degree=2 difference=1 ordinary=1 pair=2" in out


def test_cohomology_works_on_lie_fixtures(capsys):
    code, out, _ = run(
        ["cohomology", fx("lie_abelian.json"), "--max-degree", "2"], capsys
    )
    assert code == 0
    assert "degree=1 difference=0 ordinary=2 pair=2" in out
    assert "degree=2 difference=2 ordinary=1 pair=3" in out


def test_les_passes_on_shipped_fixtures(capsys):
    for name in ("z2_endo.json", "trivial_group.json", "lie_solvable.json"):
        code, out, _ = run(["les", fx(name), "--max-degree", "3"], capsys)
        assert code == 0, name
        assert "FAIL" not in out
        assert out.count("check ") >= 3
        assert out.endswith("ok: true\n")


def test_les_builds_no_space_above_the_top_degree(capsys):
    # to degree 2 the LES reads C^3, 8 basis elements for Z3, and stops
    # at im d_B(2) for the top node, so C^4 (16) is never counted
    code, out, _ = run(
        ["les", fx("z3_inverse.json"), "--max-degree", "2", "--budget", "8"], capsys
    )
    assert code == 0
    checks = [line for line in out.splitlines() if line.startswith("check ")]
    assert len(checks) == 6
    assert all(line.endswith(": ok (exact)") for line in checks)
    assert out.endswith("ok: true\n")


def test_classify_extensions_report(capsys):
    code, out, _ = run(
        ["classify", fx("z3_inverse.json"), "--mode", "extensions"], capsys
    )
    assert code == 0
    assert "check census-vs-cohomology: ok" in out
    assert "classes-by-cosets: 9" in out
    assert "classes-by-isomorphism: 9" in out
    assert "cocycles: 27" in out
    assert "coboundaries: 3" in out
    assert "expected-from-cohomology: 9" in out
    assert "pair-h2-dim: 2" in out


@pytest.mark.parametrize(
    "count", ["class_count", "class_count_by_cosets", "expected_from_cohomology"]
)
def test_classify_fails_when_any_one_count_differs(count, monkeypatch, capsys):
    # the three counts come from the census, the ranks of Z^2 and B^2, and
    # dim H^2; each one alone can break the verdict
    cls = classify_extensions(load_fixture(fx("z3_inverse.json")).rep)
    assert cls.consistent
    broken = dataclasses.replace(cls, **{count: getattr(cls, count) + 1})
    assert not broken.consistent
    monkeypatch.setattr(cli, "classify_extensions", lambda rep, budget: broken)
    code, out, _ = run(["classify", fx("z3_inverse.json")], capsys)
    assert code == 1
    assert "check census-vs-cohomology: FAIL (the counting routes disagree)\n" in out


def _semidirect(name, capsys):
    return run(["classify", fx(name), "--mode", "semidirect-ops"], capsys)


def _lower_pair_h1(monkeypatch):
    """Make ``cohomology_dims`` report dim H^1 of the pair complex one
    too low, which raises a rank read off it by one."""
    real = exactness.cohomology_dims

    def perturbed(data, max_degree):
        dims = real(data, max_degree)
        h_ordinary, h_difference, h_pair = dims[1]
        dims[1] = (h_ordinary, h_difference, h_pair - 1)
        return dims

    monkeypatch.setattr(exactness, "cohomology_dims", perturbed)


def test_extensions_rank_route_can_fail_the_verdict(monkeypatch, capsys):
    # rank d_B(1) = dim C^1 - dim H^1(B) one too high gives 3^(3 - 2) = 3
    # classes by cosets against 9 in the census and from dim H^2
    _lower_pair_h1(monkeypatch)
    code, out, _ = run(["classify", fx("z3_inverse.json")], capsys)
    assert code == 1
    assert "  classes-by-cosets: 3\n  classes-by-isomorphism: 9\n  coboundaries: 9\n" in out
    assert "check census-vs-cohomology: FAIL (the counting routes disagree)\n" in out


def test_semidirect_rank_route_can_fail_the_verdict(monkeypatch, capsys):
    # a connecting rank dim H^1(C) - dim H^1(B) one too high gives
    # 3^(1 - 1) = 1 class by rank against 3 in the census
    _lower_pair_h1(monkeypatch)
    code, out, _ = _semidirect("z3_inverse.json", capsys)
    assert code == 1
    assert "  count-by-census: 3\n  count-by-rank: 1\n" in out
    assert "check quotient-vs-census: FAIL (the counting routes disagree)\n" in out


def test_semidirect_direct_route_can_fail_the_verdict(monkeypatch, capsys):
    # on z2_endo the two valid operators form one shear orbit; a direct
    # route that forgot the shears counts 2 classes against 1 by rank and
    # by the census, which still agree with each other
    monkeypatch.setattr(extensions, "_shear_orbit_count", lambda sd, valid: len(valid))
    code, out, _ = _semidirect("z2_endo.json", capsys)
    assert code == 1
    assert "  count-by-census: 1\n  count-by-rank: 1\n  direct-classes: 2\n" in out
    assert "check quotient-vs-census: FAIL (the counting routes disagree)\n" in out


def test_classify_semidirect_report(capsys):
    code, out, _ = run(
        ["classify", fx("z3_inverse.json"), "--mode", "semidirect-ops"], capsys
    )
    assert code == 0
    assert "check quotient-vs-census: ok" in out
    assert "count-by-census: 3" in out
    assert "count-by-rank: 3" in out
    assert "direct-classes: 3" in out
    assert "direct-valid-operators: 3" in out
    assert "total-order: 9" in out


def _group_fixture(tmp_path, group, p, t, dim=1):
    """A fixture for ``group`` with D = inversion, trivial Theta and
    T = t * identity on F_p^dim."""

    def diagonal(x):
        return [[x if i == j else 0 for j in range(dim)] for i in range(dim)]

    data = {
        "group": {
            "order": group.order,
            "identity": group.identity,
            "table": [list(row) for row in group.table],
        },
        "difference": inverse_map(group),
        "rep": {
            "field": {"kind": "Fp", "p": p},
            "dim": dim,
            "theta": {str(g): diagonal(1) for g in group.elements},
            "T": diagonal(t),
        },
    }
    path = tmp_path / "group.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize(
    "group, dim", [(klein_four(), 1), (cyclic(2), 2)], ids=["v4_f2", "c2_f2sq"]
)
def test_classify_semidirect_on_catalog_groups(group, dim, tmp_path, capsys):
    path = _group_fixture(tmp_path, group, 2, 1, dim)
    code, out, err = run(["classify", path, "--mode", "semidirect-ops"], capsys)
    assert code == 0
    assert err == ""
    table = json.loads(run(
        ["classify", path, "--mode", "semidirect-ops", "--format", "json"], capsys
    )[1])["tables"]["classification"]
    assert table == {
        "cocycle-space-dim": 2,
        "connecting-rank": 0,
        "count-by-rank": 4,
        "count-by-census": 4,
        "direct-valid-operators": 4,
        "direct-classes": 4,
        "total-order": 8,
    }
    assert "check quotient-vs-census: ok" in out


def test_classify_semidirect_skips_direct_enumeration_over_budget(tmp_path, capsys):
    path = _group_fixture(tmp_path, symmetric(3), 3, 1)
    code, out, err = run(["classify", path, "--mode", "semidirect-ops"], capsys)
    assert code == 0
    assert err == ""
    assert "count-by-rank: 1\n" in out
    assert "count-by-census: 1\n" in out
    assert "direct-classes: none\n" in out
    assert (
        "direct enumeration skipped: 14348907 candidate operators exceed "
        "the budget of 60000" in out
    )
    assert (
        "check quotient-vs-census: ok (rank formula and coset census agree; "
        "direct enumeration skipped)\n" in out
    )
    assert out.endswith("ok: true\n")


def test_classify_semidirect_searches_shears_on_generators_only(tmp_path, capsys):
    # S4 has 23 non-identity elements but 2 greedy generators, so the
    # shear search of the census has 2^2 candidates, not 2^23
    path = _group_fixture(tmp_path, symmetric(4), 2, 1)
    code, out, err = run(["classify", path, "--mode", "semidirect-ops"], capsys)
    assert code == 0
    assert err == ""
    assert "count-by-rank: 2\n" in out
    assert "count-by-census: 2\n" in out
    assert out.endswith("ok: true\n")


def test_classify_budget_verdict_counts_coset_representatives(capsys):
    # 27 cocycle pairs in 9 classes: the census builds one representative
    # of each
    code, out, _ = run(
        ["classify", fx("z3_carry_extension.json"), "--budget", "8"], capsys
    )
    assert code == 1
    assert (
        "check budget: FAIL (extension census needs 9 coset representatives, "
        "budget is 8)\n" in out
    )
    code, out, _ = run(["classify", fx("z3_carry_extension.json"), "--budget", "9"], capsys)
    assert code == 0
    assert "classes-by-isomorphism: 9\n" in out


def test_classify_budget_verdict_counts_candidate_shears(tmp_path, capsys, monkeypatch):
    # C2 with D = e swapping the coordinates of F_3^2, T = 0: every cochain
    # space has 2 basis elements and the census 3 representatives, whose
    # keys differ, so no search runs and a budget of 5 passes; under one
    # key, which shears trivially preserve, they are searched pairwise,
    # and a shear is free on the generator, so each search has 3^2
    # candidates
    data = {
        "group": {"order": 2, "identity": 0, "table": [[0, 1], [1, 0]]},
        "difference": [0, 0],
        "rep": {
            "field": {"kind": "Fp", "p": 3},
            "dim": 2,
            "theta": {"0": [[1, 0], [0, 1]], "1": [[0, 1], [1, 0]]},
            "T": [[0, 0], [0, 0]],
        },
    }
    path = tmp_path / "c2_swap.json"
    path.write_text(json.dumps(data))
    args = ["classify", str(path), "--mode", "semidirect-ops"]
    code, out, _ = run(args + ["--budget", "5"], capsys)
    assert code == 0
    assert "count-by-census: 3\n" in out
    monkeypatch.setattr(extensions, "shear_key", lambda ext: ())
    code, out, _ = run(args + ["--budget", "5"], capsys)
    assert code == 1
    assert (
        "check budget: FAIL (shear isomorphism search needs 9 candidate shears, "
        "budget is 5)\n" in out
    )
    code, out, _ = run(args + ["--budget", "9"], capsys)
    assert code == 0
    assert "count-by-census: 3\n" in out


def test_classify_budget_failure_is_a_verdict(capsys):
    code, out, _ = run(
        ["classify", fx("z3_inverse.json"), "--budget", "8"], capsys
    )
    assert code == 1
    assert "check budget: FAIL" in out


def test_classify_counts_the_carrier_before_the_module_is_listed(tmp_path, capsys, monkeypatch):
    # Z3 over F_p with p = 2^61 - 1 and T = -2: the census has one
    # representative, but its carrier has 3 p elements, so F_p must not
    # be listed; the other commands never list it
    p = 2**61 - 1
    data = json.loads((FIXDIR / "z3_inverse.json").read_text())
    data["rep"]["field"] = {"kind": "Fp", "p": p}
    data["rep"]["T"] = [[p - 2]]
    path = tmp_path / "z3_huge_p.json"
    path.write_text(json.dumps(data))

    def unreachable(field, dim):
        raise AssertionError("F_p^dim was listed")

    monkeypatch.setattr(groups, "vector_enumeration", unreachable)
    for mode in ("extensions", "semidirect-ops"):
        code, out, _ = run(["classify", str(path), "--mode", mode], capsys)
        assert code == 1
        assert (
            f"check budget: FAIL (extension census needs {3 * p} carrier elements, "
            "budget is 60000)\n" in out
        )
    for command in ("check", "cohomology", "les"):
        assert run([command, str(path)], capsys)[0] == 0


def test_vanest_command(capsys):
    code, out, _ = run(["vanest", fx("gl2_adjugate_det.json")], capsys)
    assert code == 0
    assert "check coboundary-intertwines: ok" in out
    assert "check hk-differentiates-to-K: ok" in out
    assert "check pk-differentiates-to-zero: ok" in out
    assert "check pair-differential-intertwines: ok" in out

    code, out, _ = run(["vanest", fx("gl2_inverse_det_deg2.json")], capsys)
    assert code == 0
    assert "argument degree: 2" in out
    assert out.endswith("ok: true\n")


def test_output_is_byte_deterministic(capsys):
    argv = ["cohomology", fx("z3_inverse.json"), "--max-degree", "2"]
    _, first, _ = run(argv, capsys)
    _, second, _ = run(argv, capsys)
    assert first == second
    jargv = argv + ["--format", "json"]
    _, jfirst, _ = run(jargv, capsys)
    _, jsecond, _ = run(jargv, capsys)
    assert jfirst == jsecond


def test_json_mirrors_text(capsys):
    argv = ["les", fx("z3_inverse.json"), "--max-degree", "2"]
    _, text, _ = run(argv, capsys)
    _, raw, _ = run(argv + ["--format", "json"], capsys)
    report = json.loads(raw)
    text_checks = [
        line.split(":", 1)[0][len("check ") :]
        for line in text.splitlines()
        if line.startswith("check ")
    ]
    assert [c["name"] for c in report["checks"]] == text_checks
    assert report["ok"] is True
    assert report["digest"].startswith("sha256:")
    assert report["arguments"]["max-degree"] == 2


def test_timing_flag_adds_elapsed_seconds(capsys):
    argv = ["check", fx("z2_endo.json"), "--timing"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert "elapsed-seconds: " in out
    jcode, jout, _ = run(argv + ["--format", "json"], capsys)
    assert jcode == 0
    assert "elapsed-seconds" in json.loads(jout)


def test_missing_fixture_file_exits_two(capsys):
    code, out, err = run(["check", fx("no_such.json")], capsys)
    assert code == 2
    assert out == ""
    assert "cannot read fixture" in err


def test_unparseable_fixture_exits_two(tmp_path, capsys):
    p = tmp_path / "junk.json"
    p.write_text("{nope")
    code, _, err = run(["check", str(p)], capsys)
    assert code == 2
    assert "invalid JSON" in err


def test_wrong_fixture_kind_exits_two(capsys):
    code, _, err = run(["cohomology", fx("gl2_adjugate_det.json")], capsys)
    assert code == 2
    assert "group or Lie fixture" in err
    code, _, err = run(["vanest", fx("z3_inverse.json")], capsys)
    assert code == 2
    assert "jet fixture" in err


def _over_q(tmp_path, name):
    data = json.loads((FIXDIR / name).read_text())
    data["rep"]["field"] = {"kind": "Q"}
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


@pytest.mark.parametrize("mode", ["extensions", "semidirect-ops"])
@pytest.mark.parametrize("name", ["z3_inverse.json", "z3_carry_extension.json"])
def test_classify_rejects_a_module_over_q(name, mode, tmp_path, capsys):
    # the censuses enumerate a finite module, so a rep over Q is a
    # fixture error, not a traceback
    code, out, err = run(["classify", "--mode", mode, _over_q(tmp_path, name)], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: $.rep.field: classification needs a finite (prime-field) module\n"


def test_check_rejects_a_cocycle_over_q(tmp_path, capsys):
    code, out, err = run(["check", _over_q(tmp_path, "z3_carry_extension.json")], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: $.cocycle: extensions need a finite (prime-field) module\n"


@pytest.mark.parametrize("command", ["cohomology", "les"])
@pytest.mark.parametrize("name", ["z3_inverse.json", "z3_carry_extension.json"])
def test_complexes_still_run_on_a_module_over_q(name, command, tmp_path, capsys):
    code, out, err = run([command, _over_q(tmp_path, name)], capsys)
    assert code == 0
    assert err == ""
    assert out.endswith("ok: true\n")


def test_lie_fixture_check(capsys):
    code, out, _ = run(["check", fx("lie_solvable.json")], capsys)
    assert code == 0
    assert "check jacobi: ok" in out
    assert "check difference-identity: ok" in out
    assert "check representation: ok" in out


@pytest.mark.parametrize("command", ["cohomology", "les"])
@pytest.mark.parametrize("degree", ["0", "-1"])
def test_max_degree_below_one_is_a_usage_error(command, degree, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, fx("z3_inverse.json"), f"--max-degree={degree}"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert "--max-degree" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["cohomology", "les"])
def test_lie_budget_failure_is_a_verdict(command, capsys):
    code, out, _ = run([command, fx("lie_solvable.json"), "--budget", "1"], capsys)
    assert code == 1
    assert "check budget: FAIL (cochain space in degree 1 needs 2 basis elements" in out
    assert out.endswith("ok: false\n")


@pytest.mark.parametrize("degree", ["0", "4"])
def test_vanest_degree_out_of_range_is_a_usage_error(degree, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["vanest", fx("gl2_adjugate_det.json"), "--degree", degree])
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert "--degree" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("degree", [0, 4])
def test_fixture_degree_out_of_range_is_a_fixture_error(degree, tmp_path, capsys):
    data = json.loads((FIXDIR / "gl2_adjugate_det.json").read_text())
    data["degree"] = degree
    path = tmp_path / "bad_degree.json"
    path.write_text(json.dumps(data))
    code, out, err = run(["vanest", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert f"$.degree: expected a degree in 1..3, got {degree}" in err


@pytest.mark.parametrize(
    "name,degree", [("gl2_adjugate_det.json", "2"), ("gl2_inverse_det_deg2.json", "3")]
)
def test_vanest_precondition_failure_is_a_verdict(name, degree, capsys):
    code, out, err = run(["vanest", fx(name), "--degree", degree], capsys)
    assert code == 1
    assert err == ""
    assert "check differentiation: ok" in out
    assert "check cochain-program: FAIL (cochain program is not normalized" in out
    assert out.endswith("ok: false\n")


def _jet_fixture(tmp_path, base, **fields):
    data = json.loads((FIXDIR / base).read_text())
    data.update(fields)
    path = tmp_path / "jet.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_vanest_degree_below_the_program_arity_names_the_flag(capsys):
    code, out, err = run(["vanest", fx("gl2_inverse_det_deg2.json"), "--degree", "1"], capsys)
    assert code == 2
    assert out == ""
    assert err == (
        "error: --degree: degree 1 gives the alpha-program 1 input(s), but it reads 2\n"
    )


def test_fixture_degree_below_the_program_arity_names_the_field(tmp_path, capsys):
    alpha = json.loads((FIXDIR / "gl2_inverse_det_deg2.json").read_text())["alpha-program"]
    path = _jet_fixture(tmp_path, "gl2_adjugate_det.json", **{"alpha-program": alpha})
    code, out, err = run(["vanest", path], capsys)
    assert code == 2
    assert out == ""
    assert err == (
        "error: $.degree: degree 1 gives the alpha-program 1 input(s), but it reads 2\n"
    )


def test_beta_program_arity_is_checked(tmp_path, capsys):
    alpha = json.loads((FIXDIR / "gl2_inverse_det_deg2.json").read_text())["alpha-program"]
    path = _jet_fixture(tmp_path, "gl2_inverse_det_deg2.json", **{"beta-program": alpha})
    code, out, err = run(["vanest", path], capsys)
    assert code == 2
    assert out == ""
    assert err == (
        "error: $.degree: degree 2 gives the beta-program 1 input(s), but it reads 2\n"
    )


def test_beta_program_at_degree_one_is_rejected(tmp_path, capsys):
    closed = {"op": "scalar", "value": "0"}
    path = _jet_fixture(tmp_path, "gl2_adjugate_det.json", **{"beta-program": closed})
    code, out, err = run(["vanest", path], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: $.degree: a beta-program needs degree >= 2, got 1\n"


def test_internal_check_failure_exits_three(monkeypatch, capsys):
    from diffcoh.exactness import DifferenceComplexBase, InternalCheckError

    def broken(self, max_degree):
        raise InternalCheckError("the two routes disagree at degree 1")

    monkeypatch.setattr(DifferenceComplexBase, "cohomology_dims", broken)
    code, out, err = run(["cohomology", fx("z3_inverse.json")], capsys)
    assert code == 3
    assert out == ""
    assert err == "internal consistency failure: the two routes disagree at degree 1\n"


def test_failing_section_round_trip_exits_three(monkeypatch, capsys):
    # a section pair that is not the extension's own fails the equality
    # check of the round trip
    import diffcoh.extensions as extensions
    from diffcoh.group_cohomology import CochainPair, GroupCochain

    real = extensions.cocycle_from_section

    def broken(ext, section):
        pair = real(ext, section)
        bump = GroupCochain(ext.base.group, ext.rep.field, ext.rep.dim, 1, {(1,): (1,)})
        return CochainPair(pair.alpha, pair.beta + bump)

    monkeypatch.setattr(extensions, "cocycle_from_section", broken)
    code, out, err = run(["classify", fx("z3_carry_extension.json")], capsys)
    assert code == 3
    assert out == ""
    assert err == (
        "internal consistency failure: canonical section does not return its cocycle\n"
    )


_G = {"op": "input", "index": 0}
_MALFORMED_PROGRAMS = {
    "input-without-index": {"op": "input"},
    "input-index-string": {"op": "input", "index": "zero"},
    "input-index-bool": {"op": "input", "index": True},
    "input-index-negative": {"op": "input", "index": -1},
    "entry-i-string": {"op": "entry", "args": [_G], "i": "x", "j": 0},
    "entry-j-negative": {"op": "entry", "args": [_G], "i": 0, "j": -1},
    "linmap-without-matrix": {"op": "linmap", "args": [_G]},
    "linmap-empty-row": {"op": "linmap", "args": [_G], "matrix": [[]]},
    "const-factor-not-a-matrix": {"op": "mul", "args": [{"op": "const", "value": 5}, _G]},
    "const-factor-ragged": {
        "op": "mul",
        "args": [{"op": "const", "value": [["1"], ["1", "2"]]}, _G],
    },
    "scalar-factor-without-value": {"op": "mul", "args": [{"op": "scalar"}, _G]},
}


@pytest.mark.parametrize("command", ["check", "vanest"])
@pytest.mark.parametrize("name", sorted(_MALFORMED_PROGRAMS))
def test_malformed_program_tree_is_a_fixture_error(name, command, tmp_path, capsys):
    prog = _MALFORMED_PROGRAMS[name]
    path = _jet_fixture(tmp_path, "gl2_adjugate_det.json", **{"difference-program": prog})
    code, out, err = run([command, path], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: $.difference-program: op ")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["check", "vanest"])
def test_negative_alpha_input_is_a_fixture_error(command, tmp_path, capsys):
    alpha = {"op": "trace", "args": [{"op": "input", "index": -1}]}
    path = _jet_fixture(tmp_path, "gl2_adjugate_det.json", **{"alpha-program": alpha})
    code, out, err = run([command, path], capsys)
    assert code == 2
    assert out == ""
    assert err == (
        "error: $.alpha-program: op 'input': 'index' must be an int >= 0, got -1\n"
    )


@pytest.mark.parametrize("command", ["check", "vanest"])
@pytest.mark.parametrize(
    "field, index, arity",
    [("difference-program", 1, 1), ("rep-program", 2, 2)],
)
def test_jet_program_arity_is_checked(field, index, arity, command, tmp_path, capsys):
    prog = {"op": "mul", "args": [_G, {"op": "input", "index": index}]}
    path = _jet_fixture(tmp_path, "gl2_adjugate_det.json", **{field: prog})
    code, out, err = run([command, path], capsys)
    assert code == 2
    assert out == ""
    assert err == (
        f"error: $.{field}: a {field} takes {arity} input(s), but it reads {index + 1}\n"
    )


def _padded(tree, depth):
    """``tree`` under mul(scalar 1, .) wrappers until it is ``depth``
    nodes deep; the program computes the same values."""

    def depth_of(t):
        return 1 + max((depth_of(a) for a in t.get("args", [])), default=0)

    for _ in range(depth - depth_of(tree)):
        tree = {"op": "mul", "args": [{"op": "scalar", "value": "1"}, tree]}
    return tree


@pytest.mark.parametrize("extra", [0, 1], ids=["at-cap", "over-cap"])
def test_program_depth_cap(extra, tmp_path, capsys):
    jet = load_fixture(fx("gl2_inverse_det_deg2.json"))
    programs = {
        "difference-program": jet.dprog,
        "rep-program": jet.theta_prog,
        "alpha-program": jet.alpha_prog,
        "beta-program": jet.beta_prog,
    }
    fields = {
        name: _padded(format_program(prog, jet.spec.field), PROGRAM_DEPTH_CAP)
        for name, prog in programs.items()
    }
    fields["beta-program"] = _padded(fields["beta-program"], PROGRAM_DEPTH_CAP + extra)
    path = _jet_fixture(tmp_path, "gl2_inverse_det_deg2.json", **fields)
    code, out, err = run(["vanest", path], capsys)
    if extra:
        assert code == 2
        assert out == ""
        assert err == (
            f"error: $.beta-program: program tree is deeper than {PROGRAM_DEPTH_CAP} nodes\n"
        )
    else:
        assert code == 0
        assert err == ""
        assert out.endswith("ok: true\n")


@pytest.mark.parametrize("command", ["check", "vanest"])
def test_json_nested_too_deep_is_a_fixture_error(command, tmp_path, capsys):
    text = json.dumps(json.loads((FIXDIR / "gl2_adjugate_det.json").read_text()))
    path = tmp_path / "deep.json"
    path.write_text(text.replace('[["-1"]]', "[" * 1100 + '"-1"' + "]" * 1100))
    code, out, err = run([command, str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: $: JSON nesting is too deep to decode\n"


_CAP = f"expected a size in 1..{MATRIX_SIZE_CAP}, got"
_BAD_SIZES = {
    "size-negative": ("matrix-size", -1, f"{_CAP} -1"),
    "size-zero": ("matrix-size", 0, f"{_CAP} 0"),
    "size-over-cap": ("matrix-size", MATRIX_SIZE_CAP + 1, f"{_CAP} {MATRIX_SIZE_CAP + 1}"),
    "size-3000": ("matrix-size", 3000, f"{_CAP} 3000"),
    "shape-bool": ("value-shape", [True, True], "expected an integer, got True"),
    "shape-over-cap": ("value-shape", [1, MATRIX_SIZE_CAP + 1], f"{_CAP} {MATRIX_SIZE_CAP + 1}"),
    "shape-one-entry": ("value-shape", [1], "expected [rows, cols]"),
}


@pytest.mark.parametrize("name", sorted(_BAD_SIZES))
@pytest.mark.parametrize("command", ["check", "vanest"])
def test_jet_fixture_sizes_are_capped(name, command, tmp_path, capsys):
    field, value, message = _BAD_SIZES[name]
    path = _jet_fixture(tmp_path, "gl2_adjugate_det.json", **{field: value})
    code, out, err = run([command, path], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: $.{field}: {message}\n"


_G0 = {"op": "input", "index": 0}
_FAILING_OPS = {
    "add": (
        {"op": "add", "args": [_G0, {"op": "const", "value": [["1"]]}]},
        "op 'add': shape mismatch 2x2 vs 1x1",
    ),
    "inverse": (
        {"op": "inverse", "args": [{"op": "sub", "args": [_G0, _G0]}]},
        "op 'inverse': matrix is singular",
    ),
    "linmap-tall": (
        {"op": "linmap", "args": [_G0], "matrix": [["1", "0", "0", "0"]] * 8},
        "linear map is 8x4, not square",
    ),
    "linmap-flat": (
        {"op": "linmap", "args": [_G0], "matrix": [["1", "0", "0", "0"]] * 2},
        "linear map is 2x4, not square",
    ),
}


@pytest.mark.parametrize("command", ["check", "vanest"])
@pytest.mark.parametrize("name", sorted(_FAILING_OPS))
def test_program_evaluation_error_names_the_op(name, command, tmp_path, capsys):
    prog, message = _FAILING_OPS[name]
    path = _jet_fixture(tmp_path, "gl2_adjugate_det.json", **{"difference-program": prog})
    code, out, err = run([command, path], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


_NOT_RATIONAL = "quadratic field d must be a rational, got"
_BAD_QUADRATIC = {
    "T-word": ("T", [["abc"]], "$.T[0][0]: not a quadratic scalar: 'abc'"),
    "T-over-zero": ("T", [["1/0"]], "$.T[0][0]: not a quadratic scalar: '1/0'"),
    "T-bool": ("T", [[True]], "$.T[0][0]: not a quadratic scalar: True"),
    "T-pair-word": ("T", [[["1", "x"]]], "$.T[0][0]: not a quadratic scalar: ['1', 'x']"),
    "d-word": ("d", "x", f"$.field: {_NOT_RATIONAL} 'x'"),
    "d-null": ("d", None, f"$.field: {_NOT_RATIONAL} None"),
    "d-list": ("d", [1], f"$.field: {_NOT_RATIONAL} [1]"),
    "d-over-zero": ("d", "1/0", f"$.field: {_NOT_RATIONAL} '1/0'"),
    "d-bool": ("d", True, f"$.field: {_NOT_RATIONAL} True"),
}


@pytest.mark.parametrize("name", sorted(_BAD_QUADRATIC))
def test_malformed_quadratic_scalar_is_a_fixture_error(name, tmp_path, capsys):
    # Q(sqrt d) scalars and d itself are parsed into ScalarError, as over
    # Q, so the command exits 2 with the path instead of a traceback
    key, value, message = _BAD_QUADRATIC[name]
    data = json.loads((FIXDIR / "gl2_corner_deg2.json").read_text())
    if key == "d":
        data["field"]["d"] = value
    else:
        data[key] = value
    path = tmp_path / "quadratic.json"
    path.write_text(json.dumps(data))
    code, out, err = run(["check", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def _cyclic_fixture(tmp_path, order, rows=None):
    table = rows if rows is not None else [
        [(i + j) % order for j in range(order)] for i in range(order)
    ]
    data = {"group": {"table": table, "identity": 0}, "difference": list(range(order))}
    path = tmp_path / "cyclic.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_group_order_cap(tmp_path, capsys):
    from diffcoh.fixtures import GROUP_ORDER_CAP

    too_long = GROUP_ORDER_CAP + 1
    message = f"error: $.group.table: order {too_long} exceeds the group order cap {GROUP_ORDER_CAP}\n"
    for rows in (None, [["x"]] * too_long):
        # the row count is checked before any entry is read
        code, out, err = run(["check", _cyclic_fixture(tmp_path, too_long, rows)], capsys)
        assert (code, out, err) == (2, "", message)
    code, out, err = run(["check", _cyclic_fixture(tmp_path, GROUP_ORDER_CAP)], capsys)
    assert code == 0
    assert err == ""


@pytest.mark.parametrize(
    "argv",
    [
        [cmd, f"lie_{name}.json", "--max-degree", "3"]
        for cmd in ("cohomology", "les")
        for name in ("abelian", "solvable")
    ]
    + [["vanest", "gl2_adjugate_det.json"], ["vanest", "gl2_inverse_det_deg2.json"]],
    ids=lambda argv: "-".join(argv[:2]),
)
def test_reports_are_the_same_with_fractions_everywhere(argv, monkeypatch, capsys):
    """Integral rationals are ints in the canonical ring; a run whose
    fixture field makes every value a Fraction reports the same bytes."""
    cmd, name, *rest = argv
    argv = [cmd, fx(name), *rest, "--format", "json"]
    expected = run(argv, capsys)

    made = []
    field_from_spec = fixtures.field_from_spec

    def fraction_field(spec):
        field = field_from_spec(spec)
        if isinstance(field, Rationals):
            field = FractionRationals()
            made.append(field)
        return field

    monkeypatch.setattr(fixtures, "field_from_spec", fraction_field)
    monkeypatch.setattr(fixtures, "Rationals", lambda: fraction_field({"kind": "rationals"}))
    # back substitution makes its quotients Fractions too
    monkeypatch.setattr(linalg, "rational", lambda x: x)
    assert run(argv, capsys) == expected
    assert made and expected[0] == 0


def test_one_parser_serves_every_call_as_a_fresh_interpreter_would(monkeypatch, capsys):
    """``main`` builds its parser on its first call and reuses it: a usage
    error, --help and reports after them print what the same argv prints
    in a fresh interpreter, with the same exit code."""
    runs = [
        ["cohomology", fx("z3_inverse.json"), "--max-degree", "0"],
        ["--help"],
    ] + [
        argv + ["--format", form]
        for argv in (
            ["les", fx("z3_inverse.json"), "--max-degree", "2"],
            ["vanest", fx("gl2_adjugate_det.json")],
            ["classify", fx("z3_inverse.json")],
        )
        for form in ("text", "json")
    ]
    # help text wraps at the terminal width, so both sides get the same
    monkeypatch.setenv("COLUMNS", "80")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    program = "import sys; from diffcoh.cli import main; sys.exit(main(sys.argv[1:]))"
    cli._build_parser.cache_clear()
    codes = []
    for argv in runs:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-c", program, *argv], env=env, capture_output=True, text=True
        )
        assert (code, captured.out, captured.err) == (
            fresh.returncode, fresh.stdout, fresh.stderr
        ), argv
        codes.append(code)
    assert codes == [2, 0, 0, 0, 0, 0, 0, 0]
    assert cli._build_parser.cache_info().misses == 1
