"""Fixture files: loading the shipped ones, format/parse round trips,
and the JSON-path error reporting."""

import json
import pathlib

import pytest

from diffcoh.fixtures import (
    FixtureError,
    GroupFixture,
    JetFixture,
    LieFixture,
    detect_kind,
    fixture_digest,
    format_group_fixture,
    format_lie_fixture,
    load_fixture,
    load_fixture_data,
    parse_fixture,
    parse_group_fixture,
    parse_jet_fixture,
    parse_lie_fixture,
)
from diffcoh.linalg import Matrix
from diffcoh.programs import evaluate
from diffcoh.scalars import Rationals

FIXDIR = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def fixture_path(name):
    return str(FIXDIR / name)


def minimal_group_data():
    return {
        "group": {"table": [[0, 1], [1, 0]], "identity": 0},
        "difference": [0, 1],
    }


def test_all_shipped_fixtures_parse():
    paths = sorted(FIXDIR.glob("*.json"))
    assert len(paths) == 10
    kinds = {}
    for p in paths:
        fx = load_fixture(str(p))
        kinds[p.name] = fx.kind
    assert kinds == {
        "gl2_adjugate_det.json": "jet",
        "gl2_corner_deg2.json": "jet",
        "gl2_inverse_det_deg2.json": "jet",
        "lie_abelian.json": "lie",
        "lie_solvable.json": "lie",
        "sl2_dneg.json": "lie",
        "trivial_group.json": "group",
        "z2_endo.json": "group",
        "z3_carry_extension.json": "group",
        "z3_inverse.json": "group",
    }


def test_group_fixture_round_trip():
    fx = load_fixture(fixture_path("z3_carry_extension.json"))
    assert isinstance(fx, GroupFixture)
    again = parse_group_fixture(format_group_fixture(fx))
    assert again.dg.group.table == fx.dg.group.table
    assert list(again.dg.d) == list(fx.dg.d)
    assert again.rep.theta == fx.rep.theta
    assert again.rep.t == fx.rep.t
    # cochain equality pins the group object, so compare the raw data
    assert again.pair.alpha.degree == fx.pair.alpha.degree
    assert again.pair.alpha.values == fx.pair.alpha.values
    assert again.pair.beta.values == fx.pair.beta.values
    assert [again.dg.group.label(g) for g in again.dg.group.elements] == [
        "e", "a", "a2",
    ]


def test_lie_fixture_round_trip():
    fx = load_fixture(fixture_path("lie_solvable.json"))
    assert isinstance(fx, LieFixture)
    again = parse_lie_fixture(format_lie_fixture(fx))
    lie, lie2 = fx.dop.lie, again.dop.lie
    assert lie2.dim == lie.dim
    for i in range(lie.dim):
        for j in range(i + 1, lie.dim):
            assert lie2.bracket_basis(i, j) == lie.bracket_basis(i, j)
    assert again.dop.d == fx.dop.d
    assert again.rep.theta == fx.rep.theta
    assert again.rep.t == fx.rep.t


def test_jet_fixture_contents():
    fx = load_fixture(fixture_path("gl2_inverse_det_deg2.json"))
    assert isinstance(fx, JetFixture)
    assert fx.degree == 2
    assert fx.beta_prog is not None
    assert (fx.vshape.rows, fx.vshape.cols) == (1, 1)
    q = Rationals()
    assert fx.spec.field == q or isinstance(fx.spec.field, Rationals)
    g = Matrix.from_rows(q, [[q.from_int(2), q.zero], [q.zero, q.from_int(1)]])
    assert evaluate(fx.dprog, [g], q) == Matrix.from_rows(
        q, [[q.parse("1/2"), q.zero], [q.zero, q.one]]
    )
    # re-parsing the raw data is stable
    again = parse_jet_fixture(fx.raw)
    assert again.degree == fx.degree
    assert evaluate(again.alpha_prog, [g, g], q) == evaluate(fx.alpha_prog, [g, g], q)


def test_detect_kind():
    assert detect_kind(minimal_group_data()) == "group"
    assert detect_kind({"dim": 1, "brackets": {}, "D": [["0"]]}) == "lie"
    assert detect_kind({"matrix-size": 2, "difference-program": "inverse"}) == "jet"
    with pytest.raises(FixtureError):
        detect_kind({"woops": 1})
    with pytest.raises(FixtureError):
        detect_kind([1, 2])


def test_bad_json_reports_line_and_column(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"group": \n  oops}')
    with pytest.raises(FixtureError) as exc:
        load_fixture_data(str(p))
    assert "line 2" in exc.value.path


def test_group_fixture_error_paths():
    data = minimal_group_data()
    data["group"]["identity"] = 1
    with pytest.raises(FixtureError) as exc:
        parse_group_fixture(data)
    assert exc.value.path == "$.group.identity"

    data = minimal_group_data()
    data["group"]["order"] = 3
    with pytest.raises(FixtureError) as exc:
        parse_group_fixture(data)
    assert exc.value.path == "$.group.order"

    data = minimal_group_data()
    data["difference"] = [0]
    with pytest.raises(FixtureError) as exc:
        parse_group_fixture(data)
    assert exc.value.path == "$.difference"

    data = minimal_group_data()
    data["group"]["table"] = [[0, 1], [1, "x"]]
    with pytest.raises(FixtureError) as exc:
        parse_group_fixture(data)
    assert exc.value.path == "$.group.table[1][1]"

    data = minimal_group_data()
    data["group"]["labels"] = ["e"]
    with pytest.raises(FixtureError) as exc:
        parse_group_fixture(data)
    assert exc.value.path == "$.group.labels"


def test_rep_block_error_paths():
    data = minimal_group_data()
    data["rep"] = {"field": {"kind": "Fp", "p": 2}, "dim": 1, "theta": {"0": [[1]]}}
    with pytest.raises(FixtureError) as exc:
        parse_group_fixture(data)
    assert exc.value.path == "$.rep.theta"
    assert "element 1" in str(exc.value)

    data["rep"]["theta"] = {"0": [[1]], "1": [[1, 0]]}
    with pytest.raises(FixtureError) as exc:
        parse_group_fixture(data)
    assert exc.value.path == "$.rep.theta.1"

    data["rep"]["theta"] = {"0": [[1]], "1": [[5]]}
    data["rep"]["T"] = [[0]]
    with pytest.raises(FixtureError) as exc:
        parse_group_fixture(data)
    assert exc.value.path == "$.rep.theta.1[0][0]"

    data["rep"]["theta"] = {"0": [[1]], "1": [[1]]}
    data["rep"]["field"] = {"kind": "Fp", "p": 6}
    with pytest.raises(FixtureError) as exc:
        parse_group_fixture(data)
    assert exc.value.path == "$.rep.field"


def test_cocycle_block_error_paths():
    data = minimal_group_data()
    data["rep"] = {
        "field": {"kind": "Fp", "p": 2},
        "dim": 1,
        "theta": {"0": [[1]], "1": [[1]]},
        "T": [[0]],
    }
    data["cocycle"] = {
        "alpha": {"degree": 2, "values": [{"args": [1, 1], "value": [1, 0]}]},
        "beta": {"degree": 1, "values": []},
    }
    with pytest.raises(FixtureError) as exc:
        parse_group_fixture(data)
    assert exc.value.path == "$.cocycle.alpha.values[0].value"

    data["cocycle"]["alpha"]["values"] = [
        {"args": [1, 1], "value": [1]},
        {"args": [1, 1], "value": [0]},
    ]
    with pytest.raises(FixtureError) as exc:
        parse_group_fixture(data)
    assert exc.value.path == "$.cocycle.alpha.values[1].args"

    no_rep = minimal_group_data()
    no_rep["cocycle"] = data["cocycle"]
    with pytest.raises(FixtureError) as exc:
        parse_group_fixture(no_rep)
    assert exc.value.path == "$.cocycle"


def test_lie_fixture_error_paths():
    base = {"dim": 2, "brackets": {}, "D": [["0", "0"], ["0", "0"]]}

    data = dict(base, brackets={"1,0": ["0", "0"]})
    with pytest.raises(FixtureError) as exc:
        parse_lie_fixture(data)
    assert exc.value.path == "$.brackets.1,0"

    data = dict(base, brackets={"0;1": ["0", "0"]})
    with pytest.raises(FixtureError) as exc:
        parse_lie_fixture(data)
    assert exc.value.path == "$.brackets.0;1"

    data = dict(base, brackets={"0,1": ["0"]})
    with pytest.raises(FixtureError) as exc:
        parse_lie_fixture(data)
    assert exc.value.path == "$.brackets.0,1"

    data = dict(base, D=[["0", "0"]])
    with pytest.raises(FixtureError) as exc:
        parse_lie_fixture(data)
    assert exc.value.path == "$.D"

    data = dict(base, brackets={"0,1": ["0", "nope"]})
    with pytest.raises(FixtureError) as exc:
        parse_lie_fixture(data)
    assert exc.value.path == "$.brackets.0,1[1]"


def test_jet_fixture_error_paths():
    base = {
        "matrix-size": 2,
        "field": {"kind": "rationals"},
        "difference-program": "inverse",
    }

    data = dict(base)
    data["difference-program"] = "frobenius"
    with pytest.raises(FixtureError) as exc:
        parse_jet_fixture(data)
    assert exc.value.path == "$.difference-program"

    data = dict(base)
    data["difference-program"] = 7
    with pytest.raises(FixtureError) as exc:
        parse_jet_fixture(data)
    assert exc.value.path == "$.difference-program"

    data = dict(base, **{"rep-program": "det", "value-shape": [1, 0], "T": [["0"]]})
    with pytest.raises(FixtureError) as exc:
        parse_jet_fixture(data)
    assert exc.value.path == "$.value-shape"

    data = dict(base, **{"rep-program": "det", "value-shape": [1, 1], "T": [["0", "0"]]})
    with pytest.raises(FixtureError) as exc:
        parse_jet_fixture(data)
    assert exc.value.path == "$.T"

    data = dict(base, basis=[])
    with pytest.raises(FixtureError) as exc:
        parse_jet_fixture(data)
    assert exc.value.path == "$.basis"


def test_fixture_digest_is_stable(tmp_path):
    p = tmp_path / "f.json"
    p.write_text(json.dumps(minimal_group_data()))
    d1 = fixture_digest(str(p))
    d2 = fixture_digest(str(p))
    assert d1 == d2 and len(d1) == 64
    p.write_text(json.dumps(minimal_group_data()) + "\n")
    assert fixture_digest(str(p)) != d1


def test_parse_fixture_dispatch():
    fx = parse_fixture(minimal_group_data())
    assert fx.kind == "group"
    assert fx.rep is None and fx.pair is None
