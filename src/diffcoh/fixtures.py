"""Reading and writing fixture files (JSON, UTF-8).

Three fixture shapes, detected by top-level keys:

* group fixtures -- ``{"group": {"order", "identity", "table",
  "labels"}, "difference": [...], "rep": {...}, "cocycle": {...}}``
  with ``rep`` and ``cocycle`` optional; indices are 0-based and the
  identity must be index 0.
* Lie fixtures -- ``{"dim": n, "brackets": {"i,j": [...]}, "D": [[..]],
  "rep": {...}, "field": {...}}`` with ``rep`` and ``field`` optional
  (the field defaults to the rationals); only ``i < j`` bracket keys
  are accepted, the antisymmetric completion is automatic.
* jet fixtures for matrix-group differentiation --
  ``{"matrix-size": k, "field": {...}, "difference-program": ...,
  "rep-program": ..., "T": [[..]], "value-shape": [r, c],
  "alpha-program": ..., "beta-program": ..., "degree": n,
  "basis": [...]}`` where program fields are either builtin names
  ("inverse", "adjugate", "conjugate-inverse", "det", "identity-rep",
  "trace-shift") or explicit expression trees.

Shape problems raise :class:`FixtureError` carrying a JSON-path style
location; mathematical validation failures raise the constructing
module's own errors (``ValidationError``, ``LieError``, ...).
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from typing import Any

from .scalars import ScalarError, Rationals, field_from_spec, field_to_spec
from .linalg import Matrix
from .groups import DifferenceGroup, DifferenceRep, FiniteGroup
from .group_cohomology import CochainError, CochainPair, GroupCochain
from .lie import LieAlgebra, LieDifferenceOp, LieRep
from .programs import (
    Node,
    ProgramError,
    builtin_cochain_program,
    builtin_difference_program,
    builtin_rep_program,
    max_input_index,
    parse_program,
)
from .vanest import VE_DEGREE_CAP, MatrixGroupSpec, VSpace


class FixtureError(ValueError):
    def __init__(self, path: str, message: str) -> None:
        super().__init__(f"{path}: {message}")
        self.path = path


def _require(data: Any, key: str, path: str) -> Any:
    if not isinstance(data, dict):
        raise FixtureError(path, f"expected an object, got {type(data).__name__}")
    if key not in data:
        raise FixtureError(path, f"missing required field {key!r}")
    return data[key]


def _int_at(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise FixtureError(path, f"expected an integer, got {value!r}")
    return value


def _scalars_at(field: Any, values: list, path: str) -> list[Any]:
    """Each entry parsed as a scalar of ``field``; a bad entry i is
    reported at ``path[i]``."""
    out = []
    for i, x in enumerate(values):
        try:
            out.append(field.parse(x))
        except ScalarError as exc:
            raise FixtureError(f"{path}[{i}]", str(exc)) from exc
    return out


def _field_at(spec: Any, path: str) -> Any:
    try:
        return field_from_spec(spec)
    except ScalarError as exc:
        raise FixtureError(path, str(exc)) from exc


def parse_matrix(field: Any, data: Any, path: str, shape: tuple[int, int] | None = None) -> Matrix:
    if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
        raise FixtureError(path, "matrix must be a list of rows")
    nrows = len(data)
    ncols = len(data[0]) if data else 0
    if any(len(r) != ncols for r in data):
        raise FixtureError(path, "matrix rows have unequal lengths")
    if shape is not None and (nrows, ncols) != shape:
        raise FixtureError(path, f"matrix is {nrows}x{ncols}, expected {shape[0]}x{shape[1]}")
    rows = [_scalars_at(field, r, f"{path}[{i}]") for i, r in enumerate(data)]
    if nrows == 0 or ncols == 0:
        return Matrix.zeros(field, nrows, ncols)
    return Matrix.from_rows(field, rows)


def _theta_at(field: Any, rblock: Any, count: int, dim: int, rpath: str, noun: str) -> list:
    """The dim x dim matrices of the theta block of ``rblock``, keyed by
    the indices "0".."count-1" of a ``noun``; no other key is allowed."""
    path = f"{rpath}.theta"
    data = _require(rblock, "theta", rpath)
    if not isinstance(data, dict):
        raise FixtureError(path, f"expected an object keyed by {noun.split()[0]} index")
    keys = [str(i) for i in range(count)]
    theta = []
    for i, key in enumerate(keys):
        if key not in data:
            raise FixtureError(path, f"missing matrix for {noun} {i}")
        theta.append(parse_matrix(field, data[key], f"{path}.{key}", (dim, dim)))
    for key in data:
        if key not in keys:
            raise FixtureError(f"{path}.{key}", f"{key!r} is not an index in 0..{count - 1}")
    return theta


def format_matrix(field: Any, m: Matrix) -> list[list[Any]]:
    return [[field.format(m.at(i, j)) for j in range(m.ncols)] for i in range(m.nrows)]


def parse_cochain(
    group: FiniteGroup, field: Any, dim: int, data: Any, path: str
) -> GroupCochain:
    degree = _int_at(_require(data, "degree", path), f"{path}.degree")
    raw = _require(data, "values", path)
    if not isinstance(raw, list):
        raise FixtureError(f"{path}.values", "expected a list of entries")
    values = {}
    for k, entry in enumerate(raw):
        epath = f"{path}.values[{k}]"
        args = _require(entry, "args", epath)
        if not isinstance(args, list):
            raise FixtureError(f"{epath}.args", "expected a list of element indices")
        args = tuple(_int_at(a, f"{epath}.args[{i}]") for i, a in enumerate(args))
        vec = _require(entry, "value", epath)
        if not isinstance(vec, list) or len(vec) != dim:
            raise FixtureError(f"{epath}.value", f"expected a vector of length {dim}")
        parsed = tuple(_scalars_at(field, vec, f"{epath}.value"))
        if args in values:
            raise FixtureError(f"{epath}.args", f"duplicate argument tuple {list(args)}")
        values[args] = parsed
    try:
        return GroupCochain(group, field, dim, degree, values)
    except CochainError as exc:
        raise FixtureError(path, str(exc)) from exc


def format_cochain(field: Any, a: GroupCochain) -> dict:
    return {
        "degree": a.degree,
        "values": [
            {"args": list(args), "value": [field.format(x) for x in vec]}
            for args, vec in a.items()
        ],
    }


@dataclass
class GroupFixture:
    dg: DifferenceGroup
    rep: DifferenceRep | None
    pair: CochainPair | None
    raw: dict

    kind = "group"


@dataclass
class LieFixture:
    dop: LieDifferenceOp
    rep: LieRep | None
    raw: dict

    kind = "lie"


@dataclass
class JetFixture:
    spec: MatrixGroupSpec
    dprog: Node
    basis: list[Matrix]
    theta_prog: Node | None
    t: Matrix | None
    vshape: VSpace | None
    alpha_prog: Node | None
    beta_prog: Node | None
    degree: int | None
    raw: dict

    kind = "jet"


def parse_group_fixture(data: dict, path: str = "$") -> GroupFixture:
    gblock = _require(data, "group", path)
    gpath = f"{path}.group"
    table = _require(gblock, "table", gpath)
    if not isinstance(table, list) or not all(isinstance(r, list) for r in table):
        raise FixtureError(f"{gpath}.table", "expected a list of rows")
    order = len(table)
    if order > GROUP_ORDER_CAP:
        raise FixtureError(
            f"{gpath}.table", f"order {order} exceeds the group order cap {GROUP_ORDER_CAP}"
        )
    table = [
        [_int_at(x, f"{gpath}.table[{i}][{j}]") for j, x in enumerate(row)]
        for i, row in enumerate(table)
    ]
    if "order" in gblock and gblock["order"] != order:
        raise FixtureError(f"{gpath}.order", f"order {gblock['order']} != table size {order}")
    identity = gblock.get("identity", 0)
    if identity != 0:
        raise FixtureError(f"{gpath}.identity", "fixture identity must be index 0")
    labels = gblock.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or len(labels) != order:
            raise FixtureError(f"{gpath}.labels", f"expected {order} labels")
        labels = [str(x) for x in labels]
    group = FiniteGroup(table, labels=labels)

    draw = _require(data, "difference", path)
    if not isinstance(draw, list) or len(draw) != order:
        raise FixtureError(f"{path}.difference", f"expected a list of {order} indices")
    d = [_int_at(x, f"{path}.difference[{i}]") for i, x in enumerate(draw)]
    dg = DifferenceGroup(group, d)

    rep = None
    if "rep" in data:
        rpath = f"{path}.rep"
        rblock = data["rep"]
        field = _field_at(_require(rblock, "field", rpath), f"{rpath}.field")
        dim = _int_at(_require(rblock, "dim", rpath), f"{rpath}.dim")
        theta = _theta_at(field, rblock, order, dim, rpath, "element")
        t = parse_matrix(field, _require(rblock, "T", rpath), f"{rpath}.T", (dim, dim))
        rep = DifferenceRep(dg, theta, t)

    pair = None
    if "cocycle" in data:
        if rep is None:
            raise FixtureError(f"{path}.cocycle", "cocycle blocks need a rep block")
        cpath = f"{path}.cocycle"
        cblock = data["cocycle"]
        alpha = parse_cochain(
            group, rep.field, rep.dim, _require(cblock, "alpha", cpath), f"{cpath}.alpha"
        )
        beta = parse_cochain(
            group, rep.field, rep.dim, _require(cblock, "beta", cpath), f"{cpath}.beta"
        )
        if alpha.degree != 2 or beta.degree != 1:
            raise FixtureError(cpath, "extension cocycles have degrees (2, 1)")
        pair = CochainPair(alpha, beta)
    return GroupFixture(dg, rep, pair, data)


def format_group_fixture(fx: GroupFixture) -> dict:
    group = fx.dg.group
    out: dict[str, Any] = {
        "group": {
            "order": group.order,
            "identity": group.identity,
            "table": [list(row) for row in group.table],
            "labels": [group.label(g) for g in group.elements],
        },
        "difference": list(fx.dg.d),
    }
    if fx.rep is not None:
        f = fx.rep.field
        out["rep"] = {
            "field": field_to_spec(f),
            "dim": fx.rep.dim,
            "theta": {str(g): format_matrix(f, fx.rep.theta[g]) for g in group.elements},
            "T": format_matrix(f, fx.rep.t),
        }
    if fx.pair is not None:
        f = fx.rep.field
        out["cocycle"] = {
            "alpha": format_cochain(f, fx.pair.alpha),
            "beta": format_cochain(f, fx.pair.beta),
        }
    return out


def parse_lie_fixture(data: dict, path: str = "$") -> LieFixture:
    field = _field_at(data["field"], f"{path}.field") if "field" in data else Rationals()
    dim = _int_at(_require(data, "dim", path), f"{path}.dim")
    braw = _require(data, "brackets", path)
    if not isinstance(braw, dict):
        raise FixtureError(f"{path}.brackets", "expected an object keyed by 'i,j'")
    brackets = {}
    for key, coords in braw.items():
        bpath = f"{path}.brackets.{key}"
        # the canonical decimal form only: int() would also read " 1" or "01"
        match = re.fullmatch(r"(0|-?[1-9][0-9]*),(0|-?[1-9][0-9]*)", key)
        if match is None:
            raise FixtureError(bpath, f"bracket key must be 'i,j', got {key!r}")
        i, j = map(int, match.groups())
        if not i < j:
            raise FixtureError(bpath, f"bracket keys need i < j, got {key!r}")
        if not 0 <= i < j < dim:
            raise FixtureError(bpath, f"bracket key ({i},{j}) must satisfy 0 <= i < j < dim")
        if not isinstance(coords, list) or len(coords) != dim:
            raise FixtureError(bpath, f"expected a coordinate vector of length {dim}")
        brackets[(i, j)] = tuple(_scalars_at(field, coords, bpath))
    lie = LieAlgebra(field, dim, brackets)
    d = parse_matrix(field, _require(data, "D", path), f"{path}.D", (dim, dim))
    dop = LieDifferenceOp(lie, d)

    rep = None
    if "rep" in data:
        rpath = f"{path}.rep"
        rblock = data["rep"]
        rdim = _int_at(_require(rblock, "dim", rpath), f"{rpath}.dim")
        theta = _theta_at(field, rblock, dim, rdim, rpath, "basis element")
        t = parse_matrix(field, _require(rblock, "T", rpath), f"{rpath}.T", (rdim, rdim))
        rep = LieRep(dop, theta, t)
    return LieFixture(dop, rep, data)


def format_lie_fixture(fx: LieFixture) -> dict:
    lie = fx.dop.lie
    f = lie.field
    out: dict[str, Any] = {
        "field": field_to_spec(f),
        "dim": lie.dim,
        "brackets": {
            f"{i},{j}": [f.format(row.get(m, f.zero)) for m in range(lie.dim)]
            for i in range(lie.dim)
            for j in range(i + 1, lie.dim)
            if (row := lie.bracket_basis(i, j))
        },
        "D": format_matrix(f, fx.dop.d),
    }
    if fx.rep is not None:
        out["rep"] = {
            "dim": fx.rep.dimv,
            "theta": {str(i): format_matrix(f, fx.rep.theta[i]) for i in range(lie.dim)},
            "T": format_matrix(f, fx.rep.t),
        }
    return out


def _resolve_program(value: Any, field: Any, size: int, role: str, path: str, degree: int = 1) -> Node:
    if isinstance(value, str):
        try:
            if role == "difference":
                return builtin_difference_program(value)
            if role == "rep":
                return builtin_rep_program(value)
            return builtin_cochain_program(value, field, size, degree)
        except ProgramError as exc:
            raise FixtureError(path, str(exc)) from exc
    if isinstance(value, dict):
        try:
            return parse_program(value, field)
        except (ProgramError, ScalarError) as exc:
            raise FixtureError(path, str(exc)) from exc
    raise FixtureError(path, f"expected a builtin name or a program tree, got {value!r}")


def require_arity(prog: Node, arity: int, path: str, lead: str) -> None:
    """Reject a program that reads an input at or beyond ``arity``; the
    message is ``lead``, the arity and the number of inputs it reads."""
    inputs = max_input_index(prog) + 1
    if inputs > arity:
        raise FixtureError(path, f"{lead} {arity} input(s), but it reads {inputs}")


# the largest matrix size and value-shape entry a jet fixture may ask for
MATRIX_SIZE_CAP = 6
# the largest group order a fixture may give; validating the table is
# O(order^2 * #generators) (Light's test on a generating set)
GROUP_ORDER_CAP = 128


def _size_at(value: Any, path: str) -> int:
    size = _int_at(value, path)
    if not 1 <= size <= MATRIX_SIZE_CAP:
        raise FixtureError(path, f"expected a size in 1..{MATRIX_SIZE_CAP}, got {size}")
    return size


def parse_jet_fixture(data: dict, path: str = "$") -> JetFixture:
    size = _size_at(_require(data, "matrix-size", path), f"{path}.matrix-size")
    field = _field_at(_require(data, "field", path), f"{path}.field")
    spec = MatrixGroupSpec(field, size)
    dpath = f"{path}.difference-program"
    dprog = _resolve_program(
        _require(data, "difference-program", path), field, size, "difference", dpath
    )
    require_arity(dprog, 1, dpath, "a difference-program takes")
    if "basis" in data:
        braw = data["basis"]
        if not isinstance(braw, list) or not braw:
            raise FixtureError(f"{path}.basis", "expected a nonempty list of matrices")
        basis = [
            parse_matrix(field, m, f"{path}.basis[{i}]", (size, size))
            for i, m in enumerate(braw)
        ]
    else:
        basis = spec.standard_basis()

    theta_prog = None
    t = None
    vshape = None
    if "rep-program" in data:
        rpath = f"{path}.rep-program"
        theta_prog = _resolve_program(data["rep-program"], field, size, "rep", rpath)
        require_arity(theta_prog, 2, rpath, "a rep-program takes")
        spath = f"{path}.value-shape"
        shape_raw = _require(data, "value-shape", path)
        if not isinstance(shape_raw, list) or len(shape_raw) != 2:
            raise FixtureError(spath, "expected [rows, cols]")
        vshape = VSpace(*(_size_at(x, spath) for x in shape_raw))
        t = parse_matrix(field, _require(data, "T", path), f"{path}.T", (vshape.dim, vshape.dim))

    degree = None
    if "degree" in data:
        degree = _int_at(data["degree"], f"{path}.degree")
        if not 1 <= degree <= VE_DEGREE_CAP:
            raise FixtureError(
                f"{path}.degree", f"expected a degree in 1..{VE_DEGREE_CAP}, got {degree}"
            )
    alpha_prog = None
    if "alpha-program" in data:
        alpha_prog = _resolve_program(
            data["alpha-program"], field, size, "cochain", f"{path}.alpha-program",
            degree=degree if degree is not None else 1,
        )
    beta_prog = None
    if "beta-program" in data and data["beta-program"] is not None:
        beta_prog = _resolve_program(
            data["beta-program"], field, size, "cochain", f"{path}.beta-program",
            degree=(degree - 1) if degree is not None else 1,
        )
    return JetFixture(
        spec, dprog, basis, theta_prog, t, vshape, alpha_prog, beta_prog, degree, data
    )


def detect_kind(data: dict) -> str:
    if not isinstance(data, dict):
        raise FixtureError("$", f"fixture must be a JSON object, got {type(data).__name__}")
    if "group" in data:
        return "group"
    if "brackets" in data:
        return "lie"
    if "difference-program" in data:
        return "jet"
    raise FixtureError(
        "$",
        "cannot tell the fixture kind: expected a 'group', 'brackets', or "
        "'difference-program' field",
    )


def parse_fixture(data: dict) -> GroupFixture | LieFixture | JetFixture:
    kind = detect_kind(data)
    if kind == "group":
        return parse_group_fixture(data)
    if kind == "lie":
        return parse_lie_fixture(data)
    return parse_jet_fixture(data)


def load_fixture(path: str) -> GroupFixture | LieFixture | JetFixture:
    data = load_fixture_data(path)
    return parse_fixture(data)


def load_fixture_data(path: str) -> dict:
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return json.loads(raw.decode("utf-8"), object_pairs_hook=_unique_keys)
    except UnicodeDecodeError as exc:
        raise FixtureError("$", f"fixture is not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FixtureError(
            f"line {exc.lineno} column {exc.colno}", f"invalid JSON: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise FixtureError("$", "JSON nesting is too deep to decode") from exc


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """A JSON object as a dict; a key given twice is an error."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise FixtureError("$", f"duplicate key {key!r} in a JSON object")
        out[key] = value
    return out


def fixture_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()
