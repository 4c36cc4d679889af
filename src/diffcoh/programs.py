"""Ring-generic matrix programs.

A program is an expression tree whose leaves are inputs and constants
and whose nodes are matrix and scalar operations.  The same tree can be
evaluated over a base field (to test identities on sampled concrete
matrices) and over a jet ring (to differentiate it exactly).  Scalars
are 1x1 matrices, so one value type suffices.

Node kinds: input, const, scalar, add, sub, neg, mul (with 1x1
broadcast), inverse, adjugate, det, trace, entry, linmap (a constant
linear map applied to the flattened value), conj (the base field's
automorphism applied entrywise).

Programs compose by substitution, which is how coboundary and
connecting-map combinators are built from cochain programs.

One evaluation computes each subtree once and keeps nothing after it
returns.  Over a slot-graded jet ring (see ``scalars.JetRing``) one
evaluation carries every basis direction of an input at once, so a
derivative, or a van Est image of degree 1 or 2, is one evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from .linalg import LinAlgError, Matrix, adjugate as _adjugate, det as _det, matrix_inverse
from .scalars import JetRing


class ProgramError(ValueError):
    """Raised for malformed program trees or evaluation shape errors."""


# the deepest program tree, in nodes on a root-to-leaf path, that
# ``parse_program`` accepts; evaluation and the tree walks recurse per node
PROGRAM_DEPTH_CAP = 100


_NO_ARGS = ("input", "const", "scalar")
_ONE_ARG = ("neg", "inverse", "adjugate", "det", "trace", "entry", "linmap", "conj")
_TWO_ARGS = ("add", "sub", "mul")


@dataclass(frozen=True)
class Node:
    op: str
    args: tuple["Node", ...] = ()
    payload: Any = None

    def __post_init__(self) -> None:
        if self.op in _NO_ARGS:
            expected = 0
        elif self.op in _ONE_ARG:
            expected = 1
        elif self.op in _TWO_ARGS:
            expected = 2
        else:
            raise ProgramError(f"unknown program op {self.op!r}")
        if len(self.args) != expected:
            raise ProgramError(f"op {self.op!r} takes {expected} argument(s)")


def inp(index: int) -> Node:
    return Node("input", payload=index)


def const(m: Matrix) -> Node:
    return Node("const", payload=m)


def scalar(c: Any) -> Node:
    return Node("scalar", payload=c)


def add(a: Node, b: Node) -> Node:
    return Node("add", (a, b))


def sub(a: Node, b: Node) -> Node:
    return Node("sub", (a, b))


def neg(a: Node) -> Node:
    return Node("neg", (a,))


def mul(a: Node, b: Node) -> Node:
    return Node("mul", (a, b))


def inverse(a: Node) -> Node:
    return Node("inverse", (a,))


def adjugate_of(a: Node) -> Node:
    return Node("adjugate", (a,))


def det_of(a: Node) -> Node:
    return Node("det", (a,))


def trace_of(a: Node) -> Node:
    return Node("trace", (a,))


def entry(a: Node, i: int, j: int) -> Node:
    return Node("entry", (a,), payload=(i, j))


def linmap(m: Matrix, a: Node) -> Node:
    return Node("linmap", (a,), payload=m)


def conj(a: Node) -> Node:
    return Node("conj", (a,))


def apply_linmap(lmat: Matrix, m: Matrix) -> Matrix:
    """The linear map ``lmat`` applied to the entries of m, row by row,
    cut back into the rows of m."""
    width = m.ncols
    coords = lmat.matvec({i * width + j: x for i, row in enumerate(m.rows) for j, x in row.items()})
    rows: list[dict] = [{} for _ in range(m.nrows)]
    for k, x in coords.items():
        rows[k // width][k % width] = x
    return Matrix(lmat.ring, m.nrows, width, rows)


def evaluate(node: Node, inputs: Sequence[Matrix], ring: Any) -> Matrix:
    """Evaluate a program on input matrices over ``ring``.

    Constants and linmap payloads are stored over the base field and
    lifted when the evaluation ring is a jet ring.  A subtree shared
    within the tree is evaluated once per call.  An op whose matrix
    operation fails (shape mismatch, singular inverse) raises
    ``ProgramError`` naming the op.
    """
    values: dict[int, Matrix] = {}

    def lift(m: Matrix) -> Matrix:
        if isinstance(ring, JetRing):
            if m.ring != ring.base:
                raise ProgramError("constant is over a different field than the jet base")
            return m.map_entries(ring.embed, ring)
        if m.ring != ring:
            raise ProgramError("constant is over a different field than the inputs")
        return m

    def run(n: Node) -> Matrix:
        key = id(n)
        if key in values:
            return values[key]
        try:
            out = _step(n)
        except LinAlgError as exc:
            raise ProgramError(f"op {n.op!r}: {exc}") from exc
        values[key] = out
        return out

    def _step(n: Node) -> Matrix:
        if n.op == "input":
            idx = n.payload
            if not 0 <= idx < len(inputs):
                raise ProgramError(f"program wants input {idx}, got {len(inputs)}")
            return inputs[idx]
        if n.op == "const":
            return lift(n.payload)
        if n.op == "scalar":
            return _scalar_matrix(n.payload, ring)
        if n.op == "add":
            return run(n.args[0]) + run(n.args[1])
        if n.op == "sub":
            return run(n.args[0]) - run(n.args[1])
        if n.op == "neg":
            return -run(n.args[0])
        if n.op == "mul":
            a, b = run(n.args[0]), run(n.args[1])
            if a.nrows == 1 and a.ncols == 1 and (b.nrows, b.ncols) != (1, 1):
                return b.scale(a.at(0, 0))
            if b.nrows == 1 and b.ncols == 1 and (a.nrows, a.ncols) != (1, 1):
                return a.scale(b.at(0, 0))
            return a @ b
        if n.op == "inverse":
            return matrix_inverse(run(n.args[0]))
        if n.op == "adjugate":
            return _adjugate(run(n.args[0]))
        if n.op == "det":
            return Matrix.from_rows(ring, [[_det(run(n.args[0]))]])
        if n.op == "trace":
            return Matrix.from_rows(ring, [[run(n.args[0]).trace()]])
        if n.op == "entry":
            i, j = n.payload
            m = run(n.args[0])
            if not (0 <= i < m.nrows and 0 <= j < m.ncols):
                raise ProgramError(f"entry ({i},{j}) outside a {m.nrows}x{m.ncols} value")
            return Matrix.from_rows(ring, [[m.at(i, j)]])
        if n.op == "linmap":
            m = run(n.args[0])
            lmat = lift(n.payload)
            if lmat.ncols != m.nrows * m.ncols:
                raise ProgramError(
                    f"linear map expects {lmat.ncols} coordinates, value has "
                    f"{m.nrows * m.ncols}"
                )
            if lmat.nrows != lmat.ncols:
                raise ProgramError(f"linear map is {lmat.nrows}x{lmat.ncols}, not square")
            return apply_linmap(lmat, m)
        if n.op == "conj":
            m = run(n.args[0])
            return m.map_entries(ring.conj, ring)
        raise ProgramError(f"unknown program op {n.op!r}")

    # run and _step refer to each other, so their closures form a cycle
    # that lives until the cycle collector runs; emptying ``values``
    # frees the subtree values when the call returns
    try:
        return run(node)
    finally:
        values.clear()


def _scalar_matrix(c: Any, ring: Any) -> Matrix:
    if isinstance(ring, JetRing):
        return Matrix.from_rows(ring, [[ring.embed(c)]])
    return Matrix.from_rows(ring, [[c]])


def substitute(node: Node, replacements: Sequence[Node]) -> Node:
    """Replace input i by replacements[i] throughout, preserving sharing."""
    cache: dict[int, Node] = {}

    def walk(n: Node) -> Node:
        key = id(n)
        if key in cache:
            return cache[key]
        if n.op == "input":
            idx = n.payload
            if not 0 <= idx < len(replacements):
                raise ProgramError(f"substitution lacks a program for input {idx}")
            out = replacements[idx]
        elif n.args:
            out = Node(n.op, tuple(walk(a) for a in n.args), n.payload)
        else:
            out = n
        cache[key] = out
        return out

    return walk(node)


def max_input_index(node: Node) -> int:
    """Largest input index used, or -1 for a closed program."""
    seen: dict[int, int] = {}

    def walk(n: Node) -> int:
        if id(n) not in seen:
            args = [walk(a) for a in n.args]
            seen[id(n)] = n.payload if n.op == "input" else max(args, default=-1)
        return seen[id(n)]

    return walk(node)


def parse_program(data: Any, field: Any, depth: int = 1) -> Node:
    """Parse a serialized program tree whose root sits at ``depth``.

    The wire format is {"op": ..., "args": [...]} with payload fields
    "index" (input), "value" (const rows / scalar), "i"/"j" (entry),
    and "matrix" (linmap).  Indices are ints >= 0 and matrices are
    nonempty lists of equal-length nonempty rows; a missing or malformed
    payload raises ``ProgramError`` naming the op and the field, and so
    does a tree deeper than ``PROGRAM_DEPTH_CAP`` nodes.
    """
    if depth > PROGRAM_DEPTH_CAP:
        raise ProgramError(f"program tree is deeper than {PROGRAM_DEPTH_CAP} nodes")
    if not isinstance(data, dict) or "op" not in data:
        raise ProgramError(f"program node must be an object with an 'op': {data!r}")
    op = data["op"]
    raw_args = data.get("args", [])
    if not isinstance(raw_args, list):
        raise ProgramError(f"'args' must be a list at op {op!r}")
    args = tuple(parse_program(a, field, depth + 1) for a in raw_args)
    if op == "input":
        return Node("input", payload=_index_field(data, op, "index"))
    if op == "const":
        return Node("const", payload=_matrix_field(data, op, "value", field))
    if op == "scalar":
        return Node("scalar", payload=field.parse(_payload(data, op, "value")))
    if op == "entry":
        i, j = _index_field(data, op, "i"), _index_field(data, op, "j")
        return Node("entry", args, payload=(i, j))
    if op == "linmap":
        return Node("linmap", args, payload=_matrix_field(data, op, "matrix", field))
    return Node(op, args)


def _payload(data: dict, op: Any, key: str) -> Any:
    if key not in data:
        raise ProgramError(f"op {op!r} needs a {key!r} field")
    return data[key]


def _index_field(data: dict, op: Any, key: str) -> int:
    value = _payload(data, op, key)
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ProgramError(f"op {op!r}: {key!r} must be an int >= 0, got {value!r}")
    return value


def _matrix_field(data: dict, op: Any, key: str, field: Any) -> Matrix:
    rows = _payload(data, op, key)
    if (
        not isinstance(rows, list)
        or not rows
        or not all(isinstance(row, list) and row for row in rows)
        or any(len(row) != len(rows[0]) for row in rows)
    ):
        raise ProgramError(
            f"op {op!r}: {key!r} must be a nonempty list of equal-length nonempty rows"
        )
    return Matrix.from_rows(field, [[field.parse(x) for x in row] for row in rows])


def format_program(node: Node, field: Any) -> dict:
    out: dict[str, Any] = {"op": node.op}
    if node.op == "input":
        out["index"] = node.payload
        return out
    if node.op == "const":
        out["value"] = [
            [field.format(x) for x in row] for row in node.payload.to_lists()
        ]
        return out
    if node.op == "scalar":
        out["value"] = field.format(node.payload)
        return out
    if node.op == "entry":
        out["i"], out["j"] = node.payload
    if node.op == "linmap":
        out["matrix"] = [
            [field.format(x) for x in row] for row in node.payload.to_lists()
        ]
    if node.args:
        out["args"] = [format_program(a, field) for a in node.args]
    return out


def builtin_difference_program(name: str) -> Node:
    """Named one-input programs computing classical difference operators."""
    g = inp(0)
    if name == "inverse":
        return inverse(g)
    if name == "adjugate":
        return adjugate_of(g)
    if name == "conjugate-inverse":
        return mul(conj(g), inverse(g))
    raise ProgramError(f"unknown difference-operator builtin {name!r}")


def builtin_rep_program(name: str) -> Node:
    """Named two-input programs (g, u) -> Theta(g) u."""
    g, u = inp(0), inp(1)
    if name == "det":
        return mul(det_of(g), u)
    if name == "identity-rep":
        return mul(g, u)
    raise ProgramError(f"unknown representation builtin {name!r}")


def builtin_cochain_program(name: str, field: Any, size: int, degree: int) -> Node:
    """Named n-input cochain programs with values in a 1-dim space."""
    if name == "trace-shift":
        if degree != 1:
            raise ProgramError("trace-shift is a 1-cochain")
        return sub(trace_of(inp(0)), scalar(field.from_int(size)))
    raise ProgramError(f"unknown cochain builtin {name!r}")
