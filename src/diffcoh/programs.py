"""Ring-generic matrix programs.

A program is an expression tree whose leaves are inputs and constants
and whose nodes are matrix and scalar operations.  The same tree can be
evaluated over a base field (to test identities on sampled concrete
matrices) and over a jet ring (to differentiate it exactly).  Scalars
are 1x1 matrices, so one value type suffices.

Each op is one row of ``_OPS``: its arity, its value from (ring,
payload, *argument values) and how the wire format reads and writes its
payload.  Adding an op is one row plus its constructor.  One memoized
post-order walk over node ids evaluates a tree, substitutes programs
for its inputs (which builds the coboundary and connecting-map
combinators from cochain programs) and finds its largest input index.
An evaluation computes each subtree once and keeps nothing after it
returns.  Over a slot-graded jet ring (see ``scalars.JetRing``) one
evaluation carries every basis direction of an input at once, so a
derivative, or a van Est image of degree 1 or 2, is one evaluation.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from .linalg import LinAlgError, Matrix, adjugate as _adjugate, det as _det, embed_matrix
from .linalg import matrix_inverse
from .scalars import JetRing


class ProgramError(ValueError):
    """Raised for malformed program trees or evaluation shape errors."""


# the deepest program tree, in nodes on a root-to-leaf path, that
# ``parse_program`` accepts; the tree walk recurses once per node
PROGRAM_DEPTH_CAP = 100


@dataclass(frozen=True)
class Node:
    op: str
    args: tuple["Node", ...] = ()
    payload: Any = None

    def __post_init__(self) -> None:
        expected = _op(self.op).arity
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


def _lift(ring: Any, m: Matrix) -> Matrix:
    """A base-field constant as a value over ``ring``."""
    if isinstance(ring, JetRing):
        return embed_matrix(m, ring)
    if m.ring != ring:
        raise ProgramError("constant is over a different field than the inputs")
    return m


def _mul(ring: Any, _: Any, a: Matrix, b: Matrix) -> Matrix:
    """a b, where a 1x1 factor of a larger value acts as a scalar."""
    if a.nrows == 1 and a.ncols == 1 and (b.nrows, b.ncols) != (1, 1):
        return b.scale(a.at(0, 0))
    if b.nrows == 1 and b.ncols == 1 and (a.nrows, a.ncols) != (1, 1):
        return a.scale(b.at(0, 0))
    return a @ b


def _entry(ring: Any, ij: tuple[int, int], m: Matrix) -> Matrix:
    i, j = ij
    if not (0 <= i < m.nrows and 0 <= j < m.ncols):
        raise ProgramError(f"entry ({i},{j}) outside a {m.nrows}x{m.ncols} value")
    return Matrix.from_rows(ring, [[m.at(i, j)]])


def _linmap(ring: Any, lmat: Matrix, m: Matrix) -> Matrix:
    lmat = _lift(ring, lmat)
    if lmat.ncols != m.nrows * m.ncols:
        raise ProgramError(
            f"linear map expects {lmat.ncols} coordinates, value has {m.nrows * m.ncols}"
        )
    if lmat.nrows != lmat.ncols:
        raise ProgramError(f"linear map is {lmat.nrows}x{lmat.ncols}, not square")
    return apply_linmap(lmat, m)


def _matrix_payload(key: str) -> tuple[Callable, Callable]:
    return (
        lambda d, op, f: _matrix_field(d, op, key, f),
        lambda m, f: {key: [[f.format(x) for x in row] for row in m.to_lists()]},
    )


# an op's arity, its value(ring, payload, *argument values) (None for an
# input) and, for an op with a payload, read(data, op, field) -> payload
# and write(payload, field) -> its wire fields
_Op = namedtuple("_Op", "arity value read write", defaults=(None, None))


# ``matrix_inverse``, ``_adjugate`` and ``_det`` are looked up when an op
# runs, so a caller may replace them on this module
_OPS = {
    "input": _Op(0, None, lambda d, op, f: _index_field(d, op, "index"), lambda i, f: {"index": i}),
    "const": _Op(0, _lift, *_matrix_payload("value")),
    "scalar": _Op(
        0,
        lambda ring, c: Matrix.from_rows(
            ring, [[ring.embed(c) if isinstance(ring, JetRing) else c]]
        ),
        lambda d, op, f: f.parse(_payload(d, op, "value")), lambda c, f: {"value": f.format(c)},
    ),
    "add": _Op(2, lambda ring, _, a, b: a + b),
    "sub": _Op(2, lambda ring, _, a, b: a - b),
    "neg": _Op(1, lambda ring, _, a: -a),
    "mul": _Op(2, _mul),
    "inverse": _Op(1, lambda ring, _, a: matrix_inverse(a)),
    "adjugate": _Op(1, lambda ring, _, a: _adjugate(a)),
    "det": _Op(1, lambda ring, _, a: Matrix.from_rows(ring, [[_det(a)]])),
    "trace": _Op(1, lambda ring, _, a: Matrix.from_rows(ring, [[a.trace()]])),
    "entry": _Op(
        1,
        _entry,
        lambda d, op, f: (_index_field(d, op, "i"), _index_field(d, op, "j")),
        lambda ij, f: dict(zip("ij", ij)),
    ),
    "linmap": _Op(1, _linmap, *_matrix_payload("matrix")),
    "conj": _Op(1, lambda ring, _, a: a.map_entries(ring.conj, ring)),
}


def _op(op: Any) -> _Op:
    if isinstance(op, str) and op in _OPS:
        return _OPS[op]
    raise ProgramError(f"unknown program op {op!r}")


def _walk(node: Node, memo: dict, leaf: Callable, apply: Callable) -> Any:
    """The value of ``node``, post-order: ``leaf(index)`` at an input and
    ``apply(node, argument values)`` elsewhere.  ``memo`` maps node ids
    to values; the innermost op whose matrix operation fails is named."""
    key = id(node)
    if key in memo:
        return memo[key]
    if node.op == "input":
        out = leaf(node.payload)
    else:
        values = [_walk(a, memo, leaf, apply) for a in node.args]
        try:
            out = apply(node, values)
        except LinAlgError as exc:
            raise ProgramError(f"op {node.op!r}: {exc}") from exc
    memo[key] = out
    return out


def evaluate(node: Node, inputs: Sequence[Matrix], ring: Any) -> Matrix:
    """Evaluate a program on input matrices over ``ring``.

    Constants and linmap payloads are stored over the base field and
    lifted when the evaluation ring is a jet ring.  An op whose matrix
    operation fails (shape mismatch, singular inverse) raises
    ``ProgramError`` naming the op.
    """

    def leaf(index: int) -> Matrix:
        if not 0 <= index < len(inputs):
            raise ProgramError(f"program wants input {index}, got {len(inputs)}")
        return inputs[index]

    return _walk(node, {}, leaf, lambda n, values: _OPS[n.op].value(ring, n.payload, *values))


def substitute(node: Node, replacements: Sequence[Node]) -> Node:
    """Replace input i by replacements[i] throughout, preserving sharing."""

    def leaf(index: int) -> Node:
        if not 0 <= index < len(replacements):
            raise ProgramError(f"substitution lacks a program for input {index}")
        return replacements[index]

    return _walk(node, {}, leaf, lambda n, args: Node(n.op, tuple(args), n.payload) if args else n)


def max_input_index(node: Node) -> int:
    """Largest input index used, or -1 for a closed program."""
    return _walk(node, {}, lambda index: index, lambda n, indices: max(indices, default=-1))


def parse_program(data: Any, field: Any, depth: int = 1) -> Node:
    """Parse a serialized program tree whose root sits at ``depth``.

    The wire format is {"op": ..., "args": [...]} plus the payload
    fields that the op's row of ``_OPS`` reads.  Indices are ints >= 0
    and matrices are nonempty lists of equal-length nonempty rows; a
    missing or malformed payload raises ``ProgramError`` naming the op
    and the field, and so does a tree deeper than ``PROGRAM_DEPTH_CAP``.
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
    spec = _op(op)
    payload = spec.read(data, op, field) if spec.read else None
    return Node(op, args, payload)


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
    write = _OPS[node.op].write
    if write:
        out.update(write(node.payload, field))
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
