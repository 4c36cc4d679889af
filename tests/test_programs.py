"""Expression-tree matrix programs: construction, evaluation over
fields and jet rings, substitution, and the serialized format."""

from fractions import Fraction

import pytest

from diffcoh import programs
from diffcoh.linalg import Matrix, jet_part
from diffcoh.programs import (
    Node,
    ProgramError,
    add,
    adjugate_of,
    builtin_cochain_program,
    builtin_difference_program,
    builtin_rep_program,
    conj,
    const,
    det_of,
    entry,
    evaluate,
    format_program,
    inp,
    inverse,
    linmap,
    max_input_index,
    mul,
    neg,
    parse_program,
    scalar,
    sub,
    substitute,
    trace_of,
)
from diffcoh.scalars import JetRing, QuadraticField, Rationals

Q = Rationals()
QI = QuadraticField(-1)


def qmat(rows):
    return Matrix.from_rows(Q, [[Fraction(x) for x in row] for row in rows])


def test_node_arity_is_enforced():
    with pytest.raises(ProgramError):
        Node("add", (inp(0),))
    with pytest.raises(ProgramError):
        Node("neg", ())
    with pytest.raises(ProgramError):
        Node("input", (inp(0),), payload=0)
    with pytest.raises(ProgramError):
        Node("transmogrify", ())


def test_evaluate_arithmetic_and_unary_ops():
    g = qmat([[1, 2], [3, 4]])
    prog = sub(add(inp(0), inp(0)), inp(0))
    assert evaluate(prog, [g], Q) == g
    assert evaluate(neg(inp(0)), [g], Q) == g.scale(Fraction(-1))
    assert evaluate(det_of(inp(0)), [g], Q) == qmat([[-2]])
    assert evaluate(trace_of(inp(0)), [g], Q) == qmat([[5]])
    assert evaluate(adjugate_of(inp(0)), [g], Q) == qmat([[4, -2], [-3, 1]])
    assert evaluate(inverse(inp(0)), [g], Q) == qmat(
        [[Fraction(-2), Fraction(1)], [Fraction(3, 2), Fraction(-1, 2)]]
    )
    assert evaluate(entry(inp(0), 1, 0), [g], Q) == qmat([[3]])


def test_one_by_one_values_broadcast_through_mul():
    g = qmat([[1, 2], [3, 4]])
    assert evaluate(mul(det_of(inp(0)), inp(0)), [g], Q) == g.scale(Fraction(-2))
    assert evaluate(mul(inp(0), det_of(inp(0))), [g], Q) == g.scale(Fraction(-2))
    assert evaluate(mul(scalar(Fraction(3)), scalar(Fraction(7))), [], Q) == qmat([[21]])


def test_evaluate_shape_errors():
    g = qmat([[1, 2], [3, 4]])
    with pytest.raises(ProgramError):
        evaluate(inp(1), [g], Q)
    with pytest.raises(ProgramError):
        evaluate(entry(inp(0), 2, 0), [g], Q)
    with pytest.raises(ProgramError):
        evaluate(linmap(qmat([[1, 0, 0]]), inp(0)), [g], Q)


def test_a_missing_input_below_an_op_is_named():
    g = qmat([[1, 2], [3, 4]])
    with pytest.raises(ProgramError, match="^program wants input 2, got 2$"):
        evaluate(mul(inverse(inp(0)), det_of(inp(2))), [g, g], Q)


def test_linmap_acts_on_flattened_entries():
    # reversal of the 4 entries of a 2x2 value
    rev = qmat([[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]])
    g = qmat([[1, 2], [3, 4]])
    assert evaluate(linmap(rev, inp(0)), [g], Q) == qmat([[4, 3], [2, 1]])


def test_constants_lift_into_jet_rings():
    ring = JetRing(Q, 1)
    prog = mul(const(qmat([[2]])), inp(0))
    x = Matrix.from_rows(ring, [[ring.generator(0)]])
    out = evaluate(prog, [x], ring)
    assert jet_part(out, (0,)) == qmat([[2]])
    assert jet_part(out, ()) == qmat([[0]])
    wrong = const(Matrix.from_rows(QI, [[QI.one]]))
    with pytest.raises(ProgramError):
        evaluate(mul(wrong, inp(0)), [x], ring)


def test_jet_inverse_differentiates_the_inverse_map():
    # e-part of (I + e x)^{-1} is -x
    ring = JetRing(Q, 1)
    x = qmat([[1, 2], [3, 4]])
    arg = Matrix.identity(ring, 2) + x.map_entries(
        lambda c: ring.mul(ring.generator(0), ring.embed(c)), ring
    )
    out = evaluate(inverse(inp(0)), [arg], ring)
    assert jet_part(out, ()) == Matrix.identity(Q, 2)
    assert jet_part(out, (0,)) == x.scale(Fraction(-1))


def test_conj_applies_the_field_automorphism():
    g = Matrix.from_rows(QI, [[QI.from_parts(1, 2)]])
    out = evaluate(conj(inp(0)), [g], QI)
    assert out.at(0, 0) == QI.from_parts(1, -2)


def test_substitute_composes_programs():
    square = mul(inp(0), inp(0))
    swapped = substitute(mul(inp(0), inp(1)), [inp(1), inp(0)])
    g = qmat([[1, 1], [0, 1]])
    h = qmat([[2, 0], [0, 3]])
    assert evaluate(swapped, [g, h], Q) == h @ g
    composed = substitute(square, [mul(inp(0), inp(1))])
    assert evaluate(composed, [g, h], Q) == (g @ h) @ (g @ h)
    with pytest.raises(ProgramError):
        substitute(mul(inp(0), inp(2)), [inp(0), inp(1)])


def test_max_input_index():
    assert max_input_index(scalar(Fraction(1))) == -1
    assert max_input_index(mul(inp(0), inp(3))) == 3
    assert max_input_index(builtin_rep_program("det")) == 1
    # a tree of 2^60 paths through 61 shared nodes is walked once per node
    shared = inp(2)
    for _ in range(60):
        shared = mul(shared, shared)
    assert max_input_index(shared) == 2


def test_parse_format_round_trip():
    rev = qmat([[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]])
    prog = add(
        mul(det_of(inp(0)), const(qmat([[1, 0], [0, 2]]))),
        linmap(rev, inp(1)),
    )
    shift = mul(entry(conj(inp(0)), 0, 1), const(qmat([[1, 0], [0, 1]])))
    prog = sub(prog, mul(scalar(Fraction(1, 3)), shift))
    data = format_program(prog, Q)
    again = parse_program(data, Q)
    g = qmat([[2, 1], [1, 1]])
    u = qmat([[1, 2], [3, 4]])
    assert evaluate(again, [g, u], Q) == evaluate(prog, [g, u], Q)
    assert format_program(again, Q) == data


# op -> a program whose root is that op, on inputs g (2x2) and u (2x2)
_ONE_OF_EACH_OP = {
    "input": inp(1),
    "const": const(qmat([[1, 2], [0, 3]])),
    "scalar": scalar(Fraction(2, 3)),
    "add": add(inp(0), inp(1)),
    "sub": sub(inp(0), inp(1)),
    "neg": neg(inp(1)),
    "mul": mul(inp(0), mul(scalar(Fraction(-5)), inp(1))),
    "inverse": inverse(inp(0)),
    "adjugate": adjugate_of(inp(1)),
    "det": det_of(inp(0)),
    "trace": trace_of(inp(1)),
    "entry": entry(inp(1), 1, 0),
    "linmap": linmap(qmat([[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]), inp(1)),
    "conj": conj(inp(0)),
}


def test_the_samples_cover_every_op():
    assert set(_ONE_OF_EACH_OP) == set(programs._OPS)


@pytest.mark.parametrize("op", sorted(_ONE_OF_EACH_OP))
def test_every_op_round_trips_and_evaluates_alike(op):
    prog = _ONE_OF_EACH_OP[op]
    assert prog.op == op
    data = format_program(prog, Q)
    again = parse_program(data, Q)
    assert format_program(again, Q) == data
    g, u = qmat([[2, 1], [1, 1]]), qmat([[1, 2], [3, 4]])
    assert evaluate(again, [g, u], Q) == evaluate(prog, [g, u], Q)
    # two slots of width 1, so an e0 e1 term survives a product
    ring = JetRing(Q, 2)
    e0, e1 = ring.generator(0), ring.generator(1)
    jet_g = g.map_entries(ring.embed, ring) + Matrix.identity(ring, 2).scale(e0)
    jet_u = u.map_entries(ring.embed, ring) + qmat([[0, 1], [1, 0]]).map_entries(
        lambda c: ring.mul(e1, ring.embed(c)), ring
    )
    out = evaluate(again, [jet_g, jet_u], ring)
    assert out == evaluate(prog, [jet_g, jet_u], ring)
    assert jet_part(out, ()) == evaluate(prog, [g, u], Q)


def test_evaluate_is_entered_once_per_call(monkeypatch):
    # perfbench counts programs.evaluations by wrapping programs.evaluate,
    # so the walk below it must not re-enter it by that name
    shared = mul(inverse(inp(0)), entry(inp(1), 0, 0))
    prog = inp(0)
    for _ in range(8):
        prog = mul(add(prog, shared), sub(shared, prog))
    real = programs.evaluate
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(programs, "evaluate", counted)
    g, u = qmat([[1, 1], [0, 1]]), qmat([[1, 0], [1, 1]])
    programs.evaluate(prog, [g, u], Q)
    programs.evaluate(neg(prog), [g, u], Q)
    assert len(calls) == 2


def test_parse_rejects_malformed_trees():
    with pytest.raises(ProgramError):
        parse_program("inverse", Q)
    with pytest.raises(ProgramError):
        parse_program({"args": []}, Q)
    with pytest.raises(ProgramError):
        parse_program({"op": "add", "args": "nope"}, Q)
    with pytest.raises(ProgramError):
        parse_program({"op": "warp", "args": []}, Q)


def test_builtin_difference_programs():
    g = qmat([[2, 1], [1, 1]])
    inv = builtin_difference_program("inverse")
    assert evaluate(inv, [g], Q) == qmat([[1, -1], [-1, 2]])
    adj = builtin_difference_program("adjugate")
    assert evaluate(adj, [g], Q) == qmat([[1, -1], [-1, 2]])
    ci = builtin_difference_program("conjugate-inverse")
    gi = Matrix.from_rows(QI, [[QI.from_parts(0, 1)]])
    assert evaluate(ci, [gi], QI).at(0, 0) == QI.from_int(-1)
    with pytest.raises(ProgramError):
        builtin_difference_program("transpose")


def test_builtin_rep_programs():
    g = qmat([[1, 2], [0, 1]])
    u = qmat([[5]])
    det_rep = builtin_rep_program("det")
    assert evaluate(det_rep, [g, u], Q) == qmat([[5]])
    ident_rep = builtin_rep_program("identity-rep")
    v = qmat([[1], [1]])
    assert evaluate(ident_rep, [g, v], Q) == qmat([[3], [1]])
    with pytest.raises(ProgramError):
        builtin_rep_program("sign")


def test_builtin_cochain_programs():
    ts = builtin_cochain_program("trace-shift", Q, 2, 1)
    g = qmat([[2, 1], [1, 1]])
    assert evaluate(ts, [g], Q) == qmat([[1]])
    with pytest.raises(ProgramError):
        builtin_cochain_program("trace-shift", Q, 2, 2)
    with pytest.raises(ProgramError):
        builtin_cochain_program("hilbert", Q, 2, 1)
