"""The van Est map and the derivatives over slot-graded jets: the same
images as one plain evaluation per tuple and permutation, one jet
evaluation per image of degree 1 or 2 and dim g per image of degree 3,
one per derivative, and failures raised as before."""

import json
import pathlib

import pytest

from diffcoh import programs, vanest
from diffcoh.cli import main
from diffcoh.linalg import Matrix
from diffcoh.programs import (
    ProgramError,
    add,
    builtin_cochain_program,
    builtin_difference_program,
    builtin_rep_program,
    conj,
    const,
    entry,
    format_program,
    inp,
    inverse,
    linmap,
    mul,
    scalar,
    sub,
    trace_of,
)
from diffcoh.scalars import JetRing, QuadraticField, Rationals
from diffcoh.vanest import (
    MatrixGroupSpec,
    VSpace,
    coboundary_program,
    differentiate_difference_operator,
    differentiate_representation,
    hk_program,
    pk_program,
    theta_d_action,
    van_est,
)
from oracles import per_evaluation_van_est

FIXDIR = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

Q = Rationals()
QI = QuadraticField(-1)
VSHAPE = VSpace(1, 1)


def setup(field):
    """GL2 over ``field``: D = conj(g) g^-1 over Q(sqrt(-1)) and D = g^-1
    over Q, Theta = det, T = -1."""
    name = "conjugate-inverse" if field is QI else "inverse"
    spec = MatrixGroupSpec(field, 2)
    dprog = builtin_difference_program(name)
    theta_prog = builtin_rep_program("det")
    t = -Matrix.identity(field, 1)
    diff = differentiate_difference_operator(spec, dprog, spec.standard_basis())
    rep = differentiate_representation(diff, theta_prog, t, VSHAPE)
    return diff, rep, dprog, theta_prog, t


def shifted(field, j, size=2):
    return sub(inp(j), const(Matrix.identity(field, size)))


def corner_alpha(field):
    """alpha = (g - I)_01 (h - I)_10, the nonzero degree-2 case of
    ``test_vanest_pair``."""
    return mul(entry(shifted(field, 0), 0, 1), entry(shifted(field, 1), 1, 0))


def mixed_program(field, degree):
    """A ``degree``-input program with const, scalar, linmap, conj, entry
    and inverse nodes.  From degree 2 on a subtree reads only input 1,
    and in degree 3 the product of the first two factors reads inputs 0
    and 1 only."""
    swap = Matrix.from_rows(
        field,
        [[field.from_int(int(i + j == 3)) for j in range(4)] for i in range(4)],
    )
    prog = entry(linmap(swap, conj(shifted(field, 0))), 1, 0)
    for j in range(1, degree):
        x = shifted(field, j)
        corner = entry(mul(inverse(inp(j)), x), j % 2, 1 - j % 2)
        prog = mul(prog, add(trace_of(x), mul(scalar(field.from_int(3)), corner)))
    return prog


def images(field):
    """(program, degree) pairs: mixed programs in degrees 1-3, the
    nonzero degree-2 alpha and the connecting and coboundary programs
    built from it and from beta = tr g - 2."""
    _, _, dprog, theta_prog, t = setup(field)
    alpha = corner_alpha(field)
    beta = builtin_cochain_program("trace-shift", field, 2, 1)
    out = [(mixed_program(field, n), n) for n in (1, 2, 3)]
    out += [
        (alpha, 2),
        (coboundary_program(theta_prog, alpha, 2), 3),
        (coboundary_program(theta_prog, beta, 1), 2),
        (coboundary_program(theta_d_action(dprog, theta_prog), beta, 1), 2),
        (hk_program(dprog, t, alpha, 2), 2),
        (hk_program(dprog, t, beta, 1), 1),
        (hk_program(dprog, t, mixed_program(field, 3), 3), 3),
        (pk_program(dprog, theta_prog, alpha, 2), 2),
        (pk_program(dprog, theta_prog, beta, 1), 1),
    ]
    return out


@pytest.mark.parametrize("field", [Q, QI], ids=["Q", "Q(sqrt-1)"])
def test_van_est_equals_one_plain_evaluation_per_tuple(field):
    diff = setup(field)[0]
    shared = []
    for prog, degree in images(field):
        shared.append(van_est(diff, prog, degree, VSHAPE))
        assert shared[-1] == per_evaluation_van_est(diff, prog, degree, VSHAPE)
    # the mixed programs, alpha and d alpha have nonzero images
    assert not any(ve.is_zero() for ve in shared[:5])


def test_the_nonzero_degree_two_alpha_is_compared():
    diff = setup(QI)[0]
    ve = van_est(diff, corner_alpha(QI), 2, VSHAPE)
    assert not ve.is_zero()
    assert ve == per_evaluation_van_est(diff, corner_alpha(QI), 2, VSHAPE)


def dense_basis(field, size):
    """b_k = sum over l >= k of (l - k + 1) E_l, for the row-major matrix
    units E_l of gl_size: a basis in which every element but the last
    has many nonzero entries."""
    n = size * size
    return [
        Matrix.from_rows(
            field,
            [
                [field.from_int(max(0, r * size + c - k + 1)) for c in range(size)]
                for r in range(size)
            ],
        )
        for k in range(n)
    ]


def dense_images(field, size):
    """(program, degree) pairs for GL_size with D = g^-1 and Theta = det:
    programs in degrees 1-3 that are not symmetric in their inputs, the
    coboundary of the degree-2 one, and hk of it with T = 2 (with
    T = -1, hk vanishes for D = g^-1)."""
    x = [shifted(field, j, size) for j in range(2)]
    prog1 = add(trace_of(mul(inverse(inp(0)), x[0])), entry(x[0], 0, size - 1))
    prog2 = mul(entry(x[0], 0, 1), add(entry(x[1], 1, 0), scalar(field.from_int(2))))
    prog3 = mul(mul(entry(x[0], 0, 1), entry(x[1], 1, size - 1)),
                entry(inverse(inp(2)), size - 1, 0))
    dprog = builtin_difference_program("inverse")
    theta_prog = builtin_rep_program("det")
    t = Matrix.identity(field, 1).scale(field.from_int(2))
    return [
        (prog1, 1),
        (prog2, 2),
        (prog3, 3),
        (hk_program(dprog, t, prog2, 2), 2),
        (coboundary_program(theta_prog, prog2, 2), 3),
    ]


@pytest.mark.parametrize("size", [2, 3])
def test_van_est_equals_one_plain_evaluation_per_tuple_on_a_dense_basis(size):
    spec = MatrixGroupSpec(Q, size)
    dprog = builtin_difference_program("inverse")
    diff = differentiate_difference_operator(spec, dprog, dense_basis(Q, size))
    assert diff.lie.dim == size * size
    for prog, degree in dense_images(Q, size):
        ve = van_est(diff, prog, degree, VSHAPE)
        assert ve == per_evaluation_van_est(diff, prog, degree, VSHAPE)
        assert not ve.is_zero()


def test_each_shared_inverse_is_computed_once_per_argument(monkeypatch):
    # hk with D = g^-1 reads inverse(x_j) in slot j only, and the degree-2
    # image is one evaluation, so each of the 2 slots is inverted once;
    # one evaluation per tuple and permutation would invert
    # 6 tuples x 2 permutations x 2 slots = 24 times
    diff, _, dprog, _, t = setup(Q)
    real = programs.matrix_inverse
    jet_inverses = []

    def counted(m):
        if isinstance(m.ring, JetRing):
            jet_inverses.append(m)
        return real(m)

    monkeypatch.setattr(programs, "matrix_inverse", counted)
    assert diff.lie.dim == 4
    van_est(diff, hk_program(dprog, t, corner_alpha(Q), 2), 2, VSHAPE)
    assert len(jet_inverses) == 2


def count_jet_evaluations(monkeypatch):
    """Patch ``vanest.evaluate`` to count its evaluations over jet rings."""
    calls = []

    def counted(node, inputs, ring):
        if isinstance(ring, JetRing):
            calls.append(ring)
        return programs.evaluate(node, inputs, ring)

    monkeypatch.setattr(vanest, "evaluate", counted)
    return calls


@pytest.mark.parametrize("field", [Q, QI], ids=["Q", "Q(sqrt-1)"])
def test_evaluate_runs_once_per_image_below_degree_three_and_dim_g_times_in_it(
    field, monkeypatch
):
    diff = setup(field)[0]
    calls = count_jet_evaluations(monkeypatch)
    for prog, degree in images(field):
        calls.clear()
        van_est(diff, prog, degree, VSHAPE)
        assert len(calls) == (1 if degree <= 2 else diff.lie.dim), (prog, degree)
        (ring,) = set(calls)
        assert (ring.ngens, ring.width, ring.nslots) == (degree * 4, 4, degree)


def test_no_evaluation_when_the_degree_exceeds_the_dimension(monkeypatch):
    spec = MatrixGroupSpec(Q, 2)
    dprog = builtin_difference_program("inverse")
    diff = differentiate_difference_operator(spec, dprog, [Matrix.identity(Q, 2)])
    calls = count_jet_evaluations(monkeypatch)
    out = van_est(diff, corner_alpha(Q), 2, VSHAPE)
    assert out.is_zero() and calls == []


@pytest.mark.parametrize("shape", [(1, 1), (2, 1), (2, 2)])
def test_each_derivative_is_one_jet_evaluation(shape, monkeypatch):
    spec = MatrixGroupSpec(Q, 2)
    dprog = builtin_difference_program("inverse")
    vshape = VSpace(*shape)
    theta_prog = builtin_rep_program("det" if shape == (1, 1) else "identity-rep")
    t = -Matrix.identity(Q, vshape.dim)
    calls = count_jet_evaluations(monkeypatch)
    diff = differentiate_difference_operator(spec, dprog, spec.standard_basis())
    assert len(calls) == 1
    calls.clear()
    differentiate_representation(diff, theta_prog, t, vshape)
    # one evaluation per value-basis vector, whatever dim g is
    assert len(calls) == vshape.dim
    assert {(ring.ngens, ring.width) for ring in calls} == {(4, 4)}


def square_norm(field, j):
    """The sum of the squared entries of x_j - I: zero only at x_j = I."""
    x = shifted(field, j)
    terms = [mul(entry(x, a, b), entry(x, a, b)) for a in range(2) for b in range(2)]
    out = terms[0]
    for term in terms[1:]:
        out = add(out, term)
    return out


def singular_at_identity_alpha(field):
    """A normalized 3-cochain holding inverse(|x_1 - I|^2 + |x_2 - I|^2),
    a subtree that reads inputs 1 and 2 only.  It is invertible on every
    sampled tuple with at most one identity, and singular on jets, whose
    base part is the identity."""
    corners = mul(mul(entry(shifted(field, 0), 0, 1), entry(shifted(field, 1), 0, 1)),
                  entry(shifted(field, 2), 0, 1))
    return mul(corners, inverse(add(square_norm(field, 1), square_norm(field, 2))))


def test_a_singular_shared_inverse_names_the_op():
    diff = setup(Q)[0]
    with pytest.raises(ProgramError, match="^op 'inverse': "):
        van_est(diff, singular_at_identity_alpha(Q), 3, VSHAPE)


def test_vanest_exits_two_on_a_singular_shared_inverse(tmp_path, capsys):
    data = json.loads((FIXDIR / "gl2_inverse_det_deg2.json").read_text())
    data["degree"] = 3
    data["alpha-program"] = format_program(singular_at_identity_alpha(Q), Q)
    data["beta-program"] = format_program(corner_alpha(Q), Q)
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(data))
    code = main(["vanest", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: op 'inverse': ")

