"""The value store one van Est call shares between its jet evaluations:
the same images as one plain evaluation per tuple and permutation, each
value of a subtree computed once per assignment of the inputs it reads,
no value of a subtree that reads every input kept, and failures raised
as before."""

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
    dprog = builtin_difference_program(name, field, 2)
    theta_prog = builtin_rep_program("det", field, 2)
    t = -Matrix.identity(field, 1)
    diff = differentiate_difference_operator(spec, dprog, spec.standard_basis())
    rep = differentiate_representation(diff, dprog, theta_prog, t, VSHAPE)
    return diff, rep, dprog, theta_prog, t


def shifted(field, j):
    return sub(inp(j), const(Matrix.identity(field, 2)))


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
        shared.append(van_est(diff, prog, degree, VSHAPE, check_normalized=False))
        assert shared[-1] == per_evaluation_van_est(diff, prog, degree, VSHAPE)
    # the mixed programs, alpha and d alpha have nonzero images
    assert not any(ve.is_zero() for ve in shared[:5])


def test_the_nonzero_degree_two_alpha_is_compared():
    diff = setup(QI)[0]
    ve = van_est(diff, corner_alpha(QI), 2, VSHAPE)
    assert not ve.is_zero()
    assert ve == per_evaluation_van_est(diff, corner_alpha(QI), 2, VSHAPE)


def test_each_shared_inverse_is_computed_once_per_argument(monkeypatch):
    # hk with D = g^-1 reads inverse(x_j) in slot j only: 2 slots x 4
    # basis elements, where one evaluation per tuple and permutation
    # would invert 6 tuples x 2 permutations x 2 slots = 24 times
    diff, _, dprog, _, t = setup(Q)
    real = programs.matrix_inverse
    jet_inverses = []

    def counted(m):
        if isinstance(m.ring, JetRing):
            jet_inverses.append(m)
        return real(m)

    monkeypatch.setattr(programs, "matrix_inverse", counted)
    assert diff.lie.dim == 4
    van_est(diff, hk_program(dprog, t, corner_alpha(Q), 2), 2, VSHAPE, check_normalized=False)
    assert len(jet_inverses) == 2 * 4


def test_the_store_keeps_no_value_that_reads_every_input(monkeypatch):
    stores = []

    class Recorded(programs.ValueStore):
        def __init__(self, node):
            super().__init__(node)
            stores.append(self)

    monkeypatch.setattr(vanest, "ValueStore", Recorded)
    diff, _, _, theta_prog, _ = setup(QI)
    prog = coboundary_program(theta_prog, corner_alpha(QI), 2)
    van_est(diff, prog, 3, VSHAPE, check_normalized=False)
    (store,) = stores
    read_counts = {len(store.reads[key[0]]) for key in store.values}
    assert read_counts == {0, 1, 2}


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

