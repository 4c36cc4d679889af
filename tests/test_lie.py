"""Difference Lie algebras: brackets, operators, representations, and
the Chevalley-Eilenberg pair complex."""

import itertools
from fractions import Fraction

import pytest

from diffcoh.exactness import CochainPair
from diffcoh.groups import ValidationError
from diffcoh.lie import (
    LieAlgebra,
    LieCochain,
    LieDifferenceComplex,
    LieDifferenceOp,
    LieError,
    LieRep,
    MatrixLieAlgebra,
    ce_coboundary,
    check_lie_difference,
    check_lie_rep,
    k_map,
    theta_d_matrices,
)
from diffcoh.linalg import Matrix
from diffcoh.scalars import PrimeField, Rationals

from helpers import verify_delta_squared
from oracles import basis_vector, delta_theta, value_on_vectors

Q = Rationals()


def qmat(rows):
    return Matrix.from_rows(Q, [[Fraction(x) for x in row] for row in rows])


def solvable2():
    """The nonabelian two-dimensional algebra [e0, e1] = e1."""
    return LieAlgebra(Q, 2, {(0, 1): (Fraction(0), Fraction(1))})


def abelian2():
    return LieAlgebra(Q, 2, {})


def trivial_rep(dop, dimv=1):
    lie = dop.lie
    theta = [Matrix.zeros(Q, dimv, dimv)] * lie.dim
    return LieRep(dop, theta, Matrix.zeros(Q, dimv, dimv))


def sl2():
    # basis (h, e, f): [h,e] = 2e, [h,f] = -2f, [e,f] = h
    return LieAlgebra(
        Q,
        3,
        {
            (0, 1): (Fraction(0), Fraction(2), Fraction(0)),
            (0, 2): (Fraction(0), Fraction(0), Fraction(-2)),
            (1, 2): (Fraction(1), Fraction(0), Fraction(0)),
        },
    )


def test_bracket_antisymmetry_is_built_in():
    lie = solvable2()
    assert lie.bracket_basis(1, 0) == (Fraction(0), Fraction(-1))
    assert lie.bracket_basis(0, 0) == (Fraction(0), Fraction(0))
    x = [Fraction(2), Fraction(3)]
    y = [Fraction(1), Fraction(-1)]
    xy = lie.bracket(x, y)
    yx = lie.bracket(y, x)
    assert xy == [Fraction(0), Fraction(-5)]
    assert yx == [-c for c in xy]


def test_jacobi_violation_is_witnessed():
    with pytest.raises(ValidationError) as exc:
        LieAlgebra(
            Q,
            3,
            {
                (0, 1): (Fraction(0), Fraction(0), Fraction(1)),  # [e0,e1] = e2
                (0, 2): (Fraction(1), Fraction(0), Fraction(0)),  # [e0,e2] = e0
            },
        )
    issue = exc.value.report.issues[0]
    assert issue.check == "jacobi"
    assert issue.witness == (0, 1, 2)


def test_sl2_satisfies_jacobi():
    lie = sl2()
    h, e, f = (basis_vector(lie, i) for i in range(3))
    assert lie.bracket(e, f) == h


def test_bracket_key_validation():
    with pytest.raises(LieError):
        LieAlgebra(Q, 2, {(1, 0): (Fraction(0), Fraction(0))})
    with pytest.raises(LieError):
        LieAlgebra(Q, 2, {(0, 1): (Fraction(0),)})


def test_minus_identity_is_a_difference_operator():
    lie = solvable2()
    d = -Matrix.identity(Q, 2)
    assert check_lie_difference(lie, d).ok
    dop = LieDifferenceOp(lie, d)
    assert dop.d_plus.is_zero()


def test_identity_map_fails_the_difference_identity():
    lie = solvable2()
    report = check_lie_difference(lie, Matrix.identity(Q, 2))
    assert not report.ok
    assert report.issues[0].witness == (0, 1)
    # on an abelian algebra every linear map is a difference operator
    assert check_lie_difference(abelian2(), Matrix.identity(Q, 2)).ok


def test_zero_map_is_always_a_difference_operator():
    for lie in (solvable2(), abelian2(), sl2()):
        assert check_lie_difference(lie, Matrix.zeros(Q, lie.dim, lie.dim)).ok


def gl2_with_trace_data():
    """gl_2 from its standard basis, D(x) = tr(x) I - x, theta = trace,
    T = -1; the derivative data of the adjugate-determinant pair."""
    basis = [
        qmat([[1, 0], [0, 0]]),
        qmat([[0, 1], [0, 0]]),
        qmat([[0, 0], [1, 0]]),
        qmat([[0, 0], [0, 1]]),
    ]
    lie = MatrixLieAlgebra(Q, basis)
    d = qmat([[0, 0, 0, 1], [0, -1, 0, 0], [0, 0, -1, 0], [1, 0, 0, 0]])
    dop = LieDifferenceOp(lie, d)
    theta = [qmat([[1]]), qmat([[0]]), qmat([[0]]), qmat([[1]])]
    rep = LieRep(dop, theta, qmat([[-1]]))
    return lie, dop, rep


def test_matrix_lie_algebra_structure_constants():
    lie, _, _ = gl2_with_trace_data()
    # [E00, E01] = E01 in basis order (E00, E01, E10, E11)
    assert lie.bracket_basis(0, 1) == (Fraction(0), Fraction(1), Fraction(0), Fraction(0))
    # [E01, E10] = E00 - E11
    assert lie.bracket_basis(1, 2) == (Fraction(1), Fraction(0), Fraction(0), Fraction(-1))


def test_matrix_lie_algebra_rejects_non_closed_spans():
    with pytest.raises(LieError, match="outside the span"):
        MatrixLieAlgebra(Q, [qmat([[0, 1], [0, 0]]), qmat([[0, 0], [1, 0]])])


def test_matrix_lie_algebra_rejects_a_dependent_basis():
    # [E11, E22, E11 + E22] spans an abelian algebra, but its structure
    # constants would not be unique, and Jacobi is not checked on it
    basis = [qmat([[1, 0], [0, 0]]), qmat([[0, 0], [0, 1]]), qmat([[1, 0], [0, 1]])]
    with pytest.raises(LieError, match="linearly dependent"):
        MatrixLieAlgebra(Q, basis)
    with pytest.raises(LieError, match="linearly dependent"):
        MatrixLieAlgebra(Q, [qmat([[0, 1], [0, 0]]), qmat([[0, 2], [0, 0]])])


def test_matrix_coords():
    basis = [qmat([[1, 0], [0, 1]]), qmat([[0, 1], [0, 0]])]
    lie = MatrixLieAlgebra(Q, basis)
    coords = lie.coords(qmat([[3, 2], [0, 3]]))
    assert coords == [Fraction(3), Fraction(2)]
    with pytest.raises(LieError):
        lie.coords(qmat([[0, 0], [1, 0]]))


def test_trace_shift_operator_validates_on_gl2():
    lie, dop, rep = gl2_with_trace_data()
    # D[x,y] = [Dx,y] + [x,Dy] + [Dx,Dy] on all 16 basis pairs
    assert check_lie_difference(lie, dop.d).ok
    assert check_lie_rep(lie, dop.d, rep.theta, rep.t).ok
    # theta_D(x) = theta(x) + theta(Dx) doubles the trace
    assert theta_d_matrices(rep)[0] == qmat([[2]])
    assert theta_d_matrices(rep)[1] == qmat([[0]])


def test_wrong_t_fails_the_representation_law():
    lie, dop, rep = gl2_with_trace_data()
    report = check_lie_rep(lie, dop.d, rep.theta, qmat([[1]]))
    assert not report.ok
    assert report.issues[0].check == "difference-compatibility"


def test_non_homomorphism_theta_is_rejected():
    lie = solvable2()
    dop = LieDifferenceOp(lie, -Matrix.identity(Q, 2))
    theta = [qmat([[1]]), qmat([[1]])]  # needs theta[e1] = [theta0, theta1] = 0
    report = check_lie_rep(lie, dop.d, theta, Matrix.zeros(Q, 1, 1))
    assert not report.ok
    assert report.issues[0].check == "theta-homomorphism"
    with pytest.raises(ValidationError):
        LieRep(dop, theta, Matrix.zeros(Q, 1, 1))


def test_lie_cochain_alternation():
    lie = sl2()
    z = LieCochain(lie, 1, 2, {(0, 1): (Fraction(1),), (1, 2): (Fraction(2),)})
    assert z.value_at_basis((1, 0)) == (Fraction(-1),)
    assert z.value_at_basis((2, 1)) == (Fraction(-2),)
    assert z.value_at_basis((1, 1)) == (Fraction(0),)
    with pytest.raises(LieError):
        LieCochain(lie, 1, 2, {(1, 0): (Fraction(1),)})


def test_prime_field_lie_cochain_entries_are_residues():
    lie = LieAlgebra(PrimeField(3), 2, {})
    for entry in (3, -1):
        with pytest.raises(LieError, match=r"at \(0, 1\) is not in F_3"):
            LieCochain(lie, 1, 2, {(0, 1): (entry,)})


def test_lie_cochain_multilinear_evaluation():
    lie = solvable2()
    z = LieCochain(lie, 1, 2, {(0, 1): (Fraction(1),)})
    x = [Fraction(2), Fraction(0)]
    y = [Fraction(1), Fraction(3)]
    assert value_on_vectors(z, [x, y]) == (Fraction(6),)
    assert value_on_vectors(z, [y, x]) == (Fraction(-6),)
    assert value_on_vectors(z, [x, x]) == (Fraction(0),)


def test_ce_coboundary_worked_example():
    lie = solvable2()
    dop = LieDifferenceOp(lie, -Matrix.identity(Q, 2))
    rep = trivial_rep(dop)
    cx = LieDifferenceComplex(rep)
    z = LieCochain(lie, 1, 1, {(1,): (Fraction(1),)})
    dz = ce_coboundary(cx, z)
    # trivial action: (d z)(x, y) = -z([x, y]); [e0, e1] = e1
    assert dz.value_at_basis((0, 1)) == (Fraction(-1),)
    top = ce_coboundary(cx, dz)
    assert top.is_zero()  # degree 3 on a 2-dimensional algebra


def test_k_map_closed_form_on_solvable():
    lie = solvable2()
    dop = LieDifferenceOp(lie, -Matrix.identity(Q, 2))
    cx = LieDifferenceComplex(trivial_rep(dop))
    # D_+ = 0 and T = 0, so K(z) = (-1)^n (z(0,..) - z) = -(-1)^n z
    for degree, sign in ((1, 1), (2, -1)):
        space_tuples = list(itertools.combinations(range(2), degree))
        for tup in space_tuples:
            z = LieCochain(lie, 1, degree, {tup: (Fraction(1),)})
            assert k_map(cx, z) == z.scale(Fraction(sign))


def test_k_map_frozen_value_on_gl2_trace():
    _, _, rep = gl2_with_trace_data()
    tr = LieCochain(rep.lie, 1, 1, {(0,): (Fraction(1),), (3,): (Fraction(1),)})
    image = k_map(LieDifferenceComplex(rep), tr)
    assert image == tr.scale(Fraction(-2))


def test_k_map_runs_both_forms_on_full_bases():
    # k_map applies the closed D_+ form; the session-wide hook in
    # conftest compares each of its matrices with the subset expansion
    # kept in oracles, so a clean pass over entire bases in degrees 1
    # and 2 is the dual-route check
    lie, dop, rep = gl2_with_trace_data()
    cx = LieDifferenceComplex(rep)
    for degree in (1, 2):
        for tup in itertools.combinations(range(lie.dim), degree):
            z = LieCochain(lie, 1, degree, {tup: (Fraction(1),)})
            k_map(cx, z)  # InternalCheckError would fail the test


@pytest.mark.parametrize(
    "apply",
    [ce_coboundary, k_map, lambda cx, z: cx.delta(CochainPair(z, None))],
    ids=["ce_coboundary", "k_map", "delta"],
)
def test_operators_reject_a_cochain_over_other_data(apply):
    # another algebra object with the same brackets, another field,
    # another value dimension
    lie = solvable2()
    cx = LieDifferenceComplex(trivial_rep(LieDifferenceOp(lie, -Matrix.identity(Q, 2))))
    f3 = PrimeField(3)
    for other in (
        LieCochain(solvable2(), 1, 1, {(1,): (Fraction(1),)}),
        LieCochain(LieAlgebra(f3, 2, {(0, 1): (0, 1)}), 1, 1, {(1,): (1,)}),
        LieCochain(lie, 2, 1, {(1,): (Fraction(1), Fraction(0))}),
    ):
        with pytest.raises(LieError, match="another space"):
            apply(cx, other)


def test_delta_theta_pair_shapes():
    lie = solvable2()
    dop = LieDifferenceOp(lie, -Matrix.identity(Q, 2))
    rep = trivial_rep(dop)
    z = LieCochain(lie, 1, 1, {(0,): (Fraction(1),)})
    cx = LieDifferenceComplex(rep)
    out = delta_theta(rep, CochainPair(z, None))
    assert out.degree == 2
    assert out.alpha == ce_coboundary(cx, z)
    assert out.beta == k_map(cx, z)
    assert cx.delta(CochainPair(z, None)) == out
    with pytest.raises(LieError):
        CochainPair(z, z)


def test_lie_complex_dimensions():
    solvable_dop = LieDifferenceOp(solvable2(), -Matrix.identity(Q, 2))
    abelian_dop = LieDifferenceOp(abelian2(), Matrix.zeros(Q, 2, 2))
    cases = (
        (trivial_rep(solvable_dop), {1: (1, 0, 0), 2: (0, 1, 0)}),
        (trivial_rep(abelian_dop), {1: (2, 0, 2), 2: (1, 2, 3)}),
    )
    for rep, expected in cases:
        cx = LieDifferenceComplex(rep)
        report = cx.cohomology_dims(2)
        dims = {
            n: (d.h_ordinary, d.h_difference, d.h_pair)
            for n, d in report.degrees.items()
        }
        assert dims == expected


def test_lie_complex_verification_nodes():
    for lie, d in (
        (solvable2(), -Matrix.identity(Q, 2)),
        (abelian2(), Matrix.zeros(Q, 2, 2)),
    ):
        rep = trivial_rep(LieDifferenceOp(lie, d))
        cx = LieDifferenceComplex(rep)
        assert all(node.ok for node in verify_delta_squared(cx, 3))
        assert all(node.ok for node in cx.verify_les(3))


def test_lie_cochain_space_round_trip():
    lie = sl2()
    cx = LieDifferenceComplex(trivial_rep(LieDifferenceOp(lie, Matrix.zeros(Q, 3, 3))))
    space = cx.space(2)
    assert space.size == 3
    z = LieCochain(lie, 1, 2, {(0, 2): (Fraction(5),)})
    assert space.from_vector(space.to_vector(z)) == z
    assert space.basis_cochain(0).value_at_basis((0, 1)) == (Fraction(1),)


def test_zero_cochain_and_degree_guards():
    lie = solvable2()
    assert LieCochain(lie, 1, 2).is_zero()
    with pytest.raises(LieError):
        LieCochain(lie, 1, 0, {})
    with pytest.raises(LieError):
        LieCochain(lie, 1, 1, {(5,): (Fraction(1),)})
