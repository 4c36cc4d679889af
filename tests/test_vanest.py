"""Differentiating matrix-group programs into difference Lie algebra
data, and the van Est map on cochain programs."""

import itertools
import pathlib
from fractions import Fraction

import pytest

from diffcoh import linalg, vanest
from diffcoh.cli import main
from diffcoh.fixtures import load_fixture
from diffcoh.lie import LieCochain, LieDifferenceComplex, k_map, theta_d_matrices
from diffcoh.linalg import Matrix, jet_part
from diffcoh.programs import (
    builtin_cochain_program,
    builtin_difference_program,
    builtin_rep_program,
    const,
    det_of,
    entry,
    evaluate,
    inp,
    inverse,
    mul,
    scalar,
    sub,
    trace_of,
)
from diffcoh.scalars import JetRing, QuadraticField, Rationals
from diffcoh.vanest import (
    DEFAULT_SAMPLES,
    MatrixGroupSpec,
    SampledPreconditionError,
    VSpace,
    apply_t,
    check_normalized,
    differentiate_difference_operator,
    differentiate_representation,
    van_est,
    verify_van_est_cochain_map,
)
from oracles import jet_arg

FIXDIR = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
Q = Rationals()


def qmat(rows):
    return Matrix.from_rows(Q, [[Fraction(x) for x in row] for row in rows])


def gl2():
    return MatrixGroupSpec(Q, 2)


def trace_shift():
    return builtin_cochain_program("trace-shift", Q, 2, 1)


def adjugate_setup():
    spec = gl2()
    dprog = builtin_difference_program("adjugate", Q, 2)
    diff = differentiate_difference_operator(spec, dprog, spec.standard_basis())
    rep = differentiate_representation(
        diff, builtin_rep_program("det", Q, 2), qmat([[-1]]), VSpace(1, 1)
    )
    return spec, dprog, diff, rep


def inverse_setup():
    spec = gl2()
    dprog = builtin_difference_program("inverse", Q, 2)
    diff = differentiate_difference_operator(spec, dprog, spec.standard_basis())
    rep = differentiate_representation(
        diff, builtin_rep_program("det", Q, 2), qmat([[-1]]), VSpace(1, 1)
    )
    return spec, dprog, diff, rep


def test_adjugate_differentiates_to_trace_times_identity_minus_x():
    _, _, diff, _ = adjugate_setup()
    expected = qmat([[0, 0, 0, 1], [0, -1, 0, 0], [0, 0, -1, 0], [1, 0, 0, 0]])
    assert diff.dop.d == expected
    # independent route: the same operator written as det(g) g^{-1},
    # differentiated through the inverse and determinant jets
    spec = gl2()
    other = differentiate_difference_operator(
        spec, mul(det_of(inp(0)), inverse(inp(0))), spec.standard_basis()
    )
    assert other.dop.d == expected


def test_inverse_differentiates_to_minus_identity():
    _, _, diff, _ = inverse_setup()
    assert diff.dop.d == -Matrix.identity(Q, 4)


@pytest.mark.parametrize(
    "stem, inverses", [("gl2_adjugate_det", 0), ("gl2_inverse_det_deg2", 64)]
)
def test_twisted_rule_is_checked_without_inverting_the_samples(monkeypatch, stem, inverses):
    # D(gh) g = D(g) g D(h) needs no g^-1, so the only inverses left are
    # those the program's own inverse ops take, over the base field and
    # for the base part of a jet matrix: none for the adjugate
    fx = load_fixture(str(FIXDIR / f"{stem}.json"))
    calls = []
    real = linalg.field_matrix_inverse

    def counted(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(linalg, "field_matrix_inverse", counted)
    differentiate_difference_operator(fx.spec, fx.dprog, fx.basis, seed=0)
    assert len(calls) == inverses


def test_conjugate_inverse_differentiates_to_zero_on_a_rational_basis():
    qi = QuadraticField(-1)
    spec = MatrixGroupSpec(qi, 1)
    dprog = builtin_difference_program("conjugate-inverse", qi, 1)
    diff = differentiate_difference_operator(
        spec, dprog, [Matrix.from_rows(qi, [[qi.one]])]
    )
    assert diff.dop.d.is_zero()


def test_non_cocycle_program_fails_the_sampled_precondition():
    spec = gl2()
    with pytest.raises(SampledPreconditionError):
        differentiate_difference_operator(spec, inp(0), spec.standard_basis())


def test_determinant_representation_differentiates_to_trace():
    _, _, _, rep = adjugate_setup()
    assert rep.theta[0] == qmat([[1]])
    assert rep.theta[1] == qmat([[0]])
    assert rep.theta[2] == qmat([[0]])
    assert rep.theta[3] == qmat([[1]])
    assert theta_d_matrices(rep)[0] == qmat([[2]])


def test_identity_representation_differentiates_to_inclusion():
    spec = gl2()
    dprog = builtin_difference_program("inverse", Q, 2)
    diff = differentiate_difference_operator(spec, dprog, spec.standard_basis())
    rep = differentiate_representation(
        diff, builtin_rep_program("identity-rep", Q, 2), -Matrix.identity(Q, 2), VSpace(2, 1)
    )
    assert list(rep.theta) == spec.standard_basis()


def test_wrong_t_fails_the_sampled_difference_law():
    spec = gl2()
    dprog = builtin_difference_program("adjugate", Q, 2)
    diff = differentiate_difference_operator(spec, dprog, spec.standard_basis())
    with pytest.raises(SampledPreconditionError):
        differentiate_representation(
            diff, builtin_rep_program("det", Q, 2),
            Matrix.zeros(Q, 1, 1), VSpace(1, 1),
        )
    with pytest.raises(ValueError):
        differentiate_representation(
            diff, builtin_rep_program("det", Q, 2),
            qmat([[1, 0]]), VSpace(1, 1),
        )


def test_vspace_and_apply_t():
    vs = VSpace(2, 2)
    assert vs.dim == 4
    basis = vs.basis(Q)
    assert basis[1] == qmat([[0, 1], [0, 0]])
    rev = qmat([[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]])
    assert apply_t(rev, qmat([[1, 2], [3, 4]])) == qmat([[4, 3], [2, 1]])
    with pytest.raises(ValueError):
        vs.flatten(qmat([[1]]))


def test_van_est_of_trace_shift_is_the_trace():
    _, _, diff, _ = adjugate_setup()
    ve = van_est(diff, trace_shift(), 1, VSpace(1, 1))
    expected = LieCochain(diff.lie, 1, 1, {(0,): (Fraction(1),), (3,): (Fraction(1),)})
    assert ve == expected


def test_van_est_kills_the_symmetric_product():
    _, _, diff, _ = inverse_setup()
    prog = mul(trace_shift(), sub(trace_of(inp(1)), scalar(Fraction(2))))
    assert van_est(diff, prog, 2, VSpace(1, 1)).is_zero()


def test_van_est_frozen_mixed_product():
    _, _, diff, _ = inverse_setup()
    prog = mul(trace_shift(), entry(inp(1), 0, 1))
    ve = van_est(diff, prog, 2, VSpace(1, 1))
    expected = LieCochain(
        diff.lie, 1, 2, {(0, 1): (Fraction(1),), (1, 3): (Fraction(-1),)}
    )
    assert ve == expected


def test_van_est_requires_normalized_programs():
    _, _, diff, _ = adjugate_setup()
    with pytest.raises(
        SampledPreconditionError,
        match="^cochain program is not normalized: nonzero on a tuple containing the identity$",
    ):
        check_normalized(diff, trace_of(inp(0)), 1, VSpace(1, 1))
    # van_est leaves the check to check_normalized, so the same program
    # sails through it
    van_est(diff, trace_of(inp(0)), 1, VSpace(1, 1))


def test_van_est_degree_cap():
    _, _, diff, _ = adjugate_setup()
    for degree in (0, 4):
        with pytest.raises(ValueError, match="^van Est degree must be in 1..3"):
            van_est(diff, trace_shift(), degree, VSpace(1, 1))
        with pytest.raises(ValueError, match="^van Est degree must be in 1..3"):
            check_normalized(diff, trace_shift(), degree, VSpace(1, 1))


def test_the_differentiated_operator_keeps_its_samples_with_their_images():
    spec, dprog, diff, _ = inverse_setup()
    assert diff.dprog is dprog
    assert len(diff.samples) == 2 * DEFAULT_SAMPLES
    assert all(evaluate(dprog, [g], Q) == d_g for g, d_g in diff.samples)
    assert all(g != spec.identity() for g, _ in diff.samples)


@pytest.mark.parametrize("command", ["vanest", "check"])
def test_one_run_draws_the_samples_once(command, monkeypatch, capsys):
    # the twisted rule, the representation laws and the normalization of
    # alpha and beta all read the draws of differentiate_difference_operator
    draws = []
    real = MatrixGroupSpec.sample_invertible

    def counted(self, rng):
        draws.append(1)
        return real(self, rng)

    monkeypatch.setattr(MatrixGroupSpec, "sample_invertible", counted)
    assert main([command, str(FIXDIR / "gl2_inverse_det_deg2.json")]) == 0
    capsys.readouterr()
    assert len(draws) == 2 * DEFAULT_SAMPLES == 40


def test_degree_one_normalization_evaluates_alpha_once(monkeypatch):
    # every tuple of a degree-1 normalization check is (I)
    spec, _, diff, rep = adjugate_setup()
    alpha = trace_shift()
    calls = []
    real = vanest.evaluate

    def counted(prog, args, ring):
        if prog is alpha and ring == Q:
            calls.append(args)
        return real(prog, args, ring)

    monkeypatch.setattr(vanest, "evaluate", counted)
    report = verify_van_est_cochain_map(
        diff, rep, builtin_rep_program("det", Q, 2), VSpace(1, 1), alpha, 1
    )
    assert report.ok
    assert calls == [[spec.identity()]]


def test_van_est_is_a_cochain_map_in_degree_one():
    spec, dprog, diff, rep = adjugate_setup()
    report = verify_van_est_cochain_map(
        diff, rep, builtin_rep_program("det", Q, 2),
        VSpace(1, 1), trace_shift(), 1,
    )
    names = [c.name for c in report.checks]
    assert names == [
        "coboundary-intertwines",
        "hk-differentiates-to-K",
        "pk-differentiates-to-zero",
        "pair-differential-intertwines",
    ]
    assert report.ok, [c for c in report.checks if not c.ok]
    # the frozen degree-1 image: K(VE(tr - 2)) = -2 tr
    ve = van_est(diff, trace_shift(), 1, VSpace(1, 1))
    assert k_map(LieDifferenceComplex(rep), ve) == ve.scale(Fraction(-2))


def test_van_est_is_a_cochain_map_in_degree_two():
    spec, dprog, diff, rep = inverse_setup()
    alpha2 = mul(trace_shift(), sub(trace_of(inp(1)), scalar(Fraction(2))))
    report = verify_van_est_cochain_map(
        diff, rep, builtin_rep_program("det", Q, 2),
        VSpace(1, 1), alpha2, 2, beta_prog=trace_shift(),
    )
    assert report.ok, [c for c in report.checks if not c.ok]
    assert report.degree == 2


def test_pair_component_needs_degree_two():
    spec, dprog, diff, rep = adjugate_setup()
    with pytest.raises(ValueError):
        verify_van_est_cochain_map(
            diff, rep, builtin_rep_program("det", Q, 2),
            VSpace(1, 1), trace_shift(), 1,
            beta_prog=trace_shift(),
        )


@pytest.mark.parametrize("degree", [2, 3])
def test_van_est_output_is_alternating_by_construction(degree):
    # (g1 - I) ... (gn - I) is normalized and not symmetric in its inputs;
    # the signed jet value of every permutation of a tuple is the stored
    # value with the permutation's sign
    diff = inverse_setup()[2]
    ident = const(Matrix.identity(Q, 2))
    prog = sub(inp(0), ident)
    for j in range(1, degree):
        prog = mul(prog, sub(inp(j), ident))
    vshape = VSpace(2, 2)
    out = van_est(diff, prog, degree, vshape)
    assert not out.is_zero()
    ring = JetRing(Q, degree)
    args = [[jet_arg(ring, x, j) for x in diff.basis] for j in range(degree)]

    def signed_jet_value(indices):
        total = Matrix.zeros(Q, 2, 2)
        for sigma in itertools.permutations(range(degree)):
            value = evaluate(prog, [args[j][indices[sigma[j]]] for j in range(degree)], ring)
            coeff = jet_part(value, range(degree))
            odd = sum(a > b for a, b in itertools.combinations(sigma, 2)) % 2
            total = total - coeff if odd else total + coeff
        return total.entries

    for tup in itertools.combinations(range(diff.lie.dim), degree):
        for perm in itertools.permutations(tup):
            assert signed_jet_value(perm) == out.value_at_basis(perm)
