"""The van Est pair check: a degree-2 case whose images are nonzero, the
failure path of the pair differential, and the routes the check no
longer takes (VE of the whole connecting program, the Lie pair
differential) kept as oracles."""

import json
import pathlib

import pytest

from diffcoh import vanest
from diffcoh.cli import main
from diffcoh.exactness import CochainPair, DifferenceComplexBase
from diffcoh.fixtures import load_fixture
from diffcoh.lie import LieDifferenceComplex, ce_coboundary, k_map
from diffcoh.linalg import Matrix
from diffcoh.programs import (
    add,
    builtin_cochain_program,
    builtin_difference_program,
    builtin_rep_program,
    const,
    entry,
    inp,
    mul,
    sub,
)
from diffcoh.scalars import QuadraticField
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
    verify_van_est_cochain_map,
)

from oracles import delta_theta

FIXDIR = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

QI = QuadraticField(-1)
VSHAPE = VSpace(1, 1)


def gaussian_setup():
    """GL2 over Q(sqrt(-1)) with D(g) = conj(g) g^-1, Theta = det, T = -1,
    alpha = (g - I)_01 (h - I)_10 and beta = tr g - 2."""
    spec = MatrixGroupSpec(QI, 2)
    dprog = builtin_difference_program("conjugate-inverse")
    theta_prog = builtin_rep_program("det")
    t = -Matrix.identity(QI, 1)
    diff = differentiate_difference_operator(spec, dprog, spec.standard_basis())
    rep = differentiate_representation(diff, theta_prog, t, VSHAPE)
    ident = const(Matrix.identity(QI, 2))
    alpha = mul(entry(sub(inp(0), ident), 0, 1), entry(sub(inp(1), ident), 1, 0))
    beta = builtin_cochain_program("trace-shift", QI, 2, 1)
    return diff, rep, dprog, theta_prog, t, alpha, beta


def d_d(cx, xi):
    """d^{theta_D} xi, the second component of delta(0, xi)."""
    return cx.delta(CochainPair(cx.space(xi.degree + 1).zero, xi)).beta


def corner_beta():
    """beta = (g - I)_01; unlike tr g - 2, its image is not a
    theta_D-cocycle, so d_D beta enters the pair check."""
    return entry(sub(inp(0), const(Matrix.identity(QI, 2))), 0, 1)


def test_shipped_corner_fixture_has_nonzero_alpha_images():
    # fixtures/gl2_corner_deg2.json is the corner case of gaussian_setup,
    # so its degree-2 van Est check compares nonzero images
    fx = load_fixture(str(FIXDIR / "gl2_corner_deg2.json"))
    _, _, dprog, theta_prog, t, alpha, _ = gaussian_setup()
    assert (fx.dprog, fx.theta_prog, fx.t) == (dprog, theta_prog, t)
    assert (fx.alpha_prog, fx.beta_prog, fx.degree) == (alpha, corner_beta(), 2)
    diff = differentiate_difference_operator(fx.spec, fx.dprog, fx.basis)
    rep = differentiate_representation(diff, fx.theta_prog, fx.t, fx.vshape)
    cx = LieDifferenceComplex(rep)
    ve_alpha = van_est(diff, fx.alpha_prog, 2, fx.vshape)
    assert not ve_alpha.is_zero()
    assert not ce_coboundary(cx, ve_alpha).is_zero()
    assert not k_map(cx, ve_alpha).is_zero()


@pytest.mark.parametrize("corner", [False, True], ids=["trace_shift", "corner"])
def test_degree_two_van_est_with_nonzero_images(corner):
    diff, rep, dprog, theta_prog, t, alpha, beta = gaussian_setup()
    if corner:
        beta = corner_beta()
    cx = LieDifferenceComplex(rep)
    ve_alpha = van_est(diff, alpha, 2, VSHAPE)
    assert not ve_alpha.is_zero()
    assert not k_map(cx, ve_alpha).is_zero()
    assert not ce_coboundary(cx, ve_alpha).is_zero()
    d_ve_beta = d_d(cx, van_est(diff, beta, 1, VSHAPE))
    assert d_ve_beta.is_zero() != corner
    report = verify_van_est_cochain_map(
        diff, rep, theta_prog, VSHAPE, alpha, 2, beta_prog=beta
    )
    assert [(c.name, c.ok) for c in report.checks] == [
        ("coboundary-intertwines", True),
        ("hk-differentiates-to-K", True),
        ("pk-differentiates-to-zero", True),
        ("pair-differential-intertwines", True),
    ]


def test_van_est_is_additive_on_the_connecting_program():
    diff, _, dprog, theta_prog, t, alpha, _ = gaussian_setup()
    p = pk_program(dprog, theta_prog, alpha, 2)
    h = hk_program(dprog, t, alpha, 2)
    whole = van_est(diff, add(p, h), 2, VSHAPE)
    parts = van_est(diff, p, 2, VSHAPE) + van_est(diff, h, 2, VSHAPE)
    assert not whole.is_zero()
    assert whole == parts


def test_lie_pair_differential_matches_the_group_side():
    # delta_theta(VE a, VE b) against the complex's delta, read off its
    # d_B, and against VE of the whole group-side second component:
    # VE(pk a + hk a) + VE(d_D b)
    diff, rep, dprog, theta_prog, t, alpha, _ = gaussian_setup()
    beta = corner_beta()
    cx = LieDifferenceComplex(rep)
    ve_alpha = van_est(diff, alpha, 2, VSHAPE)
    ve_beta = van_est(diff, beta, 1, VSHAPE)
    pair = CochainPair(ve_alpha, ve_beta)
    lie_pair = delta_theta(rep, pair)
    assert cx.delta(pair) == lie_pair
    assert lie_pair.alpha == ce_coboundary(cx, ve_alpha)
    assert lie_pair.beta == k_map(cx, ve_alpha) + d_d(cx, ve_beta)
    connecting = add(pk_program(dprog, theta_prog, alpha, 2), hk_program(dprog, t, alpha, 2))
    dd_beta = coboundary_program(theta_d_action(dprog, theta_prog), beta, 1)
    group_second = van_est(diff, connecting, 2, VSHAPE) + van_est(diff, dd_beta, 2, VSHAPE)
    assert not group_second.is_zero()
    assert group_second == lie_pair.beta


def test_a_wrong_induced_action_fails_the_pair_check(monkeypatch, capsys):
    # Theta_D(g) u = g_00 u is not Theta(D(g) g) u, so only d_D beta moves
    monkeypatch.setattr(
        vanest,
        "theta_d_action",
        lambda dprog, theta_prog: mul(entry(inp(0), 0, 0), inp(1)),
    )
    code = main(["vanest", str(FIXDIR / "gl2_inverse_det_deg2.json")])
    out = capsys.readouterr().out
    assert code == 1
    checks = [line for line in out.splitlines() if line.startswith("check ")]
    assert checks == [
        "check differentiation: ok (operator and representation derived)",
        "check coboundary-intertwines: ok (VE(d a) = d VE(a))",
        "check hk-differentiates-to-K: ok (VE(hk a) = K(VE a))",
        "check pk-differentiates-to-zero: ok (VE(pk a) = 0)",
        "check pair-differential-intertwines: FAIL (first mismatch at (0, 3): "
        '["1"] vs ["0"])',
    ]
    assert out.endswith("ok: false\n")


def test_a_nonzero_pk_image_fails_the_pair_check(monkeypatch):
    # VE(pk a) is a summand of the pair's second component
    monkeypatch.setattr(
        vanest, "pk_program", lambda dprog, theta_prog, alpha_prog, degree: alpha_prog
    )
    diff, rep, dprog, theta_prog, t, alpha, _ = gaussian_setup()
    report = verify_van_est_cochain_map(
        diff, rep, theta_prog, VSHAPE, alpha, 2, beta_prog=corner_beta()
    )
    assert [(c.name, c.ok, c.detail) for c in report.checks[2:]] == [
        ("pk-differentiates-to-zero", False, "nonzero at (1, 2)"),
        (
            "pair-differential-intertwines",
            False,
            'first mismatch at (1, 2): ["2"] vs ["1"]',
        ),
    ]


@pytest.mark.parametrize("degree", [1, 2])
def test_pair_check_computes_each_image_once(degree, monkeypatch):
    # one van Est call per distinct program; on the Lie side one K, one
    # coboundary and one pair differential, which covers d_D of beta
    calls = {"van_est": 0, "k_map": 0, "ce_coboundary": 0, "delta": 0}

    def counted(name):
        real = getattr(vanest, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for name in ("van_est", "k_map", "ce_coboundary"):
        monkeypatch.setattr(vanest, name, counted(name))
    real_delta = DifferenceComplexBase.delta

    def counted_delta(self, pair):
        calls["delta"] += 1
        return real_delta(self, pair)

    monkeypatch.setattr(DifferenceComplexBase, "delta", counted_delta)
    diff, rep, dprog, theta_prog, t, alpha, beta = gaussian_setup()
    if degree == 1:
        alpha, beta = beta, None
    report = verify_van_est_cochain_map(
        diff, rep, theta_prog, VSHAPE, alpha, degree, beta_prog=beta
    )
    assert report.ok
    # alpha, d alpha, hk, pk, and beta with d_D beta when there is a beta
    assert calls == {
        "van_est": 4 + (2 if beta is not None else 0),
        "k_map": 1,
        "ce_coboundary": 1,
        "delta": 1,
    }


def test_a_degree_two_fixture_without_beta_is_rejected(tmp_path, capsys):
    # rejected with the fixture checks, before anything is differentiated
    data = json.loads((FIXDIR / "gl2_inverse_det_deg2.json").read_text())
    del data["beta-program"]
    path = tmp_path / "no_beta.json"
    path.write_text(json.dumps(data))
    code = main(["vanest", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: $.degree: degree 2 needs a beta-program, got none\n"
