"""Normalized cochains, the three coboundaries, and the pair complex.

Dimension claims are cross-checked against direct enumeration of all
normalized cochains over F_p, with cocycle and coboundary sets computed
by evaluating the defining identities pointwise (no shared code with
the matrix route under test).
"""

import itertools

import pytest

from diffcoh.catalog import cyclic, inverse_map
from diffcoh.exactness import InternalCheckError
from diffcoh.group_cohomology import (
    BudgetExceededError,
    CochainError,
    CochainPair,
    CochainSpace,
    DifferenceComplex,
    GroupCochain,
    NotACocycleError,
    coboundary,
    delta,
    kk,
)
from diffcoh.groups import DifferenceGroup, DifferenceRep
from diffcoh.linalg import Matrix
from diffcoh.scalars import PrimeField

from helpers import connecting_class, verify_delta_squared, zero_cochain
from oracles import coboundary as pointwise_coboundary, hk, pk

F2 = PrimeField(2)
F3 = PrimeField(3)


def z3_rep():
    """Z/3 with inversion, trivial one-dimensional module over F_3, T = -1."""
    c3 = cyclic(3)
    dg = DifferenceGroup(c3, inverse_map(c3))
    theta = [Matrix.identity(F3, 1)] * 3
    t = Matrix.from_rows(F3, [[2]])
    return DifferenceRep(dg, theta, t)


def z2_rep():
    """Z/2 with the identity endomorphism, trivial module over F_2, T = 0."""
    c2 = cyclic(2)
    dg = DifferenceGroup(c2, [0, 1])
    theta = [Matrix.identity(F2, 1)] * 2
    t = Matrix.zeros(F2, 1, 1)
    return DifferenceRep(dg, theta, t)


def cochain(rep, degree, values):
    return GroupCochain(
        rep.dg.group, rep.field, rep.dim, degree, {k: (v,) for k, v in values.items()}
    )


def carry_cocycle(rep):
    """alpha(a^i, a^j) = 1 when i + j >= 3: the mod-3 addition carry."""
    return cochain(rep, 2, {(1, 2): 1, (2, 1): 1, (2, 2): 1})


def test_cochain_normalization_rules():
    rep = z3_rep()
    a = cochain(rep, 1, {(1,): 1})
    assert a.value_at((0,)) == (0,)
    assert a.value_at((2,)) == (0,)
    with pytest.raises(CochainError):
        cochain(rep, 1, {(0,): 1})
    with pytest.raises(CochainError):
        cochain(rep, 2, {(1,): 1})
    with pytest.raises(CochainError):
        GroupCochain(rep.dg.group, F3, 1, 2, {(1, 1): (1, 2)})
    with pytest.raises(CochainError):
        GroupCochain(rep.dg.group, F3, 1, 0, {})


@pytest.mark.parametrize("entry", [3, -1])
def test_prime_field_cochain_entries_are_residues(entry):
    # an unreduced entry is neither zero nor equal to its residue, so it
    # must not be stored
    with pytest.raises(CochainError, match=r"at \(1, 2\) is not in F_3"):
        GroupCochain(cyclic(3), F3, 1, 2, {(1, 2): (entry,)})


def test_cochain_arithmetic():
    rep = z3_rep()
    a = cochain(rep, 1, {(1,): 1, (2,): 2})
    b = cochain(rep, 1, {(1,): 2})
    assert (a + b).value_at((1,)) == (0,)
    assert (a - a).is_zero()
    assert (-a).value_at((2,)) == (1,)
    assert a.scale(F3.from_int(2)).value_at((2,)) == (1,)
    with pytest.raises(CochainError):
        a + cochain(rep, 2, {(1, 1): 1})


def test_coboundary_worked_example():
    rep = z3_rep()
    eta = cochain(rep, 1, {(1,): 1})
    d_eta = coboundary(DifferenceComplex(rep), eta)
    # trivial action: (d eta)(g, h) = eta(g) - eta(gh) + eta(h)
    assert d_eta.value_at((1, 1)) == (2,)
    assert d_eta.value_at((1, 2)) == (1,)
    assert d_eta.value_at((2, 1)) == (1,)
    assert d_eta.value_at((2, 2)) == (2,)


def test_coboundary_squares_to_zero_pointwise():
    rep = z3_rep()
    cx = DifferenceComplex(rep)
    for support in itertools.product(range(3), repeat=2):
        eta = cochain(rep, 1, {(1,): support[0], (2,): support[1]})
        dd = coboundary(cx, coboundary(cx, eta))
        assert dd.is_zero()


def test_pk_on_the_carry_cocycle():
    # D = inversion, so D(g1) g1 = e and the three pk terms reduce to
    # alpha(g1^-1, g1) - alpha((g1 g2)^-1, g1 g2) + alpha(g2^-1, g2)
    rep = z3_rep()
    image = pk(rep, carry_cocycle(rep))
    assert dict(image.items()) == {
        (1, 1): (1,),
        (1, 2): (2,),
        (2, 1): (2,),
        (2, 2): (1,),
    }


def test_hk_vanishes_when_d_plus_is_trivial_and_t_is_minus_one():
    rep = z3_rep()
    for degree in (1, 2):
        space = CochainSpace(rep.dg.group, F3, 1, degree)
        for k in range(space.size):
            assert hk(rep, space.basis_cochain(k)).is_zero()


def test_hk_worked_example_with_identity_endomorphism():
    rep = z2_rep()
    eta = cochain(rep, 1, {(1,): 1})
    # hk(eta)(g) = -(eta(g^2) - T eta(g) - eta(g)) = eta(g) over F_2
    image = hk(rep, eta)
    assert image.value_at((1,)) == (1,)
    assert kk(DifferenceComplex(rep), eta) == pk(rep, eta) + hk(rep, eta)


def test_delta_in_degree_one_is_the_pair_of_maps():
    rep = z3_rep()
    cx = DifferenceComplex(rep)
    alpha = cochain(rep, 1, {(1,): 1, (2,): 1})
    out = delta(cx, CochainPair(alpha, None))
    assert out.alpha == coboundary(cx, alpha)
    assert out.beta == kk(cx, alpha)
    assert out.degree == 2


@pytest.mark.parametrize(
    "apply",
    [coboundary, kk, lambda cx, a: delta(cx, CochainPair(a, None))],
    ids=["coboundary", "kk", "delta"],
)
def test_operators_reject_a_cochain_over_other_data(apply):
    # another group object of the same order, another field, another
    # value dimension
    cx = DifferenceComplex(z3_rep())
    for other in (
        GroupCochain(cyclic(3), F3, 1, 1, {(1,): (1,)}),
        GroupCochain(cx.group, F2, 1, 1, {(1,): (1,)}),
        GroupCochain(cx.group, F3, 2, 1, {(1,): (1, 0)}),
    ):
        with pytest.raises(CochainError, match="another space"):
            apply(cx, other)


def test_pair_component_degrees_are_enforced():
    rep = z3_rep()
    with pytest.raises(CochainError):
        CochainPair(cochain(rep, 1, {}), cochain(rep, 1, {}))
    with pytest.raises(CochainError):
        CochainPair(cochain(rep, 2, {}), None)
    with pytest.raises(CochainError):
        CochainPair(cochain(rep, 3, {}), cochain(rep, 1, {}))


def test_delta_squared_is_zero_on_every_pair_basis_element():
    for rep in (z3_rep(), z2_rep()):
        group = rep.dg.group
        cx = DifferenceComplex(rep)
        for degree in (1, 2):
            c_n = CochainSpace(group, rep.field, 1, degree)
            zero_b = (
                None if degree == 1
                else zero_cochain(group, rep.field, 1, degree - 1)
            )
            pairs = [
                CochainPair(c_n.basis_cochain(k), zero_b) for k in range(c_n.size)
            ]
            if degree > 1:
                c_prev = CochainSpace(group, rep.field, 1, degree - 1)
                zero_a = zero_cochain(group, rep.field, 1, degree)
                pairs += [
                    CochainPair(zero_a, c_prev.basis_cochain(k))
                    for k in range(c_prev.size)
                ]
            for pair in pairs:
                twice = delta(cx, delta(cx, pair))
                assert twice.alpha.is_zero()
                assert twice.beta.is_zero()


def test_complex_verification_nodes():
    for rep in (z3_rep(), z2_rep()):
        cx = DifferenceComplex(rep)
        assert all(node.ok for node in verify_delta_squared(cx, 3))
        assert all(node.ok for node in cx.verify_les(2))


def test_cochain_space_round_trip():
    rep = z3_rep()
    space = CochainSpace(rep.dg.group, F3, 1, 2)
    assert space.size == 4
    a = carry_cocycle(rep)
    assert space.from_vector(space.to_vector(a)) == a
    basis_sum = space.basis_cochain(0) + space.basis_cochain(3)
    assert space.to_vector(basis_sum) == [1, 0, 0, 1]
    with pytest.raises(CochainError):
        space.from_vector([0])


def test_from_vector_validates_the_stored_values_only(monkeypatch):
    # zero values are not stored, so only the support reaches validation;
    # a stored value out of F_3 still raises
    space = CochainSpace(cyclic(3), F3, 1, 2)
    checked = []
    check_args = GroupCochain._check_args

    def counted(self, args):
        checked.append(args)
        return check_args(self, args)

    monkeypatch.setattr(GroupCochain, "_check_args", counted)
    assert space.from_vector([0, 0, 0, 0]).is_zero()
    assert space.from_vector([0, 2, 0, 1]).values == {(1, 2): (2,), (2, 2): (1,)}
    assert checked == [(1, 2), (2, 2)]
    with pytest.raises(CochainError, match="not in F_3"):
        space.from_vector([0, 0, 3, 0])


# --- dimension oracle by direct enumeration ------------------------------


def enumerate_cochains(rep, degree):
    group = rep.dg.group
    p = rep.field.p
    nonid = [g for g in group.elements if g != group.identity]
    slots = list(itertools.product(nonid, repeat=degree))
    for combo in itertools.product(range(p), repeat=len(slots)):
        yield GroupCochain(
            group, rep.field, 1, degree,
            {args: (c,) for args, c in zip(slots, combo)},
        )


def oracle_dims(rep, theta):
    """(dim H^1, dim H^2) for the coboundary twisted by ``theta``, found
    by counting cocycles and coboundaries one cochain at a time."""
    p = rep.field.p
    z1 = sum(1 for a in enumerate_cochains(rep, 1) if pointwise_coboundary(theta, a).is_zero())
    z2 = sum(1 for a in enumerate_cochains(rep, 2) if pointwise_coboundary(theta, a).is_zero())
    b2 = len(
        {
            tuple(sorted(pointwise_coboundary(theta, a).items()))
            for a in enumerate_cochains(rep, 1)
        }
    )

    def log_p(n):
        k = 0
        while n > 1:
            n //= p
            k += 1
        return k

    return log_p(z1), log_p(z2) - log_p(b2)


def test_dimensions_match_enumeration_oracle():
    from diffcoh.groups import induced_rep_theta_d

    for rep, expected in (
        (z3_rep(), {1: (1, 0, 1), 2: (1, 1, 2)}),
        (z2_rep(), {1: (1, 0, 0), 2: (1, 1, 0)}),
    ):
        cx = DifferenceComplex(rep)
        report = cx.cohomology_dims(2)
        dims = {
            n: (d.h_ordinary, d.h_difference, d.h_pair)
            for n, d in report.degrees.items()
        }
        assert dims == expected

        h1_ord, h2_ord = oracle_dims(rep, rep.theta)
        assert (h1_ord, h2_ord) == (dims[1][0], dims[2][0])
        h1_diff, _ = oracle_dims(rep, induced_rep_theta_d(rep))
        # the degree-n difference space is C^{n-1}, so H^2 there is the
        # kernel of the twisted coboundary on C^1 (no coboundaries below)
        assert h1_diff == dims[2][1]
        assert any("F_" in note for note in report.notes)


def test_connecting_class_zero_with_preimage():
    rep = z3_rep()
    cx = DifferenceComplex(rep)
    cls = connecting_class(cx, carry_cocycle(rep))
    assert cls.cochain == kk(cx, carry_cocycle(rep))
    assert cls.is_zero_class
    # d_D of the preimage is the second component of delta(0, preimage)
    zero = zero_cochain(rep.dg.group, F3, 1, 2)
    assert delta(cx, CochainPair(zero, cls.preimage)).beta == cls.cochain


def test_connecting_class_nonzero_in_degree_one():
    rep = z2_rep()
    cx = DifferenceComplex(rep)
    hom = cochain(rep, 1, {(1,): 1})
    assert coboundary(cx, hom).is_zero()
    cls = connecting_class(cx, hom)
    assert not cls.is_zero_class
    assert cls.preimage is None
    assert cls.cochain.value_at((1,)) == (1,)


def test_connecting_class_rejects_non_cocycles():
    rep = z3_rep()
    cx = DifferenceComplex(rep)
    with pytest.raises(NotACocycleError):
        connecting_class(cx, cochain(rep, 1, {(1,): 1}))


def test_budget_limits_space_construction():
    rep = z3_rep()
    cx = DifferenceComplex(rep, budget=3)
    with pytest.raises(BudgetExceededError) as exc:
        cx.space(2)
    assert exc.value.degree == 2
    assert exc.value.required == 4
    cx.space(1)  # within budget


def test_anticommutation_as_matrices():
    for rep in (z3_rep(), z2_rep()):
        cx = DifferenceComplex(rep)
        for n in (1, 2):
            lhs = cx.d_a(n + 1) @ cx.k(n)
            rhs = cx.k(n + 1) @ cx.d_c(n)
            assert (lhs + rhs).is_zero()


def test_internal_check_error_on_inconsistent_complex():
    from diffcoh.exactness import cohomology_space

    # a "complex" whose maps do not compose to zero
    m = Matrix.from_rows(F2, [[1]])
    with pytest.raises(InternalCheckError):
        cohomology_space(F2, m, m)
