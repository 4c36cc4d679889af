"""Abelian extensions: construction from cocycle pairs, sections,
shear isomorphisms, and the two classification routines."""

import json
import os
import pathlib
import random
import subprocess
import sys
import time
from collections import Counter

import pytest

from diffcoh import exactness, extensions
from diffcoh.catalog import alternating4, cyclic, inverse_map, klein_four, symmetric
from diffcoh.extensions import (
    AbelianExtension,
    GroupExtensionTheory,
    are_isomorphic,
    canonical_section,
    classify_extensions,
    classify_semidirect_difference_ops,
    cocycle_from_section,
    SectionMap,
    shear_key,
)
from diffcoh.group_cohomology import (
    BudgetExceededError,
    CochainPair,
    DifferenceComplex,
    GroupCochain,
    NotACocycleError,
    delta,
)
from diffcoh.groups import DifferenceGroup, DifferenceRep, semidirect_product
from diffcoh.linalg import Matrix, kernel_basis
from diffcoh.scalars import PrimeField, Rationals

from helpers import all_sections, element_order, rep_from_section, zero_cochain
from oracles import (
    all_cochains_isomorphic,
    carrier_tables,
    dense_solve,
    full_member_census,
    is_shear_isomorphism,
)

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

F2 = PrimeField(2)
F3 = PrimeField(3)


def z3_rep(t=2):
    c3 = cyclic(3)
    dg = DifferenceGroup(c3, inverse_map(c3))
    theta = [Matrix.identity(F3, 1)] * 3
    return DifferenceRep(dg, theta, Matrix.from_rows(F3, [[t]]))


def z2_rep():
    c2 = cyclic(2)
    dg = DifferenceGroup(c2, [0, 1])
    theta = [Matrix.identity(F2, 1)] * 2
    return DifferenceRep(dg, theta, Matrix.zeros(F2, 1, 1))


def zero_pair(rep):
    group = rep.dg.group
    return CochainPair(
        zero_cochain(group, rep.field, rep.dim, 2),
        zero_cochain(group, rep.field, rep.dim, 1),
    )


def carry_pair(rep):
    """The mod-3 carry 2-cocycle with the beta making it operator
    compatible; the total group is cyclic of order nine."""
    group = rep.dg.group
    alpha = GroupCochain(
        group, F3, 1, 2, {(1, 2): (1,), (2, 1): (1,), (2, 2): (1,)}
    )
    beta = GroupCochain(group, F3, 1, 1, {(2,): (1,)})
    return CochainPair(alpha, beta)


def test_zero_pair_reproduces_the_semidirect_product():
    # both go through one carrier builder, so each is compared with the
    # tuple loop of the zero pair
    for rep in (z3_rep(), _swap_rep()):
        zero = (rep.field.zero,) * rep.dim
        table, d = carrier_tables(rep, lambda g, h: zero, lambda g: zero)
        ext = AbelianExtension(rep, zero_pair(rep))
        sd = semidirect_product(rep.dg, rep)
        for total in (ext.total, sd):
            assert [list(row) for row in total.group.table] == table
            assert list(total.d) == d


def test_carry_extension_is_cyclic_of_order_nine():
    rep = z3_rep()
    ext = AbelianExtension(rep, carry_pair(rep))
    total = ext.total.group
    assert total.order == 9
    assert sorted(element_order(total, g) for g in total.elements) == [
        1, 3, 3, 9, 9, 9, 9, 9, 9,
    ]
    # the split extension stays elementary abelian
    split = AbelianExtension(rep, zero_pair(rep))
    assert sorted(
        element_order(split.total.group, g) for g in split.total.group.elements
    ) == [1, 3, 3, 3, 3, 3, 3, 3, 3]


def test_index_split_round_trip():
    rep = z3_rep()
    ext = AbelianExtension(rep, zero_pair(rep))
    for idx in ext.total.group.elements:
        g, u = ext.split(idx)
        assert ext.index(g, u) == idx
        assert ext.project(idx) == g
    assert ext.inject((F3.from_int(2),)) == ext.index(0, (2,))


def test_rejects_a_non_associative_alpha():
    rep = z3_rep()
    group = rep.dg.group
    alpha = GroupCochain(group, F3, 1, 2, {(1, 1): (1,)})
    beta = zero_cochain(group, F3, 1, 1)
    with pytest.raises(NotACocycleError) as exc:
        AbelianExtension(rep, CochainPair(alpha, beta))
    assert len(exc.value.witness) == 3


def test_rejects_an_operator_incompatible_beta():
    rep = z3_rep()
    pair = CochainPair(carry_pair(rep).alpha, zero_cochain(rep.dg.group, F3, 1, 1))
    with pytest.raises(NotACocycleError) as exc:
        AbelianExtension(rep, pair)
    assert len(exc.value.witness) == 2


def test_degree_and_field_guards():
    rep = z3_rep()
    group = rep.dg.group
    deg3 = CochainPair(
        zero_cochain(group, F3, 1, 3), zero_cochain(group, F3, 1, 2)
    )
    with pytest.raises(ValueError):
        AbelianExtension(rep, deg3)
    ql = Rationals()
    dg = DifferenceGroup(cyclic(3), inverse_map(cyclic(3)))
    qrep = DifferenceRep(
        dg, [Matrix.identity(ql, 1)] * 3, Matrix.from_rows(ql, [[-1]])
    )
    with pytest.raises(ValueError):
        AbelianExtension(qrep, zero_pair(qrep))
    with pytest.raises(ValueError):
        classify_extensions(qrep)
    with pytest.raises(ValueError):
        classify_semidirect_difference_ops(qrep)


def test_canonical_section_recovers_the_defining_pair():
    rep = z3_rep()
    pair = carry_pair(rep)
    ext = AbelianExtension(rep, pair)
    back = cocycle_from_section(ext, canonical_section(ext))
    assert back.alpha == pair.alpha
    assert back.beta == pair.beta


def test_every_section_shifts_the_pair_by_a_coboundary():
    rep = z3_rep()
    pair = carry_pair(rep)
    ext = AbelianExtension(rep, pair)
    sections = all_sections(ext)
    assert len(sections) == 9
    group = rep.dg.group
    cx = DifferenceComplex(rep)
    for section in sections:
        offsets = {
            (g,): ext.split(section(g))[1]
            for g in group.elements
            if g != group.identity
        }
        eta = GroupCochain(group, F3, 1, 1, offsets)
        shift = delta(cx, CochainPair(eta, None))
        got = cocycle_from_section(ext, section)
        assert got.alpha == pair.alpha + shift.alpha
        assert got.beta == pair.beta + shift.beta
        image = cx.delta(got)
        assert image.alpha.is_zero() and image.beta.is_zero()


def test_rep_from_section_reproduces_theta():
    rep = z3_rep()
    ext = AbelianExtension(rep, carry_pair(rep))
    for section in all_sections(ext):
        assert rep_from_section(ext, section) == rep.theta


def test_section_validation():
    rep = z3_rep()
    ext = AbelianExtension(rep, zero_pair(rep))
    with pytest.raises(ValueError):
        SectionMap(ext, [0, 3])
    with pytest.raises(ValueError):
        SectionMap(ext, [0, 0, 6])  # value at a projects to e
    with pytest.raises(ValueError):
        SectionMap(ext, [1, 3, 6])  # identity must lift to the identity
    other = AbelianExtension(rep, carry_pair(rep))
    with pytest.raises(ValueError, match="different extension"):
        cocycle_from_section(ext, canonical_section(other))


def test_shear_isomorphism_found_for_cohomologous_pairs():
    rep = z3_rep()
    pair = carry_pair(rep)
    group = rep.dg.group
    eta = GroupCochain(group, F3, 1, 1, {(1,): (1,), (2,): (2,)})
    shift = delta(DifferenceComplex(rep), CochainPair(eta, None))
    shifted = CochainPair(pair.alpha + shift.alpha, pair.beta + shift.beta)
    e1 = AbelianExtension(rep, pair)
    e2 = AbelianExtension(rep, shifted)
    shear = are_isomorphic(e1, e2)
    assert shear is not None
    # and the split extension is genuinely different
    e0 = AbelianExtension(rep, zero_pair(rep))
    assert are_isomorphic(e0, e1) is None


def _trivial_rep(group, field, t, dim=1):
    """Trivial action on field^dim, D = inversion and T = t * identity."""
    dg = DifferenceGroup(group, inverse_map(group))
    theta = [Matrix.identity(field, dim)] * group.order
    t_rows = [[t if i == j else 0 for j in range(dim)] for i in range(dim)]
    return DifferenceRep(dg, theta, Matrix.from_rows(field, t_rows))


def _swap_rep():
    """C2 acting on F3^2 by swapping coordinates, D = e, T = 0."""
    c2 = cyclic(2)
    swap = Matrix.from_rows(F3, [[0, 1], [1, 0]])
    dg = DifferenceGroup(c2, [0, 0])
    return DifferenceRep(dg, [Matrix.identity(F3, 2), swap], Matrix.zeros(F3, 2, 2))


def _s3_sign_rep(t, d=None):
    """The sign representation of S3 over F3, D = e unless the map ``d``
    is given, T = t."""
    s3 = symmetric(3)
    dg = DifferenceGroup(s3, [s3.identity] * s3.order if d is None else d)
    theta = [
        Matrix.from_rows(F3, [[2 if element_order(s3, g) == 2 else 1]])
        for g in s3.elements
    ]
    return DifferenceRep(dg, theta, Matrix.from_rows(F3, [[t]]))


@pytest.mark.parametrize(
    "rep",
    [z3_rep(), _trivial_rep(klein_four(), F2, 1), _trivial_rep(symmetric(3), F2, 1)],
    ids=["z3", "v4_f2", "s3_f2"],
)
def test_generator_shear_search_matches_the_search_over_all_cochains(rep):
    # three extensions from each of the first four classes of the
    # full-member census
    cx = DifferenceComplex(rep)
    space = exactness.cohomology_space(rep.field, cx.d_b(2), cx.d_b(1))
    classes = full_member_census(space, GroupExtensionTheory(cx))
    exts = [ext for members in classes[:4] for ext in members[:3]]
    group = rep.dg.group
    for e1 in exts:
        for e2 in exts:
            shear = are_isomorphic(e1, e2)
            assert (shear is not None) == all_cochains_isomorphic(e1, e2)
            if shear is not None:
                eta = {g: shear.value_at((g,)) for g in group.elements}
                assert is_shear_isomorphism(e1, e2, eta)


def test_isomorphism_search_guards():
    rep = z3_rep()
    e1 = AbelianExtension(rep, zero_pair(rep))
    e2 = AbelianExtension(rep, carry_pair(rep))
    with pytest.raises(BudgetExceededError):
        are_isomorphic(e1, e2, budget=2)
    other_base = z3_rep()
    e3 = AbelianExtension(other_base, zero_pair(other_base))
    with pytest.raises(ValueError):
        are_isomorphic(e1, e3)
    rep_plus = DifferenceRep(rep.dg, list(rep.theta), Matrix.from_rows(F3, [[1]]))
    e4 = AbelianExtension(rep_plus, zero_pair(rep_plus))
    with pytest.raises(ValueError):
        are_isomorphic(e1, e4)


def test_classification_of_z3_extensions():
    cls = classify_extensions(z3_rep())
    assert cls.cocycle_count == 27
    assert cls.coboundary_count == 3
    assert cls.class_count == 9
    assert cls.class_count_by_cosets == 9
    assert cls.h2_pair_dim == 2
    assert cls.expected_from_cohomology == 9
    assert cls.consistent
    assert len(cls.classes) == 9
    assert sum(c.size for c in cls.classes) == 27
    assert all(c.representative.degree == 2 for c in cls.classes)


def test_classification_of_z2_extensions():
    cls = classify_extensions(z2_rep())
    assert cls.cocycle_count == 2
    assert cls.coboundary_count == 2
    assert cls.class_count == 1
    assert cls.h2_pair_dim == 0
    assert cls.consistent


def test_classification_budget():
    # 27 cocycle pairs but 9 classes: the census builds 9 representatives
    with pytest.raises(BudgetExceededError):
        classify_extensions(z3_rep(), budget=8)
    assert classify_extensions(z3_rep(), budget=9).class_count == 9


def test_census_budget_error_counts_representatives_not_a_space():
    with pytest.raises(BudgetExceededError) as exc:
        classify_extensions(z3_rep(), budget=8)
    assert (exc.value.degree, exc.value.required, exc.value.budget) == (None, 9, 8)
    assert str(exc.value) == "extension census needs 9 coset representatives, budget is 8"


def one_key(ext):
    """A constant census key: shears preserve it trivially, and every
    pair of representatives shares it, so the census searches them all."""
    return ()


def test_census_budget_counts_the_searches_between_representatives_that_share_a_key(
    monkeypatch,
):
    # the sign representation of S3 with T = 0 has 27 classes, whose
    # keys differ; under one key all 351 pairs are left to search.  Its
    # cochain spaces need a budget of 125, so the census alone gets the
    # smaller one
    monkeypatch.setattr(extensions, "shear_key", one_key)
    cx = DifferenceComplex(_s3_sign_rep(0))
    d_b1 = cx.d_b(1)
    space = exactness.cohomology_space(F3, cx.d_b(2), d_b1)
    units = [[int(i == j) for i in range(d_b1.ncols)] for j in space.pivots]
    theory = GroupExtensionTheory(cx)
    for budget in (100, 350):
        theory.budget = budget
        with pytest.raises(BudgetExceededError) as exc:
            extensions.census(space, units, theory)
        assert str(exc.value) == f"extension census needs 351 shear searches, budget is {budget}"
    theory.budget = 351
    assert len(extensions.census(space, units, theory)) == 27


def test_semidirect_operator_classification_both_signs():
    minus = classify_semidirect_difference_ops(z3_rep(2))
    assert minus.z_dim == 1
    assert minus.connecting_rank == 0
    assert minus.count_by_rank == 3
    assert minus.count_by_census == 3
    assert minus.direct_valid_count == 3
    assert minus.direct_class_count == 3
    assert minus.total_order == 9
    assert minus.consistent

    plus = classify_semidirect_difference_ops(z3_rep(1))
    assert plus.z_dim == 1
    assert plus.connecting_rank == 1
    assert plus.count_by_rank == 1
    assert plus.count_by_census == 1
    assert plus.direct_valid_count == 3
    assert plus.direct_class_count == 1
    assert plus.consistent


def test_semidirect_classification_respects_the_direct_limit():
    out = classify_semidirect_difference_ops(z3_rep(), budget=100)
    assert out.direct_valid_count is None
    assert out.direct_class_count is None
    assert out.notes and "skipped" in out.notes[0]
    assert out.consistent
    with pytest.raises(BudgetExceededError):
        classify_semidirect_difference_ops(z3_rep(), budget=2)


def test_census_insists_the_isomorphism_classes_are_the_cosets(monkeypatch):
    import diffcoh.extensions as extensions
    from diffcoh.exactness import InternalCheckError

    monkeypatch.setattr(extensions, "are_isomorphic", lambda e1, e2, budget, eta=None: None)
    with pytest.raises(InternalCheckError, match="non-isomorphic"):
        classify_extensions(z3_rep())
    with pytest.raises(InternalCheckError, match="non-isomorphic"):
        classify_semidirect_difference_ops(z3_rep(1))


def test_census_insists_the_cosets_are_pairwise_non_isomorphic(monkeypatch):
    # a search that always finds a shear merges the first two cosets that
    # share a key; under one key all 3 classes of the swap representation
    # do, in both modes
    import diffcoh.extensions as extensions
    from diffcoh.exactness import InternalCheckError

    def always_a_shear(e1, e2, budget, eta=None):
        return zero_cochain(e1.base.group, e1.rep.field, e1.rep.dim, 1)

    monkeypatch.setattr(extensions, "shear_key", one_key)
    monkeypatch.setattr(extensions, "are_isomorphic", always_a_shear)
    with pytest.raises(InternalCheckError, match="non-cohomologous"):
        classify_extensions(_swap_rep())
    with pytest.raises(InternalCheckError, match="non-cohomologous"):
        classify_semidirect_difference_ops(_swap_rep())


@pytest.mark.parametrize(
    "rep, key, counts",
    [
        # 64 cocycle pairs, 32 classes with pairwise different keys, 1 boundary
        (_trivial_rep(klein_four(), F2, 1), shear_key, (64, 32, {("check", True): 1})),
        # 729 pairs, 27 classes with pairwise different keys, 3 boundaries
        (_s3_sign_rep(0), shear_key, (729, 27, {("check", True): 3})),
        # the same under one key, which leaves all 351 pairs
        (_s3_sign_rep(0), one_key, (729, 27, {("check", True): 3, ("search", False): 351})),
        # 9 pairs, 3 classes with pairwise different keys, 1 boundary
        (_swap_rep(), shear_key, (9, 3, {("check", True): 1})),
    ],
    ids=["v4_f2", "s3_sign_t0", "s3_sign_t0_one_key", "c2_swap_f3sq"],
)
def test_census_checks_each_boundary_once_and_searches_only_same_key_pairs(
    monkeypatch, rep, key, counts
):
    # the full-member census made (members - classes) + classes (classes - 1) / 2
    # searches, 528 on v4_f2; now each boundary is one check of a given
    # shear (a one-candidate search that succeeds) and the rest are the
    # pairwise searches between representatives that share a key, none of
    # which succeeds
    import diffcoh.extensions as extensions

    monkeypatch.setattr(extensions, "shear_key", key)
    calls = Counter()

    def counted(e1, e2, budget, eta=None):
        found = are_isomorphic(e1, e2, budget, eta)
        calls["search" if eta is None else "check", found is not None] += 1
        return found

    monkeypatch.setattr(extensions, "are_isomorphic", counted)
    cls = classify_extensions(rep)
    assert (cls.cocycle_count, cls.class_count, dict(calls)) == counts


@pytest.mark.parametrize("corrupted", ["shear", "preimage", "key", "search"])
def test_census_fails_when_one_of_its_checks_is_corrupted(monkeypatch, corrupted):
    # the swap representation has 3 classes of 3 pairs: 1 boundary, and
    # under one key all 3 pairs of representatives are left to search, so
    # each check runs; corrupting any one of them must raise, and the
    # uncorrupted census passes
    import diffcoh.extensions as extensions
    from diffcoh.exactness import InternalCheckError

    monkeypatch.setattr(extensions, "shear_key", one_key)
    assert classify_extensions(_swap_rep()).consistent
    real_census, real_search = extensions.census, extensions.are_isomorphic

    def search_always_finds(e1, e2, budget, eta=None):
        if eta is not None:
            return real_search(e1, e2, budget, eta)
        return zero_cochain(e1.base.group, e1.rep.field, e1.rep.dim, 1)

    def doubled_preimages(space, etas, theory):
        # d_B (2 eta) = 2 b, not b, over F_3
        return real_census(space, [[2 * x % 3 for x in eta] for eta in etas], theory)

    def pair_key(ext):  # not preserved by shears
        return str(sorted(ext.pair.alpha.values.items()) + sorted(ext.pair.beta.values.items()))

    patch, message = {
        "shear": (
            (GroupExtensionTheory, "shears", lambda self, e1, e2, eta: False),
            "non-isomorphic",
        ),
        "preimage": ((extensions, "census", doubled_preimages), "non-isomorphic"),
        "key": ((extensions, "shear_key", pair_key), "not preserved by a shear"),
        "search": ((extensions, "are_isomorphic", search_always_finds), "non-cohomologous"),
    }[corrupted]
    monkeypatch.setattr(*patch)
    with pytest.raises(InternalCheckError, match=message):
        classify_extensions(_swap_rep())


@pytest.mark.parametrize(
    "rep",
    [z3_rep(), _s3_sign_rep(1), _swap_rep(), _trivial_rep(klein_four(), F2, 1)],
    ids=["c3_f3", "s3_sign_t1", "c2_swap_f3sq", "v4_f2"],
)
def test_shear_by_eta_carries_the_cocycle_plus_d_b_eta_onto_the_cocycle(rep):
    # seeded cocycles a and 1-cochains eta: (g, u) -> (g, u + eta(g)) is
    # an isomorphism E(a + d_B eta) -> E(a), by the oracle's full check and
    # by the one-candidate search, and the census key agrees on both sides
    cx = DifferenceComplex(rep)
    f, c2, c1 = rep.field, cx.space(2), cx.space(1)
    theory = GroupExtensionTheory(cx)
    z_basis, d_b1 = kernel_basis(cx.d_b(2)), cx.d_b(1)
    group = rep.dg.group
    for seed in range(4):
        rng = random.Random(seed)
        a = [f.zero] * (c2.size + c1.size)
        for basis_vec in z_basis:
            c = rng.randrange(f.p)
            a = [f.add(x, f.mul(c, y)) for x, y in zip(a, basis_vec)]
        eta = [rng.randrange(f.p) for _ in range(c1.size)]
        moved = [f.add(x, y) for x, y in zip(a, d_b1.matvec(eta))]
        e_moved, e_a = theory.build(moved), theory.build(a)
        cochain = c1.from_vector(eta)
        values = {g: cochain.value_at((g,)) for g in group.elements}
        assert is_shear_isomorphism(e_moved, e_a, values)
        assert are_isomorphic(e_moved, e_a, eta=cochain) == cochain
        assert theory.shears(e_moved, e_a, eta)
        assert shear_key(e_moved) == shear_key(e_a)


@pytest.mark.parametrize(
    "classify, rep",
    [
        (classify_extensions, z3_rep()),
        (classify_extensions, _trivial_rep(klein_four(), F2, 1)),
        (classify_semidirect_difference_ops, z3_rep(1)),
        (classify_semidirect_difference_ops, z3_rep(2)),
    ],
    ids=["z3", "v4_f2", "z3_t1_ops", "z3_t2_ops"],
)
def test_census_classes_are_the_cosets_by_dense_solves(monkeypatch, classify, rep):
    # the coset rule checked without cohomology_space: two members are in
    # one class exactly when their pairs differ by d_B(1) z for some
    # 1-cochain z.  d_B(1) z = (d z, K z), so with alpha = 0 throughout
    # (semidirect mode) the difference is a K image of a z in Z^1.  So
    # each boundary must be d_B(1) of its preimage, and the
    # representatives pairwise not cohomologous.
    seen = []
    real = extensions.census

    def recorded(space, preimages, theory):
        reps = real(space, preimages, theory)
        seen.append((space, preimages, reps))
        return reps

    monkeypatch.setattr(extensions, "census", recorded)
    classify(rep)
    [(space, preimages, reps)] = seen
    cx = DifferenceComplex(rep)
    f, c2, c1, d_b1 = cx.field, cx.space(2), cx.space(1), cx.d_b(1)

    def vec(ext):
        return c2.to_vector(ext.pair.alpha) + c1.to_vector(ext.pair.beta)

    def cohomologous(e1, e2):
        return dense_solve(d_b1, [f.sub(x, y) for x, y in zip(vec(e1), vec(e2))]) is not None

    # one class of 3 on z3_t1_ops, 3 of 1 on z3_t2_ops
    assert len(reps) * f.p ** len(space.boundaries) > 1
    for b, eta in zip(space.boundaries, preimages):
        assert list(d_b1.matvec(eta)) == b
    for i, e1 in enumerate(reps):
        assert not any(cohomologous(e1, e2) for e2 in reps[i + 1 :])


@pytest.mark.parametrize(
    "rep",
    [
        z3_rep(),
        _trivial_rep(symmetric(3), F3, 1),
        _s3_sign_rep(0),
        _s3_sign_rep(1),
        _s3_sign_rep(2),
        _swap_rep(),
    ],
    ids=["c3_f3", "s3_f3_trivial", "s3_sign_t0", "s3_sign_t1", "s3_sign_t2", "c2_swap_f3sq"],
)
def test_carrier_laws_decide_the_cocycle_conditions(rep):
    # seeded cocycles, and cocycles with alpha or beta perturbed at random:
    # the extension is rejected exactly when delta(cx, pair) is nonzero,
    # with the first tuple of its first nonzero component as witness
    cx = DifferenceComplex(rep)
    z_basis = kernel_basis(cx.d_b(2))
    c2, c1 = cx.space(2), cx.space(1)
    details = {
        0: "the associativity (ordinary 2-cocycle) condition fails",
        1: "the operator-compatibility condition fails",
    }
    seen = {kind: set() for kind in ("valid", "alpha", "beta")}
    for seed in range(6):
        rng = random.Random(seed)
        vec = [F3.zero] * (c2.size + c1.size)
        for basis_vec in z_basis:
            c = F3.from_int(rng.randrange(3))
            vec = [F3.add(x, F3.mul(c, y)) for x, y in zip(vec, basis_vec)]
        spans = {"valid": (0, 0), "alpha": (0, c2.size), "beta": (c2.size, len(vec))}
        for kind, (lo, hi) in spans.items():
            pert = list(vec)
            for i in range(lo, hi):
                pert[i] = F3.add(pert[i], F3.from_int(rng.randrange(3)))
            pair = cx.pair(2, pert)
            image = delta(cx, pair)
            parts = (image.alpha, image.beta)
            failing = [i for i, part in enumerate(parts) if not part.is_zero()]
            if not failing:
                assert AbelianExtension(rep, pair).pair == pair
                seen[kind].add(None)
                continue
            with pytest.raises(NotACocycleError) as exc:
                AbelianExtension(rep, pair)
            first = failing[0]
            assert exc.value.witness == parts[first].items()[0][0]
            assert details[first] in str(exc.value)
            seen[kind].add(first)
    assert seen["valid"] == {None}
    assert 0 in seen["alpha"]
    assert 1 in seen["beta"] and 0 not in seen["beta"]


def test_coset_count_comes_from_ranks_not_from_the_census(monkeypatch):
    # a census that lost a class no longer matches the coset count
    real = extensions.census
    monkeypatch.setattr(extensions, "census", lambda *args: real(*args)[:-1])
    cls = classify_extensions(z3_rep())
    assert (cls.class_count, cls.class_count_by_cosets, cls.expected_from_cohomology) == (8, 9, 9)
    assert not cls.consistent


def test_census_of_c6_over_f3_is_timed():
    rep = _trivial_rep(cyclic(6), F3, 2)
    start = time.monotonic()
    cls = classify_extensions(rep)
    elapsed = time.monotonic() - start
    assert (cls.cocycle_count, cls.coboundary_count) == (729, 81)
    assert (cls.class_count, cls.class_count_by_cosets) == (9, 9)
    assert cls.h2_pair_dim == 2
    assert cls.consistent
    assert elapsed < 15, f"time bound: {elapsed:.2f}s >= 15s"


def test_census_of_c3_over_f3_squared_is_timed():
    rep = _trivial_rep(cyclic(3), F3, 2, dim=2)
    start = time.monotonic()
    cls = classify_extensions(rep)
    elapsed = time.monotonic() - start
    assert cls.cocycle_count == 729
    assert (cls.class_count, cls.class_count_by_cosets) == (81, 81)
    assert cls.h2_pair_dim == 4
    assert cls.consistent
    assert elapsed < 15, f"time bound: {elapsed:.2f}s >= 15s"


def _classify_in_a_fresh_process(tmp_path, group, p, t, dim=1):
    """``classify --format json`` through ``cli.main`` on ``group`` with
    D = inversion, trivial Theta and T = t * identity on F_p^dim, at the
    default budget, in a fresh process, so that neither the law checks
    nor the census are compared with their oracles and the time is the
    program's alone.  Returns the report and the seconds it took."""
    diagonal = [[t if i == j else 0 for j in range(dim)] for i in range(dim)]
    identity = [[int(i == j) for j in range(dim)] for i in range(dim)]
    data = {
        "group": {
            "order": group.order,
            "identity": group.identity,
            "table": [list(row) for row in group.table],
        },
        "difference": inverse_map(group),
        "rep": {
            "field": {"kind": "Fp", "p": p},
            "dim": dim,
            "theta": {str(g): identity for g in group.elements},
            "T": diagonal,
        },
    }
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(data))
    program = "import sys; from diffcoh.cli import main; sys.exit(main(sys.argv[1:]))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    start = time.monotonic()
    out = subprocess.run(
        [sys.executable, "-c", program, "classify", str(path), "--format", "json"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    elapsed = time.monotonic() - start
    assert out.returncode == 0, (out.stdout, out.stderr)
    return json.loads(out.stdout), elapsed


def test_census_of_c5_over_f5_is_timed(tmp_path):
    report, elapsed = _classify_in_a_fresh_process(tmp_path, cyclic(5), 5, 4)
    cls = report["tables"]["classification"]
    assert (cls["cocycles"], cls["coboundaries"]) == (3125, 125)
    assert (cls["classes-by-isomorphism"], cls["classes-by-cosets"]) == (25, 25)
    assert (cls["pair-h2-dim"], cls["expected-from-cohomology"]) == (2, 25)
    assert report["ok"] is True
    assert elapsed < 15, f"time bound: {elapsed:.2f}s >= 15s"


@pytest.mark.parametrize(
    "group, p, t, dim, cocycles, classes",
    [
        (cyclic(7), 7, 6, 1, 7**7, 49),
        (alternating4(), 3, 2, 1, 3**12, 9),
        (symmetric(4), 2, 1, 1, 2**25, 8),
        (klein_four(), 2, 1, 2, 2**12, 1024),
    ],
    ids=["c7_f7", "a4_f3", "s4_f2", "v4_f2sq"],
)
def test_census_walls_classify_at_the_default_budget_within_15s(
    tmp_path, group, p, t, dim, cocycles, classes
):
    # the full-member census refused the first three at the default
    # budget (its cocycle pairs exceed 60000) and took over a minute on
    # V4/F2^2, with 526848 shear searches
    report, elapsed = _classify_in_a_fresh_process(tmp_path, group, p, t, dim)
    cls = report["tables"]["classification"]
    assert cls["cocycles"] == cocycles
    assert cls["classes-by-isomorphism"] == cls["classes-by-cosets"] == classes
    assert cls["expected-from-cohomology"] == classes
    assert report["ok"] is True
    assert elapsed < 15, f"time bound: {elapsed:.2f}s >= 15s"


def test_classification_assembles_each_total_differential_once(monkeypatch):
    assembled = []
    real = exactness.LESData.d_b

    def counted(data, n):
        if n not in data._d_b:
            assembled.append(n)
        return real(data, n)

    monkeypatch.setattr(exactness.LESData, "d_b", counted)
    assert classify_extensions(z3_rep()).consistent
    counts = Counter(assembled)
    assert counts[1] == counts[2] == 1
    assert max(counts.values()) == 1


# d_B(2) asks first, so d_D(1) is requested before d(1); where
# Theta_D = Theta it is d(1), and d_B(1) reads d(1) from the cache
SHARED = [("K", 1), ("K", 2), ("d", 2), ("dD", 1)]


@pytest.mark.parametrize(
    "rep, scatters",
    [
        (_trivial_rep(alternating4(), F3, 2), SHARED),
        (_trivial_rep(symmetric(4), F2, 1), SHARED),
        # D = inversion: D(g) g = e, so Theta_D is trivial, not the sign,
        # and the law forces T = -1
        (_s3_sign_rep(2, inverse_map(symmetric(3))), sorted(SHARED + [("d", 1)])),
    ],
    ids=["a4_f3", "s4_f2", "s3_sign_inversion"],
)
def test_classification_scatters_each_operator_matrix_once(monkeypatch, rep, scatters):
    # every scatter runs on a miss of a complex's matrix cache, once per
    # (operator, degree): d_B(1) and d_B(2) need d(1), d(2), K(1), K(2)
    # and d_D(1), which is d(1) where Theta_D = Theta
    scattered, open_keys = [], [None]
    real_scatter = exactness.operator_matrix
    real_cached = exactness.DifferenceComplexBase._operator_matrix

    def cached(self, key, n, *args):
        open_keys.append((key, n))
        try:
            return real_cached(self, key, n, *args)
        finally:
            open_keys.pop()

    def scatter(dom, cod, faces):
        scattered.append(open_keys[-1])
        return real_scatter(dom, cod, faces)

    monkeypatch.setattr(exactness, "operator_matrix", scatter)
    monkeypatch.setattr(exactness.DifferenceComplexBase, "_operator_matrix", cached)
    assert classify_extensions(rep).consistent
    assert sorted(scattered) == scatters


@pytest.mark.parametrize("rep", [z3_rep(), _swap_rep()], ids=["c3_f3", "c2_swap_f3sq"])
def test_classification_applies_no_d_b2_product(monkeypatch, rep):
    # the representatives are combinations of kernel vectors of d_B(2)
    # and their carriers check the extension laws, so the section round
    # trip compares pairs and multiplies nothing by d_B(2)
    d_b2, applied = [], []
    real_d_b, real_matvec = exactness.LESData.d_b, Matrix.matvec

    def d_b(self, n):
        m = real_d_b(self, n)
        if n == 2:
            d_b2.append(m)
        return m

    def matvec(self, v):
        applied.append(self)
        return real_matvec(self, v)

    monkeypatch.setattr(exactness.LESData, "d_b", d_b)
    monkeypatch.setattr(Matrix, "matvec", matvec)
    assert classify_extensions(rep).consistent
    assert d_b2
    assert not any(m is d for m in applied for d in d_b2)


def test_pair_must_live_over_the_module():
    rep = z3_rep()
    group = rep.dg.group
    wide = CochainPair(
        GroupCochain(group, F3, 2, 2, {(1, 2): (0, 1)}), zero_cochain(group, F3, 2, 1)
    )
    other = cyclic(3)
    elsewhere = CochainPair(zero_cochain(other, F3, 1, 2), zero_cochain(other, F3, 1, 1))
    for pair in (wide, elsewhere):
        with pytest.raises(ValueError, match="other data than the module"):
            AbelianExtension(rep, pair)


@pytest.mark.parametrize(
    "rep",
    [
        z3_rep(),
        _trivial_rep(symmetric(3), F3, 1),
        _s3_sign_rep(0),
        _s3_sign_rep(1),
        _s3_sign_rep(2),
        _swap_rep(),
    ],
    ids=["c3_f3", "s3_f3_trivial", "s3_sign_t0", "s3_sign_t1", "s3_sign_t2", "c2_swap_f3sq"],
)
def test_extension_sits_between_module_and_base(rep):
    # V -> E -> G on seeded cocycle pairs: the injection is a homomorphism
    # on which the operator restricts to T, and the projection is a
    # homomorphism intertwining the operators; the constructor does not
    # check these, since validated base data forces them
    cx = DifferenceComplex(rep)
    z_basis = kernel_basis(cx.d_b(2))
    c2, c1 = cx.space(2), cx.space(1)
    group, d_base = rep.dg.group, rep.dg.d_of
    for seed in range(3):
        rng = random.Random(seed)
        vec = [F3.zero] * (c2.size + c1.size)
        for basis_vec in z_basis:
            c = F3.from_int(rng.randrange(3))
            vec = [F3.add(x, F3.mul(c, y)) for x, y in zip(vec, basis_vec)]
        ext = AbelianExtension(rep, cx.pair(2, vec))
        total, d_total = ext.total.group, ext.total.d_of
        for u in ext.vectors:
            for v in ext.vectors:
                s = tuple(F3.add(a, b) for a, b in zip(u, v))
                assert total.mul(ext.inject(u), ext.inject(v)) == ext.inject(s)
            assert d_total(ext.inject(u)) == ext.inject(tuple(rep.t.matvec(list(u))))
        for x in total.elements:
            assert ext.project(d_total(x)) == d_base(ext.project(x))
            for y in total.elements:
                assert ext.project(total.mul(x, y)) == group.mul(ext.project(x), ext.project(y))
