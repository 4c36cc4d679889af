"""Acceptance suite: ten exact, time-bounded criteria.

Every numeric expectation is either asserted against an oracle computed
in this file by a different route (pointwise identity replay, all-maps
enumeration, digit-by-digit cochain census) or is a frozen value those
oracles produced.  All equalities are exact; no tolerances.
"""

import itertools
import time
from fractions import Fraction
from pathlib import Path

from diffcoh.catalog import (
    cyclic,
    direct_product,
    groups_of_each_order,
    inverse_map,
    klein_four,
)
from diffcoh.extensions import (
    AbelianExtension,
    canonical_section,
    classify_extensions,
    classify_semidirect_difference_ops,
    cocycle_from_section,
)
from diffcoh.fixtures import load_fixture
from diffcoh.group_cohomology import (
    CochainPair,
    DifferenceComplex,
    GroupCochain,
)
from diffcoh.groups import (
    DifferenceGroup,
    DifferenceRep,
    check_difference_operator,
    semidirect_product,
)
from diffcoh.lie import (
    LieAlgebra,
    LieCochain,
    LieDifferenceComplex,
    LieDifferenceOp,
    LieRep,
    check_lie_difference,
    k_map,
)
from diffcoh.linalg import Matrix
from diffcoh.programs import (
    builtin_cochain_program,
    builtin_difference_program,
    builtin_rep_program,
    inp,
    mul,
    scalar,
    sub,
    trace_of,
)
from diffcoh.scalars import PrimeField, Rationals
from diffcoh.vanest import (
    MatrixGroupSpec,
    VSpace,
    differentiate_difference_operator,
    differentiate_representation,
    pk_program,
    van_est,
    verify_van_est_cochain_map,
)

from helpers import is_abelian, verify_delta_squared

F2 = PrimeField(2)
F3 = PrimeField(3)
Q = Rationals()


def _run(num, label, bound_s, body):
    start = time.monotonic()
    try:
        body()
        elapsed = time.monotonic() - start
        assert elapsed < bound_s, f"time bound: {elapsed:.2f}s >= {bound_s}s"
    except BaseException:
        print(f"criterion {num:02d} [{label}]: FAIL")
        raise
    print(f"criterion {num:02d} [{label}]: PASS ({elapsed:.2f}s, bound {bound_s}s)")


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


def satisfies_difference_identity(group, d):
    """Pointwise replay of D(gh) = D(g) g D(h) g^{-1}."""
    for g in group.elements:
        for h in group.elements:
            lhs = d[group.mul(g, h)]
            rhs = group.mul(
                group.mul(d[g], g), group.mul(d[h], group.inv(g))
            )
            if lhs != rhs:
                return False
    return True


def is_endomorphism(group, f):
    return all(
        f[group.mul(g, h)] == group.mul(f[g], f[h])
        for g in group.elements
        for h in group.elements
    )


def all_endomorphisms(group):
    """Endomorphisms enumerated from generator images, checked fully."""
    gens = []
    span = {group.identity}
    for g in group.elements:
        if g in span:
            continue
        gens.append(g)
        span.add(g)
        changed = True
        while changed:
            changed = False
            for a in list(span):
                for b in list(span):
                    c = group.mul(a, b)
                    if c not in span:
                        span.add(c)
                        changed = True
    words = {group.identity: ()}
    queue = [group.identity]
    while queue:
        x = queue.pop(0)
        for i, g in enumerate(gens):
            y = group.mul(x, g)
            if y not in words:
                words[y] = words[x] + (i,)
                queue.append(y)
    out = []
    for images in itertools.product(group.elements, repeat=len(gens)):
        f = []
        for x in group.elements:
            val = group.identity
            for i in words[x]:
                val = group.mul(val, images[i])
            f.append(val)
        if is_endomorphism(group, f):
            out.append(tuple(f))
    return out


def test_criterion_01_difference_operator_axioms():
    def body():
        # the inverse map is a difference operator on every catalog group
        for order, group in groups_of_each_order(24).items():
            d = inverse_map(group)
            assert check_difference_operator(group, d).ok, order
            assert satisfies_difference_identity(group, d), order

        small = [cyclic(2), cyclic(3), cyclic(4), klein_four()]
        for group in small:
            # all maps, both inclusions: the package verdict must equal
            # the endomorphism test on every one of <= 256 candidates
            assert group.order**group.order <= 256
            for f in itertools.product(group.elements, repeat=group.order):
                is_op = check_difference_operator(group, list(f)).ok
                assert is_op == is_endomorphism(group, f)
                assert is_op == satisfies_difference_identity(group, f)

        larger = [
            cyclic(5),
            cyclic(6),
            cyclic(7),
            cyclic(8),
            direct_product(cyclic(4), cyclic(2)),
            direct_product(klein_four(), cyclic(2)),
        ]
        for group in larger:
            assert is_abelian(group)
            endos = all_endomorphisms(group)
            assert len(endos) >= group.order
            for f in endos:
                assert check_difference_operator(group, list(f)).ok
            constant = [1] * group.order
            swap = list(group.elements)
            swap[1], swap[2] = swap[2], swap[1]
            for bad in (constant, swap):
                assert not is_endomorphism(group, bad)
                assert not check_difference_operator(group, bad).ok

    _run(1, "difference-operator axioms", 5, body)


def test_criterion_02_delta_squared_is_zero():
    def body():
        for rep in (z3_rep(), z2_rep()):
            cx = DifferenceComplex(rep)
            nodes = verify_delta_squared(cx, 3)
            assert nodes and all(n.ok for n in nodes)
            for n in (1, 2, 3):
                assert (cx.d_b(n + 1) @ cx.d_b(n)).is_zero()

    _run(2, "pair differential squares to zero", 10, body)


def test_criterion_03_anticommutation():
    def body():
        for rep in (z3_rep(), z2_rep()):
            cx = DifferenceComplex(rep)
            for n in (1, 2):
                total = cx.d_difference(n) @ cx.k_matrix(n) + cx.k_matrix(
                    n + 1
                ) @ cx.d_ordinary(n)
                assert total.is_zero(), n

    _run(3, "connecting map anticommutes with coboundaries", 5, body)


def test_criterion_04_long_exact_sequence():
    def body():
        for rep in (z3_rep(), z2_rep()):
            nodes = DifferenceComplex(rep).verify_les(3)
            assert nodes and all(n.ok for n in nodes)

        # brute-force oracle over Z/3 with F_3 coefficients: enumerate
        # all 3^9 maps on G x G, keep the normalized ones, and count
        # cocycles and coboundaries pointwise
        c3 = cyclic(3)
        pairs = [(g, h) for g in c3.elements for h in c3.elements]
        normalized = []
        for values in itertools.product(range(3), repeat=9):
            m = dict(zip(pairs, values))
            if all(m[p] == 0 for p in pairs if 0 in p):
                normalized.append(m)
        assert len(normalized) == 81

        def is_two_cocycle(m):
            for g1 in c3.elements:
                for g2 in c3.elements:
                    for g3 in c3.elements:
                        if (
                            m[(g2, g3)]
                            - m[(c3.mul(g1, g2), g3)]
                            + m[(g1, c3.mul(g2, g3))]
                            - m[(g1, g2)]
                        ) % 3 != 0:
                            return False
            return True

        z2_count = sum(1 for m in normalized if is_two_cocycle(m))
        etas = [
            dict(zip(c3.elements, values))
            for values in itertools.product(range(3), repeat=3)
            if values[0] == 0
        ]
        assert len(etas) == 9
        boundaries = {
            tuple((eta[g] + eta[h] - eta[c3.mul(g, h)]) % 3 for g, h in pairs)
            for eta in etas
        }
        assert all(
            is_two_cocycle(dict(zip(pairs, b))) for b in boundaries
        )
        assert z2_count % len(boundaries) == 0
        h2_count = z2_count // len(boundaries)
        z1_count = sum(
            1
            for eta in etas
            if all((eta[g] + eta[h] - eta[c3.mul(g, h)]) % 3 == 0 for g, h in pairs)
        )
        # no 0-cochains, so degree-1 classes are exactly the cocycles
        assert (z1_count, h2_count) == (3, 3)  # 3^1 each: dimension 1

        dims = DifferenceComplex(z3_rep()).cohomology_dims(2).degrees
        assert 3 ** dims[1].h_ordinary == z1_count
        assert 3 ** dims[2].h_ordinary == h2_count

    _run(4, "long exact sequence and enumeration cross-check", 30, body)


def lie_fixtures():
    solvable = LieAlgebra(Q, 2, {(0, 1): (Fraction(0), Fraction(1))})
    abelian = LieAlgebra(Q, 2, {})
    out = []
    for lie, d in (
        (solvable, -Matrix.identity(Q, 2)),
        (abelian, Matrix.zeros(Q, 2, 2)),
    ):
        dop = LieDifferenceOp(lie, d)
        theta = [Matrix.zeros(Q, 1, 1)] * 2
        out.append(LieRep(dop, theta, Matrix.zeros(Q, 1, 1)))
    return out


def test_criterion_05_lie_side():
    def body():
        for rep in lie_fixtures():
            cx = LieDifferenceComplex(rep)
            nodes = verify_delta_squared(cx, 3)
            assert nodes and all(n.ok for n in nodes)
            nodes = cx.verify_les(3)
            assert nodes and all(n.ok for n in nodes)
            # k_map scatters K from the D_+ closed form; the conftest
            # hook compares each matrix with the subset expansion kept
            # in oracles, failing on any mismatch
            for degree in (1, 2):
                for tup in itertools.combinations(range(rep.lie.dim), degree):
                    z = LieCochain(rep.lie, 1, degree, {tup: (Fraction(1),)})
                    k_map(cx, z)

    _run(5, "Lie complex, LES, and dual-form connecting map", 5, body)


def test_criterion_06_jet_differentiation():
    def body():
        spec = MatrixGroupSpec(Q, 2)
        basis = spec.standard_basis()
        adj = differentiate_difference_operator(
            spec, builtin_difference_program("adjugate", Q, 2), basis
        )
        ident = Matrix.identity(Q, 2)

        def d_of(x):
            return ident.scale(x.trace()) - x

        # frozen derivative: D(x) = tr(x) I - x, column per basis element
        expected_cols = [list(d_of(x).entries) for x in basis]
        assert adj.dop.d == Matrix.from_rows(Q, expected_cols).transpose()
        assert check_lie_difference(adj.lie, adj.dop.d).ok

        def comm(a, b):
            return a @ b - b @ a

        for x in basis:
            for y in basis:
                lhs = d_of(comm(x, y))
                rhs = comm(d_of(x), y) + comm(x, d_of(y)) + comm(d_of(x), d_of(y))
                assert lhs == rhs
                assert lhs == comm(x, y).scale(Fraction(-1))

        inv = differentiate_difference_operator(
            spec, builtin_difference_program("inverse", Q, 2), basis
        )
        assert inv.dop.d == -Matrix.identity(Q, 4)

    _run(6, "jet differentiation of adjugate and inverse", 1, body)


def test_criterion_07_van_est_cochain_map():
    def body():
        spec = MatrixGroupSpec(Q, 2)
        dprog = builtin_difference_program("adjugate", Q, 2)
        theta_prog = builtin_rep_program("det", Q, 2)
        t = Matrix.from_rows(Q, [[Fraction(-1)]])
        vshape = VSpace(1, 1)
        diff = differentiate_difference_operator(spec, dprog, spec.standard_basis())
        lierep = differentiate_representation(diff, theta_prog, t, vshape)
        alpha1 = builtin_cochain_program("trace-shift", Q, 2, 1)
        alpha2 = mul(alpha1, sub(trace_of(inp(1)), scalar(Fraction(2))))
        for degree, alpha, beta in ((1, alpha1, None), (2, alpha2, alpha1)):
            report = verify_van_est_cochain_map(
                diff, lierep, theta_prog, vshape,
                alpha, degree, beta_prog=beta,
            )
            assert report.ok, [c.detail for c in report.checks if not c.ok]
            named = {c.name: c.ok for c in report.checks}
            assert named["pk-differentiates-to-zero"]
            # the proof computation replayed directly
            ve_pk = van_est(diff, pk_program(dprog, theta_prog, alpha, degree), degree, vshape)
            assert ve_pk.is_zero()

    _run(7, "van Est differentiation is a cochain map", 10, body)


def test_criterion_08_extension_classification():
    def body():
        for rep, p in ((z3_rep(), 3), (z2_rep(), 2)):
            cls = classify_extensions(rep)
            assert cls.consistent
            assert cls.class_count == p**cls.h2_pair_dim
            assert cls.class_count == cls.class_count_by_cosets
            assert cls.cocycle_count == sum(c.size for c in cls.classes)
        # explicit round trip on a nonsplit representative
        rep = z3_rep()
        pair = CochainPair(
            GroupCochain(
                rep.dg.group, F3, 1, 2, {(1, 2): (1,), (2, 1): (1,), (2, 2): (1,)}
            ),
            GroupCochain(rep.dg.group, F3, 1, 1, {(2,): (1,)}),
        )
        ext = AbelianExtension(rep, pair)
        back = cocycle_from_section(ext, canonical_section(ext))
        assert back.alpha == pair.alpha and back.beta == pair.beta

    _run(8, "extension classes counted two ways", 60, body)


def test_criterion_09_semidirect_operator_census():
    def body():
        expected = {2: 3, 1: 1}  # T = -1 and T = +1 over F_3
        for t, classes in expected.items():
            cls = classify_semidirect_difference_ops(z3_rep(t))
            assert cls.total_order == 9
            # direct enumeration really ran: 3^6 candidate operators
            assert cls.direct_valid_count is not None
            assert cls.direct_valid_count == 3
            assert cls.direct_class_count == classes
            assert cls.count_by_rank == classes
            assert cls.count_by_census == classes
            assert cls.consistent

    _run(9, "semidirect operator census matches the quotient formula", 60, body)


def test_criterion_10_semidirect_product_law():
    def body():
        flip = Matrix.from_rows(F3, [[2]])
        c2 = cyclic(2)
        twisted = DifferenceRep(
            DifferenceGroup(c2, [0, 0]),
            [Matrix.identity(F3, 1), flip],
            Matrix.zeros(F3, 1, 1),
        )
        reps = [z3_rep(), z3_rep(1), z2_rep(), twisted]
        trivial = cyclic(1)
        reps.append(
            DifferenceRep(
                DifferenceGroup(trivial, [0]),
                [Matrix.identity(F2, 1)],
                Matrix.zeros(F2, 1, 1),
            )
        )
        fixdir = Path(__file__).resolve().parent.parent / "fixtures"
        for path in sorted(fixdir.glob("*.json")):
            fx = load_fixture(path)
            if fx.kind == "group" and fx.rep is not None:
                reps.append(fx.rep)
        assert len(reps) >= 9
        for rep in reps:
            sd = semidirect_product(rep.dg, rep)
            assert sd.group.order == rep.dg.group.order * rep.field.p**rep.dim
            assert satisfies_difference_identity(sd.group, list(sd.d))

    _run(10, "semidirect products satisfy the difference identity", 5, body)
