"""Constructions only the tests need: the zero cochain, a fixture of a
catalog group with trivial action, every section of an extension and
Theta read back from one, group-element facts, the connecting class of
an ordinary cocycle, and the d_A K + K d_C = 0 and delta delta = 0 nodes
of a complex."""

import itertools
from dataclasses import dataclass

from diffcoh.catalog import inverse_map
from diffcoh.exactness import InternalCheckError, LESNode
from diffcoh.extensions import SectionMap
from diffcoh.group_cohomology import GroupCochain, NotACocycleError, coboundary, kk
from diffcoh.linalg import Matrix, solve


def zero_cochain(group, field, dim, degree):
    return GroupCochain(group, field, dim, degree)


def trivial_fixture(group, field):
    """The fixture JSON of ``group`` acting trivially on the field of the
    spec ``field`` (an F_p spec), with D = inversion and T = 0."""
    n = group.order
    return {
        "group": {
            "order": n,
            "identity": group.identity,
            "table": [[group.mul(a, b) for b in range(n)] for a in range(n)],
        },
        "difference": inverse_map(group),
        "rep": {
            "field": field,
            "dim": 1,
            "theta": {str(g): [[1]] for g in range(n)},
            "T": [[0]],
        },
    }


def is_abelian(group):
    return all(
        group.table[g][h] == group.table[h][g]
        for g in range(group.order)
        for h in range(g)
    )


def element_order(group, g):
    k, x = 1, g
    while x != group.identity:
        x = group.mul(x, g)
        k += 1
    return k


def all_sections(ext):
    """Every section of the extension (the identity's lift is fixed)."""
    group = ext.base.group
    nonid = [g for g in group.elements if g != group.identity]
    out = []
    for combo in itertools.product(range(ext.nv), repeat=len(nonid)):
        values = [0] * group.order
        values[group.identity] = ext.total.group.identity
        for g, k in zip(nonid, combo):
            values[g] = ext.index(g, ext.vectors[k])
        out.append(SectionMap(ext, values))
    return out


def rep_from_section(ext, section):
    """Recover Theta from conjugation by section values:
    Theta(g) u = s(g) u s(g)^{-1}.  The result must not depend on the
    section and must equal the representation the extension carries."""
    group = ext.base.group
    total = ext.total.group
    f = ext.rep.field
    unit = [tuple(f.one if i == j else f.zero for i in range(ext.rep.dim))
            for j in range(ext.rep.dim)]
    mats = []
    for g in group.elements:
        cols = []
        for e_j in unit:
            conj = total.mul(
                total.mul(section(g), ext.inject(e_j)), total.inv(section(g))
            )
            base_part, vec = ext.split(conj)
            if base_part != group.identity:
                raise InternalCheckError("conjugation left the module")
            cols.append(list(vec))
        mats.append(Matrix.from_rows(f, cols).transpose())
    if tuple(mats) != ext.rep.theta:
        raise InternalCheckError(
            "section conjugation disagrees with the extension's representation"
        )
    return tuple(mats)


@dataclass
class ConnectingClass:
    """The value of the connecting map on a cocycle: the cochain K a,
    together with whether its class vanishes and a preimage when it does."""

    cochain: GroupCochain
    is_zero_class: bool
    preimage: GroupCochain | None


def connecting_class(cx, a):
    """Apply the connecting map of the complex ``cx`` to an ordinary
    cocycle and decide whether the resulting difference-complex class
    vanishes."""
    da = coboundary(cx, a)
    if not da.is_zero():
        witness = next(args for args, _ in da.items())
        raise NotACocycleError(witness, "ordinary coboundary is nonzero")
    image = kk(cx, a)
    n = a.degree
    if n == 1:
        # the difference complex is zero in degree 1: no coboundaries
        return ConnectingClass(image, image.is_zero(), None)
    dom = cx.space(n - 1)
    cod = cx.space(n)
    mat = cx.d_difference(n - 1)
    x = solve(mat, cod.to_vector(image))
    if x is None:
        return ConnectingClass(image, False, None)
    return ConnectingClass(image, True, dom.from_vector(x))


def verify_anticommutation(cx, max_degree: int) -> list[LESNode]:
    """Check d_A K + K d_C = 0 degreewise on the complex ``cx``, the
    identity that makes the total differential square to zero."""
    out = []
    for n in range(1, max_degree + 1):
        lhs = cx.d_a(n + 1) @ cx.k(n)
        rhs = cx.k(n + 1) @ cx.d_c(n)
        ok = (lhs + rhs).is_zero()
        out.append(
            LESNode(
                degree=n,
                node="anticommutation",
                ok=ok,
                detail="d_A K + K d_C = 0" if ok else "d_A K + K d_C != 0",
            )
        )
    return out


def verify_delta_squared(cx, max_degree: int) -> list[LESNode]:
    """The anticommutation nodes, then delta delta = 0 degreewise."""
    nodes = verify_anticommutation(cx, max_degree)
    for n in range(1, max_degree + 1):
        ok = (cx.d_b(n + 1) @ cx.d_b(n)).is_zero()
        nodes.append(
            LESNode(
                degree=n,
                node="delta-squared",
                ok=ok,
                detail="delta delta = 0" if ok else "delta delta != 0",
            )
        )
    return nodes
