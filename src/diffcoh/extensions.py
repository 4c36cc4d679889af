"""Abelian extensions of difference groups and their classification.

An extension of (G, D) by a difference module (V, T, Theta) over F_p is
built from a cocycle pair (alpha, beta) with delta(alpha, beta) = 0:

    (g, u) (h, v) = (gh, u + Theta(g) v + alpha(g, h))
    D(g, u)       = (D g, T u + u - Theta(D g) u + beta(g)).

Conversely any set-theoretic section s of an extension produces a pair
alpha(g, h) = s(g) s(h) s(gh)^{-1},  beta(g) = D(s(g)) s(D g)^{-1}, and
changing the section shifts the pair by a pair-complex coboundary.
Isomorphisms of extensions that fix G and V are shears
(g, u) -> (g, u + eta(g)); two extensions are isomorphic exactly when
their cocycle pairs are cohomologous, so isomorphism classes are
counted by the pair cohomology in degree 2.

One ``census`` serves both classifications.  ``exactness.cohomology_space``
splits the cocycles into coboundaries and H^2 representatives; the
census builds the extension of every cocycle pair, keys it by its
coefficients on those representatives, so that two pairs share a key
exactly when they differ by a coboundary, and shows with the explicit
shear search that each member is isomorphic to its coset's first member
and that these first members are pairwise non-isomorphic, so the
isomorphism classes are the cosets.  ``classify_extensions`` runs it on
all cocycle pairs.
The difference operators on the semidirect product G x| V are the
extensions with alpha = 0, so ``classify_semidirect_difference_ops``
runs it on the pairs (0, beta).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from typing import Any, Iterator, Sequence

from .groups import DifferenceRep, ValidationError, carrier, generation
from .group_cohomology import (
    BudgetExceededError,
    CochainPair,
    DifferenceComplex,
    GroupCochain,
    NotACocycleError,
    delta,
)
from .exactness import DEFAULT_BUDGET, CohomologySpace, InternalCheckError, cohomology_space
from .linalg import SparseMatrix, kernel_basis, rank
from .scalars import PrimeField


class AbelianExtension:
    """A difference group extension with carrier G x V and the data to
    move between total-group indices and (base element, vector) pairs."""

    def __init__(self, rep: DifferenceRep, pair: CochainPair) -> None:
        if not isinstance(rep.field, PrimeField):
            raise ValueError("extensions need a finite (prime-field) module")
        if pair.degree != 2:
            raise ValueError(f"extension cocycles have degree 2, got {pair.degree}")
        if (pair.alpha.over, pair.alpha.field, pair.alpha.dim) != (rep.dg.group, rep.field, rep.dim):
            raise ValueError("the cocycle pair lives over other data than the module")
        self.rep = rep
        self.base = rep.dg
        self.pair = pair
        self.vectors, index = rep.module.vectors, rep.module.index
        self.nv, elements = len(self.vectors), self.base.group.elements
        try:
            self.total = carrier(
                rep,
                [[index[pair.alpha.value_at((g, h))] for h in elements] for g in elements],
                [index[pair.beta.value_at((g,))] for g in elements],
            )
        except ValidationError as exc:
            # each law's defect at a carrier tuple is a half of delta at its projection
            issue = exc.report.issues[0]
            detail = {
                "associativity": "the associativity (ordinary 2-cocycle) condition fails",
                "twisted-cocycle": "the operator-compatibility condition fails",
            }.get(issue.check)
            if detail is None:  # a normalized pair over a validated rep meets every other law
                raise InternalCheckError(f"extension carrier: {exc}") from exc
            raise NotACocycleError(tuple(map(self.project, issue.witness)), detail) from exc

    def index(self, g: int, u: tuple) -> int:
        return g * self.nv + self.rep.module.index[u]

    def split(self, idx: int) -> tuple[int, tuple]:
        return idx // self.nv, self.vectors[idx % self.nv]

    def project(self, idx: int) -> int:
        return idx // self.nv

    def inject(self, u: tuple) -> int:
        return self.index(self.base.group.identity, u)

    def __repr__(self) -> str:
        return (
            f"AbelianExtension(base order {self.base.group.order}, "
            f"total order {self.total.group.order})"
        )


class SectionMap:
    """A set-theoretic section of an extension: s(g) has projection g
    and s(e) = e.  No homomorphism property is assumed."""

    def __init__(self, ext: AbelianExtension, values: Sequence[int]) -> None:
        group = ext.base.group
        if len(values) != group.order:
            raise ValueError(f"section needs {group.order} values")
        for g, s in enumerate(values):
            if ext.project(s) != g:
                raise ValueError(
                    f"section value at {group.label(g)} projects to "
                    f"{group.label(ext.project(s))}"
                )
        e_total = ext.total.group.identity
        if values[group.identity] != e_total:
            raise ValueError("sections must send the identity to the identity")
        self.ext = ext
        self.values = tuple(values)

    def __call__(self, g: int) -> int:
        return self.values[g]


def canonical_section(ext: AbelianExtension) -> SectionMap:
    zero = ext.vectors[0]
    return SectionMap(
        ext, [ext.index(g, zero) for g in ext.base.group.elements]
    )


def cocycle_from_section(ext: AbelianExtension, section: SectionMap) -> CochainPair:
    """Read off the cocycle pair of a section; delta must vanish on it,
    since the extension's laws hold."""
    if section.ext is not ext:
        raise ValueError("section belongs to a different extension")
    group = ext.base.group
    total = ext.total
    f = ext.rep.field

    alpha_values = {}
    for g in group.elements:
        for h in group.elements:
            if g == group.identity or h == group.identity:
                continue
            prod = total.group.mul(section(g), section(h))
            corr = total.group.mul(prod, total.group.inv(section(group.mul(g, h))))
            base_part, vec = ext.split(corr)
            if base_part != group.identity:
                raise InternalCheckError("section defect left the module")
            alpha_values[(g, h)] = vec
    alpha = GroupCochain(group, f, ext.rep.dim, 2, alpha_values)

    beta_values = {}
    for g in group.elements:
        if g == group.identity:
            continue
        lhs = total.d_of(section(g))
        corr = total.group.mul(lhs, total.group.inv(section(ext.base.d_of(g))))
        base_part, vec = ext.split(corr)
        if base_part != group.identity:
            raise InternalCheckError("operator defect left the module")
        beta_values[(g,)] = vec
    beta = GroupCochain(group, f, ext.rep.dim, 1, beta_values)

    pair = CochainPair(alpha, beta)
    image = delta(ext.rep, pair)
    for name, part in (("d alpha", image.alpha), ("d_D beta + K alpha", image.beta)):
        if not part.is_zero():
            raise InternalCheckError(f"section pair has {name} nonzero at {part.items()[0][0]}")
    return pair


def are_isomorphic(
    e1: AbelianExtension, e2: AbelianExtension, budget: int = DEFAULT_BUDGET
) -> GroupCochain | None:
    """Search for a shear isomorphism (g, u) -> (g, u + eta(g)) carrying
    e1 to e2 and commuting with the operators; returns the shear as a
    1-cochain, or None.

    Isomorphisms of extensions inducing the identity on G and V are
    exactly of this form.  Such a shear is a homomorphism fixing V, so
    eta is determined by its values on a generating set of G: the search
    runs over those values, extends each to all of G along a tree, and
    checks the resulting map in full, so it stays exhaustive.
    """
    if e1.base is not e2.base:
        raise ValueError("extensions live over different difference groups")
    if e1.rep.theta != e2.rep.theta or e1.rep.t != e2.rep.t:
        raise ValueError("extensions have different modules")
    group = e1.base.group
    gens, steps = generation(group.table)
    n_candidates = e1.nv ** len(gens)
    if n_candidates > budget:
        raise BudgetExceededError(
            "shear isomorphism search", n_candidates, budget, "candidate shears"
        )

    # (g, vectors[k]) has index g * nv + k and equals (e, vectors[k]) (g, 0)
    # in both extensions, so sigma sends it to (e, vectors[k]) (g, eta(g)).
    # A step (x, s, y) with (x, 0)(s, 0) = (e, a)(y, 0) in e1 fixes eta(y):
    # (y, eta(y)) = (e, a)^-1 sigma(x, 0) sigma(s, 0) in e2.
    g1, g2 = e1.total.group, e2.total.group
    d1, d2 = e1.total.d, e2.total.d
    nv, e = e1.nv, group.identity
    tree = [
        (x, s, y, g2.table[g2.inv(e * nv + g1.mul(x * nv, s * nv) % nv)])
        for x, s, y in steps
    ]
    shear = [0] * group.order
    for combo in itertools.product(range(nv), repeat=len(gens)):
        for g, k in zip(gens, combo):
            shear[g] = k
        for x, s, y, unshift in tree:
            shear[y] = unshift[g2.mul(x * nv + shear[x], s * nv + shear[s])] % nv
        sigma = [g2.mul(e * nv + k, g * nv + shear[g]) for g in group.elements for k in range(nv)]
        if all(sigma[d1[x]] == d2[sigma[x]] for x in g1.elements) and all(
            [sigma[z] for z in row] == [g2.table[sx][z] for z in sigma]
            for row, sx in zip(g1.table, sigma)
        ):
            values = {(g,): e1.vectors[shear[g]] for g in group.elements if g != e}
            return GroupCochain(group, e1.rep.field, e1.rep.dim, 1, values)
    return None


def _span(
    field: PrimeField, basis: list[list[Any]], length: int
) -> Iterator[tuple[tuple[int, ...], list[Any]]]:
    """Every F_p-linear combination of ``basis`` (vectors of ``length``)
    beside its coefficient tuple, in ``itertools.product`` order, so the
    zero vector comes first."""
    for coeffs in itertools.product(range(field.p), repeat=len(basis)):
        vec = [field.zero] * length
        for c, basis_vec in zip(coeffs, basis):
            if c == 0:
                continue
            cf = field.from_int(c)
            vec = [field.add(x, field.mul(cf, y)) for x, y in zip(vec, basis_vec)]
        yield coeffs, vec


def census(cx: DifferenceComplex, space: CohomologySpace) -> list[list[AbelianExtension]]:
    """Build the extension of every cocycle pair in the F_p-span of
    ``space.boundaries + space.reps``, a ``cohomology_space`` in pair
    coordinates (alpha first, then beta), and show that its
    shear-isomorphism classes are its cosets modulo the span of
    ``space.boundaries``.

    One pass keys each member by its coefficients on ``space.reps``, its
    coordinates in H; two members share a key exactly when they differ
    by a boundary.  A member of a known coset must be shear-isomorphic
    to that coset's representative, its first member; a member of a new
    coset must be isomorphic to no earlier representative, and becomes
    one.  So every member is shown isomorphic to its representative and
    the representatives pairwise non-isomorphic by the exhaustive
    search, and the two partitions are equal; either failure raises
    ``InternalCheckError``.

    Returns the classes, one per coset, in span order.  The zero pair
    comes first, so ``classes[0][0]`` is the split extension.
    """
    rep, f, budget = cx.rep, cx.field, cx.budget
    basis = space.boundaries + space.reps
    n_cocycles = f.p ** len(basis)
    if n_cocycles > budget:
        raise BudgetExceededError("extension census", n_cocycles, budget, "cocycle pairs")
    c2, c1, n_b = cx.space(2), cx.space(1), len(space.boundaries)

    cosets: dict[tuple, list[AbelianExtension]] = {}
    for coeffs, vec in _span(f, basis, space.dim_total):
        key = coeffs[n_b:]
        pair = CochainPair(c2.from_vector(vec[: c2.size]), c1.from_vector(vec[c2.size :]))
        ext = AbelianExtension(rep, pair)
        if key in cosets:
            if are_isomorphic(cosets[key][0], ext, budget=budget) is None:
                raise InternalCheckError(
                    "cohomologous cocycles produced non-isomorphic extensions"
                )
            cosets[key].append(ext)
        elif any(are_isomorphic(m[0], ext, budget=budget) is not None for m in cosets.values()):
            raise InternalCheckError(
                "isomorphic extensions came from non-cohomologous cocycles"
            )
        else:
            cosets[key] = [ext]
    return list(cosets.values())


@dataclass
class ExtensionClass:
    representative: CochainPair
    size: int


@dataclass
class ExtensionClassification:
    cocycle_count: int
    coboundary_count: int
    class_count: int
    class_count_by_cosets: int
    expected_from_cohomology: int
    h2_pair_dim: int
    classes: list[ExtensionClass] = dc_field(default_factory=list)

    @property
    def consistent(self) -> bool:
        return (
            self.class_count
            == self.class_count_by_cosets
            == self.expected_from_cohomology
        )


def classify_extensions(rep: DifferenceRep, budget: int = DEFAULT_BUDGET) -> ExtensionClassification:
    """Run the census on all cocycle pairs (the kernel of delta(2)),
    keyed by the H^2 space of the pair complex, and set its class count
    beside the coset count p^(dim Z^2 - rank B^2) and p^(dim H^2) from
    the ranks of ``cohomology_dims``; every class representative must
    come back from its canonical section."""
    if not isinstance(rep.field, PrimeField):
        raise ValueError("classification needs a finite (prime-field) module")
    p = rep.field.p
    cx = DifferenceComplex(rep, budget=budget)
    space = cohomology_space(rep.field, cx.d_b(2), cx.d_b(1))
    classes = census(cx, space)
    b_rank = rank(cx.d_b(1))

    for members in classes:
        ext = members[0]
        if cocycle_from_section(ext, canonical_section(ext)) != ext.pair:
            raise InternalCheckError("canonical section does not return its cocycle")

    h2 = cx.cohomology_dims(2).degrees[2].h_pair
    return ExtensionClassification(
        cocycle_count=sum(len(members) for members in classes),
        coboundary_count=p**b_rank,
        class_count=len(classes),
        class_count_by_cosets=p ** (len(space.boundaries) + space.dim - b_rank),
        expected_from_cohomology=p**h2,
        h2_pair_dim=h2,
        classes=[
            ExtensionClass(members[0].pair, len(members)) for members in classes
        ],
    )


@dataclass
class SemidirectOpsClassification:
    z_dim: int
    connecting_rank: int
    count_by_rank: int
    count_by_census: int
    direct_valid_count: int | None
    direct_class_count: int | None
    total_order: int
    notes: list[str] = dc_field(default_factory=list)

    @property
    def consistent(self) -> bool:
        if self.count_by_rank != self.count_by_census:
            return False
        if self.direct_class_count is not None:
            return self.direct_class_count == self.count_by_rank
        return True


def classify_semidirect_difference_ops(
    rep: DifferenceRep, budget: int = DEFAULT_BUDGET
) -> SemidirectOpsClassification:
    """Count difference operators on G x| V extending (D, T) and fixing
    the projection, up to shear equivalence.

    These are the extensions with alpha = 0: (0, beta) is a cocycle iff
    d_D beta = 0, and two are cohomologous iff beta - beta' lies in
    K(Z^1).  Three routes: rank arithmetic p^(dim Z - rank K|Z1), the
    census of the pairs (0, beta), keyed by the quotient
    ker d_D(1) / K(Z^1) from ``cohomology_space``, and, when its
    candidate count (p^dim)^((|G|-1) p^dim) fits the budget, brute
    enumeration of all candidate operators on the semidirect product,
    every one of which must be a census member, counted up to shears
    without the census.
    """
    if not isinstance(rep.field, PrimeField):
        raise ValueError("classification needs a finite (prime-field) module")
    f = rep.field
    p = f.p
    group = rep.dg.group
    cx = DifferenceComplex(rep, budget=budget)

    kmat = cx.k_matrix(1)
    k_on_z1 = SparseMatrix.from_columns(
        f, [kmat.matvec(v) for v in kernel_basis(cx.d_ordinary(1))], kmat.nrows
    )
    k_rank = rank(k_on_z1)
    betas = cohomology_space(f, cx.d_difference(1), k_on_z1)
    z_dim = len(betas.boundaries) + betas.dim

    alpha_zero = [f.zero] * cx.space(2).size
    classes = census(
        cx,
        CohomologySpace(
            dim_total=len(alpha_zero) + betas.dim_total,
            reps=[alpha_zero + v for v in betas.reps],
            boundaries=[alpha_zero + v for v in betas.boundaries],
        ),
    )

    notes: list[str] = []
    direct_valid: int | None = None
    direct_classes: int | None = None
    nv = p**rep.dim
    n_candidates = nv ** ((group.order - 1) * nv)
    if n_candidates <= budget:
        valid = _valid_operators(classes[0][0])
        if set(valid) != {ext.total.d for members in classes for ext in members}:
            raise InternalCheckError(
                "direct enumeration found operators outside the cocycle family"
            )
        direct_valid = len(valid)
        direct_classes = _shear_orbit_count(classes[0][0], valid)
    else:
        notes.append(
            f"direct enumeration skipped: {n_candidates} candidate operators "
            f"exceed the budget of {budget}"
        )
    return SemidirectOpsClassification(
        z_dim=z_dim,
        connecting_rank=k_rank,
        count_by_rank=p ** (z_dim - k_rank),
        count_by_census=len(classes),
        direct_valid_count=direct_valid,
        direct_class_count=direct_classes,
        total_order=group.order * nv,
        notes=notes,
    )


def _valid_operators(sd: AbelianExtension) -> list[tuple[int, ...]]:
    """Enumerate all maps on the semidirect product ``sd`` compatible
    with the projection and restricting to T on the module, and keep
    those satisfying the twisted cocycle rule, checked directly."""
    dg, nv, total = sd.base, sd.nv, sd.total.group
    group, e = dg.group, dg.group.identity
    t = sd.rep.module.shift[e]  # T + id - Theta(D e) = T

    slots = [g * nv + u for g in group.elements if g != e for u in range(nv)]
    valid: list[tuple[int, ...]] = []
    for combo in itertools.product(range(nv), repeat=len(slots)):
        d_arr = [0] * total.order
        d_arr[e * nv : (e + 1) * nv] = [e * nv + w for w in t]
        for x, w in zip(slots, combo):
            d_arr[x] = dg.d_of(x // nv) * nv + w
        if all(
            d_arr[z] == total.mul(total.mul(d_arr[x], x), total.mul(d_arr[y], total.inv(x)))
            for x, row in enumerate(total.table)
            for y, z in enumerate(row)
        ):
            valid.append(tuple(d_arr))
    return valid


def _shear_orbit_count(sd: AbelianExtension, valid: list[tuple[int, ...]]) -> int:
    """The number of orbits of the operators ``valid`` on the semidirect
    product ``sd`` under conjugation by the shears (g, u) -> (g, u + eta(g))
    that are automorphisms, that is eta in Z^1.  Z^1 is found by brute
    force, without the census or the complex: eta runs over every
    normalized 1-cochain and is kept when its shear respects the product
    table."""
    group, total, nv, add = sd.base.group, sd.total.group, sd.nv, sd.rep.module.add
    nonid = [g for g in group.elements if g != group.identity]
    shears = []
    for combo in itertools.product(range(nv), repeat=len(nonid)):
        eta = dict(zip(nonid, combo))
        sigma = [
            g * nv + add[u][eta.get(g, 0)] for g in group.elements for u in range(nv)
        ]
        if all(
            sigma[z] == total.mul(sigma[x], sigma[y])
            for x, row in enumerate(total.table)
            for y, z in enumerate(row)
        ):
            shears.append(sigma)
    remaining, orbits = set(valid), 0
    while remaining:
        d = remaining.pop()
        for sigma in shears:
            conj = [0] * len(d)
            for x, dx in enumerate(d):
                conj[sigma[x]] = sigma[dx]
            remaining.discard(tuple(conj))
        orbits += 1
    return orbits
