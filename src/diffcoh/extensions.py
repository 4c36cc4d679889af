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
counted by the pair cohomology in degree 2.  Classification here runs
both routes (coset decomposition and explicit shear search) and insists
they agree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from typing import Any, Sequence

from .groups import (
    DifferenceGroup,
    DifferenceRep,
    FiniteGroup,
    induced_rep_theta_d,
    vector_enumeration,
)
from .group_cohomology import (
    BudgetExceededError,
    CochainPair,
    DifferenceComplex,
    GroupCochain,
    NotACocycleError,
    coboundary,
    kk,
)
from .exactness import InternalCheckError
from .linalg import Matrix, column_space_basis, kernel_basis, rank, rref
from .scalars import PrimeField


class AbelianExtension:
    """A difference group extension with carrier G x V and the data to
    move between total-group indices and (base element, vector) pairs."""

    def __init__(self, rep: DifferenceRep, pair: CochainPair) -> None:
        if not isinstance(rep.field, PrimeField):
            raise ValueError("extensions need a finite (prime-field) module")
        if pair.degree != 2:
            raise ValueError(f"extension cocycles have degree 2, got {pair.degree}")
        _require_cocycle(rep, pair)
        self.rep = rep
        self.base = rep.dg
        self.pair = pair
        group = self.base.group
        f = rep.field
        self.vectors = vector_enumeration(f, rep.dim)
        self.nv = len(self.vectors)
        self._vec_index = {v: i for i, v in enumerate(self.vectors)}
        alpha, beta = pair.alpha, pair.beta

        table = []
        for g in group.elements:
            theta_g = rep.theta[g]
            theta_vs = [theta_g.matvec(list(v)) for v in self.vectors]
            for u in self.vectors:
                row = []
                for h in group.elements:
                    a = alpha.value_at((g, h))
                    gh = group.mul(g, h)
                    for theta_v in theta_vs:
                        w = tuple(
                            f.add(f.add(u[i], x), a[i]) for i, x in enumerate(theta_v)
                        )
                        row.append(self.index(gh, w))
                table.append(row)
        labels = [
            f"({group.label(g)},{','.join(map(str, u))})"
            for g in group.elements
            for u in self.vectors
        ]
        total_group = FiniteGroup(
            table, identity=self.index(group.identity, self.vectors[0]), labels=labels
        )

        self.total = DifferenceGroup(total_group, self._operator_table(beta))
        self._verify_structure()

    def _operator_table(self, beta: GroupCochain) -> list[int]:
        """D(g, u) = (D g, T u + u - Theta(D g) u + beta(g)) on the
        carrier, as a list in total-group index order."""
        rep, f = self.rep, self.rep.field
        table = []
        for g in self.base.group.elements:
            d_g = self.base.d_of(g)
            theta_dg = rep.theta[d_g]
            b = beta.value_at((g,))
            for u in self.vectors:
                tu = rep.t.matvec(list(u))
                thu = theta_dg.matvec(list(u))
                w = tuple(
                    f.add(f.sub(f.add(tu[i], u[i]), thu[i]), b[i])
                    for i in range(rep.dim)
                )
                table.append(self.index(d_g, w))
        return table

    def index(self, g: int, u: tuple) -> int:
        return g * self.nv + self._vec_index[u]

    def split(self, idx: int) -> tuple[int, tuple]:
        return idx // self.nv, self.vectors[idx % self.nv]

    def project(self, idx: int) -> int:
        return idx // self.nv

    def inject(self, u: tuple) -> int:
        return self.index(self.base.group.identity, u)

    def _verify_structure(self) -> None:
        group = self.base.group
        f = self.rep.field
        t = self.total
        for u in self.vectors:
            for v in self.vectors:
                s = tuple(f.add(a, b) for a, b in zip(u, v))
                if t.group.mul(self.inject(u), self.inject(v)) != self.inject(s):
                    raise InternalCheckError("injection fails to be a homomorphism")
            tu = tuple(self.rep.t.matvec(list(u)))
            if t.d_of(self.inject(u)) != self.inject(tu):
                raise InternalCheckError(
                    "the operator does not restrict to T on the module"
                )
        for x in t.group.elements:
            if self.project(t.d_of(x)) != self.base.d_of(self.project(x)):
                raise InternalCheckError(
                    "projection does not intertwine the operators"
                )
            for y in t.group.elements:
                if self.project(t.group.mul(x, y)) != group.mul(
                    self.project(x), self.project(y)
                ):
                    raise InternalCheckError("projection fails to be a homomorphism")

    def __repr__(self) -> str:
        return (
            f"AbelianExtension(base order {self.base.group.order}, "
            f"total order {self.total.group.order})"
        )


def _require_cocycle(rep: DifferenceRep, pair: CochainPair) -> None:
    """Reject pairs violating either half of the cocycle condition,
    with a witness tuple naming the failing identity."""
    d_alpha = coboundary(rep.theta, pair.alpha)
    if not d_alpha.is_zero():
        witness = d_alpha.items()[0][0]
        raise NotACocycleError(
            witness, "the associativity (ordinary 2-cocycle) condition fails"
        )
    theta_d = induced_rep_theta_d(rep)
    second = coboundary(theta_d, pair.beta) + kk(rep, pair.alpha)
    if not second.is_zero():
        witness = second.items()[0][0]
        raise NotACocycleError(
            witness, "the operator-compatibility condition fails"
        )


def extension_from_cocycle(rep: DifferenceRep, pair: CochainPair) -> AbelianExtension:
    """Build the extension defined by a valid cocycle pair; the total
    multiplication table and difference operator are re-validated."""
    return AbelianExtension(rep, pair)


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


def all_sections(ext: AbelianExtension) -> list[SectionMap]:
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


def cocycle_from_section(ext: AbelianExtension, section: SectionMap) -> CochainPair:
    """Read off the cocycle pair of a section and re-validate it."""
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
    _require_cocycle(ext.rep, pair)
    return pair


def rep_from_section(ext: AbelianExtension, section: SectionMap) -> tuple[Matrix, ...]:
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
        mats.append(Matrix.from_columns(f, cols, ext.rep.dim))
    if tuple(mats) != ext.rep.theta:
        raise InternalCheckError(
            "section conjugation disagrees with the extension's representation"
        )
    return tuple(mats)


def are_isomorphic(
    e1: AbelianExtension, e2: AbelianExtension, budget: int = 60000
) -> GroupCochain | None:
    """Search for a shear isomorphism (g, u) -> (g, u + eta(g)) carrying
    e1 to e2 and commuting with the operators; returns the shear as a
    1-cochain, or None.

    Isomorphisms of extensions inducing the identity on G and V are
    exactly of this form, so the search is exhaustive over normalized
    1-cochains eta.
    """
    if e1.base is not e2.base:
        raise ValueError("extensions live over different difference groups")
    if e1.rep.theta != e2.rep.theta or e1.rep.t != e2.rep.t:
        raise ValueError("extensions have different modules")
    group = e1.base.group
    f = e1.rep.field
    nonid = [g for g in group.elements if g != group.identity]
    n_candidates = e1.nv ** len(nonid)
    if n_candidates > budget:
        raise BudgetExceededError(1, n_candidates, budget)

    t1, t2 = e1.total, e2.total
    order = t1.group.order
    vectors = e1.vectors
    # coset[g][k]: the e2-indices of e1's coset g, in e1's order, sheared
    # by vectors[k]; a candidate sigma is one slice of it per coset
    coset = [
        [
            [e2.index(g, tuple(f.add(a, b) for a, b in zip(u, shift))) for u in vectors]
            for shift in vectors
        ]
        for g in group.elements
    ]
    shear = [0] * group.order
    for combo in itertools.product(range(e1.nv), repeat=len(nonid)):
        for g, k in zip(nonid, combo):
            shear[g] = k
        sigma = [i for g in group.elements for i in coset[g][shear[g]]]
        ok = True
        for x in range(order):
            if sigma[t1.d_of(x)] != t2.d_of(sigma[x]):
                ok = False
                break
            row = t1.group.table[x]
            srow = t2.group.table[sigma[x]]
            for y in range(order):
                if sigma[row[y]] != srow[sigma[y]]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            values = {(g,): vectors[k] for g, k in zip(nonid, combo)}
            return GroupCochain(group, f, e1.rep.dim, 1, values)
    return None


def _span(field: PrimeField, basis: list[list[Any]], length: int) -> list[list[Any]]:
    """Every F_p-linear combination of ``basis`` (vectors of ``length``),
    coefficient tuples in ``itertools.product`` order."""
    out = []
    for coeffs in itertools.product(range(field.p), repeat=len(basis)):
        vec = [field.zero] * length
        for c, basis_vec in zip(coeffs, basis):
            if c == 0:
                continue
            cf = field.from_int(c)
            vec = [field.add(x, field.mul(cf, y)) for x, y in zip(vec, basis_vec)]
        out.append(vec)
    return out


def _reduce_mod(field: Any, rows: list[dict], pivots: list[int], vec: list[Any]) -> tuple:
    out = list(vec)
    for row, p in zip(rows, pivots):
        c = out[p]
        if c != field.zero:
            for j, y in row.items():
                out[j] = field.sub(out[j], field.mul(c, y))
    return tuple(out)


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


def classify_extensions(rep: DifferenceRep, budget: int = 60000) -> ExtensionClassification:
    """Enumerate all cocycle pairs, group them into isomorphism classes
    two independent ways, and compare with the cohomological count.

    Route one partitions cocycles by their coset modulo pair
    coboundaries.  Route two builds every extension and groups them by
    explicit shear-isomorphism search.  The routes must produce the
    same partition, with p^(dim H^2) classes.
    """
    if not isinstance(rep.field, PrimeField):
        raise ValueError("classification needs a finite (prime-field) module")
    f = rep.field
    p = f.p
    cx = DifferenceComplex(rep, budget=budget)
    data = cx.les_data()
    delta2 = data.d_b(2)
    delta1 = data.d_b(1)
    z_basis = kernel_basis(delta2)
    b_basis = column_space_basis(delta1)
    n_cocycles = p ** len(z_basis)
    if n_cocycles > budget:
        raise BudgetExceededError(2, n_cocycles, budget)

    c2 = cx.space(2)
    c1 = cx.space(1)

    def vector_to_pair(vec: list[Any]) -> CochainPair:
        alpha = c2.from_vector(vec[: c2.size])
        beta = c1.from_vector(vec[c2.size :])
        return CochainPair(alpha, beta)

    rows, pivots = rref(Matrix.from_rows(f, [list(v) for v in b_basis]))

    cocycles = _span(f, z_basis, delta2.ncols)

    coset_key = [_reduce_mod(f, rows, pivots, v) for v in cocycles]
    coset_classes: dict[tuple, list[int]] = {}
    for i, key in enumerate(coset_key):
        coset_classes.setdefault(key, []).append(i)

    extensions = [AbelianExtension(rep, vector_to_pair(v)) for v in cocycles]
    class_reps: list[int] = []
    class_members: list[list[int]] = []
    assignment = [-1] * len(cocycles)
    for i, ext in enumerate(extensions):
        for ci, r in enumerate(class_reps):
            if are_isomorphic(extensions[r], ext, budget=budget) is not None:
                assignment[i] = ci
                class_members[ci].append(i)
                break
        else:
            assignment[i] = len(class_reps)
            class_reps.append(i)
            class_members.append([i])

    # the two partitions must coincide member for member
    key_to_class: dict[tuple, int] = {}
    for i, key in enumerate(coset_key):
        if key in key_to_class:
            if key_to_class[key] != assignment[i]:
                raise InternalCheckError(
                    "cohomologous cocycles produced non-isomorphic extensions"
                )
        else:
            key_to_class[key] = assignment[i]
    if len(key_to_class) != len(class_reps):
        raise InternalCheckError(
            "isomorphic extensions came from non-cohomologous cocycles"
        )

    # canonical-section round trip on every representative
    for r in class_reps:
        back = cocycle_from_section(extensions[r], canonical_section(extensions[r]))
        if back != extensions[r].pair:
            raise InternalCheckError("canonical section does not return its cocycle")

    h2 = cx.cohomology_dims(2).degrees[2].h_pair
    return ExtensionClassification(
        cocycle_count=len(cocycles),
        coboundary_count=p ** len(b_basis),
        class_count=len(class_reps),
        class_count_by_cosets=len(coset_classes),
        expected_from_cohomology=p**h2,
        h2_pair_dim=h2,
        classes=[
            ExtensionClass(extensions[r].pair, len(class_members[ci]))
            for ci, r in enumerate(class_reps)
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
    rep: DifferenceRep, budget: int = 60000, direct_limit: int = 18
) -> SemidirectOpsClassification:
    """Count difference operators on G x| V extending (D, T) and fixing
    the projection, up to shear equivalence.

    Such operators correspond to cocycles beta (degree-1 kernels of the
    Theta_D coboundary); shears by ordinary 1-cocycles eta shift beta by
    K(eta).  Three routes: rank arithmetic p^(dim Z - rank K|Z1), an
    explicit coset census of beta space, and (for total order <=
    ``direct_limit``) brute enumeration of all candidate operators on
    the semidirect product with shear grouping.
    """
    if not isinstance(rep.field, PrimeField):
        raise ValueError("classification needs a finite (prime-field) module")
    f = rep.field
    p = f.p
    dg = rep.dg
    group = dg.group
    cx = DifferenceComplex(rep, budget=budget)

    d_dd_1 = cx.d_difference(1)
    z_beta = kernel_basis(d_dd_1)
    d_ord_1 = cx.d_ordinary(1)
    z_eta = kernel_basis(d_ord_1)
    kmat = cx.k_matrix(1)
    k_images = [kmat.matvec(v) for v in z_eta]
    k_rank = rank(Matrix.from_columns(f, k_images, kmat.nrows)) if k_images else 0
    count_rank = p ** (len(z_beta) - k_rank)

    # census: reduce every beta cocycle modulo the image of K on eta cocycles
    rows, pivots = rref(Matrix.from_rows(f, [list(v) for v in k_images]))
    n_betas = p ** len(z_beta)
    if n_betas > budget:
        raise BudgetExceededError(1, n_betas, budget)
    betas = _span(f, z_beta, d_dd_1.ncols)
    census_keys = {_reduce_mod(f, rows, pivots, v) for v in betas}
    count_census = len(census_keys)

    notes: list[str] = []
    direct_valid: int | None = None
    direct_classes: int | None = None
    total_order = group.order * (p**rep.dim)
    if total_order <= direct_limit:
        direct_valid, direct_classes = _direct_ops_census(rep, cx, betas, z_eta, budget)
    else:
        notes.append(
            f"direct enumeration skipped: total order {total_order} exceeds "
            f"{direct_limit}"
        )
    return SemidirectOpsClassification(
        z_dim=len(z_beta),
        connecting_rank=k_rank,
        count_by_rank=count_rank,
        count_by_census=count_census,
        direct_valid_count=direct_valid,
        direct_class_count=direct_classes,
        total_order=total_order,
        notes=notes,
    )


def _direct_ops_census(
    rep: DifferenceRep,
    cx: DifferenceComplex,
    betas: list[list[Any]],
    z_eta: list[list[Any]],
    budget: int,
) -> tuple[int, int]:
    """Enumerate all maps on the semidirect product compatible with the
    projection and restricting to T on the module; check the twisted
    cocycle rule directly; group the valid ones by shear conjugation."""
    f = rep.field
    p = f.p
    dg = rep.dg
    group = dg.group
    c1 = cx.space(1)

    zero_pair = CochainPair(
        GroupCochain(group, f, rep.dim, 2),
        GroupCochain(group, f, rep.dim, 1),
    )
    sd = AbelianExtension(rep, zero_pair)
    total = sd.total.group
    order = total.order

    slots = [
        (g, u) for g in group.elements if g != group.identity for u in sd.vectors
    ]
    n_candidates = (p**rep.dim) ** len(slots)
    if n_candidates > budget:
        raise BudgetExceededError(1, n_candidates, budget)

    base_images = {}
    for u in sd.vectors:
        tu = tuple(rep.t.matvec(list(u)))
        base_images[sd.index(group.identity, u)] = sd.index(group.identity, tu)

    valid: list[tuple[int, ...]] = []
    for combo in itertools.product(sd.vectors, repeat=len(slots)):
        d_arr = [0] * order
        for idx in base_images:
            d_arr[idx] = base_images[idx]
        for (g, u), w in zip(slots, combo):
            d_arr[sd.index(g, u)] = sd.index(dg.d_of(g), w)
        ok = True
        for x in range(order):
            dx = d_arr[x]
            row = total.table[x]
            for y in range(order):
                if d_arr[row[y]] != total.mul(
                    total.mul(dx, x), total.mul(d_arr[y], total.inv(x))
                ):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            valid.append(tuple(d_arr))

    # every valid operator must be the one induced by some beta cocycle
    beta_ops = {tuple(sd._operator_table(c1.from_vector(vec))) for vec in betas}
    if set(valid) != beta_ops:
        raise InternalCheckError(
            "direct enumeration found operators outside the cocycle family"
        )

    shears = []
    for vec in _span(f, z_eta, c1.size):
        eta = c1.from_vector(vec)
        sigma = [0] * order
        for idx in range(order):
            g, u = sd.split(idx)
            shifted = tuple(f.add(a, b) for a, b in zip(u, eta.value_at((g,))))
            sigma[idx] = sd.index(g, shifted)
        shears.append(tuple(sigma))

    reps_list: list[tuple[int, ...]] = []
    for op in valid:
        found = False
        for r in reps_list:
            for sigma in shears:
                if all(sigma[op[x]] == r[sigma[x]] for x in range(order)):
                    found = True
                    break
            if found:
                break
        if not found:
            reps_list.append(op)
    return len(valid), len(reps_list)
