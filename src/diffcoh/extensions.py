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
splits the cocycles into coboundaries and H^2 representatives, and
names the pivot columns of the incoming map that are the coboundary
basis, so each coboundary's preimage is known; the
census builds the extension of each combination of the representatives
only, p^(dim H^2) of them, and shows that the isomorphism classes are
the cosets of the coboundaries by two explicit checks.  One shear check
per boundary generator, with the linearity of the shear formula in the
pair, makes every member of every coset isomorphic to its
representative; a search between the representatives that share a key
preserved by shears (``shear_key``) shows the representatives pairwise
non-isomorphic.  The census names no group: it takes the extension of a
cocycle, the shear check, the search and the key from a theory,
``GroupExtensionTheory`` here.  ``classify_extensions`` runs it on all
cocycle pairs.  The difference operators on the semidirect product
G x| V are the extensions with alpha = 0, so
``classify_semidirect_difference_ops`` runs it on the pairs (0, beta).
The pair complex's coordinates are the complex's (``pair`` splits a
vector), and the section round trip compares the pair read off a
section with the extension's own, which is a cocycle already.
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
)
from .exactness import DEFAULT_BUDGET, CohomologySpace, InternalCheckError, cohomology_space
from .linalg import Matrix, kernel_basis
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
    """Read off the cocycle pair of a section.  It is a cocycle because
    the extension's laws hold, which its carrier has checked."""
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
    return CochainPair(alpha, beta)


def are_isomorphic(
    e1: AbelianExtension,
    e2: AbelianExtension,
    budget: int = DEFAULT_BUDGET,
    eta: GroupCochain | None = None,
) -> GroupCochain | None:
    """Search for a shear isomorphism (g, u) -> (g, u + eta(g)) carrying
    e1 to e2 and commuting with the operators; returns the shear as a
    1-cochain, or None.  Given ``eta``, only the shear by eta is tried.

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
    g1, g2 = e1.total.group, e2.total.group
    d1, d2 = e1.total.d, e2.total.d
    nv, add, e = e1.nv, e1.rep.module.add, group.identity

    def shears() -> Iterator[list[int]]:
        if eta is not None:
            index = e1.rep.module.index
            yield [index[eta.value_at((g,))] for g in group.elements]
            return
        gens, steps = generation(group.table)
        n_candidates = nv ** len(gens)
        if n_candidates > budget:
            raise BudgetExceededError(
                "shear isomorphism search", n_candidates, budget, "candidate shears"
            )
        # sigma fixes (e, a), so a step (x, s, y) with (x, 0)(s, 0) =
        # (e, a)(y, 0) in e1 fixes eta(y): (y, eta(y)) = (e, a)^-1 sigma(x, 0)
        # sigma(s, 0) in e2, with sigma(x, 0) = (x, eta(x)).
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
            yield shear

    for shear in shears():
        # (g, vectors[k]) has index g * nv + k, and sigma adds eta(g) to it
        sigma = [g * nv + add[k][shear[g]] for g in group.elements for k in range(nv)]
        if all(sigma[d1[x]] == d2[sigma[x]] for x in g1.elements) and all(
            [sigma[z] for z in row] == [g2.table[sx][z] for z in sigma]
            for row, sx in zip(g1.table, sigma)
        ):
            values = {(g,): e1.vectors[shear[g]] for g in group.elements if g != e}
            return GroupCochain(group, e1.rep.field, e1.rep.dim, 1, values)
    return None


def shear_key(ext: AbelianExtension) -> tuple:
    """A key that shears preserve, read off the carrier: for each base
    element g of order n, the sorted n-th powers of the fiber above g,
    and where D(g) g = e, or D(g) = e, the sorted D(x) x, or D(x), over it.

    All land in V, the fiber above e (indices below nv), which a shear
    sigma fixes pointwise.  sigma maps each fiber onto itself and is a
    homomorphism commuting with the operators, so sigma(x^n) =
    sigma(x)^n, sigma(D(x) x) = D(sigma x) sigma x and sigma(D x) =
    D(sigma x): shear-isomorphic extensions have equal keys, and
    extensions with different keys are not isomorphic."""
    table, d, nv = ext.total.group.table, ext.total.d, ext.nv
    base = ext.base
    key = []
    for g in base.group.elements:
        fiber = range(g * nv, (g + 1) * nv)
        powers = []
        for x in fiber:
            y = x
            while y >= nv:  # x^k lies in V exactly when n divides k
                y = table[y][x]
            powers.append(y)
        plus = images = None
        if base.d_plus_of(g) == base.group.identity:
            plus = tuple(sorted(table[d[x]][x] for x in fiber))
        if base.d_of(g) == base.group.identity:
            images = tuple(sorted(d[x] for x in fiber))
        key.append((tuple(sorted(powers)), plus, images))
    return tuple(key)


class GroupExtensionTheory:
    """The hooks of the group theory for ``census`` over the complex
    ``cx``.  A cocycle vector (a vector of B_2, which ``cx.pair`` splits)
    builds an ``AbelianExtension``;
    a 1-cochain vector eta is the shear (g, u) -> (g, u + eta(g)), which
    ``shears`` checks as the one candidate of ``are_isomorphic``;
    ``isomorphic`` is its exhaustive search and ``key`` is ``shear_key``.
    Each hook looks its function up when it is called, so one patched by
    name is seen.  ``carrier_size`` is |G| p^dim, the elements of the
    carrier of each extension."""

    def __init__(self, cx: DifferenceComplex) -> None:
        self.cx, self.field, self.budget = cx, cx.field, cx.budget
        self.carrier_size = cx.rep.dg.group.order * cx.field.p**cx.rep.dim

    def build(self, vec: Sequence[Any]) -> AbelianExtension:
        return AbelianExtension(self.cx.rep, self.cx.pair(2, vec))

    def shears(self, e1: AbelianExtension, e2: AbelianExtension, eta: Sequence[Any]) -> bool:
        cochain = self.cx.space(1).from_vector(eta)
        return are_isomorphic(e1, e2, budget=self.budget, eta=cochain) is not None

    def isomorphic(self, e1: AbelianExtension, e2: AbelianExtension) -> bool:
        return are_isomorphic(e1, e2, budget=self.budget) is not None

    def key(self, ext: AbelianExtension) -> tuple:
        return shear_key(ext)


def _span(field: PrimeField, basis: list[list[Any]], length: int) -> Iterator[list[Any]]:
    """Every F_p-linear combination of ``basis`` (vectors of ``length``),
    in ``itertools.product`` order of the coefficients, so the zero
    vector comes first."""
    for coeffs in itertools.product(range(field.p), repeat=len(basis)):
        vec = [field.zero] * length
        for c, basis_vec in zip(coeffs, basis):
            if c == 0:
                continue
            cf = field.from_int(c)
            vec = [field.add(x, field.mul(cf, y)) for x, y in zip(vec, basis_vec)]
        yield vec


def census(space: CohomologySpace, preimages: Sequence[list[Any]], theory: Any) -> list[Any]:
    """One extension of each isomorphism class of the extensions of the
    cocycles in the span of ``space.boundaries + space.reps`` (a
    ``cohomology_space``).  The classes are the cosets of the
    boundaries, each with p^len(boundaries) members, and this is shown
    while building only the p^dim representatives, the combinations of
    ``space.reps``.

    ``theory`` supplies ``field``, ``budget``, ``carrier_size`` (the
    elements of an extension's carrier), ``build(vector)`` (the
    extension of a cocycle), ``shears(e1, e2, eta)`` (whether the shear
    by the 1-cochain eta carries e1 onto e2), ``isomorphic(e1, e2)`` (an
    exhaustive search) and ``key(e)`` (a key that shears preserve).
    ``preimages[i]`` is an eta with d_B eta = ``space.boundaries[i]``.

    Same coset, isomorphic.  The shear s_eta: (g, u) -> (g, u + eta(g))
    carries E(a) onto E(a') exactly when a - a' = d_B eta: expanding
    both laws at (g, u) and (h, v), s_eta respects the products iff
    alpha - alpha' = d eta and the operators iff beta - beta' = K eta,
    for every u and v.  So Delta(eta) = a - a' is linear in eta and does
    not depend on a.  The census checks, once per boundary b_i, that
    s_{eta_i} carries E(b_i) onto E(0): then Delta(eta_i) = b_i for the
    shear formula itself, not only for the matrix d_B.  By linearity,
    eta = sum c_i eta_i has Delta(eta) = sum c_i b_i, and since Delta
    does not depend on a, s_eta carries E(r + sum c_i b_i) onto E(r) for
    every representative r.  Those are all the members of all the
    cosets, as the b_i span the boundaries, so each member is isomorphic
    to its representative without a search of its own.  The same check
    compares the keys of E(b_i) and E(0), which catches a key that a
    shear does not preserve.

    Different cosets, non-isomorphic.  Isomorphisms fixing G and V are
    shears, which preserve the key, so only representatives that share
    a key are searched, pairwise; any search that succeeds raises.

    The budget counts the p^dim representatives before any is built,
    then the carrier elements before any carrier is listed, and the
    same-key pairs before any search.  The carrier is held to the budget
    or ``DEFAULT_BUDGET``, whichever is larger, so a small budget that
    bounds the representatives and searches still admits the small
    carriers they are built on.  Either failed check raises
    ``InternalCheckError``.  Returns the representatives in
    ``itertools.product`` order of their coefficients on ``space.reps``,
    so the zero cocycle, the split extension, comes first.
    """
    f, budget = theory.field, theory.budget
    n_reps = f.p ** space.dim
    if n_reps > budget:
        raise BudgetExceededError("extension census", n_reps, budget, "coset representatives")
    carrier_budget = max(budget, DEFAULT_BUDGET)
    if theory.carrier_size > carrier_budget:
        raise BudgetExceededError(
            "extension census", theory.carrier_size, carrier_budget, "carrier elements"
        )
    reps = [theory.build(vec) for vec in _span(f, space.reps, space.dim_total)]
    keys = [theory.key(ext) for ext in reps]
    for b, eta in zip(space.boundaries, preimages):
        sheared = theory.build(b)
        if not theory.shears(sheared, reps[0], eta):
            raise InternalCheckError("cohomologous cocycles produced non-isomorphic extensions")
        if theory.key(sheared) != keys[0]:
            raise InternalCheckError("the census key is not preserved by a shear")

    by_key: dict[Any, list[Any]] = {}
    for ext, key in zip(reps, keys):
        by_key.setdefault(key, []).append(ext)
    n_searches = sum(len(same) * (len(same) - 1) // 2 for same in by_key.values())
    if n_searches > budget:
        raise BudgetExceededError("extension census", n_searches, budget, "shear searches")
    for same in by_key.values():
        for i, e1 in enumerate(same):
            if any(theory.isomorphic(e1, e2) for e2 in same[i + 1 :]):
                raise InternalCheckError(
                    "isomorphic extensions came from non-cohomologous cocycles"
                )
    return reps


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
    ``cohomology_dims``: rank B^2 = rank d_B(1) = dim C^1 - dim H^1(B).
    Boundary i of the space is column ``space.pivots[i]`` of d_B(1), so
    its preimage is the unit cochain there.  Every class representative
    must come back from its canonical section."""
    if not isinstance(rep.field, PrimeField):
        raise ValueError("classification needs a finite (prime-field) module")
    f = rep.field
    p = f.p
    cx = DifferenceComplex(rep, budget=budget)
    space = cohomology_space(f, cx.d_b(2), cx.d_b(1))
    d_b1 = cx.d_b(1)
    units = [[f.one if i == j else f.zero for i in range(d_b1.ncols)] for j in space.pivots]
    reps = census(space, units, GroupExtensionTheory(cx))

    for ext in reps:
        if cocycle_from_section(ext, canonical_section(ext)) != ext.pair:
            raise InternalCheckError("canonical section does not return its cocycle")

    dims = cx.cohomology_dims(2).degrees
    b_rank = cx.dim_c(1) - dims[1].h_pair
    h2 = dims[2].h_pair
    n_b = len(space.boundaries)
    return ExtensionClassification(
        cocycle_count=p ** (n_b + space.dim),
        coboundary_count=p**b_rank,
        class_count=len(reps),
        class_count_by_cosets=p ** (n_b + space.dim - b_rank),
        expected_from_cohomology=p**h2,
        h2_pair_dim=h2,
        classes=[ExtensionClass(ext.pair, p**n_b) for ext in reps],
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
    K(Z^1).  Three routes: rank arithmetic p^(dim Z - rank K|Z1), where
    H^1(C) = Z^1 and H^1(B) = ker K|Z1 give rank K|Z1 from
    ``cohomology_dims``; the census of the pairs (0, beta), keyed by the quotient
    ker d_D(1) / K(Z^1) from ``cohomology_space`` (boundary i is column
    j = ``pivots[i]`` of K|Z^1, K z_j, so its preimage is the 1-cocycle z_j),
    and, when its candidate count (p^dim)^((|G|-1) p^dim) fits the
    budget, brute enumeration of all candidate operators on the
    semidirect product, counted up to shears without the census.  The
    valid ones must be exactly the operators of all the pairs (0, beta),
    every member of every class, which are built for this comparison.
    """
    if not isinstance(rep.field, PrimeField):
        raise ValueError("classification needs a finite (prime-field) module")
    f = rep.field
    p = f.p
    group = rep.dg.group
    cx = DifferenceComplex(rep, budget=budget)

    kmat = cx.k_matrix(1)
    z1 = kernel_basis(cx.d_ordinary(1))
    k_on_z1 = Matrix.from_columns(f, [kmat.matvec(v) for v in z1], kmat.nrows)
    betas = cohomology_space(f, cx.d_difference(1), k_on_z1)
    z_dim = len(betas.boundaries) + betas.dim
    h1 = cx.cohomology_dims(1).degrees[1]
    k_rank = h1.h_ordinary - h1.h_pair

    alpha_zero = [f.zero] * cx.space(2).size
    space = CohomologySpace(
        dim_total=len(alpha_zero) + betas.dim_total,
        reps=[alpha_zero + v for v in betas.reps],
        boundaries=[alpha_zero + v for v in betas.boundaries],
        pivots=betas.pivots,
    )
    theory = GroupExtensionTheory(cx)
    reps = census(space, [z1[j] for j in space.pivots], theory)

    notes: list[str] = []
    direct_valid: int | None = None
    direct_classes: int | None = None
    nv = p**rep.dim
    n_candidates = nv ** ((group.order - 1) * nv)
    if n_candidates <= budget:
        valid = _valid_operators(reps[0])
        members = _span(f, space.boundaries + space.reps, space.dim_total)
        if set(valid) != {theory.build(vec).total.d for vec in members}:
            raise InternalCheckError(
                "direct enumeration found operators outside the cocycle family"
            )
        direct_valid = len(valid)
        direct_classes = _shear_orbit_count(reps[0], valid)
    else:
        notes.append(
            f"direct enumeration skipped: {n_candidates} candidate operators "
            f"exceed the budget of {budget}"
        )
    return SemidirectOpsClassification(
        z_dim=z_dim,
        connecting_rank=k_rank,
        count_by_rank=p ** (z_dim - k_rank),
        count_by_census=len(reps),
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
