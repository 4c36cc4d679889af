"""Finite groups, difference operators, and their representations.

A difference operator on a group G is a map D: G -> G with

    D(gh) = D(g) g D(h) g^{-1},

the twisted cocycle rule.  It forces D(e) = e and
D(g^{-1}) = (D(g) g)^{-1} g, and g -> D(g) g is a homomorphism.

A representation of (G, D) is a triple (V, T, Theta) with Theta an
ordinary representation and T a linear map satisfying

    T(Theta(g) u) + Theta(g) u = Theta(D(g) g) (T(u) + u).

Constructors validate these laws and raise with explicit witnesses;
``check_*`` functions return the report instead of raising.  Each law
is checked on a generating set (``FiniteGroup.generators``), which
decides it for the whole group:

- associativity by Light's test: (x s) z = x (s z) for every x, z and
  every generator s.  The elements s passing it are closed under the
  product and the identity passes, so every element passes;
- the twisted rule as D(e) = e and D_+(g s) = D_+(g) D_+(s), D_+(g) =
  D(g) g, for every g and generator s; a representation Theta, and
  Theta o D_+, as Theta(e) = I and Theta(g s) = Theta(g) Theta(s).
  The elements h with f(g h) = f(g) f(h) for all g are closed under
  the product and contain e, so f is a homomorphism on all pairs.

A law that fails on generators is re-checked by the full scan over all
triples or pairs, which supplies the report's witnesses and violation
count, so reports do not depend on the generating set.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field as dc_field
from typing import Sequence

from .linalg import Matrix
from .scalars import PrimeField


@dataclass(frozen=True)
class ValidationIssue:
    check: str
    witness: tuple
    detail: str


@dataclass
class ValidationReport:
    subject: str
    issues: list[ValidationIssue] = dc_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues

    def add(self, check: str, witness: tuple, detail: str) -> None:
        self.issues.append(ValidationIssue(check, witness, detail))

    def summary(self) -> str:
        if self.ok:
            return f"{self.subject}: ok"
        first = self.issues[0]
        return (
            f"{self.subject}: {len(self.issues)} violation(s); first: "
            f"{first.check} at {first.witness}: {first.detail}"
        )


class ValidationError(ValueError):
    def __init__(self, report: ValidationReport) -> None:
        super().__init__(report.summary())
        self.report = report


def _raise_if_bad(report: ValidationReport) -> None:
    if not report.ok:
        raise ValidationError(report)


def generation(table: Sequence[Sequence[int]]) -> tuple[list[int], list[tuple[int, int, int]]]:
    """A greedy generating set of a multiplication table and a tree over
    it: steps (x, s, y) with y = x s for a generator s, reaching every
    element but the identity 0, each step after the one reaching x.  Each
    element not reached by the earlier generators becomes the next one.
    Only closure is assumed, so it also serves the checks of the laws."""
    gens: list[int] = []
    steps: list[tuple[int, int, int]] = []
    reached, seen = [0], {0}
    for g in range(len(table)):
        if g in seen:
            continue
        gens.append(g)
        for x in reached:
            row = table[x]
            for s in gens:
                y = row[s]
                if y not in seen:
                    seen.add(y)
                    steps.append((x, s, y))
                    reached.append(y)
    return gens, steps


class FiniteGroup:
    """A finite group given by its multiplication table.

    ``table[g][h]`` is the index of the product g*h, and index 0 is the
    identity.  Closure, associativity, identity, and inverses are
    checked at construction.
    """

    identity = 0

    def __init__(
        self, table: Sequence[Sequence[int]], labels: Sequence[str] | None = None
    ) -> None:
        self.table = tuple(tuple(row) for row in table)
        self.order = len(self.table)
        if labels is None:
            labels = [f"g{i}" for i in range(self.order)]
        self.labels = tuple(labels)
        _raise_if_bad(self.check())
        self._inverse = tuple(row.index(self.identity) for row in self.table)

    def check(self) -> ValidationReport:
        report = ValidationReport("group table")
        n = self.order
        if n == 0:
            report.add("nonempty", (), "a group has at least the identity")
            return report
        if len(self.labels) != n:
            report.add("labels", (len(self.labels),), f"expected {n} labels")
        for g in range(n):
            if len(self.table[g]) != n:
                report.add("shape", (g,), f"row {g} has length {len(self.table[g])}")
                return report
            for h in range(n):
                if not 0 <= self.table[g][h] < n:
                    report.add("closure", (g, h), f"entry {self.table[g][h]} out of range")
                    return report
        e = self.identity
        for g in range(n):
            if self.table[e][g] != g:
                report.add("identity", (e, g), f"e*{g} = {self.table[e][g]}")
            if self.table[g][e] != g:
                report.add("identity", (g, e), f"{g}*e = {self.table[g][e]}")
        for g in range(n):
            if e not in self.table[g]:
                report.add("inverses", (g,), "no right inverse")
        if report.ok and self._light_test():
            return report
        # the first non-associative triple comes from the full scan
        for g in range(n):
            for h in range(n):
                gh = self.table[g][h]
                for k in range(n):
                    if self.table[gh][k] != self.table[g][self.table[h][k]]:
                        report.add(
                            "associativity",
                            (g, h, k),
                            f"(g h) k = {self.table[gh][k]} but g (h k) = "
                            f"{self.table[g][self.table[h][k]]}",
                        )
                        return report
        return report

    def _light_test(self) -> bool:
        """Light's associativity test: for every generator s and every x,
        the row of x s equals [x (s z) for z].  Needs the identity law."""
        table = self.table
        for s in self.generators:
            pick = operator.itemgetter(*table[s])
            if any(pick(row) != table[row[s]] for row in table):
                return False
        return True

    @functools.cached_property
    def generators(self) -> list[int]:
        return generation(self.table)[0]

    @property
    def elements(self) -> range:
        return range(self.order)

    def mul(self, g: int, h: int) -> int:
        return self.table[g][h]

    def inv(self, g: int) -> int:
        return self._inverse[g]

    def label(self, g: int) -> str:
        return self.labels[g]

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order})"


def _multiplicative(group: FiniteGroup, f: Sequence, mul) -> bool:
    """Whether f(g s) = mul(f(g), f(s)) for every g and every generator s
    of ``group``; with f(e) the identity this makes f a homomorphism."""
    return all(
        f[row[s]] == mul(f[g], f[s])
        for s in group.generators
        for g, row in enumerate(group.table)
    )


def check_difference_operator(group: FiniteGroup, d: Sequence[int]) -> ValidationReport:
    """Check the twisted cocycle rule D(gh) = D(g) g D(h) g^{-1}.  It says
    that D_+(g) = D(g) g is a homomorphism, which is checked on
    generators; the full scan over all pairs runs only when that fails.
    Its consequences need no check of their own: the rule at (e, e)
    gives D(e) = e, and at (g, g^{-1}) it gives D(g^{-1}) = (D(g) g)^{-1} g."""
    report = ValidationReport("difference operator")
    n = group.order
    if len(d) != n:
        report.add("shape", (len(d),), f"expected {n} values")
        return report
    for g in range(n):
        if not 0 <= d[g] < n:
            report.add("range", (g,), f"D({group.label(g)}) = {d[g]} out of range")
            return report
    plus = [group.table[x][g] for g, x in enumerate(d)]
    if d[group.identity] == group.identity and _multiplicative(group, plus, group.mul):
        return report
    for g in range(n):
        for h in range(n):
            lhs = d[group.mul(g, h)]
            rhs = group.mul(group.mul(d[g], g), group.mul(d[h], group.inv(g)))
            if lhs != rhs:
                report.add(
                    "twisted-cocycle",
                    (g, h),
                    f"D({group.label(g)}*{group.label(h)}) = {group.label(lhs)} "
                    f"but D(g) g D(h) g^-1 = {group.label(rhs)}",
                )
    return report


class DifferenceGroup:
    """A finite group together with a validated difference operator."""

    def __init__(self, group: FiniteGroup, d: Sequence[int]) -> None:
        self.group = group
        self.d = tuple(d)
        _raise_if_bad(check_difference_operator(group, self.d))

    def d_of(self, g: int) -> int:
        return self.d[g]

    def d_plus_of(self, g: int) -> int:
        return self.group.mul(self.d[g], g)

    def __repr__(self) -> str:
        return f"DifferenceGroup(order={self.group.order})"


def check_representation(
    dg: DifferenceGroup,
    theta: Sequence[Matrix],
    t: Matrix,
) -> ValidationReport:
    """Check that Theta is a homomorphism into GL(V), on generators with
    the full scan over all pairs only when that fails, and that
    (T, Theta) satisfies the difference-representation law against D."""
    report = ValidationReport("difference representation")
    group = dg.group
    n = group.order
    if len(theta) != n:
        report.add("shape", (len(theta),), f"expected {n} matrices")
        return report
    dim = t.nrows
    ring = t.ring
    if t.ncols != dim:
        report.add("T-square", (t.nrows, t.ncols), "T must be square")
        return report
    for g in range(n):
        mat = theta[g]
        if mat.nrows != dim or mat.ncols != dim or mat.ring != ring:
            report.add("theta-shape", (g,), "Theta(g) has wrong shape or ring")
            return report
    ident = Matrix.identity(ring, dim)
    if theta[group.identity] != ident:
        report.add("theta-identity", (group.identity,), "Theta(e) != I")
    if not report.ok or not _multiplicative(group, theta, operator.matmul):
        for g in range(n):
            for h in range(n):
                if theta[group.mul(g, h)] != theta[g] @ theta[h]:
                    report.add(
                        "theta-homomorphism",
                        (g, h),
                        f"Theta({group.label(g)} {group.label(h)}) != "
                        f"Theta({group.label(g)}) Theta({group.label(h)})",
                    )
    if not report.ok:
        return report
    # T(Theta(g) u) + Theta(g) u = Theta(D(g) g) (T(u) + u), checked as matrices
    for g in range(n):
        lhs = (t @ theta[g]) + theta[g]
        rhs = theta[dg.d_plus_of(g)] @ (t + ident)
        if lhs != rhs:
            report.add(
                "difference-compatibility",
                (g,),
                f"(T + id) Theta(g) != Theta(D(g) g) (T + id) at g = {group.label(g)}",
            )
    return report


@dataclass(frozen=True)
class ModuleTable:
    """F_p^dim on vector indices: ``vectors`` in ``vector_enumeration``
    order, ``index`` inverting it, ``add[i][j]``, and for each g the
    images of every vector under Theta(g) (``theta[g]``) and under
    T + id - Theta(D g) (``shift[g]``; ``shift[e]`` is T)."""

    vectors: list[tuple[int, ...]]
    index: dict[tuple[int, ...], int]
    add: list[list[int]]
    theta: list[list[int]]
    shift: list[list[int]]


class DifferenceRep:
    """A validated representation (V, T, Theta) of a difference group."""

    def __init__(self, dg: DifferenceGroup, theta: Sequence[Matrix], t: Matrix) -> None:
        _raise_if_bad(check_representation(dg, theta, t))
        self.dg = dg
        self.theta = tuple(theta)
        self.t = t
        self.field = t.ring
        self.dim = t.nrows

    @functools.cached_property
    def module(self) -> ModuleTable:
        """The module table, built once; prime-field representations only."""
        f = self.field
        if not isinstance(f, PrimeField):
            raise ValueError("a module table needs a finite (prime-field) module")
        vectors = vector_enumeration(f, self.dim)
        index = {v: i for i, v in enumerate(vectors)}

        def images(m: Matrix) -> list[int]:
            rows = m.to_lists()
            return [index[tuple(sum(map(operator.mul, r, v)) % f.p for r in rows)] for v in vectors]

        plus = self.t + Matrix.identity(f, self.dim)
        return ModuleTable(
            vectors,
            index,
            [[index[tuple(map(f.add, u, v))] for v in vectors] for u in vectors],
            [images(m) for m in self.theta],
            [images(plus - self.theta[x]) for x in self.dg.d],
        )

    def __repr__(self) -> str:
        return f"DifferenceRep(dim={self.dim}, field={self.field!r})"


def induced_rep_theta_d(rep: DifferenceRep) -> tuple[Matrix, ...]:
    """Theta_D(g) = Theta(D(g) g), the representation induced along D_+,
    re-checked on generators to be a homomorphism."""
    dg = rep.dg
    group = dg.group
    theta_d = tuple(rep.theta[dg.d_plus_of(g)] for g in group.elements)
    if theta_d[group.identity] == Matrix.identity(rep.field, rep.dim) and _multiplicative(
        group, theta_d, operator.matmul
    ):
        return theta_d
    for g in group.elements:
        for h in group.elements:
            if theta_d[group.mul(g, h)] != theta_d[g] @ theta_d[h]:
                report = ValidationReport("induced representation")
                report.add(
                    "homomorphism",
                    (g, h),
                    "Theta(D(g) g) is not multiplicative; inputs are corrupt",
                )
                raise ValidationError(report)
    return theta_d


def vector_enumeration(field: PrimeField, dim: int) -> list[tuple[int, ...]]:
    """All of F_p^dim in lexicographic order; the zero vector comes first."""
    return list(itertools.product(range(field.p), repeat=dim))


def carrier_tables(
    rep: DifferenceRep, alpha: Sequence[Sequence[int]], beta: Sequence[int]
) -> tuple[list[list[int]], list[int]]:
    """The unvalidated multiplication table and operator of the carrier
    G x V of a pair on vector indices, ``alpha[g][h]`` and ``beta[g]``,
    with (g, vectors[k]) at index g nv + k:

        (g, u) (h, v) = (gh, u + Theta(g) v + alpha(g, h))
        D(g, u)       = (D g, T u + u - Theta(D g) u + beta(g))"""
    module = rep.module
    nv, add = len(module.vectors), module.add
    table = []
    for g, row_g in enumerate(rep.dg.group.table):
        theta_g, alpha_g = module.theta[g], alpha[g]
        for u in range(nv):
            moved = [add[u][w] for w in theta_g]  # u + Theta(g) v, for each v
            row = []
            for gh, a in zip(row_g, alpha_g):
                add_a, base = add[a], gh * nv
                row.extend([base + add_a[x] for x in moved])
            table.append(row)
    per_g = zip(rep.dg.d, beta, module.shift)
    d = [d_g * nv + add[b][x] for d_g, b, shift_g in per_g for x in shift_g]
    return table, d


def carrier(
    rep: DifferenceRep, alpha: Sequence[Sequence[int]], beta: Sequence[int]
) -> DifferenceGroup:
    """The carrier of ``carrier_tables`` as a difference group, its laws
    checked on construction: a non-cocycle raises ``ValidationError``."""
    table, d = carrier_tables(rep, alpha, beta)
    group, vectors = rep.dg.group, rep.module.vectors
    labels = [
        f"({group.label(g)},{','.join(map(str, u))})" for g in group.elements for u in vectors
    ]
    return DifferenceGroup(FiniteGroup(table, labels), d)


def semidirect_product(dg: DifferenceGroup, rep: DifferenceRep) -> DifferenceGroup:
    """The difference group G x V with (g, u)(h, v) = (gh, u + Theta(g) v)
    and D(g, u) = (D(g), T(u) + u - Theta(D(g)) u), the carrier of the
    zero pair.  Requires a prime-field representation of ``dg`` so the
    product stays finite.  The returned operator is re-validated on
    generators, which replays the proof of the twisted cocycle rule."""
    if not isinstance(rep.field, PrimeField):
        raise ValueError("semidirect product needs a finite (prime-field) module")
    if dg is not rep.dg:
        raise ValueError("the representation is of another difference group")
    if rep.dim == 0:
        return dg
    zeros = [0] * dg.group.order
    return carrier(rep, [zeros] * dg.group.order, zeros)
