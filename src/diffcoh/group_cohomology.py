"""Cohomology of difference groups via normalized cochains.

Cochains are normalized: an n-cochain vanishes whenever one of its
arguments is the identity, and the complex starts in degree 1 (there
are no 0-cochains).  Three complexes appear:

* the ordinary complex C^n(G, V) with the coboundary twisted by Theta;
* the difference complex, whose degree-n space is C^{n-1}(G, V) for
  n >= 2 and zero in degree 1, with the coboundary twisted by
  Theta_D(g) = Theta(D(g) g);
* the pair complex C^n + C^{n-1} with differential
  delta(a, b) = (d a, d_D b + K a),

where K = pk + hk couples the two.  K anticommutes with the
coboundaries, so delta squares to zero and the three complexes sit in a
short exact sequence whose long exact sequence has connecting map [a]
-> [K a].

``GroupCochain`` adds to ``exactness.Cochain`` only what is particular
to groups: identity-free tuples, ``CochainError`` and ``value_at``.
Pairs are ``exactness.CochainPair``, re-exported here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

# BudgetExceededError and CochainPair are re-exported for callers that
# import them from here
from .exactness import (  # noqa: F401
    DEFAULT_BUDGET,
    BudgetExceededError,
    Cochain,
    CochainPair,
    CochainSpaceBase,
    DifferenceComplexBase,
)
from .groups import DifferenceRep, FiniteGroup
from .linalg import Matrix, SparseMatrix, solve


class CochainError(ValueError):
    """Raised for malformed cochains or degree mismatches."""


class NotACocycleError(ValueError):
    def __init__(self, witness: tuple, detail: str) -> None:
        super().__init__(f"not a cocycle: {detail} at {witness}")
        self.witness = witness


class GroupCochain(Cochain):
    """A normalized V-valued n-cochain on a finite group.

    ``values`` maps argument tuples (element indices, none equal to the
    identity) to value vectors; missing tuples mean zero.  Tuples
    containing the identity are rejected at construction and evaluate
    to zero through ``value_at``.
    """

    error = CochainError

    def __init__(
        self,
        group: FiniteGroup,
        field: Any,
        dim: int,
        degree: int,
        values: Mapping[tuple, Sequence[Any]] | Iterable[tuple] = (),
    ) -> None:
        self.group = group
        super().__init__(group, group.order, field, dim, degree, values)

    def _check_args(self, args: tuple) -> None:
        if self.group.identity in args:
            raise CochainError(
                f"normalized cochains store no tuples containing the identity: {args}"
            )

    def _like(self, values: Mapping[tuple, tuple]) -> "GroupCochain":
        return GroupCochain(self.group, self.field, self.dim, self.degree, values)

    def value_at(self, args: Sequence[int]) -> tuple:
        args = tuple(args)
        if self.group.identity in args:
            return self._zero
        return self.values.get(args, self._zero)


def zero_cochain(group: FiniteGroup, field: Any, dim: int, degree: int) -> GroupCochain:
    return GroupCochain(group, field, dim, degree)


def _nonidentity(group: FiniteGroup) -> list[int]:
    return [g for g in group.elements if g != group.identity]


def _tuples(group: FiniteGroup, degree: int) -> list[tuple[int, ...]]:
    return list(itertools.product(_nonidentity(group), repeat=degree))


def coboundary(theta: Sequence[Matrix], a: GroupCochain) -> GroupCochain:
    """The twisted coboundary d^Theta, raising degree by one.

    Normalized cochains have normalized coboundaries, so only
    identity-free tuples are evaluated and stored.
    """
    group = a.group
    f = a.field
    n = a.degree
    out: dict[tuple, tuple] = {}
    for args in _tuples(group, n + 1):
        acc = list(theta[args[0]].matvec(list(a.value_at(args[1:]))))
        sign_pos = True  # tracks (-1)^i for i = 1..n
        for i in range(n):
            sign_pos = not sign_pos
            merged = args[:i] + (group.mul(args[i], args[i + 1]),) + args[i + 2 :]
            term = a.value_at(merged)
            acc = [
                f.add(x, y) if sign_pos else f.sub(x, y) for x, y in zip(acc, term)
            ]
        sign_pos = not sign_pos  # (-1)^{n+1}
        term = a.value_at(args[:n])
        acc = [f.add(x, y) if sign_pos else f.sub(x, y) for x, y in zip(acc, term)]
        out[args] = tuple(acc)
    return GroupCochain(group, f, a.dim, n + 1, out)


def pk(rep: DifferenceRep, a: GroupCochain) -> GroupCochain:
    """The degree-sensitive part of the connecting cochain map.

    Nonzero only in degrees 1 and 2:

        n=1:  -Theta(D g) a(g) + a(D(g) g) - a(D g)
        n=2:  a(D g1, g1) - a(D(g1 g2), g1 g2) + Theta(D(g1) g1) a(D g2, g2)
    """
    dg = rep.dg
    group = dg.group
    f = rep.field
    n = a.degree
    if n >= 3:
        return zero_cochain(group, f, a.dim, n)
    out: dict[tuple, tuple] = {}
    if n == 1:
        for (g,) in _tuples(group, 1):
            d_g = dg.d_of(g)
            first = rep.theta[d_g].matvec(list(a.value_at((g,))))
            second = a.value_at((dg.d_plus_of(g),))
            third = a.value_at((d_g,))
            out[(g,)] = tuple(
                f.sub(f.sub(y, x), z) for x, y, z in zip(first, second, third)
            )
    else:
        for g1, g2 in _tuples(group, 2):
            g12 = group.mul(g1, g2)
            first = a.value_at((dg.d_of(g1), g1))
            second = a.value_at((dg.d_of(g12), g12))
            third = rep.theta[dg.d_plus_of(g1)].matvec(
                list(a.value_at((dg.d_of(g2), g2)))
            )
            out[(g1, g2)] = tuple(
                f.add(f.sub(x, y), z) for x, y, z in zip(first, second, third)
            )
    return GroupCochain(group, f, a.dim, n, out)


def hk(rep: DifferenceRep, a: GroupCochain) -> GroupCochain:
    """The homomorphism part of the connecting cochain map:

        (-1)^n ( a(D(g1) g1, ..., D(gn) gn) - T(a(g)) - a(g) ).
    """
    dg = rep.dg
    group = dg.group
    f = rep.field
    n = a.degree
    negate = n % 2 == 1
    out: dict[tuple, tuple] = {}
    for args in _tuples(group, n):
        plus = tuple(dg.d_plus_of(g) for g in args)
        v = a.value_at(args)
        tv = rep.t.matvec(list(v))
        acc = [
            f.sub(f.sub(x, y), z) for x, y, z in zip(a.value_at(plus), tv, v)
        ]
        if negate:
            acc = [f.neg(x) for x in acc]
        out[args] = tuple(acc)
    return GroupCochain(group, f, a.dim, n, out)


def kk(rep: DifferenceRep, a: GroupCochain) -> GroupCochain:
    """The connecting cochain map K = pk + hk; it anticommutes with the
    twisted coboundaries and induces the connecting homomorphism."""
    return pk(rep, a) + hk(rep, a)


def delta(rep: DifferenceRep, pair: CochainPair) -> CochainPair:
    """Differential of the pair complex:
    delta(a, b) = (d^Theta a, d^{Theta_D} b + K a)."""
    from .groups import induced_rep_theta_d

    alpha = coboundary(rep.theta, pair.alpha)
    beta = kk(rep, pair.alpha)
    if pair.beta is not None:
        theta_d = induced_rep_theta_d(rep)
        beta = beta + coboundary(theta_d, pair.beta)
    return CochainPair(alpha, beta)


class CochainSpace(CochainSpaceBase):
    """Coordinates on the space of normalized n-cochains: identity-free
    tuples in lexicographic order of element indices."""

    def __init__(self, group: FiniteGroup, field: Any, dim: int, degree: int) -> None:
        super().__init__(GroupCochain(group, field, dim, degree), _tuples(group, degree))


@dataclass
class ConnectingClass:
    """The value of the connecting map on a cocycle: the cochain K a,
    together with whether its class vanishes and a preimage when it does."""

    cochain: GroupCochain
    is_zero_class: bool
    preimage: GroupCochain | None


class DifferenceComplex(DifferenceComplexBase):
    """Matrix-level view of the three complexes attached to (G, D, V, T).

    d^Theta, d^{Theta_D} and K are scattered from the faces that
    ``coboundary`` and ``kk`` evaluate; faces containing the identity
    are outside the normalized space and vanish.
    """

    def __init__(self, rep: DifferenceRep, budget: int = DEFAULT_BUDGET) -> None:
        from .groups import induced_rep_theta_d

        super().__init__(rep.field, rep.dim, budget)
        self.rep = rep
        self.dg = rep.dg
        self.group = rep.dg.group
        self.theta_d = induced_rep_theta_d(rep)

    def _space_size(self, degree: int) -> int:
        return (self.group.order - 1) ** degree * self.dim

    def _new_space(self, degree: int) -> CochainSpace:
        return CochainSpace(self.group, self.field, self.dim, degree)

    def d_ordinary(self, n: int) -> SparseMatrix:
        return self._operator_matrix("d", n, n + 1, self._coboundary_faces(self.rep.theta))

    def d_difference(self, n: int) -> SparseMatrix:
        return self._operator_matrix("dD", n, n + 1, self._coboundary_faces(self.theta_d))

    def k_matrix(self, n: int) -> SparseMatrix:
        return self._operator_matrix("K", n, n, self._connecting_faces(n))

    def _coboundary_faces(self, theta: Sequence[Matrix]):
        """Faces of d^Theta at an (n+1)-tuple: Theta(g1) a(g2..),
        (-1)^i a(.., g_i g_{i+1}, ..) and (-1)^{n+1} a(g1..gn)."""
        f, mul = self.field, self.group.mul
        one, minus = f.one, f.neg(f.one)

        def faces(args: tuple):
            n = len(args) - 1
            yield args[1:], theta[args[0]]
            for i in range(n):
                merged = args[:i] + (mul(args[i], args[i + 1]),) + args[i + 2 :]
                yield merged, one if i % 2 else minus
            yield args[:n], one if n % 2 else minus

        return faces

    def _connecting_faces(self, n: int):
        """Faces of K = pk + hk at an n-tuple, as ``pk`` and ``hk``
        evaluate them."""
        rep, dg, f, mul = self.rep, self.dg, self.field, self.group.mul
        one, minus = f.one, f.neg(f.one)
        sign = minus if n % 2 else one  # (-1)^n of hk
        minus_sign = f.neg(sign)
        minus_t = rep.t.scale(minus_sign)
        minus_theta = [-m for m in rep.theta]

        def faces(args: tuple):
            yield tuple(dg.d_plus_of(g) for g in args), sign
            yield args, minus_t
            yield args, minus_sign
            if n == 1:
                (g,) = args
                yield args, minus_theta[dg.d_of(g)]
                yield (dg.d_plus_of(g),), one
                yield (dg.d_of(g),), minus
            elif n == 2:
                g1, g2 = args
                g12 = mul(g1, g2)
                yield (dg.d_of(g1), g1), one
                yield (dg.d_of(g12), g12), minus
                yield (dg.d_of(g2), g2), rep.theta[dg.d_plus_of(g1)]

        return faces

    def connecting_class(self, a: GroupCochain) -> ConnectingClass:
        """Apply the connecting map to an ordinary cocycle and decide
        whether the resulting difference-complex class vanishes."""
        da = coboundary(self.rep.theta, a)
        if not da.is_zero():
            witness = next(args for args, _ in da.items())
            raise NotACocycleError(witness, "ordinary coboundary is nonzero")
        image = kk(self.rep, a)
        n = a.degree
        if n == 1:
            # the difference complex is zero in degree 1: no coboundaries
            return ConnectingClass(image, image.is_zero(), None)
        dom = self.space(n - 1)
        cod = self.space(n)
        mat = self.d_difference(n - 1)
        x = solve(mat, cod.to_vector(image))
        if x is None:
            return ConnectingClass(image, False, None)
        return ConnectingClass(image, True, dom.from_vector(x))
