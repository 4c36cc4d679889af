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

where the connecting cochain map K couples the two.  K anticommutes
with the coboundaries, so delta squares to zero and the three complexes
sit in a short exact sequence whose long exact sequence has connecting
map [a] -> [K a].

The faces define each operator once: ``_coboundary_faces`` and
``_connecting_faces`` return a function yielding, at an argument tuple,
the faces of the argument cochain with their coefficients.
``DifferenceComplex`` scatters them into its matrices
(``exactness.operator_matrix``), building them only for a matrix it has
not cached; ``coboundary``, ``kk`` and ``delta`` take the complex and
apply its cached matrices to a single cochain.  Where Theta_D = Theta,
as for a trivial action or for D = e, d_D is d: the complex compares
the two once and then returns the matrix of d for d_D.

``GroupCochain`` adds to ``exactness.Cochain`` only what is particular
to groups: identity-free tuples, ``CochainError`` and ``value_at``.
Pairs are ``exactness.CochainPair``, re-exported here.
"""

from __future__ import annotations

import itertools
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
from .linalg import Matrix


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


class CochainSpace(CochainSpaceBase):
    """Coordinates on the space of normalized n-cochains: identity-free
    tuples in lexicographic order of element indices."""

    def __init__(self, group: FiniteGroup, field: Any, dim: int, degree: int) -> None:
        nonidentity = [g for g in group.elements if g != group.identity]
        tuples = list(itertools.product(nonidentity, repeat=degree))
        super().__init__(GroupCochain(group, field, dim, degree), tuples)


def _coboundary_faces(group: FiniteGroup, theta: Sequence[Matrix]):
    """Faces of d^Theta at an (n+1)-tuple: Theta(g1) a(g2..),
    (-1)^i a(.., g_i g_{i+1}, ..) and (-1)^{n+1} a(g1..gn)."""
    f, mul = theta[0].ring, group.mul
    one, minus = f.one, f.neg(f.one)

    def faces(args: tuple):
        n = len(args) - 1
        yield args[1:], theta[args[0]]
        for i in range(n):
            merged = args[:i] + (mul(args[i], args[i + 1]),) + args[i + 2 :]
            yield merged, one if i % 2 else minus
        yield args[:n], one if n % 2 else minus

    return faces


def _connecting_faces(rep: DifferenceRep, n: int):
    """Faces of K at an n-tuple: in every degree the homomorphism part

        (-1)^n ( a(D(g1) g1, ..., D(gn) gn) - T a(g) - a(g) ),

    plus in degree 1  -Theta(D g) a(g) + a(D(g) g) - a(D g)
    and in degree 2   a(D g1, g1) - a(D(g1 g2), g1 g2)
                      + Theta(D(g1) g1) a(D g2, g2)."""
    dg, f = rep.dg, rep.field
    mul = dg.group.mul
    one, minus = f.one, f.neg(f.one)
    sign = minus if n % 2 else one  # (-1)^n of the homomorphism part
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


class DifferenceComplex(DifferenceComplexBase):
    """Matrix-level view of the three complexes attached to (G, D, V, T).

    d^Theta, d^{Theta_D} and K are scattered from their faces; a face
    containing the identity is outside the normalized space and
    vanishes.
    """

    def __init__(self, rep: DifferenceRep, budget: int = DEFAULT_BUDGET) -> None:
        from .groups import induced_rep_theta_d

        super().__init__(rep.field, rep.dim, budget, rep.theta, induced_rep_theta_d(rep))
        self.rep = rep
        self.group = rep.dg.group

    def _space_size(self, degree: int) -> int:
        return (self.group.order - 1) ** degree * self.dim

    def _new_space(self, degree: int) -> CochainSpace:
        return CochainSpace(self.group, self.field, self.dim, degree)

    def d_ordinary(self, n: int) -> Matrix:
        return self._operator_matrix("d", n, n + 1, _coboundary_faces, self.group, self.rep.theta)

    def d_difference(self, n: int) -> Matrix:
        return self._operator_matrix("dD", n, n + 1, _coboundary_faces, self.group, self.theta_d)

    def k_matrix(self, n: int) -> Matrix:
        return self._operator_matrix("K", n, n, _connecting_faces, self.rep, n)


def coboundary(cx: DifferenceComplex, a: GroupCochain) -> GroupCochain:
    """The twisted coboundary d^Theta of ``cx``, raising degree by one."""
    return cx.coboundary(a)


def kk(cx: DifferenceComplex, a: GroupCochain) -> GroupCochain:
    """The connecting cochain map K of ``cx``."""
    return cx.connecting(a)


def delta(cx: DifferenceComplex, pair: CochainPair) -> CochainPair:
    """delta(a, b) = (d^Theta a, d^{Theta_D} b + K a) of ``cx``."""
    return cx.delta(pair)
