"""Constructors for the small groups used in fixtures and tests.

All constructors put the identity at index 0, as ``FiniteGroup``
requires.
"""

from __future__ import annotations

import itertools

from .groups import FiniteGroup


def cyclic(n: int) -> FiniteGroup:
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    labels = ["e"] + [f"a{i}" if i > 1 else "a" for i in range(1, n)]
    return FiniteGroup(table, labels=labels)


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    pairs = [(g, h) for g in a.elements for h in b.elements]
    index = {p: i for i, p in enumerate(pairs)}
    table = [
        [index[(a.mul(g1, g2), b.mul(h1, h2))] for (g2, h2) in pairs]
        for (g1, h1) in pairs
    ]
    labels = [f"({a.label(g)},{b.label(h)})" for (g, h) in pairs]
    return FiniteGroup(table, labels=labels)


def klein_four() -> FiniteGroup:
    return direct_product(cyclic(2), cyclic(2))


def dihedral(n: int) -> FiniteGroup:
    """Symmetries of the regular n-gon, order 2n, as C_n x| C_2 with the
    flip acting by inversion; element (s, r) stands for r^r s^s."""
    elems = [(s, r) for s in range(2) for r in range(n)]
    index = {e: i for i, e in enumerate(elems)}

    def mul(x, y):
        s1, r1 = x
        s2, r2 = y
        r = (r1 + r2) % n if s1 == 0 else (r1 - r2) % n
        return ((s1 + s2) % 2, r)

    table = [[index[mul(x, y)] for y in elems] for x in elems]
    labels = [f"r{r}" + ("s" if s else "") for (s, r) in elems]
    return FiniteGroup(table, labels=labels)


def symmetric(n: int) -> FiniteGroup:
    """S_n on {0, ..., n-1}; permutations in lexicographic order, so
    the identity permutation comes first."""
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}

    def compose(p, q):
        # (p q)(x) = p(q(x))
        return tuple(p[q[x]] for x in range(n))

    table = [[index[compose(p, q)] for q in perms] for p in perms]
    labels = ["".join(map(str, p)) for p in perms]
    return FiniteGroup(table, labels=labels)


def quaternion8() -> FiniteGroup:
    """The quaternion group {1, -1, i, -i, j, -j, k, -k}."""
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    # sign and axis of each element: axis 0 is the scalar 1
    def split(x):
        return x % 2, x // 2

    def join(sign, axis):
        return axis * 2 + sign

    # multiplication on axes {1, i, j, k} with a result sign
    axis_mul = {
        (0, 0): (0, 0), (0, 1): (1, 0), (0, 2): (2, 0), (0, 3): (3, 0),
        (1, 0): (1, 0), (1, 1): (0, 1), (1, 2): (3, 0), (1, 3): (2, 1),
        (2, 0): (2, 0), (2, 1): (3, 1), (2, 2): (0, 1), (2, 3): (1, 0),
        (3, 0): (3, 0), (3, 1): (2, 0), (3, 2): (1, 1), (3, 3): (0, 1),
    }

    def mul(x, y):
        sx, ax = split(x)
        sy, ay = split(y)
        az, sz = axis_mul[(ax, ay)]
        return join((sx + sy + sz) % 2, az)

    table = [[mul(x, y) for y in range(8)] for x in range(8)]
    return FiniteGroup(table, labels=names)


def alternating4() -> FiniteGroup:
    perms = [
        p for p in itertools.permutations(range(4)) if _parity(p) == 0
    ]
    perms.sort(key=lambda p: (p != tuple(range(4)), p))
    index = {p: i for i, p in enumerate(perms)}

    def compose(p, q):
        return tuple(p[q[x]] for x in range(4))

    table = [[index[compose(p, q)] for q in perms] for p in perms]
    labels = ["".join(map(str, p)) for p in perms]
    return FiniteGroup(table, labels=labels)


def _parity(p) -> int:
    inv = sum(
        1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j]
    )
    return inv % 2


def inverse_map(group: FiniteGroup) -> list[int]:
    """g -> g^{-1}, a difference operator on every group."""
    return [group.inv(g) for g in group.elements]


def groups_of_each_order(max_order: int = 24) -> dict[int, FiniteGroup]:
    """One group for every order 2..max_order, nonabelian where easy."""
    out: dict[int, FiniteGroup] = {}
    for n in range(2, max_order + 1):
        if n == 6:
            out[n] = symmetric(3)
        elif n == 8:
            out[n] = quaternion8()
        elif n == 12:
            out[n] = alternating4()
        elif n == 24:
            out[n] = symmetric(4)
        elif n % 2 == 0 and n >= 10:
            out[n] = dihedral(n // 2)
        else:
            out[n] = cyclic(n)
    return out
