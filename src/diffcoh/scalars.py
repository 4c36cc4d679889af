"""Exact scalar arithmetic: rationals, prime fields, quadratic extensions, jet rings.

Every computation in this package runs over one of the coefficient rings
defined here.  There is no floating point anywhere: a rational is an
``int`` when it is integral and a stdlib ``Fraction`` with denominator
> 1 otherwise, prime-field elements are canonical residues in
``[0, p)``, and first-order jets are finitely supported maps from subsets
of generators, at most one from each slot of a slot-graded jet ring, to
base-field scalars.

A "ring object" bundles the operations on its scalars (``add``, ``mul``,
``inv``, ...) so that matrices and cochains can stay generic over the
coefficient ring.  Scalars themselves are plain values (``int``,
``Fraction``, ``QuadScalar``, ``Jet``) compared with ``==``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterable


class ScalarError(ValueError):
    """Raised for malformed scalars or operations outside a ring's domain."""


# Miller-Rabin with the first thirteen prime bases decides primality
# exactly below this bound, the least strong pseudoprime to all of them
# (Sorenson and Webster, 2017).  The first twelve bases, 2..37, would
# not do: 318665857834031151167461 is a strong pseudoprime to each.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_CAP = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for 2 <= n < PRIME_CAP."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _is_perfect_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def rational(x: int | Fraction) -> int | Fraction:
    """The canonical form of a rational: an ``int`` when x is integral,
    x itself otherwise."""
    return x if x.__class__ is int or x.denominator != 1 else x.numerator


class Rationals:
    """The field of rational numbers.

    Each value has one canonical form: an ``int`` when it is integral and
    a ``Fraction`` with denominator > 1 otherwise.  The paper's objects
    over Q are almost all integral, so most arithmetic stays on ints.
    Every operation returns the canonical form (``neg`` and ``conj``
    keep the form they are given) and accepts integral ``Fraction``
    inputs too; the two forms of a value are equal, hash equal and
    format the same.
    """

    kind = "rationals"
    is_field = True

    def __init__(self) -> None:
        self.zero = 0
        self.one = 1

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Rationals)

    def __hash__(self) -> int:
        return hash(self.kind)

    def __repr__(self) -> str:
        return "Rationals()"

    def from_int(self, n: int) -> int:
        return n

    # add, sub and mul inline ``rational``: they run in the inner loops
    # of jet and cofactor arithmetic

    def add(self, a: int | Fraction, b: int | Fraction) -> int | Fraction:
        x = a + b
        return x if x.__class__ is int or x.denominator != 1 else x.numerator

    def sub(self, a: int | Fraction, b: int | Fraction) -> int | Fraction:
        x = a - b
        return x if x.__class__ is int or x.denominator != 1 else x.numerator

    def neg(self, a: int | Fraction) -> int | Fraction:
        return -a

    def mul(self, a: int | Fraction, b: int | Fraction) -> int | Fraction:
        x = a * b
        return x if x.__class__ is int or x.denominator != 1 else x.numerator

    def inv(self, a: int | Fraction) -> int | Fraction:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return rational(Fraction(a.denominator, a.numerator))

    def conj(self, a: int | Fraction) -> int | Fraction:
        return a

    def parse(self, text: Any) -> int | Fraction:
        if isinstance(text, bool):
            raise ScalarError(f"not a rational scalar: {text!r}")
        if isinstance(text, int):
            return int(text)
        if isinstance(text, str):
            try:
                return rational(Fraction(text))
            except (ValueError, ZeroDivisionError) as exc:
                raise ScalarError(f"not a rational scalar: {text!r}") from exc
        raise ScalarError(f"not a rational scalar: {text!r}")

    def format(self, a: int | Fraction) -> str:
        return str(a)


class PrimeField:
    """The field F_p for a prime p; elements are ints in ``[0, p)``."""

    kind = "prime-field"
    is_field = True

    def __init__(self, p: int) -> None:
        if not isinstance(p, int) or p < 2:
            raise ScalarError(f"prime-field characteristic must be a prime, got {p!r}")
        if p >= PRIME_CAP:
            raise ScalarError(
                f"prime-field characteristic {p} is not below the supported cap "
                f"{PRIME_CAP}, up to which primality is decided exactly"
            )
        if not is_prime(p):
            raise ScalarError(f"prime-field characteristic must be a prime, got {p}")
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash((self.kind, self.p))

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"

    def from_int(self, n: int) -> int:
        return n % self.p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def neg(self, a: int) -> int:
        return (-a) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def conj(self, a: int) -> int:
        return a

    def parse(self, text: Any) -> int:
        if isinstance(text, bool) or not isinstance(text, int):
            raise ScalarError(f"prime-field scalar must be an integer, got {text!r}")
        if not 0 <= text < self.p:
            raise ScalarError(f"prime-field scalar {text} outside [0, {self.p})")
        return text

    def format(self, a: int) -> int:
        return a % self.p


@dataclass(frozen=True)
class QuadScalar:
    """An element a + b*sqrt(d) of a quadratic extension of the rationals."""

    a: Fraction
    b: Fraction

    def __repr__(self) -> str:
        return f"QuadScalar({self.a}, {self.b})"


class QuadraticField:
    """The field Q(sqrt(d)) for a non-square rational d.

    Used for group elements carrying a genuine field automorphism
    (complex conjugation when d = -1).  ``conj`` is the nontrivial
    automorphism a + b*sqrt(d) -> a - b*sqrt(d).
    """

    kind = "quadratic"
    is_field = True

    def __init__(self, d: int | Fraction) -> None:
        try:  # Fraction would read a bool as 0 or 1 and a float as its binary value
            if isinstance(d, (bool, float)):
                raise TypeError(d)
            d = Fraction(d)
        except (ValueError, TypeError, ZeroDivisionError) as exc:
            raise ScalarError(f"quadratic field d must be a rational, got {d!r}") from exc
        if d == 0 or (
            _is_perfect_square(d.numerator) and _is_perfect_square(d.denominator)
        ):
            raise ScalarError(f"{d} is a rational square; extension would be trivial")
        self.d = d
        self.zero = QuadScalar(Fraction(0), Fraction(0))
        self.one = QuadScalar(Fraction(1), Fraction(0))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, QuadraticField) and other.d == self.d

    def __hash__(self) -> int:
        return hash((self.kind, self.d))

    def __repr__(self) -> str:
        return f"QuadraticField({self.d})"

    def from_int(self, n: int) -> QuadScalar:
        return QuadScalar(Fraction(n), Fraction(0))

    def from_parts(self, a: Any, b: Any) -> QuadScalar:
        return QuadScalar(Fraction(a), Fraction(b))

    def add(self, x: QuadScalar, y: QuadScalar) -> QuadScalar:
        return QuadScalar(x.a + y.a, x.b + y.b)

    def sub(self, x: QuadScalar, y: QuadScalar) -> QuadScalar:
        return QuadScalar(x.a - y.a, x.b - y.b)

    def neg(self, x: QuadScalar) -> QuadScalar:
        return QuadScalar(-x.a, -x.b)

    def mul(self, x: QuadScalar, y: QuadScalar) -> QuadScalar:
        return QuadScalar(x.a * y.a + self.d * x.b * y.b, x.a * y.b + x.b * y.a)

    def inv(self, x: QuadScalar) -> QuadScalar:
        norm = x.a * x.a - self.d * x.b * x.b
        if norm == 0:
            raise ZeroDivisionError("inverse of zero")
        return QuadScalar(x.a / norm, -x.b / norm)

    def conj(self, x: QuadScalar) -> QuadScalar:
        return QuadScalar(x.a, -x.b)

    def parse(self, text: Any) -> QuadScalar:
        # a float is refused, as over Q; str() makes a bool the word True
        # or False, which Fraction refuses
        parts = text if isinstance(text, (list, tuple)) and len(text) == 2 else (text, 0)
        if all(isinstance(x, (int, str)) for x in parts):
            try:
                return QuadScalar(Fraction(str(parts[0])), Fraction(str(parts[1])))
            except (ValueError, ZeroDivisionError) as exc:
                raise ScalarError(f"not a quadratic scalar: {text!r}") from exc
        raise ScalarError(f"not a quadratic scalar: {text!r}")

    def format(self, x: QuadScalar) -> Any:
        if x.b == 0:
            return str(x.a)
        return [str(x.a), str(x.b)]


# field kind -> its class, and the keys its description holds besides
# "kind", in the order the class takes them
_FIELD_KINDS = {
    "rationals": (Rationals, ()),
    "Q": (Rationals, ()),
    "Fp": (PrimeField, ("p",)),
    "prime-field": (PrimeField, ("p",)),
    "quadratic": (QuadraticField, ("d",)),
}


def field_from_spec(spec: dict) -> "Rationals | PrimeField | QuadraticField":
    """Build a field from its serialized description.

    Accepts ``{"kind": "rationals"}``, ``{"kind": "Fp", "p": p}``
    (``"prime-field"`` is a synonym for ``"Fp"``), and
    ``{"kind": "quadratic", "d": d}`` for Q(sqrt(d)).  A key that the
    kind does not use is an error, not ignored.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ScalarError(f"field description must be an object with a 'kind': {spec!r}")
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in _FIELD_KINDS:
        raise ScalarError(f"unknown field kind {kind!r}")
    cls, keys = _FIELD_KINDS[kind]
    for key in spec:
        if key != "kind" and key not in keys:
            raise ScalarError(f"{kind} field description has an unknown key {key!r}")
    for key in keys:
        if key not in spec:
            raise ScalarError(f"{kind} field description is missing {key!r}")
    return cls(*(spec[key] for key in keys))


def field_to_spec(field: "Rationals | PrimeField | QuadraticField") -> dict:
    if isinstance(field, Rationals):
        return {"kind": "rationals"}
    if isinstance(field, PrimeField):
        return {"kind": "Fp", "p": field.p}
    if isinstance(field, QuadraticField):
        d = field.d
        return {"kind": "quadratic", "d": int(d) if d.denominator == 1 else str(d)}
    raise ScalarError(f"field {field!r} has no serialized form")


class Jet:
    """A first-order multi-parameter jet over a base field.

    With generators e_0, ..., e_{n-1} in slots of ``width`` consecutive
    generators (e_i in slot i // width), a jet is the finite sum of
    c_S * prod(e_i for i in S) over the subsets S that hold at most one
    generator of each slot: a product of two generators of one slot is
    zero.  ``coeffs`` maps each frozenset S with nonzero coefficient to
    its scalar; the empty set holds the base part.
    """

    __slots__ = ("base", "ngens", "width", "coeffs")

    def __init__(
        self, base: Any, ngens: int, coeffs: dict[frozenset, Any], width: int = 1
    ) -> None:
        self.base = base
        self.ngens = ngens
        self.width = width
        clean = {}
        for subset, c in coeffs.items():
            subset = frozenset(subset)
            if any(not 0 <= i < ngens for i in subset):
                raise ScalarError(f"jet subset {sorted(subset)} outside generator range")
            if len({i // width for i in subset}) < len(subset):
                raise ScalarError(f"jet subset {sorted(subset)} holds two generators of one slot")
            if c != base.zero:
                clean[subset] = c
        self.coeffs = clean

    @classmethod
    def _raw(cls, base: Any, ngens: int, width: int, coeffs: dict[frozenset, Any]) -> "Jet":
        """A jet over coefficients already known to be nonzero and keyed
        by monomials of a ring with ``ngens`` generators in slots of
        ``width``; no validation."""
        jet = cls.__new__(cls)
        jet.base = base
        jet.ngens = ngens
        jet.width = width
        jet.coeffs = coeffs
        return jet

    def coefficient(self, subset: Iterable[int]) -> Any:
        return self.coeffs.get(frozenset(subset), self.base.zero)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Jet)
            and other.ngens == self.ngens
            and other.width == self.width
            and other.coeffs == self.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.ngens, self.width, frozenset(self.coeffs.items())))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "Jet(0)"
        parts = []
        for subset in sorted(self.coeffs, key=sorted):
            mono = "".join(f"e{i}" for i in sorted(subset)) or "1"
            parts.append(f"{self.coeffs[subset]}*{mono}")
        return "Jet(" + " + ".join(parts) + ")"


class JetRing:
    """Jets over ``base`` in ``ngens`` commuting generators, graded by
    slots: generator i lies in slot i // ``width``, and a product of two
    generators of one slot is zero.  With ``width`` 1 each generator
    squares to zero.  A wider slot j carries a whole tangent direction:
    sending its generators e_{jw+k} to c_k e_j, for one square-zero e_j,
    is a ring homomorphism, so a program evaluated at
    I + sum_k e_{jw+k} x_k gives its value at every I + e_j x_k at once.
    A product of generators from more than ``nslots`` slots is zero.
    """

    kind = "jet"
    is_field = False

    def __init__(self, base: Any, ngens: int, width: int = 1) -> None:
        if not base.is_field:
            raise ScalarError("jet ring base must be a field")
        if ngens < 0:
            raise ScalarError("number of jet generators must be nonnegative")
        if width < 1:
            raise ScalarError("jet slot width must be positive")
        self.base = base
        self.ngens = ngens
        self.width = width
        self.nslots = -(-ngens // width)
        self._slot_bit = [1 << (i // width) for i in range(ngens)]
        self.zero = Jet(base, ngens, {}, width)
        self.one = Jet(base, ngens, {frozenset(): base.one}, width)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, JetRing)
            and other.base == self.base
            and other.ngens == self.ngens
            and other.width == self.width
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.base, self.ngens, self.width))

    def __repr__(self) -> str:
        width = "" if self.width == 1 else f", {self.width}"
        return f"JetRing({self.base!r}, {self.ngens}{width})"

    def embed(self, c: Any) -> Jet:
        return Jet(self.base, self.ngens, {frozenset(): c}, self.width)

    def generator(self, i: int) -> Jet:
        if not 0 <= i < self.ngens:
            raise ScalarError(f"no jet generator {i} in a ring with {self.ngens}")
        return Jet(self.base, self.ngens, {frozenset([i]): self.base.one}, self.width)

    def from_int(self, n: int) -> Jet:
        return self.embed(self.base.from_int(n))

    # add, neg and mul build their results with Jet._raw.  Operands come
    # from this ring or a narrower one of the same slot width, so their
    # keys are in range and their stored coefficients nonzero; over a
    # field, a negative or a product of nonzero elements is nonzero, so
    # only sums can vanish.

    def _foreign(self, *jets: Jet) -> ScalarError:
        bad = next(j for j in jets if j.ngens > self.ngens or j.width != self.width)
        if bad.width != self.width:
            return ScalarError(
                f"jet with slot width {bad.width} used in a ring with slot width {self.width}"
            )
        return ScalarError(f"jet in {bad.ngens} generators used in a ring with {self.ngens}")

    def add(self, x: Jet, y: Jet) -> Jet:
        n, w = self.ngens, self.width
        if x.ngens > n or y.ngens > n or x.width != w or y.width != w:
            raise self._foreign(x, y)
        add, zero = self.base.add, self.base.zero
        coeffs = dict(x.coeffs)
        for subset, c in y.coeffs.items():
            if subset in coeffs:
                total = add(coeffs[subset], c)
                if total == zero:
                    del coeffs[subset]
                else:
                    coeffs[subset] = total
            else:
                coeffs[subset] = c
        return Jet._raw(self.base, n, w, coeffs)

    def neg(self, x: Jet) -> Jet:
        if x.ngens > self.ngens or x.width != self.width:
            raise self._foreign(x)
        neg = self.base.neg
        return Jet._raw(self.base, self.ngens, self.width, {s: neg(c) for s, c in x.coeffs.items()})

    def sub(self, x: Jet, y: Jet) -> Jet:
        return self.add(x, self.neg(y))

    def mul(self, x: Jet, y: Jet) -> Jet:
        n, w = self.ngens, self.width
        if x.ngens > n or y.ngens > n or x.width != w or y.width != w:
            raise self._foreign(x, y)
        # monomials on a common slot multiply to zero, so the terms of y
        # are grouped by the bit mask of their slots and a term of x
        # skips each group whose mask meets its own
        add, mul, zero = self.base.add, self.base.mul, self.base.zero
        bit = self._slot_bit
        groups: dict[int, list] = {}
        for t, d in y.coeffs.items():
            groups.setdefault(sum([bit[i] for i in t]), []).append((t, d))
        coeffs: dict[frozenset, Any] = {}
        for s, c in x.coeffs.items():
            ms = sum([bit[i] for i in s])
            for mt, terms in groups.items():
                if ms & mt:
                    continue
                for t, d in terms:
                    u = s | t
                    term = mul(c, d)
                    if u in coeffs:
                        total = add(coeffs[u], term)
                        if total == zero:
                            del coeffs[u]
                        else:
                            coeffs[u] = total
                    else:
                        coeffs[u] = term
        return Jet._raw(self.base, n, w, coeffs)

    def conj(self, x: Jet) -> Jet:
        coeffs = {s: self.base.conj(c) for s, c in x.coeffs.items()}
        return Jet(self.base, self.ngens, coeffs, self.width)
