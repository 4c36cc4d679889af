"""Field axioms, quadratic extensions, and jet arithmetic."""

import itertools
import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from diffcoh.linalg import LinAlgError, Matrix, field_matrix_inverse, kernel_basis, rref
from diffcoh.scalars import (
    PRIME_CAP,
    Jet,
    JetRing,
    PrimeField,
    QuadraticField,
    Rationals,
    ScalarError,
    field_from_spec,
    field_to_spec,
    is_prime,
)

Q = Rationals()
F3 = PrimeField(3)
F7 = PrimeField(7)
QI = QuadraticField(-1)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=50)
f7_elements = st.integers(min_value=0, max_value=6)
quad_elements = st.builds(QI.from_parts, st.integers(-5, 5), st.integers(-5, 5))


def field_cases():
    return [
        (Q, rationals),
        (F7, f7_elements),
        (QI, quad_elements),
    ]


@given(a=rationals, b=rationals, c=rationals)
def test_rational_ring_axioms(a, b, c):
    assert Q.add(a, Q.add(b, c)) == Q.add(Q.add(a, b), c)
    assert Q.mul(a, Q.mul(b, c)) == Q.mul(Q.mul(a, b), c)
    assert Q.mul(a, Q.add(b, c)) == Q.add(Q.mul(a, b), Q.mul(a, c))
    assert Q.add(a, Q.neg(a)) == Q.zero
    assert Q.sub(a, b) == Q.add(a, Q.neg(b))


@given(a=f7_elements, b=f7_elements, c=f7_elements)
def test_prime_field_ring_axioms(a, b, c):
    assert F7.add(a, F7.add(b, c)) == F7.add(F7.add(a, b), c)
    assert F7.mul(a, F7.mul(b, c)) == F7.mul(F7.mul(a, b), c)
    assert F7.mul(a, F7.add(b, c)) == F7.add(F7.mul(a, b), F7.mul(a, c))
    assert F7.add(a, F7.neg(a)) == F7.zero


@given(a=quad_elements, b=quad_elements, c=quad_elements)
def test_quadratic_field_ring_axioms(a, b, c):
    assert QI.add(a, QI.add(b, c)) == QI.add(QI.add(a, b), c)
    assert QI.mul(a, QI.mul(b, c)) == QI.mul(QI.mul(a, b), c)
    assert QI.mul(a, b) == QI.mul(b, a)
    assert QI.mul(a, QI.add(b, c)) == QI.add(QI.mul(a, b), QI.mul(a, c))
    assert QI.add(a, QI.neg(a)) == QI.zero


def test_prime_field_inverses_exhaustive():
    for a in range(1, 7):
        assert F7.mul(a, F7.inv(a)) == F7.one
    with pytest.raises(ZeroDivisionError):
        F7.inv(0)


def test_prime_field_canonical_residues():
    assert F3.from_int(-1) == 2
    assert F3.from_int(7) == 1
    assert F3.add(2, 2) == 1
    assert F3.neg(1) == 2


def test_prime_field_rejects_composites():
    for bad in (0, 1, 4, 9, 15):
        with pytest.raises(ScalarError):
            PrimeField(bad)


def test_prime_field_parse_is_strict():
    assert F3.parse(2) == 2
    for bad in (3, -1, "2", True):
        with pytest.raises(ScalarError):
            F3.parse(bad)


def test_rational_parse():
    assert Q.parse("2/3") == Fraction(2, 3)
    assert Q.parse(-4) == Fraction(-4)
    for text, want in (("4/2", 2), ("-0", 0), ("0/7", 0), ("-6/3", -2), (" 5 ", 5)):
        got = Q.parse(text)
        assert got == want and type(got) is int
    for bad in ("x", "1/0", True, 1.5):
        with pytest.raises(ScalarError):
            Q.parse(bad)


def is_canonical(x):
    """An int when integral, a Fraction with denominator > 1 otherwise."""
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


# integral Fractions too: callers may pass them
q_inputs = st.one_of(st.integers(-50, 50), rationals)


def _same(got, want):
    return got == want and is_canonical(got) and str(got) == str(want)


@given(a=q_inputs, b=q_inputs)
def test_rational_operations_return_the_canonical_form(a, b):
    fa, fb = Fraction(a), Fraction(b)
    assert _same(Q.add(a, b), fa + fb)
    assert _same(Q.sub(a, b), fa - fb)
    assert _same(Q.mul(a, b), fa * fb)
    if a != 0:
        assert _same(Q.inv(a), 1 / fa)
    c = Q.add(a, Q.zero)
    assert _same(Q.neg(c), -fa)
    assert _same(Q.conj(c), fa)
    # neg and conj keep the form they are given
    assert type(Q.neg(a)) is type(a) and type(Q.conj(a)) is type(a)
    assert hash(c) == hash(fa) and Q.format(c) == Q.format(fa) == str(fa)


@given(n=st.integers(-(2**70), 2**70))
def test_rational_ints_are_ints(n):
    assert _same(Q.from_int(n), Fraction(n))
    assert _same(Q.parse(n), Fraction(n))
    assert _same(Q.parse(str(n)), Fraction(n))
    assert is_canonical(Q.zero) and is_canonical(Q.one)


@given(n=st.integers(-50, 50), d=st.integers(1, 50))
def test_rational_parse_is_canonical(n, d):
    assert _same(Q.parse(f"{n}/{d}"), Fraction(n, d))


q_matrices = st.integers(1, 4).flatmap(
    lambda ncols: st.lists(
        st.lists(q_inputs, min_size=ncols, max_size=ncols), min_size=1, max_size=4
    )
)


@given(rows=q_matrices)
def test_elimination_over_q_returns_the_canonical_form(rows):
    m = Matrix.from_rows(Q, rows)
    reduced, _ = rref(m)
    assert all(is_canonical(x) for row in reduced for x in row.values())
    assert all(is_canonical(x) for v in kernel_basis(m) for x in v.values())
    if m.nrows == m.ncols:
        try:
            inverse = field_matrix_inverse(m)
        except LinAlgError:
            return
        assert all(is_canonical(x) for x in inverse.entries)
        assert inverse @ m == Matrix.identity(Q, m.nrows)


def test_quadratic_field_rejects_squares():
    for bad in (0, 1, 4, 9, Fraction(4, 9)):
        with pytest.raises(ScalarError):
            QuadraticField(bad)
    QuadraticField(Fraction(1, 2))  # not a rational square


def test_gaussian_arithmetic():
    i = QI.from_parts(0, 1)
    assert QI.mul(i, i) == QI.from_int(-1)
    x = QI.from_parts(3, 4)
    # conj is the nontrivial automorphism; x * conj(x) is the norm
    assert QI.mul(x, QI.conj(x)) == QI.from_int(25)
    assert QI.mul(x, QI.inv(x)) == QI.one


@given(a=quad_elements, b=quad_elements)
def test_conjugation_is_an_automorphism(a, b):
    assert QI.conj(QI.mul(a, b)) == QI.mul(QI.conj(a), QI.conj(b))
    assert QI.conj(QI.add(a, b)) == QI.add(QI.conj(a), QI.conj(b))
    assert QI.conj(QI.conj(a)) == a


@given(a=quad_elements)
def test_quadratic_inverse(a):
    if a != QI.zero:
        assert QI.mul(a, QI.inv(a)) == QI.one


def test_field_spec_round_trips():
    for f in (Q, F3, F7, QI, QuadraticField(5)):
        assert field_from_spec(field_to_spec(f)) == f
    assert field_from_spec({"kind": "Fp", "p": 5}) == PrimeField(5)
    assert field_from_spec({"kind": "prime-field", "p": 5}) == PrimeField(5)
    assert field_from_spec({"kind": "Q"}) == Q


def test_field_spec_rejects_junk():
    for bad in ({"kind": "octonions"}, {"p": 3}, {"kind": "Fp"}, "Fp", None):
        with pytest.raises(ScalarError):
            field_from_spec(bad)


# --- jets ---------------------------------------------------------------


def test_jet_generators_square_to_zero():
    ring = JetRing(Q, 2)
    e0 = ring.generator(0)
    assert ring.mul(e0, e0) == ring.zero
    x = ring.add(ring.one, e0)  # 1 + e0
    assert ring.mul(x, x) == ring.add(ring.one, ring.add(e0, e0))  # 1 + 2 e0


def test_jet_cross_terms_survive():
    ring = JetRing(Q, 2)
    e0, e1 = ring.generator(0), ring.generator(1)
    x = ring.add(ring.one, e0)
    y = ring.add(ring.one, e1)
    prod = ring.mul(x, y)
    assert prod.coefficient(()) == Q.one
    assert prod.coefficient((0,)) == Q.one
    assert prod.coefficient((1,)) == Q.one
    assert prod.coefficient((0, 1)) == Q.one
    # multiplying by e0 again kills everything containing e0
    assert ring.mul(prod, e0).coefficient((0, 1)) == Q.one
    assert ring.mul(ring.mul(e0, e1), e0) == ring.zero


def test_jet_zero_coefficients_are_pruned():
    ring = JetRing(F3, 1)
    x = Jet(F3, 1, {frozenset(): 0, frozenset([0]): 0})
    assert x == ring.zero
    assert not x.coeffs


def test_jet_subset_range_checked():
    with pytest.raises(ScalarError):
        Jet(Q, 1, {frozenset([1]): Q.one})
    with pytest.raises(ScalarError):
        JetRing(Q, 1).generator(1)


jet_f7 = st.builds(
    lambda base, lin0, lin1, cross: Jet(
        F7,
        2,
        {
            frozenset(): base,
            frozenset([0]): lin0,
            frozenset([1]): lin1,
            frozenset([0, 1]): cross,
        },
    ),
    f7_elements,
    f7_elements,
    f7_elements,
    f7_elements,
)


@given(x=jet_f7, y=jet_f7, z=jet_f7)
def test_jet_ring_axioms(x, y, z):
    ring = JetRing(F7, 2)
    assert ring.mul(x, y) == ring.mul(y, x)
    assert ring.mul(x, ring.mul(y, z)) == ring.mul(ring.mul(x, y), z)
    assert ring.mul(x, ring.add(y, z)) == ring.add(ring.mul(x, y), ring.mul(x, z))
    assert ring.add(x, ring.neg(x)) == ring.zero


QR2 = QuadraticField(2)
JET_GENS = 3
JET_SUBSETS = [
    frozenset(c)
    for k in range(JET_GENS + 1)
    for c in itertools.combinations(range(JET_GENS), k)
]


@st.composite
def jet_operands(draw, base, elements):
    """Two jets in three generators; each coefficient of the second is
    drawn freely, copied from the first or its negative, so sums cancel."""
    x = {s: draw(elements) for s in JET_SUBSETS}
    y = {}
    for s in JET_SUBSETS:
        kind = draw(st.sampled_from(["free", "same", "negated"]))
        if kind == "free":
            y[s] = draw(elements)
        else:
            y[s] = x[s] if kind == "same" else base.neg(x[s])
    return Jet(base, JET_GENS, x), Jet(base, JET_GENS, y)


def _reference(op, base, x, y):
    """The ring operation on all 2^n coefficients, zeros included."""
    xs = {s: x.coefficient(s) for s in JET_SUBSETS}
    ys = {s: y.coefficient(s) for s in JET_SUBSETS}
    if op == "add":
        out = {s: base.add(xs[s], ys[s]) for s in JET_SUBSETS}
    elif op == "sub":
        out = {s: base.sub(xs[s], ys[s]) for s in JET_SUBSETS}
    elif op == "neg":
        out = {s: base.neg(xs[s]) for s in JET_SUBSETS}
    else:
        out = {s: base.zero for s in JET_SUBSETS}
        for s in JET_SUBSETS:
            for t in JET_SUBSETS:
                if not s & t:
                    out[s | t] = base.add(out[s | t], base.mul(xs[s], ys[t]))
    return Jet(base, JET_GENS, out)


@pytest.mark.parametrize(
    "base,elements",
    [
        (F7, f7_elements),
        (Q, rationals),
        (QR2, st.builds(QR2.from_parts, st.integers(-3, 3), st.integers(-3, 3))),
    ],
    ids=["F7", "Q", "Q(sqrt2)"],
)
@given(data=st.data())
def test_jet_ring_ops_store_only_nonzero_coefficients(base, elements, data):
    x, y = data.draw(jet_operands(base, elements))
    ring = JetRing(base, JET_GENS)
    for op in ("add", "sub", "neg", "mul"):
        result = ring.neg(x) if op == "neg" else getattr(ring, op)(x, y)
        assert result == Jet(base, JET_GENS, dict(result.coeffs))
        assert all(c != base.zero for c in result.coeffs.values())
        assert result == _reference(op, base, x, y)


def test_jet_ring_ops_reject_jets_with_more_generators():
    ring = JetRing(Q, 1)
    wide = JetRing(Q, 2)
    for jet in (wide.generator(1), wide.one):
        for call in (
            lambda: ring.add(jet, ring.one),
            lambda: ring.add(ring.one, jet),
            lambda: ring.sub(ring.one, jet),
            lambda: ring.neg(jet),
            lambda: ring.mul(jet, ring.one),
            lambda: ring.mul(ring.one, jet),
        ):
            with pytest.raises(ScalarError, match="jet in 2 generators used in a ring with 1"):
                call()
    # a jet from a narrower ring is a jet of the wider one
    assert wide.add(ring.generator(0), wide.generator(1)) == wide.add(
        wide.generator(0), wide.generator(1)
    )


@given(x=jet_f7)
def test_jet_units_invert(x):
    ring = JetRing(F7, 2)
    if x.coefficient(()) == 0:
        with pytest.raises(ZeroDivisionError):
            ring.inv(x)
    else:
        assert ring.mul(x, ring.inv(x)) == ring.one


SLOTS, WIDTH = 3, 2
GRADED_SUBSETS = [
    frozenset(slot * WIDTH + k for slot, k in zip(slots, ks))
    for r in range(SLOTS + 1)
    for slots in itertools.combinations(range(SLOTS), r)
    for ks in itertools.product(range(WIDTH), repeat=r)
]


@st.composite
def graded_jets(draw, base, elements):
    """A jet of JetRing(base, SLOTS * WIDTH, WIDTH), each of its
    monomials zero or drawn from ``elements``."""
    coeffs = {s: draw(st.one_of(st.just(base.zero), elements)) for s in GRADED_SUBSETS}
    return Jet(base, SLOTS * WIDTH, coeffs, WIDTH)


def collapse(x, ks):
    """The image of x under e_{j,k} -> delta(k, ks[j]) e_j, a jet of
    JetRing(base, SLOTS): the generator ks[j] of slot j goes to e_j and
    the other generators of slot j to zero."""
    out = {}
    for subset, c in x.coeffs.items():
        if all(i % WIDTH == ks[i // WIDTH] for i in subset):
            out[frozenset(i // WIDTH for i in subset)] = c
    return Jet(x.base, SLOTS, out)


@pytest.mark.parametrize(
    "base,elements",
    [
        (Q, rationals),
        (F7, f7_elements),
        (QI, quad_elements),
    ],
    ids=["Q", "F7", "Q(sqrt-1)"],
)
@given(data=st.data())
def test_collapsing_the_slots_is_a_ring_homomorphism(base, elements, data):
    x = data.draw(graded_jets(base, elements))
    y = data.draw(graded_jets(base, elements))
    ks = data.draw(st.tuples(*[st.integers(0, WIDTH - 1)] * SLOTS))
    graded, plain = JetRing(base, SLOTS * WIDTH, WIDTH), JetRing(base, SLOTS)
    for op in ("add", "mul"):
        assert collapse(getattr(graded, op)(x, y), ks) == getattr(plain, op)(
            collapse(x, ks), collapse(y, ks)
        )
    for op in ("neg", "conj"):
        assert collapse(getattr(graded, op)(x), ks) == getattr(plain, op)(collapse(x, ks))
    if x.coefficient(()) != base.zero:
        assert collapse(graded.inv(x), ks) == plain.inv(collapse(x, ks))
        assert graded.mul(x, graded.inv(x)) == graded.one


def test_generators_of_one_slot_multiply_to_zero():
    ring = JetRing(Q, 4, 2)
    e = [ring.generator(i) for i in range(4)]
    assert ring.nslots == 2
    assert ring.mul(e[0], e[1]) == ring.zero
    assert ring.mul(e[2], e[3]) == ring.zero
    assert ring.mul(e[1], e[2]).coefficient((1, 2)) == Q.one
    with pytest.raises(ScalarError, match="two generators of one slot"):
        Jet(Q, 4, {frozenset([0, 1]): Q.one}, 2)
    # the inverse sums one term per slot: (1 + e0 + e2)^-1 = 1 - e0 - e2 + 2 e0 e2
    x = ring.add(ring.one, ring.add(e[0], e[2]))
    assert ring.inv(x) == Jet(
        Q, 4, {frozenset(): 1, frozenset([0]): -1, frozenset([2]): -1, frozenset([0, 2]): 2}, 2
    )


def test_jet_rings_of_another_width_differ_and_reject_each_others_jets():
    narrow, wide = JetRing(Q, 4), JetRing(Q, 4, 2)
    assert narrow != wide and hash(narrow) != hash(wide)
    assert narrow.generator(0) != wide.generator(0)
    for call in (
        lambda: wide.add(narrow.generator(0), wide.one),
        lambda: wide.mul(wide.one, narrow.generator(0)),
        lambda: wide.neg(narrow.one),
        lambda: narrow.sub(narrow.one, wide.generator(1)),
    ):
        with pytest.raises(ScalarError, match="slot width"):
            call()
    # a jet of a narrower ring of the same width is a jet of the wider one
    assert JetRing(Q, 6, 2).add(wide.generator(3), wide.one).ngens == 6


def test_jet_ring_needs_a_field_base():
    with pytest.raises(ScalarError):
        JetRing(JetRing(Q, 1), 1)


def test_large_prime_field_loads_quickly():
    started = time.perf_counter()
    field = field_from_spec({"kind": "Fp", "p": 2**61 - 1})
    assert time.perf_counter() - started < 1.0
    assert field.p == 2**61 - 1


@pytest.mark.parametrize(
    "n", [561, 3215031751, 3825123056546413051, 318665857834031151167461]
)
def test_pseudoprimes_are_rejected(n):
    # 561 is a Carmichael number; the others are strong pseudoprimes to
    # the bases 2, 3, 5, 7, to every prime base up to 23, and to every
    # prime base up to 37 (399165290221 * 798330580441)
    with pytest.raises(ScalarError, match="must be a prime"):
        PrimeField(n)


def test_characteristic_above_the_primality_cap_is_rejected():
    with pytest.raises(ScalarError, match=str(PRIME_CAP)):
        PrimeField(PRIME_CAP + 2)


def test_miller_rabin_agrees_with_trial_division():
    def by_division(n):
        return n >= 2 and all(n % q for q in range(2, math.isqrt(n) + 1))

    assert [n for n in range(5000) if is_prime(n)] == [
        n for n in range(5000) if by_division(n)
    ]
