"""Exact linear algebra against brute-force oracles.

Rank is cross-checked against the largest nonvanishing minor, kernels
over F_2 against full enumeration of the vector space.  Both oracles
are independent of the elimination code under test.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from diffcoh.linalg import (
    LinAlgError,
    Matrix,
    adjugate,
    column_space_basis,
    det,
    embed_matrix,
    field_matrix_inverse,
    jet_matrix_inverse,
    jet_part,
    kernel_basis,
    matrix_inverse,
    rank,
    solve,
)
from diffcoh.scalars import JetRing, PrimeField, Rationals

from oracles import dense, sparse

Q = Rationals()
F2 = PrimeField(2)
F3 = PrimeField(3)


def qmat(rows):
    return Matrix.from_rows(Q, [[Fraction(x) for x in row] for row in rows])


def fmat(field, rows):
    return Matrix.from_rows(field, [[field.from_int(x) for x in row] for row in rows])


def minor_det(m, rows, cols):
    """Cofactor-free determinant oracle: permutation expansion."""
    f = m.ring
    n = len(rows)
    total = f.zero
    for perm in itertools.permutations(range(n)):
        sign = sum(
            1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b]
        )
        term = f.one
        for i in range(n):
            term = f.mul(term, m.at(rows[i], cols[perm[i]]))
        total = f.sub(total, term) if sign % 2 else f.add(total, term)
    return total


def rank_by_minors(m):
    """The size of the largest square submatrix with nonzero determinant."""
    f = m.ring
    for size in range(min(m.nrows, m.ncols), 0, -1):
        for rows in itertools.combinations(range(m.nrows), size):
            for cols in itertools.combinations(range(m.ncols), size):
                if minor_det(m, rows, cols) != f.zero:
                    return size
    return 0


def test_rank_worked_examples():
    assert rank(Matrix.identity(Q, 2)) == 2
    assert rank(Matrix.zeros(Q, 3, 4)) == 0
    assert rank(qmat([[1, 2], [2, 4]])) == 1
    assert rank(fmat(F2, [[1, 1, 0], [0, 1, 1], [1, 0, 1]])) == 2


small_q_matrices = st.integers(1, 3).flatmap(
    lambda n: st.integers(1, 3).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(-3, 3), min_size=m, max_size=m),
            min_size=n,
            max_size=n,
        )
    )
)


@given(rows=small_q_matrices)
def test_rank_matches_minor_oracle(rows):
    m = qmat(rows)
    assert rank(m) == rank_by_minors(m)


small_f3_matrices = st.integers(1, 3).flatmap(
    lambda n: st.integers(1, 4).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(0, 2), min_size=m, max_size=m),
            min_size=n,
            max_size=n,
        )
    )
)


@given(rows=small_f3_matrices)
def test_rank_nullity(rows):
    m = fmat(F3, rows)
    assert rank(m) + len(kernel_basis(m)) == m.ncols
    for v in kernel_basis(m):
        assert v and m.matvec(v) == {}


def test_kernel_by_exhaustion_over_f2():
    m = fmat(F2, [[1, 1, 0], [0, 1, 1]])
    basis = kernel_basis(m)
    # oracle: every vector of F_2^3 annihilated by m
    annihilated = {
        v
        for v in itertools.product((0, 1), repeat=3)
        if m.matvec(sparse(v)) == {}
    }
    assert annihilated == {(0, 0, 0), (1, 1, 1)}
    assert [tuple(dense(v, 3)) for v in basis] == [(1, 1, 1)]
    assert kernel_basis(Matrix.identity(Q, 3)) == []
    assert len(kernel_basis(Matrix.zeros(F2, 2, 3))) == 3


@given(rows=small_f3_matrices)
def test_kernel_spans_all_annihilated_vectors(rows):
    m = fmat(F3, rows)
    basis = kernel_basis(m)
    spanned = set()
    for coeffs in itertools.product(range(3), repeat=len(basis)):
        v = [F3.zero] * m.ncols
        for c, b in zip(coeffs, basis):
            v = [F3.add(x, F3.mul(c, y)) for x, y in zip(v, dense(b, m.ncols))]
        spanned.add(tuple(v))
    annihilated = {
        v
        for v in itertools.product(range(3), repeat=m.ncols)
        if m.matvec(sparse(v)) == {}
    }
    assert spanned == annihilated


def test_solve_consistent_and_inconsistent():
    m = qmat([[1, 2], [3, 4]])
    x = solve(m, sparse([Fraction(5), Fraction(11)]))
    assert dense(m.matvec(x), 2) == [Fraction(5), Fraction(11)]
    degenerate = qmat([[1, 2], [2, 4]])
    assert solve(degenerate, sparse([Fraction(1), Fraction(3)])) is None
    x = solve(degenerate, sparse([Fraction(1), Fraction(2)]))
    assert dense(degenerate.matvec(x), 2) == [Fraction(1), Fraction(2)]
    with pytest.raises(LinAlgError):
        solve(m, sparse([Fraction(1), Fraction(0), Fraction(1)]))


@given(rows=small_f3_matrices)
def test_column_space_basis_spans_every_column(rows):
    m = fmat(F3, rows)
    basis = [list(m.col(j)) for j in column_space_basis(m)]
    assert len(basis) == rank(m)
    if basis:
        bmat = Matrix.from_rows(F3, basis).transpose()
        for j in range(m.ncols):
            assert solve(bmat, sparse(m.col(j))) is not None
    else:
        assert m.is_zero()


def test_det_worked_examples():
    assert det(qmat([[1, 2], [3, 4]])) == Fraction(-2)
    assert det(Matrix.identity(Q, 3)) == Fraction(1)
    assert det(qmat([[2, 0, 1], [1, 1, 0], [0, 3, 1]])) == Fraction(5)


square_q = st.lists(
    st.lists(st.integers(-3, 3), min_size=3, max_size=3), min_size=3, max_size=3
)


@given(rows=square_q)
def test_det_matches_permutation_oracle(rows):
    m = qmat(rows)
    assert det(m) == minor_det(m, (0, 1, 2), (0, 1, 2))


@given(rows=square_q)
def test_adjugate_identity(rows):
    m = qmat(rows)
    assert m @ adjugate(m) == Matrix.identity(Q, 3).scale(det(m))
    assert adjugate(m) @ m == Matrix.identity(Q, 3).scale(det(m))


def test_field_inverse_round_trip():
    m = qmat([[1, 2], [3, 5]])
    assert m @ field_matrix_inverse(m) == Matrix.identity(Q, 2)
    with pytest.raises(LinAlgError):
        field_matrix_inverse(qmat([[1, 2], [2, 4]]))
    with pytest.raises(LinAlgError):
        field_matrix_inverse(Matrix.zeros(Q, 2, 3))


def test_elimination_requires_a_field():
    ring = JetRing(Q, 1)
    m = Matrix.identity(ring, 2)
    with pytest.raises(LinAlgError):
        rank(m)
    with pytest.raises(LinAlgError):
        kernel_basis(m)


def test_jet_matrix_inverse_first_order():
    ring = JetRing(Q, 1)
    x = qmat([[0, 1], [2, 3]])
    ident = Matrix.identity(ring, 2)
    e = ident.scale(ring.generator(0))
    m = ident + (embed_matrix(x, ring) @ e)  # I + e x
    inv = jet_matrix_inverse(m)
    assert m @ inv == ident
    assert inv @ m == ident
    # (I + e x)^{-1} = I - e x exactly at first order
    assert jet_part(inv, ()) == Matrix.identity(Q, 2)
    assert jet_part(inv, (0,)) == -x


def test_jet_matrix_inverse_two_generators():
    ring = JetRing(F3, 2)
    ident = Matrix.identity(ring, 2)
    x = fmat(F3, [[1, 2], [0, 1]])
    m = (
        ident
        + embed_matrix(x, ring).scale(ring.generator(0))
        + embed_matrix(x, ring).scale(ring.generator(1))
    )
    assert m @ jet_matrix_inverse(m) == ident


def test_jet_matrix_inverse_rejects_singular_base():
    ring = JetRing(Q, 1)
    m = embed_matrix(qmat([[1, 2], [2, 4]]), ring)
    with pytest.raises(LinAlgError):
        jet_matrix_inverse(m)
    with pytest.raises(LinAlgError):
        jet_matrix_inverse(Matrix.identity(Q, 2))  # not a jet matrix


def test_matrix_inverse_dispatch():
    assert matrix_inverse(qmat([[2]])) == qmat([["1/2"]])
    ring = JetRing(Q, 1)
    m = Matrix.identity(ring, 1) + Matrix.identity(ring, 1).scale(ring.generator(0))
    assert matrix_inverse(m) @ m == Matrix.identity(ring, 1)


def test_matrix_shape_errors():
    m = qmat([[1, 2], [3, 4]])
    with pytest.raises(LinAlgError):
        m @ qmat([[1, 2, 3]])
    with pytest.raises(LinAlgError):
        m + Matrix.zeros(Q, 3, 3)
    with pytest.raises(LinAlgError):
        Matrix.zeros(Q, 2, 3).trace()
    with pytest.raises(LinAlgError):
        Matrix.from_rows(Q, [[Fraction(1)], [Fraction(1), Fraction(2)]])
    with pytest.raises(LinAlgError):
        det(Matrix.zeros(Q, 2, 3))
    with pytest.raises(LinAlgError):
        adjugate(Matrix.zeros(Q, 2, 3))


def test_matrix_basics():
    m = qmat([[1, 2], [3, 4]])
    assert m.transpose() == qmat([[1, 3], [2, 4]])
    assert m.trace() == Fraction(5)
    assert m.col(1) == (Fraction(2), Fraction(4))
    assert Matrix.from_rows(Q, [[Fraction(1), Fraction(3)], [Fraction(2), Fraction(4)]]).transpose() == m
    assert dense(m.matvec(sparse([Fraction(1), Fraction(0)])), 2) == [Fraction(1), Fraction(3)]
    assert (m - m).is_zero()
