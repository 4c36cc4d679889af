"""Reference implementations kept as test oracles.

The dense matrix arithmetic (``dense_add`` to ``dense_transpose``, loops
over every entry of ``to_lists()``) is the one the library ran before a
``Matrix`` stored only its nonzeros.  The dense elimination (first
nonzero row as pivot, full-row updates) and the per-basis-cochain
operator assembly, for the group and the Lie complex alike, are the
routes the library used before its sparse echelon and one-pass scatter
assembly; the shear search over every
normalized 1-cochain is the one it used before searching on generators;
the van Est loop with one plain evaluation per tuple and permutation,
at I + e_j x over a jet ring with one generator per argument, is the one
it used before one evaluation over slot-graded jets gave a whole image.
The full scans of the group and Lie laws (associativity over all triples, the
twisted rule and Theta over all pairs, the three-bracket difference
identity, Jacobi, one solve per commutator) are those it ran before it
checked each law on generators.  The per-cochain loops for d, d_D and
K of both theories (``coboundary``, ``pk``, ``hk``, ``kk``, ``delta``,
``ce_coboundary``, ``k_map`` with ``value_on_vectors``, ``delta_theta``)
are the ones it used before each operator was defined once, by its
faces.  ``carrier_tables`` is the tuple loop that built the carrier of
an extension and of a semidirect product before the carrier was built
once, on vector indices.  ``full_member_census`` is the extension
census as it was before it built only one representative per class:
every cocycle of the span is built and searched against its coset's
first member, and the first members are searched pairwise.
``three_rank_dims`` is the cohomology count
from three separate ranks per degree, as it was before one echelon of
the total differential gave all three; over F_p it ranks with
``modular_rank``, the sparse echelon on ``{column: value}`` dict rows
that the library ran over F_2 before its F_2 rows became bitsets, so
it shares neither that kernel nor the rank bounds.
``lie_k_subset_faces`` is the subset expansion of the Lie K, scattered
beside its closed form on every matrix of K before the closed form
alone defined it.  ``FractionRationals`` is the field of rationals as it
was before integral values became plain ints: every value it makes is a
``Fraction``.  ``dense`` and ``sparse`` convert between the library's
``{coordinate: value}`` vector rows and the dense lists these oracles
use.  Tests compare the two routes exactly.
"""

import heapq
import itertools
from fractions import Fraction

from diffcoh.exactness import DEFAULT_BUDGET, CochainPair, InternalCheckError
from diffcoh.extensions import are_isomorphic
from diffcoh.group_cohomology import GroupCochain
from diffcoh.groups import ValidationReport, induced_rep_theta_d
from diffcoh.lie import LieCochain, LieError, _sorted_with_sign, theta_d_matrices
from diffcoh.linalg import Matrix, LinAlgError, jet_part, rank
from diffcoh.programs import evaluate
from diffcoh.scalars import JetRing, PrimeField, Rationals, ScalarError


def dense_echelon(m):
    """Reduced row echelon form; returns (rows, pivot column indices).

    Pivot rule: for each column in order, use the first remaining row
    with a nonzero entry.
    """
    if not getattr(m.ring, "is_field", False):
        raise LinAlgError(f"elimination requires a field, got {m.ring!r}")
    f = m.ring
    rows = m.to_lists()
    pivots = []
    lead = 0
    for col in range(m.ncols):
        pivot_row = None
        for i in range(lead, m.nrows):
            if rows[i][col] != f.zero:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[lead], rows[pivot_row] = rows[pivot_row], rows[lead]
        inv = f.inv(rows[lead][col])
        rows[lead] = [f.mul(inv, x) for x in rows[lead]]
        for i in range(m.nrows):
            if i != lead and rows[i][col] != f.zero:
                c = rows[i][col]
                rows[i] = [f.sub(x, f.mul(c, y)) for x, y in zip(rows[i], rows[lead])]
        pivots.append(col)
        lead += 1
        if lead == m.nrows:
            break
    return rows, pivots


def dense(vec, n, zero=0):
    """The ``{coordinate: value}`` row ``vec`` as a list of length n;
    ``zero`` is the field's zero (0 over F_p and Q)."""
    out = [zero] * n
    for j, x in vec.items():
        out[j] = x
    return out


def sparse(seq, zero=0):
    """The dense sequence ``seq`` as a ``{coordinate: value}`` row that
    stores no ``zero``."""
    return {j: x for j, x in enumerate(seq) if x != zero}


def basis_vector(lie, i):
    """The coordinates of basis element i of a Lie algebra."""
    f = lie.field
    return [f.one if m == i else f.zero for m in range(lie.dim)]


def dense_rank(m):
    return len(dense_echelon(m)[1])


def dense_kernel_basis(m):
    f = m.ring
    rows, pivots = dense_echelon(m)
    basis = []
    for free in range(m.ncols):
        if free in pivots:
            continue
        v = [f.zero] * m.ncols
        v[free] = f.one
        for r_idx, p_col in enumerate(pivots):
            v[p_col] = f.neg(rows[r_idx][free])
        basis.append(v)
    return basis


def dense_solve(m, b):
    f = m.ring
    aug = Matrix.from_rows(f, [[*row, x] for row, x in zip(m.to_lists(), b)])
    rows, pivots = dense_echelon(aug)
    if m.ncols in pivots:
        return None
    x = [f.zero] * m.ncols
    for r_idx, p_col in enumerate(pivots):
        x[p_col] = rows[r_idx][m.ncols]
    return x


def dense_column_space_basis(m):
    _, pivots = dense_echelon(m)
    return [list(m.col(j)) for j in pivots]


def dense_add(a, b):
    f = a.ring
    return [[f.add(x, y) for x, y in zip(r, s)] for r, s in zip(a.to_lists(), b.to_lists())]


def dense_sub(a, b):
    f = a.ring
    return [[f.sub(x, y) for x, y in zip(r, s)] for r, s in zip(a.to_lists(), b.to_lists())]


def dense_neg(a):
    return [[a.ring.neg(x) for x in row] for row in a.to_lists()]


def dense_matmul(a, b):
    f = a.ring
    right = b.to_lists()
    out = []
    for left in a.to_lists():
        row = []
        for j in range(b.ncols):
            acc = f.zero
            for k in range(a.ncols):
                acc = f.add(acc, f.mul(left[k], right[k][j]))
            row.append(acc)
        out.append(row)
    return out


def dense_scale(c, a):
    return [[a.ring.mul(c, x) for x in row] for row in a.to_lists()]


def dense_matvec(a, v):
    f = a.ring
    out = []
    for row in a.to_lists():
        acc = f.zero
        for x, y in zip(row, v):
            acc = f.add(acc, f.mul(x, y))
        out.append(acc)
    return out


def dense_trace(a):
    f = a.ring
    acc = f.zero
    for i, row in enumerate(a.to_lists()):
        acc = f.add(acc, row[i])
    return acc


def dense_transpose(a):
    rows = a.to_lists()
    return [[row[j] for row in rows] for j in range(a.ncols)]


def modular_rank(m):
    """Rank of a ``Matrix`` over F_p: every row, fewest nonzeros first, is
    reduced to a new pivot row or to zero, leftmost column first by a heap
    of its columns, with a modular update of its ``{column: value}`` dict."""
    p = m.ring.p
    pivots = {}
    for row in sorted((dict(row) for row in m.rows if row), key=len):
        heap = list(row)
        heapq.heapify(heap)
        while heap:
            c = heapq.heappop(heap)
            if c not in row:
                continue
            prow = pivots.get(c)
            if prow is None:
                s = pow(row[c], -1, p)
                pivots[c] = {j: s * x % p for j, x in row.items()}
                break
            x = p - row.pop(c)
            for j, y in prow.items():
                if j == c:
                    continue
                v = (row.get(j, 0) + x * y) % p
                if not v:
                    del row[j]
                    continue
                if j not in row:
                    heapq.heappush(heap, j)
                row[j] = v
    return len(pivots)


def three_rank_dims(data, max_degree):
    """dim H^n of the quotient, sub and total complexes from rank d_C,
    rank d_A and rank d_B, one full elimination each."""
    rank_of = modular_rank if isinstance(data.field, PrimeField) else rank
    dims = {}
    prev = ()
    prev_ranks = (0, 0, 0)
    for n in range(1, max_degree + 1):
        mats = (data.d_c(n), data.d_a(n), data.d_b(n))
        if prev and not (mats[2] @ prev[2]).is_zero():
            raise InternalCheckError("the differentials do not compose to zero")
        ranks = tuple(rank_of(m) for m in mats)
        dims[n] = tuple(m.ncols - r - pr for m, r, pr in zip(mats, ranks, prev_ranks))
        prev, prev_ranks = mats, ranks
    return dims


def per_basis_matrix(cx, fn, n, out_degree):
    """The matrix of a cochain map, one column per basis cochain of
    degree n: column k is ``fn`` applied to basis cochain k."""
    dom = cx.space(n)
    cod = cx.space(out_degree)
    cols = [cod.to_vector(fn(dom.basis_cochain(k))) for k in range(dom.size)]
    return Matrix(cx.field, dom.size, cod.size, cols).transpose()


def is_shear_isomorphism(e1, e2, eta):
    """Whether (g, u) -> (g, u + eta[g]) is an isomorphism e1 -> e2 of
    difference groups; ``eta`` maps every base element to a vector."""
    f = e1.rep.field
    sigma = {}
    for x in e1.total.group.elements:
        g, u = e1.split(x)
        sigma[x] = e2.index(g, tuple(f.add(a, b) for a, b in zip(u, eta[g])))
    t1, t2 = e1.total, e2.total
    return all(sigma[t1.d_of(x)] == t2.d_of(sigma[x]) for x in sigma) and all(
        sigma[t1.group.mul(x, y)] == t2.group.mul(sigma[x], sigma[y])
        for x in sigma
        for y in sigma
    )


def full_member_census(space, theory):
    """The shear-isomorphism classes of the extensions of every cocycle in
    the span of ``space.boundaries + space.reps``, built by
    ``theory.build`` and keyed by their coefficients on ``space.reps``.
    Each member must be isomorphic to its coset's first member and the
    first members pairwise non-isomorphic, by the exhaustive search
    ``are_isomorphic`` (bound here, so a test that patches it in
    ``extensions`` does not reach this one); returns the classes in
    span order, so the zero cocycle comes first."""
    f = theory.field
    basis = [dense(v, space.dim_total) for v in space.boundaries + space.reps]
    n_b = len(space.boundaries)
    cosets = {}
    for coeffs in itertools.product(range(f.p), repeat=len(basis)):
        vec = [f.zero] * space.dim_total
        for c, basis_vec in zip(coeffs, basis):
            vec = [f.add(x, f.mul(c, y)) for x, y in zip(vec, basis_vec)]
        ext = theory.build(sparse(vec))
        key = coeffs[n_b:]
        if key in cosets:
            if are_isomorphic(cosets[key][0], ext, DEFAULT_BUDGET) is None:
                raise InternalCheckError("cohomologous cocycles, non-isomorphic extensions")
            cosets[key].append(ext)
        elif any(are_isomorphic(m[0], ext, DEFAULT_BUDGET) is not None for m in cosets.values()):
            raise InternalCheckError("non-cohomologous cocycles, isomorphic extensions")
        else:
            cosets[key] = [ext]
    return list(cosets.values())


def carrier_tables(rep, alpha, beta):
    """The unvalidated multiplication table and operator of the carrier
    G x V of a pair, built entry by entry from vector tuples; alpha(g, h)
    and beta(g) return vectors, and (g, vectors[k]) has index g nv + k."""
    group = rep.dg.group
    f = rep.field
    vectors = list(itertools.product(range(f.p), repeat=rep.dim))
    nv = len(vectors)
    vec_index = {v: i for i, v in enumerate(vectors)}

    def index(g, u):
        return g * nv + vec_index[u]

    table = []
    for g in group.elements:
        theta_g = rep.theta[g]
        theta_vs = [dense_matvec(theta_g, v) for v in vectors]
        for u in vectors:
            row = []
            for h in group.elements:
                a = alpha(g, h)
                gh = group.mul(g, h)
                for theta_v in theta_vs:
                    w = tuple(
                        f.add(f.add(u[i], x), a[i]) for i, x in enumerate(theta_v)
                    )
                    row.append(index(gh, w))
            table.append(row)
    operator = []
    for g in group.elements:
        d_g = rep.dg.d_of(g)
        theta_dg = rep.theta[d_g]
        b = beta(g)
        for u in vectors:
            tu = dense_matvec(rep.t, u)
            thu = dense_matvec(theta_dg, u)
            w = tuple(
                f.add(f.sub(f.add(tu[i], u[i]), thu[i]), b[i])
                for i in range(rep.dim)
            )
            operator.append(index(d_g, w))
    return table, operator


def all_cochains_isomorphic(e1, e2):
    """Whether some shear carries e1 to e2, searched over every
    normalized 1-cochain eta."""
    group = e1.base.group
    nonid = [g for g in group.elements if g != group.identity]
    for combo in itertools.product(e1.vectors, repeat=len(nonid)):
        eta = dict(zip(nonid, combo))
        eta[group.identity] = e1.vectors[0]
        if is_shear_isomorphism(e1, e2, eta):
            return True
    return False


def jet_arg(ring, x, gen):
    """I + e_gen * x over the jet ring."""
    lifted = x.map_entries(lambda c: ring.mul(ring.generator(gen), ring.embed(c)), ring)
    return Matrix.identity(ring, x.nrows) + lifted


def per_evaluation_van_est(diff, prog, degree, vshape):
    """The van Est map of a cochain program, without the normalization
    check: one plain ``evaluate`` per increasing tuple and permutation,
    at I + e_j x_{k_j} over a jet ring with one generator per argument."""
    f = diff.spec.field
    ring = JetRing(f, degree)
    jet_args = [[jet_arg(ring, x, j) for x in diff.basis] for j in range(degree)]
    values = {}
    for tup in itertools.combinations(range(diff.lie.dim), degree):
        total = [f.zero] * vshape.dim
        for sigma in itertools.permutations(range(degree)):
            args = [jet_args[j][tup[sigma[j]]] for j in range(degree)]
            value = evaluate(prog, args, ring)
            coeff = vshape.flatten(jet_part(value, range(degree)))
            odd = sum(a > b for a, b in itertools.combinations(sigma, 2)) % 2
            step = f.sub if odd else f.add
            total = [step(x, y) for x, y in zip(total, coeff)]
        values[tup] = tuple(total)
    return LieCochain(diff.lie, vshape.dim, degree, values)


def group_table_report(group):
    """The group-table report with associativity scanned over all n^3
    triples; stops at the first failing triple, like the package."""
    report = ValidationReport("group table")
    table, n, e = group.table, group.order, group.identity
    if n == 0:
        report.add("nonempty", (), "a group has at least the identity")
        return report
    if not 0 <= e < n:
        report.add("identity-range", (e,), "identity index out of range")
        return report
    if len(group.labels) != n:
        report.add("labels", (len(group.labels),), f"expected {n} labels")
    for g in range(n):
        if len(table[g]) != n:
            report.add("shape", (g,), f"row {g} has length {len(table[g])}")
            return report
        for h in range(n):
            if not 0 <= table[g][h] < n:
                report.add("closure", (g, h), f"entry {table[g][h]} out of range")
                return report
    for g in range(n):
        if table[e][g] != g:
            report.add("identity", (e, g), f"e*{g} = {table[e][g]}")
        if table[g][e] != g:
            report.add("identity", (g, e), f"{g}*e = {table[g][e]}")
    for g in range(n):
        if all(table[g][h] != e for h in range(n)):
            report.add("inverses", (g,), "no right inverse")
    for g, h, k in itertools.product(range(n), repeat=3):
        left, right = table[table[g][h]][k], table[g][table[h][k]]
        if left != right:
            report.add("associativity", (g, h, k), f"(g h) k = {left} but g (h k) = {right}")
            return report
    return report


def twisted_rule_report(group, d):
    """The difference-operator report with D(gh) = D(g) g D(h) g^-1
    checked on all pairs."""
    report = ValidationReport("difference operator")
    n = group.order
    if len(d) != n:
        report.add("shape", (len(d),), f"expected {n} values")
        return report
    for g in range(n):
        if not 0 <= d[g] < n:
            report.add("range", (g,), f"D({group.label(g)}) = {d[g]} out of range")
            return report
    mul, label = group.mul, group.label
    for g, h in itertools.product(range(n), repeat=2):
        lhs = d[mul(g, h)]
        rhs = mul(mul(d[g], g), mul(d[h], group.inv(g)))
        if lhs != rhs:
            report.add(
                "twisted-cocycle",
                (g, h),
                f"D({label(g)}*{label(h)}) = {label(lhs)} but D(g) g D(h) g^-1 = {label(rhs)}",
            )
    return report


def homomorphism_failures(group, theta):
    """Every pair (g, h) with Theta(g h) != Theta(g) Theta(h)."""
    return [
        (g, h)
        for g, h in itertools.product(group.elements, repeat=2)
        if theta[group.mul(g, h)] != theta[g] @ theta[h]
    ]


def representation_report(dg, theta, t):
    """The difference-representation report with Theta checked on all
    pairs."""
    report = ValidationReport("difference representation")
    group = dg.group
    n = group.order
    if len(theta) != n:
        report.add("shape", (len(theta),), f"expected {n} matrices")
        return report
    dim, ring = t.nrows, t.ring
    if t.ncols != dim:
        report.add("T-square", (t.nrows, t.ncols), "T must be square")
        return report
    for g in range(n):
        if (theta[g].nrows, theta[g].ncols, theta[g].ring) != (dim, dim, ring):
            report.add("theta-shape", (g,), "Theta(g) has wrong shape or ring")
            return report
    ident = Matrix.identity(ring, dim)
    if theta[group.identity] != ident:
        report.add("theta-identity", (group.identity,), "Theta(e) != I")
    for g, h in homomorphism_failures(group, theta):
        report.add(
            "theta-homomorphism",
            (g, h),
            f"Theta({group.label(g)} {group.label(h)}) != "
            f"Theta({group.label(g)}) Theta({group.label(h)})",
        )
    if not report.ok:
        return report
    for g in range(n):
        if (t @ theta[g]) + theta[g] != theta[dg.d_plus_of(g)] @ (t + ident):
            report.add(
                "difference-compatibility",
                (g,),
                f"(T + id) Theta(g) != Theta(D(g) g) (T + id) at g = {group.label(g)}",
            )
    return report


def lie_difference_report(lie, d):
    """The Lie difference-operator report with
    D[x,y] = [Dx,y] + [x,Dy] + [Dx,Dy] checked, three brackets per basis
    pair."""
    report = ValidationReport("Lie difference operator")
    f = lie.field
    if d.nrows != lie.dim or d.ncols != lie.dim or d.ring != f:
        report.add("shape", (d.nrows, d.ncols), f"expected {lie.dim}x{lie.dim} over {f!r}")
        return report
    for i, j in itertools.combinations(range(lie.dim), 2):
        ei, ej = basis_vector(lie, i), basis_vector(lie, j)
        dei, dej = dense_matvec(d, ei), dense_matvec(d, ej)
        terms = (lie.bracket(dei, ej), lie.bracket(ei, dej), lie.bracket(dei, dej))
        lhs = dense_matvec(d, lie.bracket(ei, ej))
        if lhs != [f.add(f.add(a, b), c) for a, b, c in zip(*terms)]:
            report.add(
                "difference-identity",
                (i, j),
                f"D[e{i},e{j}] != [De{i},e{j}] + [e{i},De{j}] + [De{i},De{j}]",
            )
    return report


def jacobi_failures(lie):
    """Every basis triple i < j < k at which the Jacobi identity fails."""
    f = lie.field
    out = []
    for i, j, k in itertools.combinations(range(lie.dim), 3):
        acc = [f.zero] * lie.dim
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            term = lie.bracket(lie.bracket_basis(a, b), basis_vector(lie, c))
            acc = [f.add(x, y) for x, y in zip(acc, term)]
        if any(x != f.zero for x in acc):
            out.append((i, j, k))
    return out


def solved_coords(field, basis, m):
    """Coordinates of m in a basis of matrices by one dense solve, or
    None outside the span."""
    flat = Matrix.from_rows(field, [b.entries for b in basis]).transpose()
    return dense_solve(flat, list(m.entries))


def solved_brackets(field, basis):
    """The structure constants of the commutator bracket on a basis of
    matrices, one dense solve per pair."""
    return {
        (i, j): solved_coords(field, basis, (basis[i] @ basis[j]) - (basis[j] @ basis[i]))
        for i, j in itertools.combinations(range(len(basis)), 2)
    }


# ------------------------------------------- per-cochain d, d_D and K


def _nonidentity_tuples(group, degree):
    nonid = [g for g in group.elements if g != group.identity]
    return list(itertools.product(nonid, repeat=degree))


def coboundary(theta, a):
    """The twisted coboundary d^Theta, raising degree by one.

    Normalized cochains have normalized coboundaries, so only
    identity-free tuples are evaluated and stored.
    """
    group = a.group
    f = a.field
    n = a.degree
    out = {}
    for args in _nonidentity_tuples(group, n + 1):
        acc = dense_matvec(theta[args[0]], a.value_at(args[1:]))
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


def pk(rep, a):
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
        return GroupCochain(group, f, a.dim, n)
    out = {}
    if n == 1:
        for (g,) in _nonidentity_tuples(group, 1):
            d_g = dg.d_of(g)
            first = dense_matvec(rep.theta[d_g], a.value_at((g,)))
            second = a.value_at((dg.d_plus_of(g),))
            third = a.value_at((d_g,))
            out[(g,)] = tuple(
                f.sub(f.sub(y, x), z) for x, y, z in zip(first, second, third)
            )
    else:
        for g1, g2 in _nonidentity_tuples(group, 2):
            g12 = group.mul(g1, g2)
            first = a.value_at((dg.d_of(g1), g1))
            second = a.value_at((dg.d_of(g12), g12))
            third = dense_matvec(rep.theta[dg.d_plus_of(g1)], a.value_at((dg.d_of(g2), g2)))
            out[(g1, g2)] = tuple(
                f.add(f.sub(x, y), z) for x, y, z in zip(first, second, third)
            )
    return GroupCochain(group, f, a.dim, n, out)


def hk(rep, a):
    """The homomorphism part of the connecting cochain map:

        (-1)^n ( a(D(g1) g1, ..., D(gn) gn) - T(a(g)) - a(g) ).
    """
    dg = rep.dg
    group = dg.group
    f = rep.field
    n = a.degree
    negate = n % 2 == 1
    out = {}
    for args in _nonidentity_tuples(group, n):
        plus = tuple(dg.d_plus_of(g) for g in args)
        v = a.value_at(args)
        tv = dense_matvec(rep.t, v)
        acc = [
            f.sub(f.sub(x, y), z) for x, y, z in zip(a.value_at(plus), tv, v)
        ]
        if negate:
            acc = [f.neg(x) for x in acc]
        out[args] = tuple(acc)
    return GroupCochain(group, f, a.dim, n, out)


def kk(rep, a):
    """The connecting cochain map K = pk + hk; it anticommutes with the
    twisted coboundaries and induces the connecting homomorphism."""
    return pk(rep, a) + hk(rep, a)


def delta(rep, pair):
    """Differential of the pair complex:
    delta(a, b) = (d^Theta a, d^{Theta_D} b + K a)."""
    alpha = coboundary(rep.theta, pair.alpha)
    beta = kk(rep, pair.alpha)
    if pair.beta is not None:
        theta_d = induced_rep_theta_d(rep)
        beta = beta + coboundary(theta_d, pair.beta)
    return CochainPair(alpha, beta)


def value_on_vectors(z, vectors):
    """Full multilinear evaluation on coordinate vectors."""
    if len(vectors) != z.degree:
        raise LieError(f"expected {z.degree} arguments, got {len(vectors)}")
    f = z.field
    out = list(z._zero)
    for combo in itertools.product(range(z.lie.dim), repeat=z.degree):
        c = f.one
        for v, i in zip(vectors, combo):
            c = f.mul(c, v[i])
            if c == f.zero:
                break
        if c == f.zero:
            continue
        val = z.value_at_basis(combo)
        if val == z._zero:
            continue
        for m in range(z.dim):
            out[m] = f.add(out[m], f.mul(c, val[m]))
    return tuple(out)


def ce_coboundary(theta, z):
    """The Chevalley-Eilenberg coboundary twisted by a representation
    given on basis elements.  Degrees above dim(g) are zero spaces, so
    the result is then the zero cochain."""
    lie = z.lie
    f = z.field
    n = z.degree
    out = {}
    for args in itertools.combinations(range(lie.dim), n + 1):
        acc = [f.zero] * z.dim
        for k in range(n + 1):
            rest = args[:k] + args[k + 1 :]
            term = dense_matvec(theta[args[k]], z.value_at_basis(rest))
            if k % 2:
                acc = [f.sub(x, y) for x, y in zip(acc, term)]
            else:
                acc = [f.add(x, y) for x, y in zip(acc, term)]
        for a, b in itertools.combinations(range(n + 1), 2):
            rest = tuple(args[m] for m in range(n + 1) if m not in (a, b))
            w = lie.bracket_basis(args[a], args[b])
            term = [f.zero] * z.dim
            for m, c in enumerate(w):
                if c == f.zero:
                    continue
                val = z.value_at_basis((m,) + rest)
                term = [f.add(x, f.mul(c, y)) for x, y in zip(term, val)]
            if (a + b) % 2:
                acc = [f.sub(x, y) for x, y in zip(acc, term)]
            else:
                acc = [f.add(x, y) for x, y in zip(acc, term)]
        out[args] = tuple(acc)
    return LieCochain(lie, z.dim, n + 1, out)


def k_map(rep, z):
    """The connecting cochain map on the Lie side, computed two ways.

    Subset form: (-1)^n ( sum over nonempty S of z(.. D at S ..) - T z ).
    Closed form: (-1)^n ( z(D_+ x_1, .., D_+ x_n) - z(x) - T z(x) ).
    The forms agree by multilinearity; they are compared on every
    increasing tuple and any mismatch aborts with an internal error.
    """
    lie = rep.lie
    f = rep.field
    n = z.degree
    if z.dim != rep.dimv:
        raise LieError(f"cochain has values in dimension {z.dim}, rep in {rep.dimv}")
    d = rep.dop.d
    d_plus = rep.dop.d_plus
    negate = n % 2 == 1
    out = {}
    for args in itertools.combinations(range(lie.dim), n):
        basis_vecs = [basis_vector(lie, i) for i in args]
        d_vecs = [dense_matvec(d, v) for v in basis_vecs]
        zx = z.value_at_basis(args)
        tzx = dense_matvec(rep.t, zx)

        subset_sum = [f.zero] * z.dim
        for r in range(1, n + 1):
            for positions in itertools.combinations(range(n), r):
                vecs = [
                    d_vecs[k] if k in positions else basis_vecs[k] for k in range(n)
                ]
                term = value_on_vectors(z, vecs)
                subset_sum = [f.add(x, y) for x, y in zip(subset_sum, term)]
        subset_val = [f.sub(x, y) for x, y in zip(subset_sum, tzx)]

        closed = value_on_vectors(z, [dense_matvec(d_plus, v) for v in basis_vecs])
        closed_val = [
            f.sub(f.sub(x, y), w) for x, y, w in zip(closed, zx, tzx)
        ]

        if subset_val != closed_val:
            raise InternalCheckError(
                f"connecting map forms disagree at {args}: subset {subset_val} "
                f"vs closed {closed_val}"
            )
        if negate:
            subset_val = [f.neg(x) for x in subset_val]
        out[args] = tuple(subset_val)
    return LieCochain(lie, z.dim, n, out)


def lie_k_subset_faces(rep, n):
    """Faces of the Lie K at an increasing n-tuple in the subset form
    (-1)^n ( sum over nonempty S of z(.. D at S ..) - T z ), the form
    that was scattered and compared with the closed D_+ form on every
    matrix of K before the closed form alone defined K."""
    f = rep.field
    sign = f.neg(f.one) if n % 2 else f.one
    minus_t = rep.t.scale(f.neg(sign))
    d = rep.dop.d
    d_cols = [[(r, x) for r, x in enumerate(d.col(i)) if x != f.zero] for i in range(d.ncols)]

    def expand(cols):
        """Faces of z(v_1, .., v_n), v_k = sum of c e_r over cols[k]."""
        for combo in itertools.product(*cols):
            c = sign
            for _, x in combo:
                c = f.mul(c, x)
            face, odd = _sorted_with_sign(tuple(r for r, _ in combo))
            yield face, f.neg(c) if odd else c

    def subset(args):
        yield args, minus_t
        for size in range(1, n + 1):
            for moved in itertools.combinations(range(n), size):
                yield from expand(
                    [d_cols[i] if k in moved else [(i, f.one)] for k, i in enumerate(args)]
                )

    return subset


def delta_theta(rep, pair):
    """Differential of the Lie pair complex:
    delta(zeta, xi) = (d^theta zeta, d^{theta_D} xi + K zeta)."""
    zeta = ce_coboundary(rep.theta, pair.alpha)
    xi = k_map(rep, pair.alpha)
    if pair.beta is not None:
        xi = xi + ce_coboundary(theta_d_matrices(rep), pair.beta)
    return CochainPair(zeta, xi)


class FractionRationals(Rationals):
    """The rationals with every value a ``Fraction``, integral or not.
    A subclass, so that code dispatching on ``Rationals`` takes the
    same route as with the canonical ring."""

    def __init__(self):
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return Fraction(1) / a

    def conj(self, a):
        return a

    def parse(self, text):
        if isinstance(text, bool):
            raise ScalarError(f"not a rational scalar: {text!r}")
        if isinstance(text, int):
            return Fraction(text)
        if isinstance(text, str):
            try:
                return Fraction(text)
            except (ValueError, ZeroDivisionError) as exc:
                raise ScalarError(f"not a rational scalar: {text!r}") from exc
        raise ScalarError(f"not a rational scalar: {text!r}")
