import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from gmalg import linalg
from gmalg.rings import Rationals, Zmod


def brute_solutions_zmod(n, rows, rhs, ncols):
    import itertools

    out = []
    for x in itertools.product(range(n), repeat=ncols):
        if all(
            sum(r[j] * x[j] for j in range(ncols)) % n == b % n
            for r, b in zip(rows, rhs)
        ):
            out.append(x)
    return sorted(out)


def all_solutions(sol, ring, ncols):
    import itertools

    if sol is None:
        return []
    out = set()
    for coeffs in itertools.product(range(ring.n), repeat=len(sol.kernel)):
        v = list(sol.particular)
        for c, g in zip(coeffs, sol.kernel):
            for j in range(ncols):
                v[j] = (v[j] + c * g[j]) % ring.n
        out.add(tuple(v))
    return sorted(out)


def test_solve_2x_eq_2_mod_4():
    R = Zmod(4)
    sol = linalg.solve_linear(R, [[2]], [2])
    assert all_solutions(sol, R, 1) == [(1,), (3,)]


def test_solve_inconsistent_mod_3():
    sol = linalg.solve_linear(Zmod(3), [[0]], [1])
    assert sol is None


def test_solve_unique_over_q():
    Q = Rationals()
    sol = linalg.solve_linear(Q, [[1, 1], [1, -1]], [1, 1])
    assert sol is not None
    assert sol.particular == (Fraction(1), Fraction(0))
    assert sol.kernel == []


def test_solve_matches_brute_force_composite():
    R = Zmod(6)
    rows = [[2, 3], [4, 0]]
    rhs = [1, 2]
    sol = linalg.solve_linear(R, rows, rhs)
    assert all_solutions(sol, R, 2) == brute_solutions_zmod(6, rows, rhs, 2)


def test_solve_matches_brute_force_prime():
    R = Zmod(5)
    rows = [[1, 2, 3], [2, 4, 1]]
    rhs = [1, 2]
    sol = linalg.solve_linear(R, rows, rhs)
    assert all_solutions(sol, R, 3) == brute_solutions_zmod(5, rows, rhs, 3)


def test_nullspace_prime_field():
    gens = linalg.nullspace(Zmod(3), [[1, 1, 1]], 3)
    assert len(gens) == 2
    for g in gens:
        assert sum(g) % 3 == 0


def test_nullspace_composite():
    gens = linalg.nullspace(Zmod(4), [[2]], 1)
    assert gens == [(2,)]


def test_nullspace_over_q():
    Q = Rationals()
    gens = linalg.nullspace(Q, [[Fraction(1), Fraction(2)]], 2)
    assert len(gens) == 1
    g = gens[0]
    assert g[0] + 2 * g[1] == 0


def test_smith_form_diagonalizes():
    mat = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    U, d, V = linalg.smith_form(mat, 3, 3)
    # U mat V must be the diagonal of d
    prod = [
        [
            sum(U[i][a] * mat[a][b] * V[b][j] for a in range(3) for b in range(3))
            for j in range(3)
        ]
        for i in range(3)
    ]
    for i in range(3):
        for j in range(3):
            assert prod[i][j] == (d[i] if i == j else 0)
    # divisibility chain
    for i in range(2):
        if d[i + 1] != 0:
            assert d[i + 1] % d[i] == 0

    def det3(m):
        return (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )

    assert det3(U) in (1, -1)
    assert det3(V) in (1, -1)


def test_span_basis_canonical():
    R = Zmod(3)
    a = linalg.span_basis(R, [(1, 2, 0), (0, 1, 1)], 3)
    b = linalg.span_basis(R, [(1, 0, 1), (0, 1, 1), (2, 1, 0)], 3)
    assert a == b


def test_solve_underdetermined_particular_deterministic():
    R = Zmod(7)
    sol1 = linalg.solve_linear(R, [[1, 1]], [3])
    sol2 = linalg.solve_linear(R, [[1, 1]], [3])
    assert sol1.particular == sol2.particular
    assert len(sol1.kernel) == 1


def rank_mod_p(rows, p):
    """Rank by plain Python-int elimination, the reference."""
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(len(rows[0])):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] % p), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        for i in range(len(rows)):
            if i != rank and rows[i][c] % p:
                f = rows[i][c] * inv
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from([3, 10007, 3037000493, 4294967311]),
    shape=st.tuples(st.integers(1, 5), st.integers(1, 8)),
    seed=st.integers(0, 2**32),
)
def test_nullspace_is_exact_for_every_prime_size(n, shape, seed):
    # ncols * (p - 1)^2 passes 2^63 at the largest modulus, where int64
    # arithmetic would overflow; uniform residues (and rows repeated as
    # multiples of others, for rank deficiency) reach the large products
    rng = random.Random(seed)
    nrows, ncols = shape
    rows = []
    for _ in range(nrows):
        if rows and rng.random() < 0.3:
            rows.append([rng.randrange(n) * x % n for x in rng.choice(rows)])
        else:
            rows.append([rng.randrange(n) for _ in range(ncols)])
    kernel = linalg.nullspace(Zmod(n), rows, ncols)
    for v in kernel:
        assert all(sum(a * b for a, b in zip(r, v)) % n == 0 for r in rows)
    assert rank_mod_p(rows, n) + len(kernel) == ncols


# -- the field engine against a dense reference RREF --------------------------

FIELDS = [Zmod(3), Zmod(10007), Zmod(4294967311), Rationals()]


def reference_rref(ring, rows, ncols):
    """(pivot columns, RREF rows) by dense Gauss-Jordan elimination, one
    column at a time."""
    rows = [[ring.coerce(x) for x in r] for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        i = next((i for i in range(r, len(rows)) if rows[i][c] != ring.zero), None)
        if i is None:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        inv = ring.inv_opt(rows[r][c])
        rows[r] = [ring.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != ring.zero:
                f = rows[i][c]
                rows[i] = [ring.sub(a, ring.mul(f, b)) for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    return pivots, [tuple(r) for r in rows[: len(pivots)]]


def reference_nullspace(ring, rows, ncols):
    """One kernel vector per free column, ascending: 1 there, minus the
    RREF entries of that column at the pivots."""
    pivots, rref = reference_rref(ring, rows, ncols)
    out = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [ring.zero] * ncols
        v[f] = ring.one
        for c, row in zip(pivots, rref):
            v[c] = ring.neg(row[f])
        out.append(tuple(v))
    return out


@st.composite
def systems(draw):
    """(ring, ncols, rows, the rows as fed to the engine): sparse and dense
    rows, some combinations of earlier rows, fed as dicts or as sequences,
    with entries that are multiples of p (zero once reduced)."""
    ring = draw(st.sampled_from(FIELDS))
    ncols = draw(st.integers(1, 7))
    if ring.size is None:
        scalars = st.fractions(-5, 5, max_denominator=4) | st.integers(-3, 3)
    else:
        p = ring.n
        scalars = (st.integers(-3, 3) | st.integers(0, p - 1)
                   | st.integers(-2, 2).map(lambda m: m * p))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        if len(rows) >= 2 and draw(st.booleans()):
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            f, g = draw(scalars), draw(scalars)
            dense = [ring.add(ring.mul(ring.coerce(f), ring.coerce(x)),
                              ring.mul(ring.coerce(g), ring.coerce(y)))
                     for x, y in zip(a, b)]
        else:
            cols = draw(st.sets(st.integers(0, ncols - 1))
                        | st.just(set(range(ncols))))
            dense = [draw(scalars) if c in cols else 0 for c in range(ncols)]
        rows.append(dense)
    as_dict = [draw(st.booleans()) for _ in rows]
    given_rows = [
        {c: x for c, x in enumerate(r) if x or draw(st.booleans())} if d else r
        for r, d in zip(rows, as_dict)
    ]
    return ring, ncols, rows, given_rows


@settings(max_examples=150, deadline=None)
@given(system=systems())
def test_field_engine_matches_dense_reference(system):
    ring, ncols, rows, given_rows = system
    pivots, rref = reference_rref(ring, rows, ncols)
    assert linalg.span_basis(ring, given_rows, ncols) == rref
    assert linalg.nullspace(ring, given_rows, ncols) == reference_nullspace(ring, rows, ncols)
    # solve_linear on the system rows[:-1] x = last column; its rows are
    # sequences
    if ncols >= 2:
        coeffs = [r[:-1] for r in rows]
        rhs = [r[-1] for r in rows]
        sol = linalg.solve_linear(ring, coeffs, rhs)
        if ncols - 1 in pivots:
            assert sol is None
        else:
            part = [ring.zero] * (ncols - 1)
            for c, row in zip(pivots, rref):
                part[c] = row[-1]
            assert sol.particular == tuple(part)
            assert sol.kernel == reference_nullspace(ring, coeffs, ncols - 1)
