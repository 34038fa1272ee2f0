import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmalg import linalg
from gmalg.algebra import Submodule
from gmalg.errors import DimensionMismatch, TheoremViolation
from gmalg.families import matrix_algebra, triangular_matrix_algebra
from gmalg.maps import commuting_space
from gmalg.rings import Rationals, Zmod

from conftest import _in_random_basis, nullspace


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


def dict_rows(rows):
    """Dense rows as the dicts column -> scalar that ``solve_linear`` takes."""
    return [dict(enumerate(r)) for r in rows]


def test_solve_2x_eq_2_mod_4():
    R = Zmod(4)
    sol = linalg.solve_linear(R, [{0: 2}], [2], 1)
    assert all_solutions(sol, R, 1) == [(1,), (3,)]


def test_solve_inconsistent_mod_3():
    sol = linalg.solve_linear(Zmod(3), [{}], [1], 1)
    assert sol is None


def test_solve_unique_over_q():
    Q = Rationals()
    sol = linalg.solve_linear(Q, [{0: 1, 1: 1}, {0: 1, 1: -1}], [1, 1], 2)
    assert sol is not None
    assert sol.particular == (Fraction(1), Fraction(0))
    assert sol.kernel == []


def test_solve_matches_brute_force_composite():
    R = Zmod(6)
    rows = [[2, 3], [4, 0]]
    rhs = [1, 2]
    sol = linalg.solve_linear(R, dict_rows(rows), rhs, 2)
    assert all_solutions(sol, R, 2) == brute_solutions_zmod(6, rows, rhs, 2)


def test_solve_matches_brute_force_prime():
    R = Zmod(5)
    rows = [[1, 2, 3], [2, 4, 1]]
    rhs = [1, 2]
    sol = linalg.solve_linear(R, dict_rows(rows), rhs, 3)
    assert all_solutions(sol, R, 3) == brute_solutions_zmod(5, rows, rhs, 3)


def test_nullspace_prime_field():
    gens = nullspace(Zmod(3), [[1, 1, 1]], 3)
    assert len(gens) == 2
    for g in gens:
        assert sum(g) % 3 == 0


def test_nullspace_composite():
    gens = nullspace(Zmod(4), [[2]], 1)
    assert gens == [(2,)]


def test_nullspace_over_q():
    Q = Rationals()
    gens = nullspace(Q, [[Fraction(1), Fraction(2)]], 2)
    assert len(gens) == 1
    g = gens[0]
    assert g[0] + 2 * g[1] == 0


def test_span_basis_canonical():
    R = Zmod(3)
    a = linalg.howell_form(R, [(1, 2, 0), (0, 1, 1)], 3).basis()
    b = linalg.howell_form(R, [(1, 0, 1), (0, 1, 1), (2, 1, 0)], 3).basis()
    assert a == b


def test_solve_underdetermined_particular_deterministic():
    R = Zmod(7)
    sol1 = linalg.solve_linear(R, [{0: 1, 1: 1}], [3], 2)
    sol2 = linalg.solve_linear(R, [{0: 1, 1: 1}], [3], 2)
    assert sol1.particular == sol2.particular
    assert len(sol1.kernel) == 1


@pytest.mark.parametrize("ring", [Zmod(4), Rationals()], ids=["Z/4", "Q"])
def test_solve_no_rows_over_ncols_columns(ring):
    """With no equations every vector solves: the zero vector plus the
    unit vectors."""
    sol = linalg.solve_linear(ring, [], [], 3)
    assert sol.particular == (0, 0, 0)
    assert sorted(sol.kernel) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


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
    kernel = nullspace(Zmod(n), rows, ncols)
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
        rows[r] = [ring.normal(inv * x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != ring.zero:
                f = rows[i][c]
                rows[i] = [ring.normal(a - f * b) for a, b in zip(rows[i], rows[r])]
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
            v[c] = ring.normal(-row[f])
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
            dense = [ring.normal(ring.coerce(f) * ring.coerce(x) + ring.coerce(g) * ring.coerce(y))
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


def normal_rows(ring, rows):
    """``rows`` (dicts column -> scalar, or sequences) with each scalar in
    normal form: the engine takes ring elements as they are, and coerces
    nothing."""
    return [{c: ring.coerce(x) for c, x in r.items()} if isinstance(r, dict)
            else [ring.coerce(x) for x in r] for r in rows]


@settings(max_examples=150, deadline=None)
@given(system=systems())
def test_field_engine_matches_dense_reference(system):
    ring, ncols, rows, given_rows = system
    given_rows = normal_rows(ring, given_rows)
    pivots, rref = reference_rref(ring, rows, ncols)
    assert linalg.howell_form(ring, given_rows, ncols).basis() == rref
    assert nullspace(ring, given_rows, ncols) == reference_nullspace(ring, rows, ncols)
    # solve_linear on the system rows[:-1] x = last column
    if ncols >= 2:
        coeffs = [r[:-1] for r in rows]
        rhs = [r[-1] for r in rows]
        sol = linalg.solve_linear(ring, dict_rows(normal_rows(ring, coeffs)),
                                  normal_rows(ring, [rhs])[0], ncols - 1)
        if ncols - 1 in pivots:
            assert sol is None
        else:
            part = [ring.zero] * (ncols - 1)
            for c, row in zip(pivots, rref):
                part[c] = row[-1]
            assert sol.particular == tuple(part)
            assert sol.kernel == reference_nullspace(ring, coeffs, ncols - 1)


# -- the Howell form over composite Z/n against enumeration -------------------

def enumerated_span(n, vectors, ncols):
    """Every element of the span, by closing {0} under adding a vector."""
    out = {(0,) * ncols}
    frontier = list(out)
    while frontier:
        new = set()
        for v in frontier:
            for g in vectors:
                new.add(tuple((a + b) % n for a, b in zip(v, g)))
        frontier = new - out
        out |= frontier
    return out


def solutions(n, rows, rhs, ncols):
    """Every x in (Z/n)^ncols with rows @ x = rhs."""
    return {x for x in itertools.product(range(n), repeat=ncols)
            if all(sum(a * c for a, c in zip(r, x)) % n == b
                   for r, b in zip(rows, rhs))}


@st.composite
def composite_systems(draw):
    """(n, ncols, rows, the rows again shuffled with combinations of them
    added): entries biased to zero divisors of n."""
    n = draw(st.sampled_from([4, 6, 8, 9, 12]))
    ncols = draw(st.integers(1, 4 if n <= 6 else 3))
    divisors = [d for d in range(2, n) if n % d == 0]
    scalars = st.integers(0, n - 1) | st.sampled_from(divisors) | st.just(0)
    rows = [draw(st.lists(scalars, min_size=ncols, max_size=ncols))
            for _ in range(draw(st.integers(0, 5)))]
    rng = random.Random(draw(st.integers(0, 2**32)))
    again = rows[:]
    for _ in range(2 if rows else 0):
        f, g = rng.randrange(n), rng.randrange(n)
        a, b = rng.choice(rows), rng.choice(rows)
        again.append([(f * x + g * y) % n for x, y in zip(a, b)])
    rng.shuffle(again)
    return n, ncols, rows, again


@settings(max_examples=80, deadline=None)
@given(system=composite_systems())
def test_howell_form_matches_enumeration(system):
    n, ncols, rows, again = system
    ring = Zmod(n)
    span = enumerated_span(n, [tuple(r) for r in rows], ncols)
    # the canonical basis spans the rows and does not depend on how they
    # were given
    basis = linalg.howell_form(ring, rows, ncols).basis()
    assert enumerated_span(n, basis, ncols) == span
    assert linalg.howell_form(ring, again, ncols).basis() == basis
    # the kernel and the solutions of rows[:, :-1] x = rows[:, -1]
    kernel = solutions(n, rows, [0] * len(rows), ncols)
    assert enumerated_span(n, nullspace(ring, rows, ncols), ncols) == kernel
    if rows and ncols >= 2:
        coeffs, rhs = [r[:-1] for r in rows], [r[-1] for r in rows]
        sol = linalg.solve_linear(ring, dict_rows(coeffs), rhs, ncols - 1)
        got = set() if sol is None else {
            tuple((p + v) % n for p, v in zip(sol.particular, w))
            for w in enumerated_span(n, sol.kernel, ncols - 1)}
        assert got == solutions(n, coeffs, rhs, ncols - 1)
    # membership and equality of submodules
    sub = Submodule(ring, ncols, rows)
    assert all(sub.contains(x) == (x in span)
               for x in itertools.product(range(n), repeat=ncols))
    assert sub.equals(Submodule(ring, ncols, again))
    fewer = Submodule(ring, ncols, rows[1:])
    assert sub.equals(fewer) == (
        enumerated_span(n, [tuple(r) for r in rows[1:]], ncols) == span)


# -- membership and the annihilator off the accumulator of the span -----------

def in_span(ring, basis, v):
    """Whether v lies in the span of ``basis``, the rows of a Howell form:
    reduced by them densely in pivot order, each entry at a pivot to its
    remainder modulo the lead (1 over a field, a divisor of n over Z/n), v
    must leave nothing."""
    v = list(v)
    for g in basis:
        c = next(i for i, x in enumerate(g) if x)
        q = v[c] if g[c] == 1 else v[c] // g[c]
        if q:
            v = [ring.normal(a - q * b) for a, b in zip(v, g)]
    return not any(v)


SPAN_RINGS = [Zmod(n) for n in (4, 6, 8, 9, 12)] + [Zmod(5), Zmod(7), Rationals()]


def seeded_spans(ring, seed):
    """(submodule, its generators, vectors to test) on a seeded stream:
    over Z/n the entries lean to zero divisors (2, 3, 6, ...), so the
    Howell rows have leads that are not units; the vectors are combinations
    of the generators and random vectors."""
    rng, n = random.Random(f"{seed}/{ring!r}"), ring.size
    if n:
        scalars = [0] * 4 + list(range(n)) + [d for d in range(2, n) if n % d == 0] * 3
    else:
        scalars = [0, 0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)]
    for _ in range(60):
        ncols = rng.randint(1, 4)
        gens = [tuple(ring.normal(rng.choice(scalars)) for _ in range(ncols))
                for _ in range(rng.randint(0, 3))]
        vectors = [tuple(ring.normal(sum(c * g[j] for c, g in zip(cs, gens)))
                         for j in range(ncols))
                   for cs in ([rng.choice(scalars) for _ in gens] for _ in range(8))]
        vectors += [tuple(ring.normal(rng.choice(scalars)) for _ in range(ncols))
                    for _ in range(24)]
        yield Submodule(ring, ncols, gens), gens, vectors


@pytest.mark.parametrize("ring", SPAN_RINGS, ids=repr)
def test_membership_equals_the_dense_reduction(ring):
    """``Submodule.contains`` reduces a vector with the accumulator the
    span was built from; it decides as the dense reduction by the basis
    rows does, on members and non-members, and keeps its length check."""
    nonunit = members = others = 0
    for sub, gens, vectors in seeded_spans(ring, "membership"):
        nonunit += any(next(filter(None, g)) != 1 for g in sub.gens)
        assert all(sub.contains(g) for g in gens)
        for v in vectors:
            inside = in_span(ring, sub.gens, v)
            assert sub.contains(v) == inside, (sub.gens, v)
            members += inside
            others += not inside
    assert members and others
    assert nonunit or ring.is_field
    with pytest.raises(DimensionMismatch, match="vector length mismatch"):
        sub.contains((ring.zero,) * (sub.ambient_dim + 1))


@pytest.mark.parametrize("ring", SPAN_RINGS, ids=repr)
def test_the_annihilator_is_read_off_the_accumulator(ring, monkeypatch):
    """``Submodule.annihilator`` is the kernel of the basis rows, as a
    second elimination of them finds it, and feeds no row to any
    accumulator."""
    subs = [sub for sub, _, _ in seeded_spans(ring, "annihilator")]
    fed = []
    monkeypatch.setattr(linalg._HowellAccumulator, "add_rows",
                        lambda self, block: fed.append(block))
    got = [sub.annihilator() for sub in subs]
    assert fed == []
    monkeypatch.undo()
    assert got == [linalg.certified_kernel(ring, [sub.gens], sub.ambient_dim) for sub in subs]


@pytest.mark.parametrize("alg", [matrix_algebra(Zmod(9), 2),
                                 triangular_matrix_algebra(Zmod(4), 3)],
                         ids=["M2(Z/9)", "T3(Z/4)"])
def test_commuting_space_in_a_random_basis_is_the_conjugate(alg):
    """Dense structure constants over composite n: the 1-commuting maps of
    the algebra in a random basis are P^-1 theta P for those in the
    standard basis."""
    n, d = alg.ring.n, alg.dim
    moved, P, Pinv = _in_random_basis(alg, random.Random(5))

    def conjugate(flat):
        theta = [flat[i * d:(i + 1) * d] for i in range(d)]
        return tuple(sum(Pinv[i][a] * theta[a][b] * P[b][j]
                         for a in range(d) for b in range(d)) % n
                     for i in range(d) for j in range(d))

    standard = commuting_space(alg, 1).space
    expected = Submodule(alg.ring, d * d, [conjugate(g) for g in standard.gens])
    assert commuting_space(moved, 1).space.equals(expected)


# -- kernels stopped at a certified size ---------------------------------------

def _pulled_until_closed(blocks, log):
    """``blocks`` as a stream that logs each block pulled."""
    for i, block in enumerate(blocks):
        log.append(i)
        yield block


@pytest.mark.parametrize("n", [4, 6, 8, 9, 12])
def test_the_kernel_size_read_off_the_howell_leads_is_the_enumerated_one(n):
    """n^ncols / prod(n/lead) over the Howell rows of a random system is the
    number of its solutions, and ``certified_kernel`` stops at a lower
    bound of that size, pulling no further block, and at no smaller one."""
    ring, rng = Zmod(n), random.Random(f"size/{n}")
    for _ in range(40):
        ncols = rng.randint(1, 3)
        rows = [[rng.randrange(n) for _ in range(ncols)] for _ in range(rng.randint(0, 3))]
        kernel = [x for x in itertools.product(range(n), repeat=ncols)
                  if all(sum(a * b for a, b in zip(r, x)) % n == 0 for r in rows)]
        acc = linalg.kernel_builder(ring, ncols)
        acc.add_rows(rows)
        assert n ** ncols // math.prod(n // r[c] for c, r in acc.rows.items()) == len(kernel)
        whole = Submodule(ring, ncols, kernel)
        log = []
        blocks = _pulled_until_closed([rows, [[1] * ncols]], log)
        assert linalg.certified_kernel(ring, blocks, ncols, whole.gens) == whole.gens
        assert log == ([0] if len(kernel) < n ** ncols else [])
        part = Submodule(ring, ncols, [rng.choice(kernel)])
        if len(span_of(n, part.gens, ncols)) < len(kernel):
            got = linalg.certified_kernel(ring, [rows], ncols, part.gens)
            assert Submodule(ring, ncols, got).equals(whole)


def span_of(n, gens, ncols):
    return {tuple(sum(c * g[j] for c, g in zip(cs, gens)) % n for j in range(ncols))
            for cs in itertools.product(range(n), repeat=len(gens))}


@pytest.mark.parametrize("ring", [Rationals(), Zmod(5), Zmod(9)], ids=repr)
def test_a_lower_bound_outside_the_kernel_is_a_violation(ring):
    """The kernel of x_0 = 0 has the size of span((1, 0)), which fails the
    row; {x : x_0 = x_1 = 0} is smaller than span((1, 0))."""
    with pytest.raises(TheoremViolation):
        linalg.certified_kernel(ring, [[[1, 0]]], 2, [(1, 0)])
    with pytest.raises(TheoremViolation):
        linalg.certified_kernel(ring, [[[1, 0]], [[0, 1]]], 2, [(1, 0)])
    assert linalg.certified_kernel(ring, [[[1, 0]]], 2, [(0, 1)]) == [(0, 1)]


# -- one routine: solves and the row-count short-circuit ------------------------

@pytest.mark.parametrize("n", [4, 6, 8, 9, 12])
def test_solve_linear_matches_enumeration_on_dict_systems(n):
    """Every solution of a random sparse system, and None exactly when
    there is none; among the systems are some whose right-hand side column
    gets a pivot of non-unit lead, as 2x = 1 over Z/4 does."""
    ring, rng = Zmod(n), random.Random(f"solve/{n}")
    divisors = [d for d in range(2, n) if n % d == 0]
    assert linalg.solve_linear(Zmod(4), [{0: 2}], [1], 1) is None
    nonunit_rhs = 0
    for _ in range(80):
        ncols = rng.randint(1, 3 if n <= 9 else 2)
        rows = [{c: rng.choice(divisors) if rng.random() < 0.5 else rng.randrange(1, n)
                 for c in rng.sample(range(ncols), rng.randint(0, ncols))}
                for _ in range(rng.randint(0, 3))]
        rhs = [rng.choice([0, 1, *divisors]) for _ in rows]
        acc = linalg.kernel_builder(ring, ncols + 1)
        acc.add_rows([{**r, ncols: b} for r, b in zip(rows, rhs)])
        nonunit_rhs += acc.rows.get(ncols, {ncols: 1})[ncols] != 1
        dense = [[r.get(c, 0) for c in range(ncols)] for r in rows]
        sol = linalg.solve_linear(ring, rows, rhs, ncols)
        got = set() if sol is None else {
            tuple((p + v) % n for p, v in zip(sol.particular, w))
            for w in enumerated_span(n, sol.kernel, ncols)}
        assert got == solutions(n, dense, rhs, ncols)
    assert nonunit_rhs > 0


def _size_test_only(ring, blocks, ncols, lower):
    """``certified_kernel`` without its row-count short-circuit: the size
    of the kernel so far compared with that of ``lower`` before every block."""
    acc = linalg.kernel_builder(ring, ncols)
    n = ring.size or 2
    span = n ** ncols // math.prod(n // next(filter(None, g)) for g in lower)
    blocks = iter(blocks)
    while n ** len(acc.rows) // math.prod(r[c] for c, r in acc.rows.items()) < span:
        block = next(blocks, None)
        if block is None:
            return acc.nullspace()
        acc.add_rows(block)
    return list(lower)


@pytest.mark.parametrize("ring", [Zmod(4), Zmod(8), Zmod(9), Rationals()], ids=repr)
def test_the_row_count_short_circuit_keeps_the_kernel_and_the_blocks_pulled(ring):
    """On random block sequences, each with a random submodule ``lower`` of
    its kernel (over Z/n with leads that are not units among them),
    ``certified_kernel`` returns what the size test alone returns and pulls
    as many blocks."""
    rng = random.Random(f"short-circuit/{ring!r}")
    n = ring.size
    scalars = range(n) if n else [0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)]
    nonunit_leads = 0
    for _ in range(80):
        ncols = rng.randint(1, 5)
        blocks = [[{c: ring.normal(rng.choice(scalars))
                    for c in rng.sample(range(ncols), rng.randint(0, ncols))}
                   for _ in range(rng.randint(0, 3))]
                  for _ in range(rng.randint(1, 4))]
        acc = linalg.kernel_builder(ring, ncols)
        acc.add_rows([r for b in blocks for r in b])
        kernel = acc.nullspace()
        members = [tuple(ring.normal(sum(c * g[j] for c, g in zip(cs, kernel)))
                         for j in range(ncols))
                   for cs in ([rng.choice(scalars) for _ in kernel]
                              for _ in range(rng.randint(0, 3)))]
        lower = linalg.howell_form(ring, members, ncols).basis()
        nonunit_leads += any(next(filter(None, g)) != 1 for g in lower)
        pulled, pulled_ref = [], []
        got = linalg.certified_kernel(ring, _pulled_until_closed(blocks, pulled), ncols, lower)
        ref = _size_test_only(ring, _pulled_until_closed(blocks, pulled_ref), ncols, lower)
        assert got == ref
        assert pulled == pulled_ref
    assert nonunit_leads > 0 or n is None
