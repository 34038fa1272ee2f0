"""The symbolic k-commuting engine against point evaluation.

The reference below is the point-evaluating constraint builder the engine
replaced: it brackets dense vectors at every lattice point and takes the
Newton differences of the values.  The engine must give the same
generator lists (on composite n too, where they are read off the Howell
form of the rows), the same verdicts and the same witnesses.  Over Z/p
below the degree the engine folds the monomials (x_i^p = x_i as
functions); the fold is also checked against the Newton differences it
replaced there, and against every point of (Z/p)^d."""

import itertools
import random
import tracemalloc
from math import comb, factorial, prod

import pytest

from gmalg import algebra
from gmalg.algebra import (
    Algebra,
    Submodule,
    _newton_rows,
    _surjections,
    lattice_check,
    lattice_points,
    stream_rows,
    vanishing_rows,
)
from gmalg.families import (
    block_triangular_gma,
    full_matrix_gma,
    matrix_algebra,
    triangular_gma,
    triangular_matrix_algebra,
)
from gmalg.linalg import kernel_builder
from gmalg.maps import LinMap, commuting_space, is_k_commuting
from gmalg.rings import Rationals, Zmod

from conftest import _in_random_basis, is_zero, iterated_bracket, merged_coefficients

RINGS = (None, 2, 3, 4, 6, 9, 10007)
FAMILIES = {
    "M2": lambda R: full_matrix_gma(R, 2, 1),
    "T2": lambda R: triangular_gma(R, 2, 1),
    "T3": lambda R: triangular_gma(R, 3, 1),
    "B(2,1)": lambda R: block_triangular_gma(R, (2, 1), 1),
}


def _ring(n):
    return Rationals() if n is None else Zmod(n)


# -- the reference: point evaluation and differences of the values ----------

def _minus(ring, rows, others):
    """The rows (dicts column -> scalar) minus the others, row by row."""
    out = []
    for row, other in zip(rows, others):
        row = dict(row)
        for col, v in other.items():
            row[col] = ring.normal(row.get(col, ring.zero) - v)
        out.append(row)
    return out


def reference_kernel(ring, dim, degree, rows_at, ncols):
    """The kernel of the Newton differences D^alpha f(0) of the values f(beta)
    at the lattice points.  D^alpha = D_1^alpha_1 ... D_d^alpha_d, so the
    differences are taken one axis at a time: along each line of axis i,
    which the downward-closed lattice meets in 0..m, the values at 0..m
    become their differences D_i^0..D_i^m in place (at each level, from
    the top down, each value minus the one below it)."""
    scalars = [ring.coerce(b) for b in range(degree + 1)]
    diffs = {
        beta: rows_at(tuple(scalars[b] for b in beta))
        for beta in lattice_points(ring, dim, degree)
    }
    for i in range(dim):
        for level in range(1, degree + 1):
            for beta in sorted((b for b in diffs if b[i] >= level), key=lambda b: -b[i]):
                below = beta[:i] + (beta[i] - 1,) + beta[i + 1:]
                diffs[beta] = _minus(ring, diffs[beta], diffs[below])
    acc = kernel_builder(ring, ncols)
    for alpha, rows in diffs.items():
        if max(alpha, default=0) == sum(alpha) != 1:
            continue
        acc.add_rows(rows)
    return acc.nullspace()


def bracket_rows(alg, x, k):
    cols = [iterated_bracket(alg, e, x, k) for e in alg.basis()]
    return [
        {p: col[r] for p, col in enumerate(cols) if col[r]}
        for r in range(alg.dim)
    ]


def ad_rows(alg, x, k):
    """``bracket_rows`` from the matrix of y -> [y, x], read off the table
    in plain ints: k matrix-vector products per basis element in place of
    k brackets of dense vectors."""
    T, d, normal = alg.table, alg.dim, alg.ring.normal
    ad = [[sum(x[j] * (T[p][j][r] - T[j][p][r]) for j in range(d) if x[j])
           for p in range(d)] for r in range(d)]
    cols = []
    for q in range(d):
        v = [int(p == q) for p in range(d)]
        for _ in range(k):
            v = [normal(sum(a * c for a, c in zip(row, v) if c)) for row in ad]
        cols.append(v)
    return [{p: col[r] for p, col in enumerate(cols) if col[r]} for r in range(d)]


def reference_engel(alg, k, rows=bracket_rows):
    return reference_kernel(alg.ring, alg.dim, k, lambda x: rows(alg, x, k), alg.dim)


def reference_commuting(alg, k, rows=bracket_rows):
    d = alg.dim

    def rows_at(x):
        support = [(q, c) for q, c in enumerate(x) if c]
        return [
            {p * d + q: alg.ring.normal(v * c) for p, v in row.items()
             for q, c in support}
            for row in rows(alg, x, k)
        ]

    return reference_kernel(alg.ring, d, k + 1, rows_at, d * d)


def _fresh(alg):
    """The algebra again, with nothing cached."""
    return Algebra(alg.ring, alg.labels, alg.table, alg.unit)


# -- generators ---------------------------------------------------------------

def _same_generators(alg, k, rows=bracket_rows):
    """``commuting_space`` and ``engel_center`` keep the generator lists
    of the reference, as their ``Submodule`` stores them."""
    d = alg.dim
    space = Submodule(alg.ring, d * d, reference_commuting(alg, k, rows))
    assert commuting_space(alg, k).space.gens == space.gens
    center = Submodule(alg.ring, d, reference_engel(alg, k, rows))
    assert alg.engel_center(k).gens == center.gens


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("n", RINGS)
def test_generators_equal_point_evaluation(family, n):
    G = FAMILIES[family](_ring(n))
    for k in (1, 2, 3, 4):
        for alg in (G.algebra, G.ctx.A, G.ctx.B):
            _same_generators(_fresh(alg), k)


def test_generators_equal_point_evaluation_on_m3_q():
    alg = full_matrix_gma(Rationals(), 3, 1).algebra
    for k in (1, 2, 3):
        _same_generators(alg, k)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("p", (2, 3, 5))
def test_generators_equal_point_evaluation_in_a_random_basis(family, p):
    """In a random basis the structure constants are dense, so over Z/p
    with p < k+1 many coefficients of [theta(x), x]_k fold together (fewer
    blocks than coefficients): at k = p-1..p+1 the generators must still
    be the reference's.  The reference brackets through ``ad_rows``, which
    gives ``bracket_rows`` at the points checked first."""
    R = Zmod(p)
    base = FAMILIES[family](R).algebra
    merged = False
    for seed in (1, 2):
        alg = _in_random_basis(base, random.Random(seed))[0]
        rng = random.Random(seed)
        for k in range(max(1, p - 1), p + 2):
            x = tuple(R.coerce(rng.randrange(p)) for _ in range(alg.dim))
            assert ad_rows(alg, x, k) == bracket_rows(alg, x, k)
            coeffs = merged_coefficients(_fresh(alg).commuting_groups(k))
            blocks = list(vanishing_rows(R, coeffs, k + 1, alg.dim))
            assert len(blocks) <= len(coeffs)
            assert len(blocks) == len(coeffs) or p < k + 1
            merged |= len(blocks) < len(coeffs)
            _same_generators(_fresh(alg), k, ad_rows)
    assert merged


# -- the fold against the Newton differences and every point ------------------

def _folded(gamma, p):
    """The monomial gamma (a sorted index tuple) reduced modulo the
    x_i^p - x_i."""
    return tuple(i for i in sorted(set(gamma))
                 for _ in range(1 + (gamma.count(i) - 1) % (p - 1)))


def _random_rows(rng, p):
    """A random coefficient over 3 unknowns in 2 output rows, as the
    entries {(row, unknown): scalar}."""
    return {(rng.randrange(2), rng.randrange(3)): rng.randrange(1, p)
            for _ in range(rng.randint(1, 3))}


def _random_coefficients(rng, p, d, degree):
    """A sparse homogeneous f of degree ``degree`` in d variables, its
    coefficients as rows (see ``vanishing_rows``): a few random monomials,
    and pairs of monomials that fold together with opposite coefficients,
    so that some least-index groups vanish on (Z/p)^d without being 0."""
    monomials = list(itertools.combinations_with_replacement(range(d), degree))
    classes = {}
    for gamma in monomials:
        classes.setdefault(_folded(gamma, p), []).append(gamma)
    pairs = [c for c in classes.values() if len(c) > 1]
    terms = {}

    def add(gamma, entries, sign):
        acc = terms.setdefault(gamma, {})
        for key, v in entries.items():
            acc[key] = (acc.get(key, 0) + sign * v) % p

    for _ in range(rng.randint(0, 2)):
        add(rng.choice(monomials), _random_rows(rng, p), 1)
    for _ in range(rng.randint(0, 3) if pairs else 0):
        entries = _random_rows(rng, p)
        a, b = rng.sample(rng.choice(pairs), 2)
        add(a, entries, 1)
        add(b, entries, -1)
    coeffs = {}
    for gamma, entries in terms.items():
        for (r, col), v in entries.items():
            if v:
                coeffs.setdefault(gamma, {}).setdefault(r, {})[col] = v
    return coeffs


def _groups(coeffs):
    """The coefficients by the least index of their monomial."""
    groups = {}
    for gamma, rows in coeffs.items():
        groups.setdefault(gamma[0], {})[gamma] = rows
    return groups


def _kernel(ring, blocks):
    acc = kernel_builder(ring, 3)
    for block in blocks:
        acc.add_rows(block)
    return acc.nullspace()


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_the_fold_decides_as_the_newton_differences(p):
    """On random sparse homogeneous coefficient sets (degree 2..6, d <= 4)
    the folded rows and ``_newton_rows`` give the same kernel, for all of
    f and for each least-index group, and so the same verdict."""
    R, rng = Zmod(p), random.Random(p)
    verdicts = set()
    for _ in range(150):
        d, degree = rng.randint(1, 4), rng.randint(2, 6)
        coeffs = _random_coefficients(rng, p, d, degree)
        for part in (coeffs, *_groups(coeffs).values()):
            fold = list(vanishing_rows(R, part, degree, d))
            newton = list(_newton_rows(R, part, degree, d))
            assert (fold == []) == (newton == [])
            assert _kernel(R, fold) == _kernel(R, newton)
            verdicts.add((bool(part), fold == []))
    assert verdicts >= {(True, False), (False, True)}
    if p < 6:
        assert (True, True) in verdicts    # some nonzero f vanish


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_a_group_folds_to_no_rows_iff_it_vanishes_everywhere(p):
    """On (Z/p)^d, d <= 3, by brute force: a least-index group's folded
    rows vanish iff its polynomial is 0 at every point."""
    R, rng = Zmod(p), random.Random(f"points/{p}")
    seen = set()
    for _ in range(100):
        d, degree = rng.randint(1, 3), rng.randint(2, 6)
        for group in _groups(_random_coefficients(rng, p, d, degree)).values():
            def value(x, r, col):
                return sum(rows.get(r, {}).get(col, 0) * prod(x[i] for i in gamma)
                           for gamma, rows in group.items()) % p

            zero = not any(value(x, r, col) for x in itertools.product(range(p), repeat=d)
                           for r in range(2) for col in range(3))
            assert (next(vanishing_rows(R, group, degree, d), None) is None) == zero
            seen.add(zero)
    assert seen == ({True, False} if p < 6 else {False})    # nothing folds at p = 7


# -- the Newton differences, block by block -----------------------------------

def _commuting_values(alg, x, k):
    """f(x) = [theta(x), x]_k as rows over vec(theta), by bracketing at x
    (as ``reference_commuting`` reads it): a dict (r, p*d+q) -> scalar."""
    d = alg.dim
    return {(r, p * d + q): alg.ring.normal(v * c)
            for r, row in enumerate(bracket_rows(alg, x, k))
            for p, v in row.items() for q, c in enumerate(x) if c}


def _difference_blocks(alg, k):
    """(alpha, the block of D^alpha f(0)) for each lattice point alpha of
    degree k+1, in ``lattice_points`` order, where D^alpha f(0) = sum over
    beta <= alpha of (-1)^|alpha - beta| C(alpha, beta) f(beta) is not 0;
    alpha = 0 and the m*e_i (m >= 2) left out, as ``_newton_rows`` does.
    A beta <= alpha comes before alpha, so its value is there."""
    R, d = alg.ring, alg.dim
    values, out = {}, []
    for alpha in lattice_points(R, d, k + 1):
        values[alpha] = _commuting_values(alg, alpha, k)
        if max(alpha, default=0) == sum(alpha) != 1:
            continue
        acc = {}
        for beta in itertools.product(*(range(a + 1) for a in alpha)):
            w = (-1) ** (sum(alpha) - sum(beta)) * prod(map(comb, alpha, beta))
            for key, v in values[beta].items():
                acc[key] = acc.get(key, 0) + w * v
        rows = {}
        for (r, col), v in acc.items():
            if x := R.normal(v):
                rows.setdefault(r, {})[col] = x
        if rows:
            out.append((alpha, [rows[r] for r in sorted(rows)]))
    return out


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("n", (4, 6, 9))
def test_newton_blocks_are_the_differences_of_the_point_values(family, n):
    """Each block of ``_newton_rows`` is the next nonzero Newton difference
    D^alpha f(0) of the values f(beta) that bracketing gives, row for row:
    on all of f, and read group by group (``stream_rows``), where the
    blocks of least index t come before those of lower t.  A kernel
    comparison cannot tell the differences from another unitriangular
    recombination of the values; this can."""
    R = Zmod(n)
    base = FAMILIES[family](R).algebra
    for alg in (base, _in_random_basis(base, random.Random(n))[0]):
        for k in (1, 2, 3):
            expected = _difference_blocks(alg, k)
            fresh = _fresh(alg)
            coeffs = merged_coefficients(fresh.commuting_groups(k))
            assert list(_newton_rows(R, coeffs, k + 1, alg.dim)) \
                == [block for _, block in expected]
            by_group = sorted(expected, key=lambda e: -min(i for i, a in enumerate(e[0]) if a))
            assert list(stream_rows(R, fresh.commuting_groups(k), k + 1, alg.dim)) \
                == [block for _, block in by_group]


# -- Stirling differences -----------------------------------------------------

def test_surjection_numbers_are_the_differences_of_powers():
    """The table holds the residues mod n, in the columns a <= min(6, n - 1)."""
    for n in (2, 3, 4, 6, 9, 10007):
        table = _surjections(6, n)
        for g in range(7):
            assert len(table[g]) == min(6, n - 1) + 1
            for a in range(min(6, n - 1) + 1):
                direct = sum((-1) ** (a - j) * comb(a, j) * j ** g for j in range(a + 1))
                assert table[g][a] == direct % n, (n, g, a)
    assert _surjections(6, 10007)[6][3] == factorial(3) * 90      # S(6, 3) = 90


def test_the_newton_weights_stay_small_in_k():
    """Deciding a map of M2(Z/4) at k = 800 builds the weights of degree
    801 mod 4: a few columns of small residues, not the 801 x 801 table of
    a! S(g, a), whose entries run to thousands of digits."""
    R = Zmod(4)
    theta = LinMap(R, [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    _surjections.cache_clear()
    tracemalloc.start()
    try:
        verdict = is_k_commuting(full_matrix_gma(R, 2, 1), theta, 800)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict == (False, (0, 1, 0, 1))
    assert peak < 32 * 2**20


# -- verdicts and witnesses ---------------------------------------------------

def reference_is_k_commuting(alg, theta, k):
    return lattice_check(
        alg.ring, alg.dim, k + 1,
        lambda x: is_zero(iterated_bracket(alg, theta.apply(x), x, k)),
    )


@pytest.mark.parametrize("family, n", [
    # the Q cases keep the ids they had before the finite rings were added
    pytest.param(family, n, id=family if n is None else f"{family}-{n}")
    for n in RINGS for family in sorted(FAMILIES)
])
def test_rational_witnesses_equal_the_lattice_search(family, n):
    """The witness, found from the lead coordinate on, is the one of the
    search without a lead on point evaluation: over Q, over Z/p with
    p < k+1 and p >= k+1, and over composite n."""
    G = FAMILIES[family](_ring(n))
    alg = G.algebra
    R, d = alg.ring, alg.dim
    rng = random.Random(family)
    draw = (lambda: rng.randint(1, 5)) if n is None else (lambda: rng.randrange(1, n))
    for k in (1, 2, 3):
        member = commuting_space(alg, k).random_member(rng)
        maps = [member]
        for _ in range(3):
            rows = [list(r) for r in member.rows]
            i, j = rng.randrange(d), rng.randrange(d)
            rows[i][j] = R.normal(rows[i][j] + R.coerce(draw()))
            maps.append(LinMap(R, rows))
        maps.append(LinMap(R, [[R.coerce(rng.randint(-3, 3)) for _ in range(d)]
                               for _ in range(d)]))
        for theta in maps:
            assert is_k_commuting(alg, theta, k) == reference_is_k_commuting(
                alg, theta, k)


def test_a_lead_keeps_the_witness():
    """``lattice_check`` from a lead t gives the witness of the search
    without one, and evaluates no point whose first t+1 coordinates are
    zero.  f(x) = x_2 (x_2 - 1) x_3 is zero where x_0 = x_1 = x_2 = 0 and
    not where only x_0 = x_1 = 0, so its lead is 2; its first failing point
    has x_2 = 2.  g(x) = x_0 (x_1 - 2) has lead 0."""
    for ring in (Rationals(), Zmod(5), Zmod(9)):
        def f(x):
            return ring.normal(x[2] * (x[2] - 1) * x[3])

        for dim, degree, lead, poly, witness in (
            (4, 3, 2, f, (0, 0, 2, 1)),
            (2, 2, 0, lambda x: ring.normal(x[0] * (x[1] - 2)), (1, 0)),
        ):
            points = []

            def holds(x):
                points.append(x)
                return not poly(x)

            assert lattice_check(ring, dim, degree, holds) == (False, witness)
            assert any(not any(x[:lead + 1]) for x in points)
            points.clear()
            assert lattice_check(ring, dim, degree, holds, lead=lead) == (False, witness)
            assert points and all(any(x[:lead + 1]) for x in points)


# -- no point evaluation ------------------------------------------------------

def test_the_engine_brackets_no_points(monkeypatch):
    """The constraints come from the coefficients alone: no bracket of two
    elements is taken while building them or accepting a map."""
    algebras = [matrix_algebra(Zmod(4), 2), triangular_matrix_algebra(Rationals(), 3),
                full_matrix_gma(Zmod(3), 2, 1).algebra]

    def refuse(*args):
        raise AssertionError("point evaluation")

    monkeypatch.setattr(algebra.Algebra, "bracket", refuse)
    for alg in algebras:
        for k in (1, 2, 3):
            space = commuting_space(_fresh(alg), k)
            _fresh(alg).engel_center(k)
            for theta in space.basis():
                assert is_k_commuting(_fresh(alg), theta, k) == (True, None)
        # the guard is live: point evaluation trips it
        with pytest.raises(AssertionError, match="point evaluation"):
            reference_engel(_fresh(alg), 1)
