"""The symbolic k-commuting engine against point evaluation.

The reference below is the point-evaluating constraint builder the engine
replaced: it brackets dense vectors at every lattice point and takes the
Newton differences of the values.  The engine must give the same
generator lists (on composite n too, where they are read off the Howell
form of the rows), the same verdicts and the same witnesses."""

import itertools
import random
from math import comb, factorial, prod

import pytest

from gmalg import algebra
from gmalg.algebra import (
    Algebra,
    Submodule,
    _surjections,
    lattice_check,
    lattice_points,
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

from conftest import is_zero, iterated_bracket

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

def reference_kernel(ring, dim, degree, rows_at, ncols):
    scalars = [ring.coerce(b) for b in range(degree + 1)]
    values = {
        beta: rows_at(tuple(scalars[b] for b in beta))
        for beta in lattice_points(ring, dim, degree)
    }
    acc = kernel_builder(ring, ncols)
    for alpha, rows in values.items():
        if max(alpha, default=0) == sum(alpha) != 1:
            continue
        diff = [{} for _ in rows]
        for gamma in itertools.product(*(range(a + 1) for a in alpha)):
            c = (-1) ** (sum(alpha) - sum(gamma)) * prod(map(comb, alpha, gamma))
            for out, row in zip(diff, values[gamma]):
                for col, v in row.items():
                    out[col] = ring.add(out.get(col, ring.zero), ring.mul(c, v))
        acc.add_rows(diff)
    return acc.nullspace()


def bracket_rows(alg, x, k):
    cols = [iterated_bracket(alg, e, x, k) for e in alg.basis()]
    return [
        {p: col[r] for p, col in enumerate(cols) if col[r]}
        for r in range(alg.dim)
    ]


def reference_engel(alg, k):
    return reference_kernel(alg.ring, alg.dim, k,
                            lambda x: bracket_rows(alg, x, k), alg.dim)


def reference_commuting(alg, k):
    d = alg.dim

    def rows_at(x):
        support = [(q, c) for q, c in enumerate(x) if c]
        return [
            {p * d + q: alg.ring.mul(v, c) for p, v in row.items()
             for q, c in support}
            for row in bracket_rows(alg, x, k)
        ]

    return reference_kernel(alg.ring, d, k + 1, rows_at, d * d)


def _fresh(alg):
    """The algebra again, with nothing cached."""
    return Algebra(alg.ring, alg.labels, alg.table, alg.unit)


# -- generators ---------------------------------------------------------------

def _same_generators(alg, k):
    """``commuting_space`` and ``engel_center`` keep the generator lists
    of the reference, as their ``Submodule`` stores them."""
    d = alg.dim
    space = Submodule(alg.ring, d * d, reference_commuting(alg, k))
    assert commuting_space(alg, k).space.gens == space.gens
    center = Submodule(alg.ring, d, reference_engel(alg, k))
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


# -- Stirling differences -----------------------------------------------------

def test_surjection_numbers_are_the_differences_of_powers():
    table = _surjections(6)
    for g in range(7):
        for a in range(7):
            direct = sum((-1) ** (a - j) * comb(a, j) * j ** g for j in range(a + 1))
            assert table[g][a] == direct, (g, a)
    assert table[6][3] == factorial(3) * 90      # S(6, 3) = 90


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
            rows[i][j] = R.add(rows[i][j], R.coerce(draw()))
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
            return ring.mul(ring.mul(x[2], ring.sub(x[2], 1)), x[3])

        for dim, degree, lead, poly, witness in (
            (4, 3, 2, f, (0, 0, 2, 1)),
            (2, 2, 0, lambda x: ring.mul(x[0], ring.sub(x[1], 2)), (1, 0)),
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
