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
    cols = [alg.iterated_bracket(e, x, k) for e in alg.basis()]
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
        lambda x: alg.is_zero(alg.iterated_bracket(theta.apply(x), x, k)),
    )


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_rational_witnesses_equal_the_lattice_search(family):
    G = FAMILIES[family](Rationals())
    alg = G.algebra
    R, d = alg.ring, alg.dim
    rng = random.Random(family)
    for k in (1, 2, 3):
        member = commuting_space(alg, k).random_member(rng)
        maps = [member]
        for _ in range(3):
            rows = [list(r) for r in member.rows]
            rows[rng.randrange(d)][rng.randrange(d)] += R.coerce(rng.randint(1, 5))
            maps.append(LinMap(R, rows))
        maps.append(LinMap(R, [[R.coerce(rng.randint(-3, 3)) for _ in range(d)]
                               for _ in range(d)]))
        for theta in maps:
            assert is_k_commuting(alg, theta, k) == reference_is_k_commuting(
                alg, theta, k)


# -- no point evaluation ------------------------------------------------------

def test_the_engine_brackets_no_points(monkeypatch):
    """The constraints come from the coefficients alone: no bracket of two
    elements is taken while building them or accepting a map."""
    algebras = [matrix_algebra(Zmod(4), 2), triangular_matrix_algebra(Rationals(), 3),
                full_matrix_gma(Zmod(3), 2, 1).algebra]

    def refuse(*args):
        raise AssertionError("point evaluation")

    monkeypatch.setattr(algebra.Algebra, "bracket", refuse)
    monkeypatch.setattr(algebra.Algebra, "iterated_bracket", refuse)
    for alg in algebras:
        for k in (1, 2, 3):
            space = commuting_space(_fresh(alg), k)
            _fresh(alg).engel_center(k)
            for theta in space.basis():
                assert is_k_commuting(_fresh(alg), theta, k) == (True, None)
        # the guard is live: point evaluation trips it
        with pytest.raises(AssertionError, match="point evaluation"):
            reference_engel(_fresh(alg), 1)
