import random

import pytest

from gmalg import linalg
from gmalg.algebra import Submodule
from gmalg.errors import BudgetExceeded, NotEnumerable
from gmalg.families import (
    block_triangular_gma,
    full_matrix_gma,
    matrix_algebra,
    triangular_gma,
    triangular_matrix_algebra,
)
from gmalg.maps import LinMap, commuting_space, is_k_commuting, properness_certificate
from gmalg.oracle import (
    _bracket_power,
    _structure,
    brute_center,
    brute_k_commuting,
    brute_properness,
    brute_zk,
    enumerate_elements,
)
from gmalg.rings import Rationals, Zmod


def test_enumeration_counts():
    A = triangular_matrix_algebra(Zmod(2), 2)
    assert len(list(enumerate_elements(A))) == 8
    B = matrix_algebra(Zmod(3), 2)
    assert len(set(enumerate_elements(B))) == 81


def test_enumeration_order_is_lexicographic():
    A = triangular_matrix_algebra(Zmod(2), 2)
    out = list(enumerate_elements(A))
    assert out[0] == (0, 0, 0)
    assert out[1] == (0, 0, 1)
    assert out[-1] == (1, 1, 1)


def test_enumeration_guards():
    big = matrix_algebra(Zmod(5), 3)  # 5^9 elements
    with pytest.raises(BudgetExceeded):
        next(enumerate_elements(big))
    with pytest.raises(NotEnumerable):
        next(enumerate_elements(matrix_algebra(Rationals(), 2)))


def test_brute_center_matches_optimized():
    for A in (matrix_algebra(Zmod(3), 2), triangular_matrix_algebra(Zmod(3), 2)):
        assert sorted(A.center().elements()) == brute_center(A)


def test_brute_zk_matches_optimized():
    A = triangular_matrix_algebra(Zmod(3), 2)
    for k in (1, 2):
        assert sorted(A.engel_center(k).elements()) == brute_zk(A, k)


def test_brute_k_commuting_agrees(m2_z3):
    sp = commuting_space(m2_z3, 2)
    rng = random.Random(2)
    for theta in list(sp.basis())[:3] + [sp.random_member(rng)]:
        assert brute_k_commuting(m2_z3, theta, 2) == (True, None)
    bad = LinMap.from_columns(
        m2_z3.ring,
        [m2_z3.algebra.mul(m2_z3.embed("M", (1,)), m2_z3.algebra.basis_vector(j))
         for j in range(m2_z3.dim)],
    )
    ours = is_k_commuting(m2_z3, bad, 1)
    theirs = brute_k_commuting(m2_z3, bad, 1)
    assert ours[0] is False and theirs[0] is False


def test_brute_properness_agrees(m2_z3):
    alg = m2_z3.algebra
    two_id = LinMap.identity(alg.ring, alg.dim).scale(2)
    ok, lam = brute_properness(m2_z3, two_id)
    assert ok
    assert m2_z3.gma_center().contains(lam)
    e11 = m2_z3.embed("A", m2_z3.ctx.A.unit)
    improper = LinMap.from_columns(
        alg.ring, [alg.mul(e11, alg.basis_vector(j)) for j in range(alg.dim)]
    )
    assert brute_properness(m2_z3, improper) == (False, None)
    assert properness_certificate(m2_z3, improper) is None


def test_brute_and_certificate_agree_on_random_maps(t2_z3):
    sp = commuting_space(t2_z3, 1)
    rng = random.Random(9)
    for _ in range(5):
        theta = sp.random_member(rng)
        cert = properness_certificate(t2_z3, theta)
        ok, _ = brute_properness(t2_z3, theta)
        assert (cert is not None) == ok


FAMILIES = {
    "M2": lambda R: full_matrix_gma(R, 2, 1),
    "T2": lambda R: triangular_gma(R, 2, 1),
    "T3": lambda R: triangular_gma(R, 3, 1),
    "B(2,1)": lambda R: block_triangular_gma(R, (2, 1), 1),
}


def brute_commuting_space(A, k):
    """The maps theta with [theta(x), x]_k = 0 at every element x.  At one
    x the condition is linear in the entries of theta: theta[p][q] enters
    it with x_q [e_p, x]_k."""
    R, d = A.ring, A.dim
    S = _structure(A)
    basis = [tuple(R.one if j == p else R.zero for j in range(d)) for p in range(d)]
    rows = set()
    for x in enumerate_elements(A):
        brackets = [_bracket_power(A, S, e, x, k) for e in basis]
        for r in range(d):
            row = {p * d + q: R.mul(x[q], b[r]) for p, b in enumerate(brackets)
                   for q in range(d) if x[q] and b[r]}
            rows.add(tuple(sorted(row.items())))
    gens = linalg.nullspace(R, [dict(row) for row in sorted(rows)], d * d)
    return Submodule(R, d * d, gens)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("p, k", [(2, 1), (3, 2), (2, 2)])
def test_commuting_space_and_verdicts_equal_brute_force(family, p, k):
    """Over Z/p with p = k+1 the coefficients of [theta(x), x]_k decide it;
    with p < k+1 they do not, and the differences must be used."""
    alg = FAMILIES[family](Zmod(p)).algebra
    R, d = alg.ring, alg.dim
    space = commuting_space(alg, k)
    assert space.space.equals(brute_commuting_space(alg, k))
    rng = random.Random(f"{family}/{p}/{k}")
    maps = space.basis() + [space.random_member(rng) for _ in range(2)]
    for theta in list(maps):
        rows = [list(r) for r in theta.rows]
        rows[rng.randrange(d)][rng.randrange(d)] += 1
        maps.append(LinMap(R, rows))
    for theta in maps:
        assert is_k_commuting(alg, theta, k) == brute_k_commuting(alg, theta, k)
