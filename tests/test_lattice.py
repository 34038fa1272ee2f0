"""The lattice criterion: identities "for every x" decided on the points
|beta| <= D, checked against the definitional oracle on finite rings and
against large-prime results over Q."""

import random
from math import comb

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import span_elements
from gmalg.algebra import lattice_points
from gmalg.families import (
    block_triangular_gma,
    full_matrix_gma,
    matrix_algebra,
    triangular_gma,
    triangular_matrix_algebra,
)
from gmalg.maps import LinMap, commuting_space, is_k_commuting
from gmalg.oracle import brute_k_commuting, brute_zk
from gmalg.rings import Rationals, Zmod

MODULI = (2, 3, 4, 6, 8, 9)


def _algebra(n, full):
    # M2 only where its n^4 elements keep the oracle quick
    if full and n <= 4:
        return matrix_algebra(Zmod(n), 2)
    return triangular_matrix_algebra(Zmod(n), 2)


def test_lattice_points_are_the_low_degree_exponents():
    pts = list(lattice_points(Rationals(), 3, 2))
    assert len(pts) == comb(3 + 2, 2)
    assert pts == sorted(pts)
    assert all(sum(p) <= 2 for p in pts)
    # over Z/2 a coordinate 2 would repeat the point with 0
    assert list(lattice_points(Zmod(2), 2, 3)) == [(0, 0), (0, 1), (1, 0), (1, 1)]


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from(MODULI),
    k=st.integers(1, 4),
    full=st.booleans(),
    seed=st.integers(0, 2**32),
)
def test_k_commuting_matches_the_oracle(n, k, full, seed):
    A = _algebra(n, full)
    R, d = A.ring, A.dim
    rng = random.Random(seed)
    member = commuting_space(A, k).random_member(rng)
    rows = [list(r) for r in member.rows]
    i, j = rng.randrange(d), rng.randrange(d)
    rows[i][j] = R.normal(rows[i][j] + R.coerce(rng.randrange(1, n)))
    random_map = LinMap(R, [[rng.randrange(n) for _ in range(d)] for _ in range(d)])
    for theta in (member, LinMap(R, rows), random_map):
        assert is_k_commuting(A, theta, k) == brute_k_commuting(A, theta, k)


@settings(max_examples=30, deadline=None)
@given(n=st.sampled_from(MODULI), k=st.integers(1, 4), full=st.booleans())
def test_engel_center_matches_the_oracle(n, k, full):
    A = _algebra(n, full)
    assert span_elements(A.engel_center(k)) == brute_zk(A, k)


def test_rational_commuting_space_ranks_match_a_large_prime():
    for build, rank in (
        (lambda R: full_matrix_gma(R, 2, 1), 5),
        (lambda R: triangular_gma(R, 3, 1), 7),
        (lambda R: block_triangular_gma(R, (2, 1), 1), 8),
    ):
        G = build(Rationals())
        for k in (2, 3):
            q = commuting_space(G, k)
            assert q.rank == commuting_space(build(Zmod(10007)), k).rank == rank
        for theta in commuting_space(G, 2).basis():
            assert is_k_commuting(G, theta, 2) == (True, None)
