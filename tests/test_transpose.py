"""The transpose [A M; N B] -> [B N; M A] of every conftest family: an
algebra isomorphism by a block permutation, which preserves k-commuting
maps and under which the N side of a map's block components (the values
reading of ``gmalg.compiled``) is the M side of the conjugated map."""

import random

import pytest

from gmalg.maps import LinMap, _Values, commuting_space, is_k_commuting
from gmalg.morita import BLOCKS, build_gma, transpose

FAMILIES = ["m2_z3", "m2_z5", "t2_z3", "t2_z5", "t3_z3", "b21_z3"]
SWAP = {"A": "B", "B": "A", "M": "N", "N": "M"}


def _permutation(G):
    """perm[t] = the index of G whose basis vector goes to e_t of GT."""
    return [i for name in BLOCKS for i in G.block_range(SWAP[name])]


def _moved(perm, v):
    return tuple(v[i] for i in perm)


def _conjugate(G, perm, theta):
    cols = [_moved(perm, theta.column(i)) for i in perm]
    return LinMap.from_columns(G.ring, cols)


@pytest.fixture(params=FAMILIES)
def family(request):
    G = request.getfixturevalue(request.param)
    GT = build_gma(transpose(G.ctx))
    return G, GT, _permutation(G)


def test_transpose_is_an_algebra_isomorphism(family):
    G, GT, perm = family
    alg, talg = G.algebra, GT.algebra
    assert _moved(perm, alg.unit) == talg.unit
    for i in range(G.dim):
        for j in range(G.dim):
            lhs = _moved(perm, alg.table[i][j])
            rhs = talg.mul(
                _moved(perm, alg.basis_vector(i)),
                _moved(perm, alg.basis_vector(j)),
            )
            assert lhs == rhs, (i, j)


def test_k_commuting_iff_conjugate_is(family):
    G, GT, perm = family
    rng = random.Random(7)
    rg = G.ring
    space = commuting_space(G, 1)
    thetas = [
        space.random_member(rng),
        LinMap(rg, [[rng.randrange(rg.size) for _ in range(G.dim)]
                    for _ in range(G.dim)]),
        LinMap.from_columns(rg, [
            G.algebra.mul(G.algebra.basis_vector(G.dim - 1),
                          G.algebra.basis_vector(j))
            for j in range(G.dim)
        ]),
    ]
    for k in (1, 2):
        for theta in thetas:
            conj = _conjugate(G, perm, theta)
            assert is_k_commuting(G, theta, k)[0] == is_k_commuting(GT, conj, k)[0]


def test_transposed_view_is_the_conjugate_decomposition(family):
    """The N side of the values reading is the M side of the conjugated
    map on the real transpose: the same components, images and unit
    images."""
    G, GT, perm = family
    rg = G.ring
    rng = random.Random(3)
    theta = LinMap(rg, [[rng.randrange(rg.size) for _ in range(G.dim)]
                        for _ in range(G.dim)])
    view = _Values.pair(G, theta)[1]
    real = _Values.pair(GT, _conjugate(G, perm, theta))[0]
    spaces = {"A": GT.ctx.A, "M": GT.ctx.M, "N": GT.ctx.N, "B": GT.ctx.B}
    for src in BLOCKS:
        v = tuple(rg.coerce(rng.randrange(rg.size)) for _ in range(spaces[src].dim))
        for dst in BLOCKS:
            assert view.block(src, dst) == real.block(src, dst)
            assert view.image(src, dst, v) == real.image(src, dst, v)
        if src in ("A", "B"):
            for dst in BLOCKS:
                assert view.at_unit(src, dst) == real.at_unit(src, dst)
