import pytest

from gmalg.algebra import Algebra
from gmalg.rings import Zmod
from gmalg.families import (
    block_triangular_gma,
    full_matrix_gma,
    triangular_gma,
)


@pytest.fixture(scope="session")
def m2_z3():
    return full_matrix_gma(Zmod(3), 2, 1)


@pytest.fixture(scope="session")
def m2_z5():
    return full_matrix_gma(Zmod(5), 2, 1)


@pytest.fixture(scope="session")
def t2_z3():
    return triangular_gma(Zmod(3), 2, 1)


@pytest.fixture(scope="session")
def t2_z5():
    return triangular_gma(Zmod(5), 2, 1)


@pytest.fixture(scope="session")
def t3_z3():
    return triangular_gma(Zmod(3), 3, 1)


@pytest.fixture(scope="session")
def b21_z3():
    return block_triangular_gma(Zmod(3), (2, 1), 1)


def _in_random_basis(alg, rng):
    """(alg in the basis f_i = sum_j P[j][i] e_j, P, P^-1) for a random
    invertible P: a product of elementary matrices, so its structure
    constants are dense."""
    ring, d = alg.ring, alg.dim
    P = [[int(i == j) for j in range(d)] for i in range(d)]
    Pinv = [row[:] for row in P]
    for _ in range(3 * d * d):
        i, j = rng.sample(range(d), 2)
        c = rng.randrange(1, ring.n)
        for row in P:                 # P <- P (1 + c E_ij)
            row[j] = (row[j] + c * row[i]) % ring.n
        Pinv[i] = [(a - c * b) % ring.n for a, b in zip(Pinv[i], Pinv[j])]

    def to_f(v):
        return tuple(sum(Pinv[i][j] * v[j] for j in range(d)) % ring.n
                     for i in range(d))

    cols = [tuple(P[j][a] for j in range(d)) for a in range(d)]
    table = [[to_f(alg.mul(cols[a], cols[b])) for b in range(d)] for a in range(d)]
    return Algebra(ring, alg.labels, table, to_f(alg.unit)), P, Pinv
