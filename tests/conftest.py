import itertools
from fractions import Fraction

import pytest

from gmalg import linalg
from gmalg.algebra import Algebra
from gmalg.errors import BudgetExceeded, NotEnumerable
from gmalg.maps import LinMap
from gmalg.rings import Rationals, Zmod
from gmalg.families import (
    block_triangular_gma,
    full_matrix_gma,
    triangular_gma,
    triangular_matrix_algebra,
)
from gmalg.morita import Bimodule, MoritaContext, build_gma


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


# the Q families of the CLI golden file: name, ``family`` flags, builder
Q_FAMILIES = [
    ("M2(Q)", ["--kind", "full", "--n", "2"],
     lambda: full_matrix_gma(Rationals(), 2, 1)),
    ("T3(Q)", ["--kind", "triangular", "--n", "3"],
     lambda: triangular_gma(Rationals(), 3, 1)),
    ("B(2,1)(Q)", ["--kind", "block", "--dims", "2,1"],
     lambda: block_triangular_gma(Rationals(), (2, 1), 1)),
]


def nullspace(ring, rows, ncols):
    """The kernel generators of ``rows``, in column order: the kernel of
    one block (``linalg.certified_kernel``)."""
    return linalg.certified_kernel(ring, [list(rows)], ncols)


def scale(alg, c, x):
    """c * x, for an element x of ``alg``."""
    return tuple(alg.ring.normal(c * a) for a in x)


def scale_map(theta, c):
    """The map c * theta."""
    rg = theta.ring
    return LinMap._from_normal(rg, tuple(tuple(rg.normal(c * a) for a in r) for r in theta.rows))


def span_elements(sub):
    """Every element of the span of the ``Submodule`` ``sub`` over a finite
    ring, sorted."""
    rg = sub.ring
    if not rg.enumerable:
        raise NotEnumerable("infinite ring")
    if rg.size ** len(sub.gens) > 2 * 10**5:
        raise BudgetExceeded("submodule too large to enumerate")
    out = {(rg.zero,) * sub.ambient_dim}
    for coeffs in itertools.product(rg.scalars(), repeat=len(sub.gens)):
        v = [rg.zero] * sub.ambient_dim
        for c, g in zip(coeffs, sub.gens):
            if c != rg.zero:
                for r, gr in enumerate(g):
                    v[r] = rg.normal(v[r] + c * gr)
        out.add(tuple(v))
    return sorted(out)


def proper_map(G, c, f):
    """x -> c*x + f(x)*1, with f(e_j) = f[j]."""
    alg, R = G.algebra, G.ring
    return LinMap.from_columns(R, [
        alg.add(scale(alg, c, alg.basis_vector(j)), scale(alg, f[j], alg.unit))
        for j in range(G.dim)
    ])


def q_maps(G):
    """A proper map with integral entries, one with entries such as "1/2",
    and left multiplication by a module basis element, which is not
    k-commuting."""
    alg = G.algebra
    ints = [j % 3 - 1 for j in range(G.dim)]
    halves = [Fraction(j % 4 - 1, 4) for j in range(G.dim)]
    m = G.embed("M", G.ctx.M.basis_vector(0))
    return [
        ("proper", proper_map(G, 2, ints)),
        ("half", proper_map(G, Fraction(1, 2), halves)),
        ("refuted", LinMap.from_columns(
            G.ring, [alg.mul(m, alg.basis_vector(j)) for j in range(G.dim)])),
    ]


def is_normal(ring, x):
    """Whether the scalar x is in normal form: a residue in [0, n) over Z/n;
    over Q an int, or a Fraction that is not one."""
    if ring.size is not None:
        return type(x) is int and 0 <= x < ring.n
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


def is_zero(x):
    """Whether the element x is 0: its scalars are in normal form."""
    return not any(x)


def iterated_bracket(alg, x, y, k):
    """[x, y]_k in ``alg``, with [x, y]_0 = x and [x, y]_k = [[x, y]_{k-1}, y]:
    k brackets of two elements."""
    for _ in range(k):
        x = alg.bracket(x, y)
    return x


def merged_coefficients(groups):
    """Every coefficient of a stream of (t, group) pairs, such as
    ``Algebra.commuting_groups``, in one dict keyed by monomial."""
    return {gamma: rows for _, group in groups for gamma, rows in group.items()}


def scalars(R):
    return Algebra(R, ["e"], [[(1,)]], (1,))


def no_module(R, B, A):
    """The zero B-A bimodule."""
    return Bimodule(R, 0, [[]] * B.dim, [], B.dim, A.dim)


@pytest.fixture(scope="session")
def non_faithful_z3():
    """A = T2(Z/3), B = Z/3, M = Z/3 with E11 acting as 1 and E12, E22 as
    0, N = 0: M is not faithful, so Z(G) is smaller than the pairs (a, b)
    with a*m = m*b alone."""
    R = Zmod(3)
    A = triangular_matrix_algebra(R, 2)
    B = scalars(R)
    M = Bimodule(R, 1, [[(1,)], [(0,)], [(0,)]], [[(1,)]], A.dim, B.dim)
    return build_gma(MoritaContext(A, B, M, no_module(R, B, A), [[]], []))


def square_zero_algebra(R):
    """R[x,y]/(x,y)^2 on the basis 1, x, y: commutative, so its center is
    all of it."""
    one, x, y = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    zero = (0, 0, 0)
    return Algebra(R, ["1", "x", "y"], [
        [one, x, y], [x, zero, zero], [y, zero, zero],
    ], one)


def _in_random_basis(alg, rng, corner_of=None):
    """(alg in the basis f_i = sum_j P[j][i] e_j, P, P^-1) for a random
    invertible P: a product of elementary matrices, so its structure
    constants are dense.  With ``corner_of`` (a block name for each basis
    element) P mixes only elements of one block, so that a split into
    corners stays one.  Over Q, P has small integer entries."""
    ring, d = alg.ring, alg.dim
    n = ring.n if ring.enumerable else None

    def red(v):
        return v if n is None else v % n

    P = [[int(i == j) for j in range(d)] for i in range(d)]
    Pinv = [row[:] for row in P]
    for _ in range(3 * d * d):
        i, j = rng.sample(range(d), 2)
        if corner_of is not None and corner_of[i] != corner_of[j]:
            continue
        c = rng.randrange(1, n) if n else rng.choice([-2, -1, 1, 2])
        for row in P:                 # P <- P (1 + c E_ij)
            row[j] = red(row[j] + c * row[i])
        Pinv[i] = [red(a - c * b) for a, b in zip(Pinv[i], Pinv[j])]

    def to_f(v):
        return tuple(red(sum(Pinv[i][j] * v[j] for j in range(d)))
                     for i in range(d))

    cols = [tuple(P[j][a] for j in range(d)) for a in range(d)]
    table = [[to_f(alg.mul(cols[a], cols[b])) for b in range(d)] for a in range(d)]
    return Algebra(ring, alg.labels, table, to_f(alg.unit)), P, Pinv
