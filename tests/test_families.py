import pytest

from gmalg.algebra import Algebra
from gmalg.errors import BadShape, BadSplit
from gmalg.families import (
    InflatedSpec,
    block_triangular_gma,
    block_triangular_matrix_algebra,
    full_matrix_basis_bijection,
    full_matrix_gma,
    inflated_algebra,
    matrix_algebra,
    triangular_gma,
    triangular_matrix_algebra,
    verify_full_matrix_model,
)
from gmalg.morita import validate_context
from gmalg.rings import Zmod


def scalar_algebra(R):
    return Algebra(R, ["e"], [[(1,)]], (1,)).validate()


def test_matrix_algebra_shape():
    A = matrix_algebra(Zmod(3), 3)
    assert A.dim == 9
    assert A.labels[0] == "E11"
    assert A.validate() is A


def test_triangular_algebra_shape():
    U = triangular_matrix_algebra(Zmod(3), 3)
    assert U.dim == 6
    L = triangular_matrix_algebra(Zmod(3), 3, lower=True)
    assert L.dim == 6
    # lower is the opposite presentation of upper
    assert sorted(L.labels) == sorted(
        lbl[0] + lbl[2] + lbl[1] for lbl in U.labels
    )


def test_block_triangular_algebra_shape():
    A = block_triangular_matrix_algebra(Zmod(3), (2, 1))
    assert A.dim == 2 * 2 + 2 * 1 + 1
    A.validate()


def test_full_matrix_gma_blocks_and_model():
    G = full_matrix_gma(Zmod(3), 3, 1)
    assert G.dims == (1, 2, 2, 4)
    assert G.dim == 9
    assert verify_full_matrix_model(G, 3, 1)
    bij = full_matrix_basis_bijection(G, 3, 1)
    assert sorted(bij.values()) == [(r, c) for r in range(3) for c in range(3)]


def test_full_matrix_model_other_split():
    G = full_matrix_gma(Zmod(5), 3, 2)
    assert G.dims == (4, 2, 2, 1)
    assert verify_full_matrix_model(G, 3, 2)


def test_bad_splits_rejected():
    with pytest.raises(BadSplit):
        full_matrix_gma(Zmod(3), 2, 2)
    with pytest.raises(BadSplit):
        full_matrix_gma(Zmod(3), 2, 0)
    with pytest.raises(BadShape):
        full_matrix_gma(Zmod(3), 1, 1)
    with pytest.raises(BadSplit):
        triangular_gma(Zmod(3), 3, 3)
    with pytest.raises(BadSplit):
        block_triangular_gma(Zmod(3), (2, 1), 2)
    with pytest.raises(BadShape):
        block_triangular_gma(Zmod(3), (2, 0), 1)


def test_triangular_gma_variants():
    up = triangular_gma(Zmod(3), 2, 1)
    assert up.dims == (1, 1, 0, 1)
    low = triangular_gma(Zmod(3), 2, 1, variant="lower")
    assert low.dims == (1, 0, 1, 1)
    assert validate_context(low.ctx) == []
    with pytest.raises(BadShape):
        triangular_gma(Zmod(3), 2, 1, variant="diagonal")


def test_triangular_gma_with_ten_by_ten_block():
    # from n = 10 on a label E{r}{c} no longer tells the position (E110);
    # building validates every context axiom on the matrix positions
    G = triangular_gma(Zmod(3), 11, 1)
    assert G.dims == (1, 10, 0, 55)
    assert G.ctx.B.labels[9] == "E110"


def test_block_triangular_gma_dims(b21_z3):
    assert b21_z3.dims == (4, 2, 0, 1)
    assert b21_z3.dim == 7


def test_inflated_identity_twist():
    base = scalar_algebra(Zmod(3))
    spec = InflatedSpec(base, 2, [[(1,), (0,)], [(0,), (1,)]])
    inf = inflated_algebra(spec)
    assert inf.has_identity
    # with the trivial twist the product is plain matrix multiplication
    assert inf.identity == (1, 0, 0, 1)
    for p in range(4):
        assert inf.sigma.column(p) == inf.algebra.basis_vector(p)


def test_inflated_invertible_twist():
    base = scalar_algebra(Zmod(3))
    spec = InflatedSpec(base, 2, [[(1,), (0,)], [(0,), (2,)]])
    inf = inflated_algebra(spec)
    assert inf.has_identity
    assert inf.identity == (1, 0, 0, 2)
    alg = inf.algebra
    for i in range(alg.dim):
        e = alg.basis_vector(i)
        assert alg.mul(alg.unit, e) == e
        assert alg.mul(e, alg.unit) == e


def test_inflated_singular_twist_is_non_unital():
    base = scalar_algebra(Zmod(3))
    spec = InflatedSpec(base, 2, [[(1,), (0,)], [(0,), (0,)]])
    inf = inflated_algebra(spec)
    assert not inf.has_identity
    assert inf.identity is None
    assert inf.sigma is None


def test_inflated_over_matrix_base():
    base = matrix_algebra(Zmod(3), 2)
    ident = [(1, 0, 0, 1)]
    zero = [(0, 0, 0, 0)]
    spec = InflatedSpec(
        base,
        2,
        [[ident[0], zero[0]], [zero[0], (2, 0, 0, 2)]],
    )
    inf = inflated_algebra(spec)
    assert inf.has_identity
    inf.algebra.validate()
    assert inf.algebra.dim == 16
