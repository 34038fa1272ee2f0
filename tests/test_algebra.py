import pytest

from gmalg.algebra import Algebra, Submodule, iter_vectors
from gmalg.errors import DimensionMismatch, InvalidAlgebra, NotEnumerable
from gmalg.families import matrix_algebra, triangular_matrix_algebra
from gmalg.rings import Rationals, Zmod

from conftest import is_zero, iterated_bracket, scale, span_elements


def scalar_multiples_of(algebra):
    """The submodule R*1 inside an algebra."""
    return Submodule(algebra.ring, algebra.dim, [algebra.unit])


def opposite(alg):
    """Same module, product reversed."""
    table = [[alg.table[j][i] for j in range(alg.dim)] for i in range(alg.dim)]
    return Algebra(alg.ring, alg.labels, table, alg.unit)


def E(alg, label):
    return alg.basis_vector(alg.labels.index(label))


def test_matrix_unit_products():
    A = matrix_algebra(Zmod(3), 2)
    assert A.mul(E(A, "E12"), E(A, "E21")) == E(A, "E11")
    assert A.mul(E(A, "E12"), E(A, "E12")) == A.zero()
    assert A.mul(A.unit, E(A, "E21")) == E(A, "E21")


def test_iterated_bracket_example():
    A = matrix_algebra(Zmod(3), 2)
    e12, e11 = E(A, "E12"), E(A, "E11")
    assert iterated_bracket(A, e12, e11, 1) == scale(A, 2, e12)
    assert iterated_bracket(A, e12, e11, 2) == e12


def test_bracket_trivial_cases():
    A = matrix_algebra(Zmod(5), 2)
    for i in range(A.dim):
        x = A.basis_vector(i)
        for k in (1, 2, 3):
            assert is_zero(iterated_bracket(A, x, x, k))
            assert is_zero(iterated_bracket(A, x, A.unit, k))
    for i in range(A.dim):
        assert iterated_bracket(A, A.basis_vector(i), A.unit, 0) == A.basis_vector(i)


def test_bracket_recursion_matches_operator_power():
    A = triangular_matrix_algebra(Zmod(5), 3)
    x = A.vec([1, 2, 0, 3, 1, 4])
    y = A.vec([2, 0, 1, 1, 0, 2])
    for k in (1, 2, 3):
        via_rec = iterated_bracket(A, x, y, k)
        # apply the (right-mult minus left-mult) matrix k times
        L, R = A.left_mult_matrix(y), A.right_mult_matrix(y)
        ad = [[A.ring.normal(a - b) for a, b in zip(R[r], L[r])] for r in range(A.dim)]
        v = x
        for _ in range(k):
            v = tuple(
                A.ring.coerce(sum(int(ad[r][p]) * int(v[p]) for p in range(A.dim)))
                for r in range(A.dim)
            )
        assert via_rec == v


def test_center_of_full_matrix_algebra():
    A = matrix_algebra(Zmod(3), 2)
    z = A.center()
    assert z.rank == 1
    assert len(span_elements(z)) == 3
    assert A.unit in z


def test_center_of_commutative_algebra():
    R = Zmod(3)
    # R x R with componentwise product
    A = Algebra(
        R,
        ["a", "b"],
        [[(1, 0), (0, 0)], [(0, 0), (0, 1)]],
        (1, 1),
    ).validate()
    assert A.center().rank == 2


def test_engel_center_collapses_on_triangular():
    A = triangular_matrix_algebra(Zmod(3), 2)
    for k in (1, 2, 3):
        zk = A.engel_center(k)
        assert zk.equals(scalar_multiples_of(A))


def test_engel_center_chain():
    A = triangular_matrix_algebra(Zmod(3), 3)
    prev = A.engel_center(1)
    for k in (2, 3):
        cur = A.engel_center(k)
        for g in prev.gens:
            assert cur.contains(g)
        prev = cur


def test_engel_center_refuses_rationals_for_high_k():
    # decided on lattice points over Q too: Z_k(M2(Q)) is the scalars
    A = matrix_algebra(Rationals(), 2)
    for k in (1, 2, 3):
        assert A.engel_center(k).equals(scalar_multiples_of(A))


def test_engel_center_commutative_is_everything():
    R = Zmod(3)
    A = Algebra(
        R, ["a", "b"], [[(1, 0), (0, 0)], [(0, 0), (0, 1)]], (1, 1)
    ).validate()
    assert A.engel_center(2).rank == 2


def test_structure_validation_catches_bad_unit():
    R = Zmod(3)
    with pytest.raises(InvalidAlgebra):
        Algebra(R, ["e"], [[(2,)]], (1,)).validate()


def test_opposite_reverses_products():
    A = triangular_matrix_algebra(Zmod(5), 2)
    Aop = opposite(A)
    x = A.vec([1, 2, 3])
    y = A.vec([4, 0, 1])
    assert Aop.mul(x, y) == A.mul(y, x)


def test_iter_vectors_lexicographic():
    out = list(iter_vectors(Zmod(2), 2))
    assert out == [(0, 0), (0, 1), (1, 0), (1, 1)]
    with pytest.raises(NotEnumerable):
        iter_vectors(Rationals(), 2)


def test_submodule_membership_and_equality():
    R = Zmod(3)
    s = Submodule(R, 3, [(1, 0, 2), (0, 1, 1)])
    assert s.contains((1, 1, 0))
    assert not s.contains((0, 0, 1))
    t = Submodule(R, 3, [(1, 1, 0), (1, 2, 1)])
    assert s.equals(t)


def test_submodule_composite_membership():
    R = Zmod(4)
    s = Submodule(R, 1, [(2,)])
    assert s.contains((2,))
    assert not s.contains((1,))
    assert len(span_elements(s)) == 2


def test_center_closed_under_operations():
    A = matrix_algebra(Zmod(3), 2)
    z = A.center()
    elems = span_elements(z)
    for u in elems:
        for v in elems:
            assert A.add(u, v) in z


def test_vec_rejects_bad_length():
    A = matrix_algebra(Zmod(3), 2)
    with pytest.raises(DimensionMismatch):
        A.vec([1, 2])
