import random

import pytest

from gmalg import linalg
from gmalg.algebra import Algebra, Submodule, _as_rows, iter_vectors, stream_rows
from gmalg.errors import DimensionMismatch, InvalidAlgebra, NotEnumerable
from gmalg.families import matrix_algebra, triangular_matrix_algebra
from gmalg.rings import Rationals, Zmod

from conftest import (_in_random_basis, is_zero, iterated_bracket, scale, span_elements,
                      square_zero_algebra)
from test_hypotheses import CENTER_FAMILIES


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


# -- order-k centers stop at span(1) ------------------------------------------

def full_engel_center(alg, k):
    """Z^(k) with every group of the adjoint stream fed to one accumulator:
    the elimination that ``engel_center`` stops once its kernel is span(1)."""
    groups = ((t, {alpha: _as_rows(cols) for alpha, cols in group.items()})
              for t, group in alg.adjoint_groups(k))
    acc = linalg.kernel_builder(alg.ring, alg.dim)
    for block in stream_rows(alg.ring, groups, k, alg.dim):
        acc.add_rows(block)
    return Submodule._from_normal(alg.ring, alg.dim, acc.nullspace()).gens


def _fresh(alg):
    return Algebra(alg.ring, alg.labels, alg.table, alg.unit)


def _center_algebras(R):
    """Every family of ``test_hypotheses.CENTER_FAMILIES`` as G, its two
    corners and G in a random basis, and R[x,y]/(x,y)^2."""
    out = {"square-zero": square_zero_algebra(R)}
    for name, build in CENTER_FAMILIES.items():
        G = build(R)
        out.update({name: G.algebra, f"{name}/A": G.A, f"{name}/B": G.B,
                    f"{name}/random": _in_random_basis(G.algebra, random.Random(name))[0]})
    return out


ENGEL_RINGS = [Rationals()] + [Zmod(n) for n in range(2, 10)]


@pytest.mark.parametrize("ring", ENGEL_RINGS, ids=repr)
def test_engel_centers_equal_the_full_elimination(ring, monkeypatch):
    """Same generators as feeding every group, for k = 1..3 each computed
    first and after k = 3 recorded it; the routine closes early where
    Z^(k) = span(1), and falls back on the commutative algebras."""
    closed = []
    routine = linalg.certified_kernel

    def spy(rg, blocks, ncols, lower):
        out = routine(rg, blocks, ncols, lower)
        closed.append(out == lower)
        return out

    monkeypatch.setattr(linalg, "certified_kernel", spy)
    seen = set()
    for name, alg in _center_algebras(ring).items():
        expected = {k: full_engel_center(alg, k) for k in (1, 2, 3)}
        one = Submodule(ring, alg.dim, [alg.unit]).gens
        for k in (1, 2, 3):
            closed.clear()
            assert _fresh(alg).engel_center(k).gens == expected[k], (name, k)
            assert closed == [expected[k] == one], (name, k)
            seen.update(closed)
        after = _fresh(alg)
        after.engel_center(3)
        assert [after.engel_center(k).gens for k in (1, 2, 3)] == list(expected.values())
    assert seen == {True, False}


def test_engel_center_pulls_at_most_two_adjoint_groups(monkeypatch):
    """On M2(Z/3) at k = 3 the kernel is span(1) after two of the four
    groups, and the others are never computed."""
    pulled = []
    groups = Algebra.adjoint_groups

    def recording(self, k):
        for t, group in groups(self, k):
            pulled.append(t)
            yield t, group

    monkeypatch.setattr(Algebra, "adjoint_groups", recording)
    A = matrix_algebra(Zmod(3), 2)
    assert A.engel_center(3).gens == Submodule(A.ring, 4, [A.unit]).gens
    assert pulled == [3, 2]
