import random

import pytest

from gmalg.derivations import (
    adjoint_map,
    derivation_space,
    is_derivation,
    verify_commuting_derivations_vanish,
    verify_derivation_form,
)
from gmalg.errors import DimensionMismatch, NotDerivation, TheoremViolation, TwoTorsion
from gmalg.families import full_matrix_gma, triangular_gma
from gmalg.maps import LinMap
from gmalg.rings import Zmod


def test_identity_is_not_a_derivation(m2_z3):
    ok, wit = is_derivation(m2_z3, LinMap.identity(m2_z3.ring, m2_z3.dim))
    assert not ok
    i, j = wit
    alg = m2_z3.algebra
    x, y = alg.basis_vector(i), alg.basis_vector(j)
    # witness pair really violates the Leibniz law for the identity map
    assert alg.mul(x, y) != alg.add(alg.mul(x, y), alg.mul(x, y))


def test_zero_and_adjoints_are_derivations(m2_z3, t3_z3):
    for G in (m2_z3, t3_z3):
        assert is_derivation(G, LinMap.zero(G.ring, G.dim)) == (True, None)
        for i in range(G.dim):
            d = adjoint_map(G, G.algebra.basis_vector(i))
            assert is_derivation(G, d) == (True, None)


def test_derivation_space_of_full_matrix_algebra(m2_z3):
    sp = derivation_space(m2_z3)
    assert sp.rank == 3
    # every adjoint lies in the space, and the space is exactly their span
    for i in range(m2_z3.dim):
        assert sp.contains(adjoint_map(m2_z3, m2_z3.algebra.basis_vector(i)))
    for g in sp.basis():
        assert is_derivation(m2_z3, g) == (True, None)


def test_derivation_form_verifies(m2_z3, t2_z3, t3_z3):
    rng = random.Random(17)
    for G in (m2_z3, t2_z3, t3_z3):
        sp = derivation_space(G)
        for theta in list(sp.basis()) + [sp.random_member(rng) for _ in range(3)]:
            rep, form = verify_derivation_form(G, theta)
            assert rep.all_pass, rep.failures()
            assert len(form.inner_m) == G.dims[1]
            assert len(form.inner_n) == G.dims[2]


def test_derivation_form_rejects_non_derivation(m2_z3):
    with pytest.raises(NotDerivation):
        verify_derivation_form(m2_z3, LinMap.identity(m2_z3.ring, m2_z3.dim))


def test_commuting_derivations_vanish(m2_z3, t2_z5):
    for G in (m2_z3, t2_z5):
        for k in (1, 2):
            assert verify_commuting_derivations_vanish(G, k) is True


@pytest.mark.parametrize("k", [0, -1])
def test_commuting_derivations_need_an_order_of_at_least_one(m2_z3, k):
    with pytest.raises(DimensionMismatch):
        verify_commuting_derivations_vanish(m2_z3, k)


def test_commuting_derivations_two_torsion_guard():
    G = full_matrix_gma(Zmod(4), 2, 1)
    with pytest.raises(TwoTorsion):
        verify_commuting_derivations_vanish(G, 1)


def test_commuting_derivation_intersection_nonzero_case():
    """A commutative-coefficient check: triangular algebras still give a
    zero intersection, so the verifier returns True rather than raising."""
    G = triangular_gma(Zmod(3), 3, 2)
    assert verify_commuting_derivations_vanish(G, 2) is True
