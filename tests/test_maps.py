import random
from fractions import Fraction

import pytest
from conftest import is_zero, proper_map, scale_map
from test_hypotheses import negative_control

from gmalg import linalg
from gmalg.algebra import Algebra, Submodule
from gmalg.errors import DimensionMismatch, HypothesesNotMet, NotKCommuting
from gmalg.families import (
    block_triangular_gma,
    full_matrix_gma,
    matrix_algebra,
    triangular_gma,
)
from gmalg.maps import (
    LinMap,
    PropernessCertificate,
    _divided,
    check_properness_hypotheses,
    commuting_space,
    _Values,
    construct_proper_form,
    is_k_commuting,
    properness_certificate,
    verify_proper_form_steps,
    verify_structure_conditions,
)
from gmalg.morita import BLOCKS
from gmalg.rings import Rationals, Zmod


def left_mult_map(alg, c):
    return LinMap.from_columns(
        alg.ring, [alg.mul(c, alg.basis_vector(j)) for j in range(alg.dim)]
    )


def _with_m_to_a(G, theta):
    """theta with its M -> A component overwritten by 1 (M2 split 1, where
    both blocks have dimension 1): a genuine map corrupted in one block,
    passed as k-commuting so that the lines on that block fail."""
    rows = [list(row) for row in theta.rows]
    rows[G.block_range("A")[0]][G.block_range("M")[0]] = 1
    return LinMap(G.ring, rows)


def commutative_pair_algebra(R):
    return Algebra(
        R, ["a", "b"], [[(1, 0), (0, 0)], [(0, 0), (0, 1)]], (1, 1)
    ).validate()


def test_identity_and_scalars_commute(m2_z3):
    alg = m2_z3.algebra
    for k in (1, 2, 3):
        assert is_k_commuting(m2_z3, LinMap.identity(alg.ring, alg.dim), k) == (
            True,
            None,
        )
        assert is_k_commuting(m2_z3, LinMap.zero(alg.ring, alg.dim), k) == (
            True,
            None,
        )
    two_id = scale_map(LinMap.identity(alg.ring, alg.dim), 2)
    assert is_k_commuting(m2_z3, two_id, 1)[0]


def test_left_multiplication_is_not_commuting():
    A = matrix_algebra(Zmod(3), 2)
    e11 = A.basis_vector(A.labels.index("E11"))
    theta = left_mult_map(A, e11)
    ok, x = is_k_commuting(A, theta, 1)
    assert not ok
    # the returned witness really violates the identity
    assert not is_zero(A.bracket(theta.apply(x), x))


def test_rational_polarization_k1_only():
    A = matrix_algebra(Rationals(), 2)
    ident = LinMap.identity(A.ring, A.dim)
    assert is_k_commuting(A, ident, 1) == (True, None)
    e11 = A.basis_vector(A.labels.index("E11"))
    ok, x = is_k_commuting(A, left_mult_map(A, e11), 1)
    assert not ok
    assert not is_zero(A.bracket(A.mul(e11, x), x))
    # k >= 2 is decided over Q as well; the commuting space has the rank it
    # has modulo a large prime
    assert is_k_commuting(A, ident, 2) == (True, None)
    assert commuting_space(A, 2).rank == commuting_space(
        matrix_algebra(Zmod(10007), 2), 2
    ).rank


def test_commuting_space_rank_and_membership(m2_z3):
    for k in (1, 2, 3):
        sp = commuting_space(m2_z3, k)
        assert sp.rank == 5
        for g in sp.basis():
            assert is_k_commuting(m2_z3, g, k) == (True, None)


def test_commuting_space_grows_with_k(t3_z3):
    s1 = commuting_space(t3_z3, 1)
    s2 = commuting_space(t3_z3, 2)
    for g in s1.basis():
        assert s2.contains(g)
    assert s2.rank >= s1.rank


def test_commutative_algebra_every_map_commutes():
    A = commutative_pair_algebra(Zmod(3))
    sp = commuting_space(A, 1)
    assert sp.rank == A.dim * A.dim


def test_random_member_is_seeded(m2_z3):
    sp = commuting_space(m2_z3, 1)
    a = sp.random_member(random.Random(11))
    b = sp.random_member(random.Random(11))
    assert a == b
    assert sp.contains(a)


@pytest.mark.parametrize("ring", [Rationals(), Zmod(3), Zmod(5), Zmod(9)], ids=repr)
@pytest.mark.parametrize("shape", ["M2", "T3", "B(2,1)"])
def test_random_members_lie_in_the_space_and_commute(shape, ring):
    """A sweep decides [theta(x), x]_k = 0 on the generators only, so a
    seeded member must be a true combination of them: it lies in the space
    and is k-commuting."""
    G = {"M2": lambda: full_matrix_gma(ring, 2, 1),
         "T3": lambda: triangular_gma(ring, 3, 1),
         "B(2,1)": lambda: block_triangular_gma(ring, (2, 1), 1)}[shape]()
    rng = random.Random(f"members/{shape}/{ring!r}")
    for k in (1, 2, 3):
        sp = commuting_space(G, k)
        for _ in range(4):
            theta = sp.random_member(rng)
            assert sp.contains(theta), (k, theta.rows)
            assert is_k_commuting(G, theta, k) == (True, None), (k, theta.rows)


def test_block_images_reassemble_exactly(m2_z3, b21_z3):
    """The images of the values side (``_Values.image``), one per target
    block, reassemble each column of theta, on both sides."""
    for G in (m2_z3, b21_z3):
        rg = G.ring
        for theta in (
            LinMap.identity(rg, G.dim),
            LinMap.zero(rg, G.dim),
            commuting_space(G, 2).random_member(random.Random(5)),
            LinMap(rg, [[(i + 2 * j) % 3 for j in range(G.dim)] for i in range(G.dim)]),
        ):
            for side in _Values.pair(G, theta):
                # side.names maps G's names to the side's too: it is A<->B,
                # M<->N or the identity
                for j in range(G.dim):
                    src, loc = G.block_of_index(j)
                    e = tuple(int(t == loc) for t in range(len(G.block_range(src))))
                    column = [None] * G.dim
                    for dst in BLOCKS:
                        rows = G.block_range(dst)
                        column[rows.start:rows.stop] = side.image(
                            side.names[src], side.names[dst], e)
                    assert tuple(column) == theta.column(j)
        with pytest.raises(DimensionMismatch):
            _Values.pair(G, LinMap.identity(rg, G.dim - 1))


def test_structure_conditions_pass_for_commuting_maps(m2_z3, t2_z3):
    for G in (m2_z3, t2_z3):
        for k in (1, 2):
            sp = commuting_space(G, k)
            for g in sp.basis():
                rep = verify_structure_conditions(G, g, k)
                assert rep.all_pass, rep.failures()


def test_structure_conditions_reject_non_commuting(m2_z3):
    e11 = m2_z3.embed("A", m2_z3.ctx.A.unit)
    theta = left_mult_map(m2_z3.algebra, m2_z3.embed("M", (1,)))
    with pytest.raises(NotKCommuting):
        verify_structure_conditions(m2_z3, theta, 1)


def test_structure_negative_control(m2_z3):
    """Corrupting one block of a genuine map trips the matching lines."""
    theta = _with_m_to_a(m2_z3, LinMap.identity(m2_z3.ring, m2_z3.dim))
    rep = verify_structure_conditions(m2_z3, theta, 1, verdict=(True, None))
    failed = {line.cond_id for line in rep.failures()}
    assert "m_to_a_engel_range" in failed or "m_balance_symmetrized" in failed


def test_properness_hypotheses_witnesses(m2_z3, t2_z3):
    for k in (1, 2, 3):
        h = check_properness_hypotheses(m2_z3, k)
        assert (h.cond1, h.cond2, h.cond3) == (True, True, True)
        assert h.m_witness == (1,)
        assert h.n_witness == (1,)
    h = check_properness_hypotheses(t2_z3, 1)
    assert (h.cond1, h.cond2, h.cond3) == (True, True, True)
    assert h.m_witness == (1,)
    assert h.n_witness == ()


def has_scalar_engel_centers(G, k):
    """Whether both order-k centers collapse to the scalar multiples of the
    unit -- the easy sufficient condition for properness of every
    k-commuting map."""
    return all(alg.engel_center(k).equals(Submodule(alg.ring, alg.dim, [alg.unit]))
               for alg in (G.ctx.A, G.ctx.B))


def test_scalar_engel_center_shortcut(m2_z3, b21_z3):
    assert has_scalar_engel_centers(m2_z3, 1)
    assert has_scalar_engel_centers(b21_z3, 2)


def test_proper_form_reconstructs_the_map(m2_z3):
    alg = m2_z3.algebra
    sp = commuting_space(m2_z3, 2)
    z = m2_z3.gma_center()
    for g in sp.basis():
        res = construct_proper_form(m2_z3, g, 2)
        assert z.contains(res.center_shift)
        for j in range(alg.dim):
            ej = alg.basis_vector(j)
            zeta = res.residual_map.apply(ej)
            assert z.contains(zeta)
            assert g.apply(ej) == alg.add(alg.mul(ej, res.center_shift), zeta)


def test_proper_form_requires_commuting(m2_z3):
    theta = left_mult_map(m2_z3.algebra, m2_z3.embed("M", (1,)))
    with pytest.raises(NotKCommuting):
        construct_proper_form(m2_z3, theta, 1)


def test_certificate_for_proper_and_improper_maps(m2_z3):
    alg = m2_z3.algebra
    two_id = scale_map(LinMap.identity(alg.ring, alg.dim), 2)
    cert = properness_certificate(m2_z3, two_id)
    assert cert is not None
    lam, zeta = cert
    assert m2_z3.gma_center().contains(lam)
    for j in range(alg.dim):
        ej = alg.basis_vector(j)
        assert two_id.apply(ej) == alg.add(
            alg.mul(ej, lam), zeta.apply(ej)
        )
        assert m2_z3.gma_center().contains(zeta.apply(ej))
    e11 = m2_z3.embed("A", m2_z3.ctx.A.unit)
    assert properness_certificate(m2_z3, left_mult_map(alg, e11)) is None


def test_certificate_matches_proper_form_on_random_maps(m2_z3):
    sp = commuting_space(m2_z3, 1)
    rng = random.Random(3)
    for _ in range(10):
        theta = sp.random_member(rng)
        assert properness_certificate(m2_z3, theta) is not None


def _dense_certificate(G, theta):
    """``properness_certificate`` as a dense system: the reference for the
    sparse rows.  One dense row per (basis element e_j, coordinate r) over
    the unknowns t (the multiplier's coordinates in Z(G)) and u_j (those of
    the remainder at e_j), solved by ``linalg.solve_linear`` against the
    column of D*theta at e_j."""
    alg = getattr(G, "algebra", G)
    rg, d = alg.ring, alg.dim
    D, scaled = theta.integral()
    zgens = (G.gma_center() if hasattr(G, "gma_center") else alg.center()).gens
    nz = len(zgens)
    if nz == 0:
        if all(theta.column(j) == alg.zero() for j in range(d)):
            return PropernessCertificate(alg.zero(), LinMap.zero(rg, d))
        return None
    rows, rhs = [], []
    for j in range(d):
        ej = alg.basis_vector(j)
        ej_z = [alg.mul(ej, g) for g in zgens]
        tj = scaled.apply(ej)
        for r in range(d):
            row = [rg.zero] * (nz * (1 + d))
            for s in range(nz):
                row[s] = ej_z[s][r]
                row[nz * (1 + j) + s] = zgens[s][r]
            rows.append(row)
            rhs.append(tj[r])
    sol = linalg.solve_linear(rg, [dict(enumerate(r)) for r in rows], rhs, nz * (1 + d))
    if sol is None:
        return None
    t = sol.particular[:nz]
    lam = _divided(rg, D, tuple(rg.normal(sum(c * g[r] for c, g in zip(t, zgens)))
                                for r in range(d)))
    return PropernessCertificate(lam, theta.sub(LinMap(rg, alg.right_mult_matrix(lam))))


def _certificate_maps(G, rng):
    """Maps that have a certificate and maps that do not: a basis of the
    commuting maps, proper maps x -> c*x + f(x)*1 (fractional ones over Q),
    random maps, and left multiplication by a module element."""
    alg, R = G.algebra, G.ring

    def scalar():
        if R.enumerable:
            return R.coerce(rng.randrange(R.size))
        return R.coerce(Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3])))

    maps = commuting_space(G, 1).basis()[:6]
    maps += [proper_map(G, scalar(), [scalar() for _ in range(G.dim)]) for _ in range(3)]
    maps += [LinMap(R, [[scalar() for _ in range(G.dim)] for _ in range(G.dim)])
             for _ in range(2)]
    if G.dims[1]:
        m = G.embed("M", G.ctx.M.basis_vector(0))
        maps.append(left_mult_map(alg, m))
    return maps


def _certificate_families():
    out = []
    for R in (Zmod(3), Zmod(9), Zmod(15), Rationals()):
        out += [full_matrix_gma(R, 2, 1), triangular_gma(R, 3, 1),
                block_triangular_gma(R, (2, 1), 1)]
    return out + [negative_control(Zmod(3)), negative_control(Rationals())]


@pytest.mark.parametrize("family", [
    "m2_z3", "m2_z5", "t2_z3", "t2_z5", "t3_z3", "b21_z3", "non_faithful_z3"])
def test_sparse_certificate_matches_the_dense_system_on_fixtures(family, request):
    G = request.getfixturevalue(family)
    rng = random.Random(family)
    for theta in _certificate_maps(G, rng):
        for where in (G, G.algebra):
            assert properness_certificate(where, theta) == _dense_certificate(where, theta)


def test_sparse_certificate_matches_the_dense_system():
    """M2, T3 and B(2,1) over Z/3, Z/9, Z/15 and Q, and the negative control
    of the hypothesis check, which no single module pair pins down."""
    rng = random.Random(24)
    found = {True: 0, False: 0}
    for G in _certificate_families():
        for theta in _certificate_maps(G, rng):
            want = _dense_certificate(G, theta)
            assert properness_certificate(G, theta) == want, (G.ring, G.dims)
            found[want is not None] += 1
    assert found[True] and found[False]


def test_proper_form_steps_all_pass(m2_z3, t2_z3):
    for G in (m2_z3, t2_z3):
        for k in (1, 2):
            hyp = check_properness_hypotheses(G, k)
            for g in commuting_space(G, k).basis():
                rep = verify_proper_form_steps(G, g, k, hypotheses=hyp)
                assert rep.all_pass, rep.failures()


def test_step_negative_control(m2_z3):
    theta = _with_m_to_a(m2_z3, LinMap.identity(m2_z3.ring, m2_z3.dim))
    hyp = check_properness_hypotheses(m2_z3, 1)
    rep = verify_proper_form_steps(m2_z3, theta, 1, hypotheses=hyp,
                                   verdict=(True, None))
    failed = {line.cond_id for line in rep.failures()}
    assert "m_to_a_quadratic_balance" in failed
