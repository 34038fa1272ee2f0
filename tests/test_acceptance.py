"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with -s (or read the captured output) to see the per-criterion lines.
"""

import random

import pytest

from conftest import scale_map, span_elements
from gmalg import cli, jsonio
from gmalg.algebra import Algebra, Submodule
from gmalg.derivations import (
    derivation_space,
    verify_commuting_derivations_vanish,
)
from gmalg.errors import NotFaithful, TwoTorsion
from gmalg.families import (
    InflatedSpec,
    full_matrix_gma,
    inflated_algebra,
    matrix_algebra,
    triangular_matrix_algebra,
)
from gmalg.maps import (
    LinMap,
    check_properness_hypotheses,
    commuting_space,
    construct_proper_form,
    is_k_commuting,
    properness_certificate,
    verify_proper_form_steps,
    verify_structure_conditions,
)
from gmalg.morita import Bimodule, MoritaContext, build_gma
from gmalg.oracle import (
    brute_center,
    brute_k_commuting,
    brute_properness,
    brute_zk,
)
from gmalg.rings import Zmod


def scalar_algebra(R):
    return Algebra(R, ["e"], [[(1,)]], (1,)).validate()


@pytest.fixture(scope="session")
def inflated_z3():
    base = scalar_algebra(Zmod(3))
    return inflated_algebra(
        InflatedSpec(base, 2, [[(1,), (0,)], [(0,), (2,)]])
    )


def scalar_span(alg):
    """The submodule R*1 inside an algebra."""
    return Submodule(alg.ring, alg.dim, [alg.unit])


def test_criterion_1_oracle_equivalence(
    m2_z3, m2_z5, t2_z3, t3_z3, b21_z3, inflated_z3
):
    fixtures = [
        ("T2(Z/3)", t2_z3.algebra, t2_z3),
        ("T3(Z/3)", t3_z3.algebra, t3_z3),
        ("M2(Z/3)", m2_z3.algebra, m2_z3),
        ("M2(Z/5)", m2_z5.algebra, m2_z5),
        ("B(2,1)(Z/3)", b21_z3.algebra, b21_z3),
        ("inflated", inflated_z3.algebra, inflated_z3.algebra),
    ]
    for name, alg, G in fixtures:
        assert sorted(span_elements(alg.center())) == brute_center(alg), name
        for k in (1, 2, 3):
            assert sorted(span_elements(alg.engel_center(k))) == brute_zk(alg, k), (
                name,
                k,
            )
        probes = [
            scale_map(LinMap.identity(alg.ring, alg.dim), 2),
            commuting_space(alg, 1).basis()[0],
        ]
        # one deliberately non-commuting probe: left multiplication by a
        # non-central basis element
        for i in range(alg.dim):
            c = alg.basis_vector(i)
            if not alg.center().contains(c):
                probes.append(
                    LinMap.from_columns(
                        alg.ring,
                        [alg.mul(c, alg.basis_vector(j)) for j in range(alg.dim)],
                    )
                )
                break
        for theta in probes:
            for k in (1, 2, 3):
                fast = is_k_commuting(alg, theta, k)
                slow = brute_k_commuting(alg, theta, k)
                assert fast[0] == slow[0], (name, k)
            cert = properness_certificate(G, theta)
            ok, _ = brute_properness(G, theta)
            assert (cert is not None) == ok, name
    print("[criterion 1] PASS")


def test_criterion_2_full_matrix_maps_are_proper(m2_z3):
    for k in (1, 2, 3):
        sp = commuting_space(m2_z3, k)
        if k == 1:
            assert sp.rank == 5
        rng = random.Random(20260823)
        thetas = list(sp.basis()) + [sp.random_member(rng) for _ in range(200)]
        for theta in thetas:
            assert properness_certificate(m2_z3, theta) is not None, k
    print("[criterion 2] PASS")


def test_criterion_3_triangular_engel_sets_collapse():
    for n in (2, 3):
        alg = triangular_matrix_algebra(Zmod(3), n)
        scalars = sorted(span_elements(scalar_span(alg)))
        for k in (1, 2, 3):
            assert brute_zk(alg, k) == scalars, (n, k)
            for theta in commuting_space(alg, k).basis():
                assert properness_certificate(alg, theta) is not None, (n, k)
    print("[criterion 3] PASS")


def test_criterion_4_structure_conditions_sweep(m2_z3, t2_z3, m2_z5):
    cases = [(m2_z3, (1, 2, 3)), (t2_z3, (1, 2, 3)), (m2_z5, (1, 2))]
    for G, ks in cases:
        f = G.faithful()
        assert f["left_faithful"] and f["right_faithful"]
        for k in ks:
            rng = random.Random(41)
            sp = commuting_space(G, k)
            thetas = list(sp.basis()) + [sp.random_member(rng) for _ in range(10)]
            for theta in thetas:
                rep = verify_structure_conditions(G, theta, k)
                assert rep.all_pass, (k, rep.failures())
    print("[criterion 4] PASS")


def test_criterion_5_commuting_derivations_vanish(m2_z3, t2_z5, b21_z3):
    for G in (m2_z3, t2_z5, b21_z3):
        assert derivation_space(G).rank > 0
        for k in (1, 2, 3):
            assert verify_commuting_derivations_vanish(G, k) is True
    print("[criterion 5] PASS")


def test_criterion_6_proper_form_pipeline(m2_z3):
    alg = m2_z3.algebra
    for k in (1, 2, 3):
        hyp = check_properness_hypotheses(m2_z3, k)
        assert (hyp.cond1, hyp.cond2, hyp.cond3) == (True, True, True)
        assert hyp.m_witness == (1,)
        assert hyp.n_witness == (1,)
        rng = random.Random(6)
        sp = commuting_space(m2_z3, k)
        thetas = list(sp.basis()) + [sp.random_member(rng) for _ in range(20)]
        for theta in thetas:
            res = construct_proper_form(m2_z3, theta, k, hypotheses=hyp)
            # byte-exact reassembly of the original map
            cols = [
                alg.add(
                    alg.mul(alg.basis_vector(j), res.center_shift),
                    res.residual_map.column(j),
                )
                for j in range(alg.dim)
            ]
            assert LinMap.from_columns(alg.ring, cols) == theta
            steps = verify_proper_form_steps(
                m2_z3, theta, k, hypotheses=hyp
            )
            assert steps.all_pass, steps.failures()
    print("[criterion 6] PASS")


def test_criterion_7_inflated_maps_are_proper(inflated_z3):
    inf = inflated_z3
    assert inf.has_identity
    alg = inf.algebra
    # the untwisting map is multiplicative on every basis pair; the base is
    # 1-dimensional, so the untwisted product is that of M_2(Z/3)
    plain = matrix_algebra(Zmod(3), 2).table
    for p in range(alg.dim):
        for q in range(alg.dim):
            assert alg.mul(inf.sigma.column(p), inf.sigma.column(q)) == (
                inf.sigma.apply(plain[p][q])
            )
    for k in (1, 2, 3):
        sp = commuting_space(alg, k)
        rng = random.Random(7)
        thetas = list(sp.basis()) + [sp.random_member(rng) for _ in range(50)]
        for theta in thetas:
            assert properness_certificate(alg, theta) is not None, k
    print("[criterion 7] PASS")


def test_criterion_8_guards(tmp_path, capsys):
    # (a) two-torsion ring rejected from the proper-form pipeline, exit 3
    G4 = full_matrix_gma(Zmod(4), 2, 1)
    with pytest.raises(TwoTorsion):
        check_properness_hypotheses(G4, 1)
    path = tmp_path / "m2z4.json"
    path.write_text(jsonio.dumps(jsonio.context_to_json(G4.ctx)))
    code = cli.main(["sweep", str(path), "--k", "1", "--mode", "proper"])
    err = capsys.readouterr().err
    assert code == cli.EXIT_INPUT
    assert "TwoTorsion" in err

    # (b) non-faithful contexts are rejected
    R = Zmod(3)
    A = Algebra(
        R, ["a1", "a2"], [[(1, 0), (0, 0)], [(0, 0), (0, 1)]], (1, 1)
    ).validate()
    B = scalar_algebra(R)
    M = Bimodule(R, 1, [[(1,)], [(0,)]], [[(1,)]], A.dim, B.dim)
    N = Bimodule(R, 0, [[]], [], B.dim, A.dim)
    G_unf = build_gma(MoritaContext(A, B, M, N, [[]], []))
    with pytest.raises(NotFaithful):
        G_unf.require_faithful()
    with pytest.raises(NotFaithful):
        check_properness_hypotheses(G_unf, 1)

    # (c) negative control: corrupting the M -> A component of a genuine
    # commuting map must fail the quadratic balance line
    G = full_matrix_gma(R, 2, 1)
    # (the identity with its one M -> A entry set to 1, passed as k-commuting)
    rows = [list(row) for row in LinMap.identity(G.ring, G.dim).rows]
    rows[G.block_range("A")[0]][G.block_range("M")[0]] = 1
    theta = LinMap(G.ring, rows)
    hyp = check_properness_hypotheses(G, 1)
    rep = verify_proper_form_steps(G, theta, 1, hypotheses=hyp, verdict=(True, None))
    failed = {line.cond_id for line in rep.failures()}
    assert "m_to_a_quadratic_balance" in failed
    print("[criterion 8] PASS")
