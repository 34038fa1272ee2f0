import itertools
import random
from operator import mul

import pytest
from test_compiled import SHAPES, _view
from test_golden import _corrupt_context

from conftest import span_elements
from gmalg import linalg
from gmalg.compiled import report_rows

from gmalg.errors import (
    DimensionMismatch,
    InvalidContext,
    NotFaithful,
    TheoremViolation,
)
from gmalg.families import full_matrix_gma, triangular_gma
from gmalg.morita import (
    AXIOMS,
    BLOCKS,
    Bimodule,
    MoritaContext,
    build_gma,
    center_iso_phi,
    check_faithful,
    validate_context,
)
from gmalg.rings import Rationals, Zmod


def scalar_algebra(R):
    from gmalg.algebra import Algebra

    return Algebra(R, ["e"], [[(1,)]], (1,)).validate()


def pair_algebra(R):
    """R x R with componentwise multiplication."""
    from gmalg.algebra import Algebra

    return Algebra(
        R, ["a1", "a2"], [[(1, 0), (0, 0)], [(0, 0), (0, 1)]], (1, 1)
    ).validate()


def unfaithful_context(R):
    """A = R x R acting on a rank-1 M through the first factor only."""
    A = pair_algebra(R)
    B = scalar_algebra(R)
    M = Bimodule(R, 1, [[(1,)], [(0,)]], [[(1,)]], A.dim, B.dim)
    N = Bimodule(R, 0, [[]], [], B.dim, A.dim)
    return MoritaContext(A, B, M, N, [[]], [])


def unfaithful_right_context(R):
    """B = R x R acting on a rank-1 M through its first factor only, and
    N = 0: diag(0, (0, 1)) is central."""
    A = scalar_algebra(R)
    B = pair_algebra(R)
    M = Bimodule(R, 1, [[(1,)]], [[(1,), (0,)]], A.dim, B.dim)
    N = Bimodule(R, 0, [[], []], [], B.dim, A.dim)
    return MoritaContext(A, B, M, N, [[]], [])


def test_valid_contexts_have_no_violations(m2_z3, t2_z3, b21_z3):
    for G in (m2_z3, t2_z3, b21_z3):
        assert validate_context(G.ctx) == []


def test_negated_psi_breaks_the_diagrams(m2_z3):
    ctx = m2_z3.ctx
    R = ctx.ring
    bad_psi = [
        [tuple(R.normal(-c) for c in v) for v in row] for row in ctx.psi
    ]
    bad = MoritaContext(ctx.A, ctx.B, ctx.M, ctx.N, ctx.phi, bad_psi)
    names = {v.axiom for v in validate_context(bad)}
    assert "diagram_mnm" in names
    assert "diagram_nmn" in names


def test_both_modules_zero_is_rejected():
    R = Zmod(3)
    A = scalar_algebra(R)
    B = scalar_algebra(R)
    M = Bimodule(R, 0, [[]], [], A.dim, B.dim)
    N = Bimodule(R, 0, [[]], [], B.dim, A.dim)
    ctx = MoritaContext(A, B, M, N, [], [])
    with pytest.raises(InvalidContext):
        build_gma(ctx)


def test_module_actions_must_match_the_algebras():
    # M built as a module over algebras of other dimensions than A and B:
    # one row too few was read as a zero action (and validated), one too
    # many raised KeyError
    R = Zmod(3)
    A, B = pair_algebra(R), scalar_algebra(R)
    N = Bimodule(R, 0, [[]], [], B.dim, A.dim)
    for left, right, left_dim, right_dim in (
            ([[(1,)]], [[(1,)]], 1, 1),
            ([[(1,)], [(0,)], [(1,)]], [[(1,)]], 3, 1),
            ([[(1,)], [(0,)]], [[(1,), (0,)]], 2, 2)):
        M = Bimodule(R, 1, left, right, left_dim, right_dim)
        with pytest.raises(DimensionMismatch, match="M actions"):
            MoritaContext(A, B, M, N, [[]], [])


def test_faithfulness_report(m2_z3, t2_z3):
    assert check_faithful(m2_z3.ctx) == {
        "left_faithful": True,
        "right_faithful": True,
    }
    assert check_faithful(t2_z3.ctx) == {
        "left_faithful": True,
        "right_faithful": True,
    }


def test_unfaithful_action_detected():
    ctx = unfaithful_context(Zmod(3))
    assert validate_context(ctx) == []
    f = check_faithful(ctx)
    assert f["left_faithful"] is False
    assert f["right_faithful"] is True
    G = build_gma(ctx)
    with pytest.raises(NotFaithful):
        G.require_faithful()


def test_block_bookkeeping(t3_z3):
    G = t3_z3
    assert sum(G.dims) == G.dim
    seen = []
    for i in range(G.dim):
        name, local = G.block_of_index(i)
        seen.append((name, local))
        v = G.embed(name, [G.ring.one if r == local else G.ring.zero
                           for r in range(G.dims[["A", "M", "N", "B"].index(name)])])
        assert v == G.algebra.basis_vector(i)
        assert G.extract(name, v)[local] == G.ring.one
    assert len(seen) == G.dim


def test_gma_center_matches_algebra_center(m2_z3, t2_z3, t3_z3, b21_z3):
    for G in (m2_z3, t2_z3, t3_z3, b21_z3):
        assert G.gma_center().equals(G.algebra.center())


def test_center_projections_and_phi(t2_z3):
    G = t2_z3
    za, zb = G.center_projections()
    assert za.rank == 1
    assert zb.rank == 1
    # the partner of c*1_A is c*1_B
    R = G.ring
    for c in R.scalars():
        a = tuple(R.normal(c * x) for x in G.ctx.A.unit)
        b = G.phi_apply(a)
        assert b == tuple(R.normal(c * x) for x in G.ctx.B.unit)
        assert G.phi_inv_apply(b) == a


def test_phi_roundtrip_full_matrix(m2_z5):
    G = m2_z5
    za, _ = G.center_projections()
    for a in span_elements(za):
        assert G.phi_inv_apply(G.phi_apply(a)) == a


def test_center_iso_is_verified(m2_z3, t2_z3, b21_z3):
    for G in (m2_z3, t2_z3, b21_z3):
        iso = center_iso_phi(G)
        table = dict(iso.mapping)
        assert table[G.ctx.A.unit] == G.ctx.B.unit


def test_build_gma_block_products(m2_z3):
    """Products of embedded block elements follow the 2x2 matrix rule."""
    G = m2_z3
    ctx = G.ctx
    m = (1,)
    n = (2,)
    gm = G.embed("M", m)
    gn = G.embed("N", n)
    prod_mn = G.algebra.mul(gm, gn)
    assert G.extract("A", prod_mn) == ctx.pair_mn(m, n)
    assert G.extract("B", prod_mn) == (G.ring.zero,) * G.dims[3]
    prod_nm = G.algebra.mul(gn, gm)
    assert G.extract("B", prod_nm) == ctx.pair_nm(n, m)
    a = ctx.A.unit
    assert G.algebra.mul(G.embed("A", a), gm) == G.embed("M", ctx.am(a, m))


def test_unit_is_diagonal(m2_z3, t2_z3):
    for G in (m2_z3, t2_z3):
        assert G.algebra.unit == G.embed_diag(G.ctx.A.unit, G.ctx.B.unit)


def test_axiom_table_covers_the_block_product_triples():
    # the block products xy != 0, read off the structure constants of a
    # full matrix algebra; each axiom is associativity on a triple xyz with
    # xy and yz both products
    G = full_matrix_gma(Rationals(), 3, 1)
    products = {
        (x, y)
        for x in BLOCKS for y in BLOCKS
        if any(G.algebra.table[i][j] != G.algebra.zero()
               for i in G.block_range(x) for j in G.block_range(y))
    }
    assert len(products) == 8
    triples = {x + y + z for x, y in products for y2, z in products if y == y2}
    assert set(AXIOMS) == triples
    assert len({name for name, _ in AXIOMS.values()}) == 16


def _identities(ctx):
    """Each axiom's block types and its two sides at basis elements of the
    given local indices, computed from the context's own operations."""
    A, B, c = ctx.A, ctx.B, ctx
    a, b = A.basis_vector, B.basis_vector
    m, n = c.M.basis_vector, c.N.basis_vector
    return {
        "algebra_A_left_unit": ("A", lambda i: (A.mul(A.unit, a(i)), a(i))),
        "algebra_A_right_unit": ("A", lambda i: (A.mul(a(i), A.unit), a(i))),
        "algebra_B_left_unit": ("B", lambda i: (B.mul(B.unit, b(i)), b(i))),
        "algebra_B_right_unit": ("B", lambda i: (B.mul(b(i), B.unit), b(i))),
        "m_left_unit": ("M", lambda p: (c.am(A.unit, m(p)), m(p))),
        "m_right_unit": ("M", lambda p: (c.mb(m(p), B.unit), m(p))),
        "n_left_unit": ("N", lambda q: (c.bn(B.unit, n(q)), n(q))),
        "n_right_unit": ("N", lambda q: (c.na(n(q), A.unit), n(q))),
        "algebra_A_associativity": ("AAA", lambda i, j, k: (
            A.mul(A.mul(a(i), a(j)), a(k)), A.mul(a(i), A.mul(a(j), a(k))))),
        "algebra_B_associativity": ("BBB", lambda i, j, k: (
            B.mul(B.mul(b(i), b(j)), b(k)), B.mul(b(i), B.mul(b(j), b(k))))),
        "m_left_associativity": ("AAM", lambda i, j, p: (
            c.am(A.mul(a(i), a(j)), m(p)), c.am(a(i), c.am(a(j), m(p))))),
        "n_right_associativity": ("NAA", lambda q, i, j: (
            c.na(c.na(n(q), a(i)), a(j)), c.na(n(q), A.mul(a(i), a(j))))),
        "m_right_associativity": ("MBB", lambda p, i, j: (
            c.mb(c.mb(m(p), b(i)), b(j)), c.mb(m(p), B.mul(b(i), b(j))))),
        "n_left_associativity": ("BBN", lambda i, j, q: (
            c.bn(B.mul(b(i), b(j)), n(q)), c.bn(b(i), c.bn(b(j), n(q))))),
        "m_mixed_associativity": ("AMB", lambda i, p, j: (
            c.mb(c.am(a(i), m(p)), b(j)), c.am(a(i), c.mb(m(p), b(j))))),
        "n_mixed_associativity": ("BNA", lambda i, q, j: (
            c.na(c.bn(b(i), n(q)), a(j)), c.bn(b(i), c.na(n(q), a(j))))),
        "pairing_mn_left_linear": ("AMN", lambda i, p, q: (
            c.pair_mn(c.am(a(i), m(p)), n(q)), A.mul(a(i), c.pair_mn(m(p), n(q))))),
        "pairing_mn_right_linear": ("MNA", lambda p, q, i: (
            A.mul(c.pair_mn(m(p), n(q)), a(i)), c.pair_mn(m(p), c.na(n(q), a(i))))),
        "pairing_mn_balanced": ("MBN", lambda p, j, q: (
            c.pair_mn(c.mb(m(p), b(j)), n(q)), c.pair_mn(m(p), c.bn(b(j), n(q))))),
        "pairing_nm_left_linear": ("BNM", lambda i, q, p: (
            c.pair_nm(c.bn(b(i), n(q)), m(p)), B.mul(b(i), c.pair_nm(n(q), m(p))))),
        "pairing_nm_right_linear": ("NMB", lambda q, p, i: (
            B.mul(c.pair_nm(n(q), m(p)), b(i)), c.pair_nm(n(q), c.mb(m(p), b(i))))),
        "pairing_nm_balanced": ("NAM", lambda q, j, p: (
            c.pair_nm(c.na(n(q), a(j)), m(p)), c.pair_nm(n(q), c.am(a(j), m(p))))),
        "diagram_mnm": ("MNM", lambda p, q, r: (
            c.am(c.pair_mn(m(p), n(q)), m(r)), c.mb(m(p), c.pair_nm(n(q), m(r))))),
        "diagram_nmn": ("NMN", lambda q, p, s: (
            c.bn(c.pair_nm(n(q), m(p)), n(s)), c.na(n(q), c.pair_mn(m(p), n(s))))),
    }


@pytest.mark.parametrize("build", [
    lambda: full_matrix_gma(Zmod(3), 3, 1),
    lambda: full_matrix_gma(Zmod(4), 2, 1),
    lambda: full_matrix_gma(Rationals(), 2, 1),
    lambda: triangular_gma(Zmod(3), 3, 1),   # N = 0
])
def test_violations_are_exactly_the_failing_identities(build):
    # seeded corruptions: every reported violation is an identity that
    # fails at its witness, and every failing identity is reported once
    ctx = build().ctx
    rng = random.Random(f"violations/{ctx.ring!r}/{ctx.M.dim}/{ctx.N.dim}")
    dims = {"A": ctx.A.dim, "M": ctx.M.dim, "N": ctx.N.dim, "B": ctx.B.dim}
    seen = set()
    for _ in range(25):
        _, bad = _corrupt_context(ctx, rng, rng.randint(1, 4))
        failing = set()
        for axiom, (blocks, sides) in _identities(bad).items():
            for w in itertools.product(*(range(dims[x]) for x in blocks)):
                lhs, rhs = sides(*w)
                if lhs != rhs:
                    failing.add((axiom, w if len(w) > 1 else w[0]))
        found = [(v.axiom, v.witness) for v in validate_context(bad)]
        assert len(found) == len(set(found))
        assert set(found) == failing
        seen |= {axiom for axiom, _ in found}
    assert len(seen) >= 10


def test_center_iso_checks_multiplicativity_over_q(monkeypatch):
    G = full_matrix_gma(Rationals(), 3, 1)
    assert center_iso_phi(G).mapping == [(G.ctx.A.unit, G.ctx.B.unit)]
    R, phi, phi_inv = G.ring, G.phi_apply, G.phi_inv_apply
    two = R.coerce(2)
    # 2*phi is a linear bijection onto the B-image, but not multiplicative
    monkeypatch.setattr(G, "phi_apply", lambda a: tuple(two * c for c in phi(a)))
    monkeypatch.setattr(G, "phi_inv_apply", lambda b: phi_inv(tuple(R.normal(c * R.inv_opt(two)) for c in b)))
    with pytest.raises(TheoremViolation, match="multiplicative"):
        center_iso_phi(G)


def _solved_partner(G, block, x):
    """The center partner of x solved on its own: the unique y with (x | y)
    (from A) or (y | x) (from B) in the kernel of the center rows at the
    module bases."""
    R, (dA, _, _, dB) = G.ring, G.dims
    known, unknown = range(dA), range(dA, dA + dB)
    if block == "B":
        known, unknown = unknown, known
    rows = [r for b in G.center_blocks(G.ctx.M.basis(), G.ctx.N.basis()) for r in b]
    sol = linalg.solve_linear(
        R, [{i: R.normal(-r.get(c, R.zero)) for i, c in enumerate(unknown)} for r in rows],
        [R.normal(sum(v * x[c - known.start] for c, v in r.items() if c in known))
         for r in rows], len(unknown))
    assert sol is not None and not sol.kernel
    return tuple(sol.particular)


@pytest.mark.parametrize("view", ["plain", "random basis"])
@pytest.mark.parametrize("ring", [Rationals(), Zmod(3), Zmod(5), Zmod(9), Zmod(15)],
                         ids=repr)
@pytest.mark.parametrize("shape", SHAPES)
def test_the_linear_partner_is_the_solved_one(shape, ring, view):
    """``phi_apply`` and ``phi_inv_apply`` read one linear map per block,
    solved once; at every element of the projection (over Q: the
    generators and seeded combinations) it is the partner solved for that
    element alone."""
    rng = random.Random(f"partner/{shape}/{ring!r}/{view}")
    G = _view(SHAPES[shape](ring), view, rng)
    for block, apply in (("A", G.phi_apply), ("B", G.phi_inv_apply)):
        P = G.center_projections()[block == "B"]
        if ring.enumerable:
            elements = span_elements(P)
        else:
            combos = ([rng.randint(-3, 3) for _ in P.gens] for _ in range(5))
            elements = P.gens + [tuple(sum(map(mul, cs, col)) for col in zip(*P.gens))
                                 for cs in combos]
        for x in elements:
            assert apply(x) == _solved_partner(G, block, x), (block, x)
        assert G.partner(block) is G.partner(block)


@pytest.mark.parametrize("split", [1, 2])
def test_phi_outside_the_projection_is_a_violation(split):
    """T3 split after 1 or 2: one corner is T2, and Z(G) projects to its
    scalars, which no basis element is."""
    G = triangular_gma(Zmod(3), 3, split)
    apply, block = (G.phi_inv_apply, "B") if split == 1 else (G.phi_apply, "A")
    for x in G.ctx.B.basis() if block == "B" else G.ctx.A.basis():
        with pytest.raises(TheoremViolation, match="no center partner"):
            apply(x)


@pytest.mark.parametrize("ring", [Rationals(), Zmod(5), Zmod(9)], ids=repr)
def test_a_partner_that_is_not_unique_is_not_faithful(ring):
    """With a nonzero central diag(0, b) no linear partner from A exists:
    both readings refuse."""
    G = build_gma(unfaithful_right_context(ring))
    assert G.gma_center().contains(G.embed("B", (0, 1)))
    with pytest.raises(NotFaithful):
        G.phi_apply(G.ctx.A.unit)
    with pytest.raises(NotFaithful):
        report_rows(G, "proper", 1)
