import itertools
import random
from fractions import Fraction

import pytest
from conftest import _in_random_basis, merged_coefficients, scale, scale_map

from gmalg import derivations, linalg
from gmalg.algebra import stream_rows, vanishing_rows
from gmalg.derivations import (
    _iter_leibniz_rows,
    adjoint_map,
    derivation_space,
    is_derivation,
    verify_commuting_derivations_vanish,
    verify_derivation_form,
)
from gmalg.errors import DimensionMismatch, NotDerivation, TheoremViolation, TwoTorsion
from gmalg.families import block_triangular_gma, full_matrix_gma, triangular_gma
from gmalg.maps import LinMap, commuting_space
from gmalg.rings import Rationals, Zmod


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


# -- the Leibniz rows and the early stop, against references ---------------

def reference_leibniz_rows(alg):
    """One dense row per (i, j, r), read off ``alg.table``: the entries of
    theta(e_i e_j) - theta(e_i) e_j - e_i theta(e_j) at coordinate r, as
    the nonzero entries over the flat unknowns theta[p][q] at p*d+q."""
    rg, d, T = alg.ring, alg.dim, alg.table
    rows = []
    for i in range(d):
        for j in range(d):
            for r in range(d):
                row = [rg.zero] * (d * d)
                for p in range(d):
                    row[r * d + p] = rg.normal(row[r * d + p] + T[i][j][p])
                    row[p * d + i] = rg.normal(row[p * d + i] - T[p][j][r])
                    row[p * d + j] = rg.normal(row[p * d + j] - T[i][p][r])
                rows.append({c: x for c, x in enumerate(row) if x})
    return rows


def test_sparse_leibniz_rows_equal_the_dense_reference(m2_z3, m2_z5, t2_z3, t2_z5,
                                                       t3_z3, b21_z3):
    rng = random.Random(3)
    algebras = [G.algebra for G in (m2_z3, m2_z5, t2_z3, t2_z5, t3_z3, b21_z3)]
    algebras += [_in_random_basis(alg, rng)[0] for alg in algebras]
    algebras += [triangular_gma(Rationals(), 3, 1).algebra,
                 _in_random_basis(full_matrix_gma(Rationals(), 2, 1).algebra, rng)[0]]
    for alg in algebras:
        rows = list(_iter_leibniz_rows(alg))
        assert rows == reference_leibniz_rows(alg)
        assert all(list(row) == sorted(row) for row in rows)


def reference_is_derivation(alg, theta):
    """The Leibniz law scanned pair by pair on values: the first basis pair
    (i, j) with theta(e_i e_j) != theta(e_i) e_j + e_i theta(e_j)."""
    basis = alg.basis()
    images = [theta.apply(e) for e in basis]
    for i, j in itertools.product(range(alg.dim), repeat=2):
        if theta.apply(alg.table[i][j]) != alg.add(alg.mul(images[i], basis[j]),
                                                   alg.mul(basis[i], images[j])):
            return False, (i, j)
    return True, None


def test_the_leibniz_verdict_equals_the_pairwise_scan(m2_z3, m2_z5, t2_z3, t3_z3, b21_z3):
    """``is_derivation`` reads the Leibniz rows at vec(theta); its verdict
    and first failing pair are those of the scan, on derivations, on
    derivations with one entry moved and on arbitrary maps, in the
    standard and a random basis, over Z/3, Z/5 and Q."""
    rng = random.Random(11)
    algebras = [G.algebra for G in (m2_z3, m2_z5, t2_z3, t3_z3, b21_z3)]
    algebras += [_in_random_basis(alg, rng)[0] for alg in algebras]
    algebras += [triangular_gma(Rationals(), 3, 1).algebra,
                 _in_random_basis(full_matrix_gma(Rationals(), 2, 1).algebra, rng)[0]]
    for alg in algebras:
        rg, d = alg.ring, alg.dim

        def scalar():
            return rg.coerce(rng.randrange(rg.n) if rg.enumerable else rng.randint(-3, 3))

        space = derivation_space(alg)
        maps = space.basis() + [space.random_member(rng) for _ in range(3)]
        for _ in range(3):
            rows = [list(r) for r in space.random_member(rng).rows]
            rows[rng.randrange(d)][rng.randrange(d)] += rg.one
            maps.append(LinMap(rg, rows))
        maps += [LinMap(rg, [[scalar() for _ in range(d)] for _ in range(d)]) for _ in range(3)]
        for theta in maps:
            assert is_derivation(alg, theta) == reference_is_derivation(alg, theta)


def reference_vanish(G, k):
    """The verdict with every Leibniz and commuting row fed."""
    alg, rg = G.algebra, G.ring
    d = alg.dim
    acc = linalg.kernel_builder(rg, d * d)
    acc.add_rows(reference_leibniz_rows(alg))
    for block in vanishing_rows(rg, merged_coefficients(alg.commuting_groups(k)), k + 1, d):
        acc.add_rows(block)
    gens = acc.nullspace()
    return LinMap.from_flat(rg, d, gens[0]) if gens else True


@pytest.mark.parametrize("ring", [Rationals(), Zmod(3), Zmod(5), Zmod(9)], ids=repr)
def test_early_stopped_verdict_equals_feeding_every_row(ring, monkeypatch):
    fed = []        # the block sizes fed to each accumulator over maps
    builder = linalg.kernel_builder

    def counting(rg, ncols):
        acc = builder(rg, ncols)
        if ncols == d * d:
            sizes = []
            fed.append(sizes)
            add_rows = acc.add_rows
            def feed(block):
                block = list(block)
                sizes.append(len(block))
                add_rows(block)
            acc.add_rows = feed
        return acc

    for G in (full_matrix_gma(ring, 2, 1), triangular_gma(ring, 3, 1),
              block_triangular_gma(ring, (2, 1), 1)):
        d = G.dim
        for k in (1, 2, 3):
            expected = reference_vanish(G, k)
            fed.clear()
            monkeypatch.setattr(linalg, "kernel_builder", counting)
            assert verify_commuting_derivations_vanish(G, k) is expected is True
            monkeypatch.setattr(linalg, "kernel_builder", builder)
            blocks = list(vanishing_rows(ring, merged_coefficients(G.algebra.commuting_groups(k)),
                                         k + 1, d))
            # the Leibniz rows, then the commuting blocks until the kernel
            # is zero: here never all of them
            [sizes] = fed
            assert sizes[0] == d ** 3
            assert 1 <= len(sizes) - 1 < len(blocks)


def vanishing_kernel(ring, groups, degree, dim, ncols):
    """The kernel generators of every block of ``stream_rows``, fed to one
    accumulator: what ``verify_commuting_derivations_vanish`` returns when
    no block is left out."""
    acc = linalg.kernel_builder(ring, ncols)
    for block in stream_rows(ring, groups, degree, dim):
        acc.add_rows(block)
    return acc.nullspace()


def test_a_nonzero_kernel_raises_the_first_generator(monkeypatch):
    """Without the Leibniz rows the kernel is the commuting space, so every
    row is fed and the kernel's first generator is raised: the first one
    ``vanishing_kernel`` gives, a member of ``commuting_space``."""
    monkeypatch.setattr(derivations, "_iter_leibniz_rows", lambda alg: iter(()))
    for ring in (Rationals(), Zmod(3), Zmod(9)):
        G = full_matrix_gma(ring, 2, 1)
        alg, d = G.algebra, G.dim
        for k in (1, 2, 3):
            with pytest.raises(TheoremViolation) as err:
                verify_commuting_derivations_vanish(G, k)
            first = vanishing_kernel(ring, alg.commuting_groups(k), k + 1, d, d * d)[0]
            assert err.value.witness == LinMap.from_flat(ring, d, first)
            assert commuting_space(G, k).contains(err.value.witness)


@pytest.mark.parametrize("build", [
    lambda R: full_matrix_gma(R, 2, 1),
    lambda R: triangular_gma(R, 3, 1),
    lambda R: block_triangular_gma(R, (2, 1), 1),
])
def test_derivation_form_of_a_fractional_derivation(build):
    """Half of an inner derivation over Q: the checks read its integral
    multiple, and the form returned is its own, half that of the inner
    derivation."""
    G = build(Rationals())
    c = G.algebra.vec(range(1, G.dim + 1))
    inner = adjoint_map(G, c)
    half = scale_map(inner, Fraction(1, 2))
    assert half.integral()[0] == 2
    rep, form = verify_derivation_form(G, half)
    assert rep.all_pass, rep.failures()
    _, whole = verify_derivation_form(G, inner)

    def halved(x):
        return tuple(map(halved, x)) if isinstance(x, tuple) else Fraction(x, 2)

    assert form == halved(whole)


@pytest.mark.parametrize("ring", [Zmod(3), Zmod(5), Rationals()], ids=repr)
@pytest.mark.parametrize("build", [
    lambda R: full_matrix_gma(R, 2, 1),
    lambda R: full_matrix_gma(R, 3, 2),
])
def test_a_corrupted_pairing_fails_the_reassembly_where_the_rebuilt_map_differs(
        build, ring, monkeypatch):
    """With the pairing N x M -> B off by n_0 m_0 1_B, the reassembly is the
    one failing line, and it names the first basis element at which D*theta
    differs from the map rebuilt from its normal form."""
    G = build(ring)
    ctx, alg, E = G.ctx, G.algebra, G.embed
    pair_nm = ctx.pair_nm

    def corrupted(n, m):
        return ctx.B.add(pair_nm(n, m), scale(ctx.B, ring.normal(n[0] * m[0]), ctx.B.unit))

    monkeypatch.setattr(ctx, "pair_nm", corrupted)
    theta = adjoint_map(G, alg.vec(range(1, G.dim + 1)))
    if ring.size is None:
        theta = scale_map(theta, Fraction(1, 2))
    scaled = theta.integral()[1]
    unit_image = scaled.apply(E("A", ctx.A.unit))
    m0, n0 = G.extract("M", unit_image), G.extract("N", unit_image)

    def component(name, v):
        return E(name, G.extract(name, scaled.apply(E(name, v))))

    def rebuilt(x):
        a, m, n, b = (G.extract(name, x) for name in "AMNB")
        out = alg.zero()
        for c, v in ((1, component("A", a)), (-1, E("A", ctx.pair_mn(m, n0))),
                     (-1, E("A", ctx.pair_mn(m0, n))), (1, E("M", ctx.am(a, m0))),
                     (-1, E("M", ctx.mb(m0, b))), (1, component("M", m)),
                     (1, E("N", ctx.na(n0, a))), (-1, E("N", ctx.bn(b, n0))),
                     (1, component("N", n)), (1, E("B", ctx.pair_nm(n0, m))),
                     (1, E("B", ctx.pair_nm(n, m0))), (1, component("B", b))):
            out = alg.add(out, v) if c == 1 else alg.sub(out, v)
        return out

    first = next(j for j, e in enumerate(alg.basis()) if scaled.apply(e) != rebuilt(e))
    with pytest.raises(TheoremViolation) as err:
        verify_derivation_form(G, theta)
    assert [(line.cond_id, line.witness) for line in err.value.witness] == [
        ("reassembly", {"basis_index": first})]
