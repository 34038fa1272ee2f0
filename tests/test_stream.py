"""The coefficients of [theta(x), x]_k as a stream grouped by least index.

The references below are the one-shot recursion the stream replaced, which
computes every coefficient before any is read, and the k-commuting verdict
built on it: the decision over all coefficients at once, then the lead as
the largest least index whose coefficients do not vanish.  The stream must
give the same coefficients, verdicts and witnesses, and must stop where its
readers stop."""

import itertools
import random
import sys

import pytest

from conftest import (
    _in_random_basis,
    merged_coefficients,
    no_module,
    proper_map,
    scalars,
    square_zero_algebra,
)
from gmalg import algebra, cli, compiled, jsonio, linalg
from gmalg.algebra import (
    Algebra,
    _as_rows,
    _times,
    evaluator,
    lattice_check,
    vanishing_rows,
)
from gmalg.derivations import verify_commuting_derivations_vanish
from gmalg.families import (
    block_triangular_gma,
    full_matrix_gma,
    triangular_gma,
    triangular_matrix_algebra,
)
from gmalg.errors import TwoTorsion
from gmalg.maps import LinMap, commuting_space, is_k_commuting
from gmalg.morita import Bimodule, MoritaContext, build_gma
from gmalg.rings import Rationals, Zmod


def non_faithful(R):
    """The context of conftest's ``non_faithful_z3``, over R."""
    A, B = triangular_matrix_algebra(R, 2), scalars(R)
    M = Bimodule(R, 1, [[(1,)], [(0,)], [(0,)]], [[(1,)]], A.dim, B.dim)
    return build_gma(MoritaContext(A, B, M, no_module(R, B, A), [[]], []))


FAMILIES = {
    "M2": lambda R: full_matrix_gma(R, 2, 1).algebra,
    "T2": lambda R: triangular_gma(R, 2, 1).algebra,
    "T3": lambda R: triangular_gma(R, 3, 1).algebra,
    "B(2,1)": lambda R: block_triangular_gma(R, (2, 1), 1).algebra,
    "non-faithful": lambda R: non_faithful(R).algebra,
    "square-zero": square_zero_algebra,
}
RINGS = {"Q": Rationals(), "Z/2": Zmod(2), "Z/3": Zmod(3), "Z/4": Zmod(4),
         "Z/6": Zmod(6), "Z/9": Zmod(9)}


# -- the references -----------------------------------------------------------

def reference_ad_recursion(ad, start, k, normal):
    """Every nonzero coefficient of [f0(x), x]_k at once, level by level."""
    level = start
    for _ in range(k):
        out = {}
        for beta, cols in level.items():
            for col, vec in cols.items():
                for r, v in vec.items():
                    for i, terms in ad[r]:
                        acc = out.setdefault(_times(beta, i), {}).setdefault(col, {})
                        for s, c in terms:
                            acc[s] = acc.get(s, 0) + v * c
        level = {}
        for gamma, cols in out.items():
            kept = {}
            for col, vec in cols.items():
                vec = {s: w for s, v in vec.items() if (w := normal(v))}
                if vec:
                    kept[col] = vec
            if kept:
                level[gamma] = kept
    return level


def reference_map_start(alg, theta):
    normal = alg.ring.normal
    return {(q,): {0: {r: normal(v) for r, v in col}}
            for q, col in enumerate(theta.integral()[1]._cols) if col}


def reference_adjoint(alg, k):
    identity = {(): {p: {p: 1} for p in range(alg.dim)}}
    return reference_ad_recursion(alg.adjoint_terms(), identity, k, alg.ring.normal)


def reference_commuting(alg, k):
    d = alg.dim
    coeffs = {}
    for alpha, cols in reference_adjoint(alg, k).items():
        for q in range(d):
            rows = coeffs.setdefault(_times(alpha, q), {})
            for p, vec in cols.items():
                for r, v in vec.items():
                    rows.setdefault(r, {})[p * d + q] = v
    return coeffs


def reference_is_k_commuting(alg, theta, k):
    """The decision over every coefficient, then the lead: the largest t
    whose coefficients of least index t yield a nonzero block."""
    rg, d = alg.ring, alg.dim
    coeffs = {gamma: _as_rows(cols) for gamma, cols in reference_ad_recursion(
        alg.adjoint_terms(), reference_map_start(alg, theta), k, rg.normal).items()}
    if next(vanishing_rows(rg, coeffs, k + 1, d), None) is None:
        return True, None
    groups = {}
    for gamma, rows in coeffs.items():
        groups.setdefault(gamma[0], {})[gamma] = rows
    lead = next(t for t in sorted(groups, reverse=True)
                if next(vanishing_rows(rg, groups[t], k + 1, d), None) is not None)
    return lattice_check(rg, d, k + 1, evaluator(rg, coeffs, k + 1), lead=lead)


def _fresh(alg):
    """The algebra again, with nothing cached."""
    return Algebra(alg.ring, alg.labels, alg.table, alg.unit)


def _merged(groups, d):
    """The union of a stream's groups, after checking that t runs from d-1
    down to 0 and that each group's monomials have least index t."""
    groups = list(groups)
    assert [t for t, _ in groups] == list(range(d - 1, -1, -1))
    out = {}
    for t, group in groups:
        assert all(gamma[0] == t for gamma in group)
        out.update(group)
    return out


# -- the stream against the one-shot recursion --------------------------------

@pytest.mark.parametrize("ring", sorted(RINGS))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_the_groups_are_the_one_shot_coefficients(family, ring):
    base = FAMILIES[family](RINGS[ring])
    rng = random.Random(f"{family}-{ring}")
    for alg in (base, _in_random_basis(base, rng)[0]):
        R, d = alg.ring, alg.dim
        maps = [LinMap(R, [[R.coerce(rng.randint(-3, 3)) for _ in range(d)]
                           for _ in range(d)]) for _ in range(2)]
        for k in (1, 2, 3):
            fresh = _fresh(alg)
            assert _merged(fresh.adjoint_groups(k), d) == reference_adjoint(alg, k)
            assert _merged(fresh.commuting_groups(k), d) == reference_commuting(alg, k)
            assert merged_coefficients(fresh.commuting_groups(k)) == reference_commuting(alg, k)
            for theta in maps:
                assert _merged(fresh.map_groups(theta.integral()[1]._cols, k), d) \
                    == reference_ad_recursion(alg.adjoint_terms(),
                                              reference_map_start(alg, theta), k, R.normal)


def test_a_reader_that_stops_early_leaves_the_whole_stream_to_the_next():
    alg = _fresh(block_triangular_gma(Zmod(3), (2, 1), 1).algebra)
    first = next(alg.adjoint_groups(2))
    assert first[0] == alg.dim - 1
    assert _merged(alg.adjoint_groups(2), alg.dim) == reference_adjoint(alg, 2)


def test_a_proper_classify_computes_each_adjoint_stream_once(tmp_path, monkeypatch):
    """The center rows of G are the annihilators of Z(A) and Z(B), read
    from the centers ``engel_center`` computed, so no reader runs an
    algebra's adjoint stream of an order twice."""
    G = block_triangular_gma(Zmod(5), (2, 1), 1)
    ctx, theta = tmp_path / "ctx.json", tmp_path / "map.json"
    ctx.write_text(jsonio.dumps(jsonio.context_to_json(G.ctx)))
    f = [j % 3 for j in range(G.dim)]
    theta.write_text(jsonio.dumps(proper_map(G, 2, f).to_json()))
    adjoint = []
    stream = algebra.ad_stream

    def counting(ad, start, k, normal):
        if () in start:
            adjoint.append((id(ad), k))
        return stream(ad, start, k, normal)

    monkeypatch.setattr(algebra, "ad_stream", counting)
    for k in (1, 2):
        adjoint.clear()
        assert cli.main(["classify", str(ctx), str(theta), "--k", str(k),
                         "--mode", "proper"]) == cli.EXIT_OK
        assert adjoint and len(set(adjoint)) == len(adjoint)


# -- verdicts -------------------------------------------------------------------

VERDICT_ALGEBRAS = {
    "M2": lambda R: full_matrix_gma(R, 2, 1),
    "T3": lambda R: triangular_gma(R, 3, 1),
    "B(2,1)": lambda R: block_triangular_gma(R, (2, 1), 1),
}
VERDICT_RINGS = {"Q": Rationals(), "Z/3": Zmod(3), "Z/4": Zmod(4), "Z/5": Zmod(5),
                 "Z/9": Zmod(9)}


def _perturbations(G, rng):
    """Every single-entry perturbation of a proper map, then random maps."""
    R, d = G.ring, G.dim
    base = proper_map(G, 2, [j % 3 - 1 for j in range(d)])
    for i, j in itertools.product(range(d), repeat=2):
        rows = [list(r) for r in base.rows]
        rows[i][j] = R.normal(rows[i][j] + R.one)
        yield LinMap(R, rows)
    for _ in range(4):
        yield LinMap(R, [[R.coerce(rng.randint(-3, 3)) for _ in range(d)] for _ in range(d)])


@pytest.mark.parametrize("ring", sorted(VERDICT_RINGS))
@pytest.mark.parametrize("family", sorted(VERDICT_ALGEBRAS))
def test_verdicts_and_witnesses_equal_the_one_shot_path(family, ring, monkeypatch):
    """Same verdict and witness, and a refutation with lead t reads no group
    of least index below t: the stream is not resumed after it."""
    G = VERDICT_ALGEBRAS[family](VERDICT_RINGS[ring])
    alg, rng = G.algebra, random.Random(f"{family}-{ring}")
    read = []
    groups = Algebra.map_groups

    def recording(self, columns, k):
        for t, group in groups(self, columns, k):
            read.append(t)
            yield t, group

    monkeypatch.setattr(Algebra, "map_groups", recording)
    refuted = 0
    for theta in _perturbations(G, rng):
        for k in (1, 2, 3):
            read.clear()
            expected = reference_is_k_commuting(alg, theta, k)
            assert is_k_commuting(alg, theta, k) == expected
            if expected[0]:
                assert read == list(range(alg.dim - 1, -1, -1))
            else:
                refuted += 1
                lead = next(i for i, c in enumerate(expected[1]) if c)
                assert read == list(range(alg.dim - 1, lead - 1, -1))
    assert refuted


def test_the_derivation_verdict_stops_the_stream_early(monkeypatch):
    """On B(2,1)(Z/3) at k = 3 the kernel is zero after a few blocks of
    folded coefficients (x_i^3 = x_i) of the highest least indices: the
    commuting groups of least index 0 are never computed, nor the adjoint
    groups behind them."""
    read, pulled = [], []
    groups, stream = Algebra.commuting_groups, algebra.ad_stream

    def recording(self, k):
        for t, group in groups(self, k):
            read.append(t)
            yield t, group

    def counting(ad, start, k, normal):
        for t, group in stream(ad, start, k, normal):
            pulled.append(t)
            yield t, group

    monkeypatch.setattr(Algebra, "commuting_groups", recording)
    monkeypatch.setattr(algebra, "ad_stream", counting)
    G = block_triangular_gma(Zmod(3), (2, 1), 1)
    assert verify_commuting_derivations_vanish(G, 3) is True
    assert read and 0 not in read
    assert pulled == read


# -- one least index per call of vanishing_rows ---------------------------------

SPY_RINGS = {"Q": Rationals(), "Z/2": Zmod(2), "Z/3": Zmod(3), "Z/4": Zmod(4),
             "Z/5": Zmod(5), "Z/9": Zmod(9)}


@pytest.mark.parametrize("ring", sorted(SPY_RINGS))
def test_every_reader_hands_vanishing_rows_one_least_index(ring, monkeypatch):
    """``commuting_space``, ``engel_center``, the compiled structure report,
    ``is_k_commuting`` and the derivation verdict read the stream group by
    group: every call of ``vanishing_rows`` gets the coefficients of exactly
    one least index, so no reader holds more than one group and none hands
    on an empty one.  Z/2 and Z/3 at k + 1 > p take the fold path, Z/4 and
    Z/9 the Newton path; over Z/2 and Z/4 the derivation verdict refuses
    before it reads any group."""
    R = SPY_RINGS[ring]
    original, calls = algebra.vanishing_rows, []

    def spy(rg, coeffs, degree, dim):
        calls.append({gamma[0] for gamma in coeffs})
        return original(rg, coeffs, degree, dim)

    for module in list(sys.modules.values()):
        if (module.__name__.startswith("gmalg")
                and getattr(module, "vanishing_rows", None) is original):
            monkeypatch.setattr(module, "vanishing_rows", spy)

    def build():
        return block_triangular_gma(R, (2, 1), 1)

    G = build()
    dense = _in_random_basis(G.algebra, random.Random(ring))[0]
    proper = proper_map(G, 2, [j % 3 - 1 for j in range(G.dim)])
    rows = [list(r) for r in proper.rows]
    rows[0][1] = R.normal(rows[0][1] + R.one)
    refuted = LinMap(R, rows)

    def derivation_verdict(k):
        if R.is_two_torsion_free():
            assert verify_commuting_derivations_vanish(build(), k) is True
        else:
            with pytest.raises(TwoTorsion):
                verify_commuting_derivations_vanish(build(), k)

    readers = {
        "commuting_space": lambda k: [commuting_space(_fresh(alg), k)
                                      for alg in (G.algebra, dense)],
        "engel_center": lambda k: [_fresh(alg).engel_center(k) for alg in (G.algebra, dense)],
        "structure report": lambda k: compiled.report_rows(build(), "structure", k),
        "is_k_commuting": lambda k: [is_k_commuting(G, theta, k) for theta in (proper, refuted)],
        "derivation verdict": derivation_verdict,
    }
    for name, read in readers.items():
        for k in (1, 2, 3):
            calls.clear()
            read(k)
            assert all(len(least) == 1 for least in calls), (name, k)
            assert calls or (name == "derivation verdict" and not R.is_two_torsion_free())


def test_a_derivation_sweep_feeds_the_accumulator_sized_blocks(tmp_path, monkeypatch):
    """Every block the derivation sweep hands an accumulator, the Leibniz
    rows included, is a sized collection: a reader that counts rows with
    ``len``, as a tracing wrapper does, sees every verdict through."""
    G = block_triangular_gma(Zmod(3), (2, 1), 1)
    ctx = tmp_path / "ctx.json"
    ctx.write_text(jsonio.dumps(jsonio.context_to_json(G.ctx)))
    builder, sizes = linalg.kernel_builder, []

    def sizing(rg, ncols):
        acc = builder(rg, ncols)
        add_rows = acc.add_rows

        def feed(block):
            sizes.append(len(block))
            add_rows(block)

        acc.add_rows = feed
        return acc

    monkeypatch.setattr(linalg, "kernel_builder", sizing)
    for k in (1, 2, 3):
        sizes.clear()
        assert cli.main(["sweep", str(ctx), "--mode", "derivations", "--k", str(k)]) \
            == cli.EXIT_OK
        assert G.dim ** 3 in sizes     # the Leibniz rows, one list
