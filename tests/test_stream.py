"""The coefficients of [theta(x), x]_k as a stream grouped by least index.

The references below are the one-shot recursion the stream replaced, which
computes every coefficient before any is read, and the k-commuting verdict
built on it: the decision over all coefficients at once, then the lead as
the largest least index whose coefficients do not vanish, and the witness
searched from it with f evaluated from the coefficients (``evaluator``).
``is_k_commuting`` evaluates [theta(x), x]_k by its definition there, so
each witness comparison pits the definition against the coefficients.  The
stream must give the same coefficients, verdicts and witnesses, and must
stop where its readers stop."""

import itertools
import random
import sys
from fractions import Fraction
from math import prod

import pytest

from conftest import (
    _in_random_basis,
    is_normal,
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
from gmalg.errors import DimensionMismatch, TheoremViolation, TwoTorsion
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


def evaluator(ring, coeffs, degree):
    """``holds(x)``: whether f(x) = sum_gamma C_gamma x^gamma is zero, for x
    in normal form and coefficients as in ``vanishing_rows``: f evaluated
    from its coefficients, against which ``is_k_commuting``'s search, which
    evaluates [theta(x), x]_k by its definition, is compared.  Only the
    gamma with supp gamma inside supp x contribute, so they are looked up
    by the subsets of supp x of size <= ``degree``."""
    groups = {}
    for gamma, rows in coeffs.items():
        groups.setdefault(tuple(dict.fromkeys(gamma)), []).append((gamma, rows))
    normal = ring.normal

    def holds(x):
        support = [i for i, c in enumerate(x) if c]
        acc = {}
        for size in range(1, min(len(support), degree) + 1):
            for sub in itertools.combinations(support, size):
                for gamma, rows in groups.get(sub, ()):
                    m = prod(x[i] for i in gamma)
                    for r, row in rows.items():
                        for col, v in row.items():
                            acc[r, col] = acc.get((r, col), 0) + m * v
        return not any(normal(v) for v in acc.values())

    return holds


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


# -- the witness search evaluates the identity itself ----------------------------

BRACKET_RINGS = [Rationals()] + [Zmod(n) for n in range(2, 10)]


def _element(R, rng, d):
    """A seeded element, about half its coordinates 0; over Q some are not
    ints."""
    if R.size is None:
        draw = lambda: R.coerce(Fraction(rng.randint(-5, 5), rng.choice((1, 1, 2, 3))))
    else:
        draw = lambda: rng.randrange(R.size)
    return tuple(draw() if rng.random() < 0.5 else R.zero for _ in range(d))


@pytest.mark.parametrize("R", BRACKET_RINGS, ids=str)
def test_the_bracket_is_the_difference_of_the_products(R):
    """``Algebra.bracket`` reads the commutator table; it is xy - yx, in
    normal form, in every family, plain and in a random basis, and in an
    algebra that was never validated, whose unit E11 is not central."""
    rng = random.Random(f"bracket-{R}")
    algebras = []
    for family in sorted(FAMILIES):
        base = FAMILIES[family](R)
        algebras += [base, _in_random_basis(base, rng)[0]]
    M2 = FAMILIES["M2"](R)
    algebras.append(Algebra(R, M2.labels, M2.table, M2.basis_vector(0)))
    for alg in algebras:
        d = alg.dim
        points = alg.basis() + [alg.zero(), alg.unit]
        points += [_element(R, rng, d) for _ in range(8)]
        for x in points:
            for y in points:
                got = alg.bracket(x, y)
                assert got == alg.sub(alg.mul(x, y), alg.mul(y, x)), (alg.labels, x, y)
                assert all(is_normal(R, c) for c in got)
        for x, y in ((alg.zero()[1:], alg.zero()), (alg.zero(), alg.zero() + (0,))):
            with pytest.raises(DimensionMismatch,
                               match="^element length does not match algebra dim$"):
                alg.bracket(x, y)


@pytest.mark.parametrize("family, R, c", [
    ("M2", Zmod(3), 1),
    ("T3", Rationals(), 2),
], ids=["id on M2(Z/3)", "2*id on T3(Q)"])
def test_a_wrong_stream_is_a_theorem_violation(family, R, c, tmp_path, monkeypatch, capsys):
    """One nonzero group planted in the stream of the k-commuting map c*id:
    the witness search evaluates [theta(x), x]_k itself, finds it zero
    wherever the planted lead says it is not, and raises
    ``TheoremViolation``, exit 2 through the CLI; it prints no point at
    which the identity holds as a counterexample."""
    G = VERDICT_ALGEBRAS[family](R)
    d = G.dim
    theta = LinMap(R, [[c * (i == j) for j in range(d)] for i in range(d)])
    monkeypatch.setattr(Algebra, "map_groups",
                        lambda self, columns, k: iter([(0, {(0,) * (k + 1): {0: {0: 1}}})]))
    for k in (1, 2):
        with pytest.raises(TheoremViolation):
            is_k_commuting(G, theta, k)
    ctx, mp = tmp_path / "ctx.json", tmp_path / "map.json"
    ctx.write_text(jsonio.dumps(jsonio.context_to_json(G.ctx)))
    mp.write_text(jsonio.dumps(theta.to_json()))
    capsys.readouterr()
    assert cli.main(["classify", str(ctx), str(mp)]) == cli.EXIT_VIOLATION
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("theorem violation: ") and err.count("\n") == 1, err


# -- the trivially commuting part x -> c*x + g(x)*1 -----------------------------

REDUCTION_RINGS = {"Q": Rationals(), "Z/2": Zmod(2), "Z/3": Zmod(3), "Z/5": Zmod(5),
                   "Z/7": Zmod(7), "Z/4": Zmod(4), "Z/6": Zmod(6), "Z/9": Zmod(9)}


def _plus_proper(alg, theta, c, g):
    """theta + p, p(x) = c*x + g(x)*1 with g(e_j) = g[j]."""
    R, u = alg.ring, alg.unit
    return LinMap._from_normal(R, tuple(
        tuple(R.normal(v + c * (i == j) + u[i] * g[j]) for j, v in enumerate(row))
        for i, row in enumerate(theta.rows)))


def _nonempty(groups):
    """A stream's nonempty groups, by least index."""
    return {t: group for t, group in groups if group}


def _assert_groups_unchanged(alg, theta, k):
    """``map_groups`` yields the normalized groups of ``ad_stream`` on
    theta's own columns: all of them, from t = d-1 down, or nothing when
    they are all empty."""
    read = list(alg.map_groups(theta.integral()[1]._cols, k))
    full = list(algebra.ad_stream(alg.adjoint_terms(), reference_map_start(alg, theta), k,
                                  alg.ring.normal))
    assert _nonempty(read) == _nonempty(full)
    assert [t for t, _ in read] == ([t for t, _ in full] if read else [])


@pytest.mark.parametrize("ring", sorted(REDUCTION_RINGS))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_the_trivially_commuting_part_changes_no_verdict(family, ring):
    """theta and theta + p, p(x) = c*x + g(x)*1, get the same verdict and
    witness, and ``map_groups`` yields theta's own groups, for members of
    S_k, members with one entry moved and dense maps, in the standard
    basis and in a random one.  The unit is central in a valid algebra, so
    the reduction is made iff it has a coordinate 1: in the standard basis
    always, in a random basis maybe not.  p alone streams nothing."""
    base = FAMILIES[family](REDUCTION_RINGS[ring])
    rng = random.Random(f"proper-part-{family}-{ring}")
    for alg in (base, _in_random_basis(base, rng)[0]):
        R, d = alg.ring, alg.dim
        assert bool(alg._unit_shift()) == (R.one in alg.unit)
        assert alg is not base or alg._unit_shift()

        def scalar():
            return R.coerce(rng.randint(-3, 3))

        for k in (1, 2, 3):
            space = commuting_space(alg, k)
            members = [space.random_member(rng) for _ in range(2)]
            moved = []
            for member in members:
                rows = [list(r) for r in member.rows]
                rows[rng.randrange(d)][rng.randrange(d)] += R.one
                moved.append(LinMap(R, rows))
            dense = [LinMap(R, [[scalar() for _ in range(d)] for _ in range(d)])]
            for theta in members + moved + dense:
                shifted = _plus_proper(alg, theta, scalar(), [scalar() for _ in range(d)])
                assert is_k_commuting(alg, shifted, k) == is_k_commuting(alg, theta, k)
                _assert_groups_unchanged(alg, theta, k)
                _assert_groups_unchanged(alg, shifted, k)
            if alg._unit_shift():
                proper = _plus_proper(alg, LinMap.zero(R, d), scalar(),
                                      [scalar() for _ in range(d)])
                assert list(alg.map_groups(proper.integral()[1]._cols, k)) == []
                assert is_k_commuting(alg, proper, k) == (True, None)


def test_a_unit_that_is_not_central_gets_no_reduction():
    """An algebra built without validation, with the table of M2 and E11 as
    its unit vector, which has a coordinate 1 but is not central: nothing
    is subtracted, and every verdict is that of the unreduced stream.
    Subtracting x -> x_0*E11 would make theta(x) = x_0*E11 zero and call
    it k-commuting, which it is not: [E11, E11 + E12] = E12."""
    for R in (Rationals(), Zmod(3), Zmod(4)):
        M2 = full_matrix_gma(R, 2, 1).algebra
        alg = Algebra(R, M2.labels, M2.table, M2.basis_vector(0))
        assert alg._unit_shift() == ()
        rng, d = random.Random(f"not-central-{R}"), alg.dim
        thetas = [_plus_proper(alg, LinMap.zero(R, d), c, [int(j == q) for j in range(d)])
                  for q in range(d) for c in (0, 1)]
        thetas += [LinMap(R, [[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)])
                   for _ in range(3)]
        refuted = 0
        for theta in thetas:
            for k in (1, 2, 3):
                expected = reference_is_k_commuting(alg, theta, k)
                assert is_k_commuting(alg, theta, k) == expected
                refuted += not expected[0]
        assert not is_k_commuting(alg, thetas[0], 1)[0]
        assert refuted


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
