"""Loading a context: the structure-constant scan and the assembled block
algebra.

``Algebra.structure_violations`` compares only the triples on a nonzero
product path; here it must give the same list, in the same order, as a
scan of all d^3 triples.  ``GMAlgebra`` assembles its algebra from the
block terms; here it must equal the algebra the public constructor builds
from the same table.  ``tests/golden/validate.json`` pins the ``gmalg
validate`` output of seeded corrupted contexts.

Regenerate the golden file (only when an output change is intended) with
``PYTHONPATH=src python tests/test_validation.py``.
"""

import contextlib
import io
import json
import pathlib
import random
import tempfile
from fractions import Fraction

import pytest
from conftest import _in_random_basis
from test_golden import _corrupt_context, _scalar

from gmalg import cli, jsonio
from gmalg.algebra import Algebra
from gmalg.families import (
    block_triangular_gma,
    full_matrix_gma,
    matrix_algebra,
    triangular_gma,
    triangular_matrix_algebra,
)
from gmalg.morita import (
    Bimodule,
    GMAlgebra,
    MoritaContext,
    _corner_context,
    transpose,
    validate_context,
)
from gmalg.rings import Rationals, Zmod

VALIDATE_GOLDEN = pathlib.Path(__file__).with_name("golden") / "validate.json"

CONFTEST_FAMILIES = ("m2_z3", "m2_z5", "t2_z3", "t2_z5", "t3_z3", "b21_z3")


def dense_violations(alg):
    """``structure_violations`` by definition: the unit laws at every
    basis element, then associativity at every triple, lexicographically,
    all from ``mul`` on basis vectors."""
    e = alg.basis()
    out = []
    for i in range(alg.dim):
        if alg.mul(alg.unit, e[i]) != e[i]:
            out.append(("left_unit", i))
        if alg.mul(e[i], alg.unit) != e[i]:
            out.append(("right_unit", i))
    for i in range(alg.dim):
        for j in range(alg.dim):
            eij = alg.mul(e[i], e[j])
            for k in range(alg.dim):
                if alg.mul(eij, e[k]) != alg.mul(e[i], alg.mul(e[j], e[k])):
                    out.append(("associativity", (i, j, k)))
    return out


def _corrupt_algebra(alg, rng):
    """``alg`` with one structure constant or one unit coordinate replaced
    by a different seeded scalar, built the public way."""
    table = [[list(cell) for cell in row] for row in alg.table]
    unit = list(alg.unit)
    if rng.random() < 0.25:
        target, r = unit, rng.randrange(alg.dim)
    else:
        target, r = table[rng.randrange(alg.dim)][rng.randrange(alg.dim)], rng.randrange(alg.dim)
    old = target[r]
    while alg.ring.coerce(target[r]) == old:
        target[r] = _scalar(rng, alg.ring)
    return Algebra(alg.ring, alg.labels, table, unit)


@pytest.mark.parametrize("family", CONFTEST_FAMILIES)
def test_scan_matches_dense_reference_on_families(family, request):
    G = request.getfixturevalue(family)
    for alg in (G.algebra, G.A, G.B):
        assert alg.structure_violations() == dense_violations(alg) == []


@pytest.mark.parametrize("n", [9, 5])
def test_scan_matches_dense_reference_in_a_random_basis(n):
    rng = random.Random(f"scan/random-basis/{n}")
    for build in (lambda R: matrix_algebra(R, 2), lambda R: matrix_algebra(R, 3),
                  lambda R: triangular_matrix_algebra(R, 3)):
        alg, _, _ = _in_random_basis(build(Zmod(n)), rng)
        assert alg.structure_violations() == dense_violations(alg) == []
        for _ in range(3):
            bad = _corrupt_algebra(alg, rng)
            found = bad.structure_violations()
            assert found and found == dense_violations(bad)


@pytest.mark.parametrize("ring", [Zmod(4), Zmod(9), Rationals()], ids=repr)
def test_scan_matches_dense_reference_on_corruptions(ring):
    rng = random.Random(f"scan/corrupt/{ring!r}")
    algebras = [matrix_algebra(ring, 2), triangular_matrix_algebra(ring, 3),
                full_matrix_gma(ring, 3, 1).algebra,
                block_triangular_gma(ring, (2, 1), 1).algebra]
    for alg in algebras:
        for _ in range(6):
            bad = _corrupt_algebra(alg, rng)
            found = bad.structure_violations()
            assert found and found == dense_violations(bad)
    # corrupted contexts, through the assembled block algebra
    for G in (full_matrix_gma(ring, 2, 1), triangular_gma(ring, 3, 1)):
        for hits in (1, 1, 2, 3):
            _, bad = _corrupt_context(G.ctx, rng, hits)
            alg = GMAlgebra(bad).algebra
            assert alg.structure_violations() == dense_violations(alg)


def _three_dim(ring, e1e1, e2e1, e1e2=(0, 0, 0)):
    """The algebra on 1, e1, e2 with e1 e1, e2 e1 and e1 e2 as given (in
    coordinates of 1, e1, e2), e2 e2 = 0 and 1 its unit, built the public way."""
    one, e1, e2 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    z = (0, 0, 0)
    return Algebra(ring, ["1", "e1", "e2"],
                   [[one, e1, e2], [e1, e1e1, e1e2], [e2, e2e1, z]], one)


@pytest.mark.parametrize("n, b, c", [(4, 2, 2), (6, 2, 3), (6, 3, 2)])
def test_sides_that_differ_by_a_multiple_of_n_are_equal(n, b, c):
    """e1 e1 = b e2 and e2 e1 = c e1 with b c = n: at (1, 1, 1) the left
    side (e1 e1) e1 = b c e1 sums to n at e1, the right side e1 (e1 e1) = 0
    has no term there, so the two sums differ and must still pass.  With
    e2 e1 = c e1 + e2 the left side also holds b e2, not a multiple of n,
    at e2, and (1, 1, 1) fails."""
    ring = Zmod(n)
    passing = _three_dim(ring, (0, 0, b), (0, c, 0))
    found = passing.structure_violations()
    assert ("associativity", (1, 1, 1)) not in found
    assert ("associativity", (1, 2, 1)) not in found      # e1 (e2 e1) = c b e2
    assert found == dense_violations(passing)
    failing = _three_dim(ring, (0, 0, b), (0, c, 1))
    found = failing.structure_violations()
    assert ("associativity", (1, 1, 1)) in found
    assert found == dense_violations(failing)


def test_a_side_that_cancels_to_zero_at_a_key_the_other_lacks_passes():
    """Over Q, e1 e1 = e2 + e3 and e2 e1 = e1/2, e3 e1 = -e1/2: the left side
    (e1 e1) e1 sums to Fraction(0) at e1, where e1 (e1 e1) = e1 e2 + e1 e3 = 0
    has no term."""
    ring, half = Rationals(), Fraction(1, 2)
    basis = [tuple(int(i == j) for j in range(4)) for i in range(4)]
    one, e1, e2, e3 = basis
    z = (0, 0, 0, 0)
    table = [[one, e1, e2, e3],
             [e1, (0, 0, 1, 1), z, z],
             [e2, (0, half, 0, 0), z, z],
             [e3, (0, -half, 0, 0), z, z]]
    alg = Algebra(ring, ["1", "e1", "e2", "e3"], table, one)
    found = alg.structure_violations()
    assert ("associativity", (1, 1, 1)) not in found
    assert found == dense_violations(alg)
    broken = Algebra(ring, alg.labels, table[:3] + [[e3, (0, half, 0, 0), z, z]], one)
    found = broken.structure_violations()
    assert ("associativity", (1, 1, 1)) in found
    assert found == dense_violations(broken)


@pytest.mark.parametrize("family", CONFTEST_FAMILIES)
def test_scan_matches_dense_reference_on_families_in_a_random_basis(family, request):
    G = request.getfixturevalue(family)
    rng = random.Random(f"scan/family/{family}")
    for alg in (G.algebra, G.A, G.B):
        if alg.dim < 2:
            continue
        moved, _, _ = _in_random_basis(alg, rng)
        assert moved.structure_violations() == dense_violations(moved) == []
        bad = _corrupt_algebra(moved, rng)
        found = bad.structure_violations()
        assert found and found == dense_violations(bad)


# -- the assembled block algebra ----------------------------------------------


def assert_built_the_public_way(G):
    alg = G.algebra
    public = Algebra(alg.ring, alg.labels, alg.table, alg.unit)
    # repr tells an int from an equal Fraction and a tuple from a list
    assert repr(alg.table) == repr(public.table)
    assert repr(alg.unit) == repr(public.unit)
    assert alg.labels == public.labels and alg.dim == public.dim
    assert repr(alg._terms) == repr(public._terms)


def _rescaled(G, rng):
    """The context of G in a basis of rational multiples s_i e_i of its
    basis elements: the structure constant of e_i e_j at e_r is scaled by
    s_i s_j / s_r, and the unit's coordinate at e_r by 1 / s_r."""
    alg, corner_of = G.algebra, [G.block_of_index(i)[0] for i in range(G.dim)]
    s = [Fraction(rng.choice([1, 2, 3, -5]), rng.choice([1, 2, 7])) for _ in range(G.dim)]
    table = [[[c * s[i] * s[j] / s[r] for r, c in enumerate(alg.table[i][j])]
              for j in range(G.dim)] for i in range(G.dim)]
    unit = [c / s[r] for r, c in enumerate(alg.unit)]
    scaled = Algebra(alg.ring, alg.labels, table, unit)
    return _corner_context(scaled, corner_of,
                           [label.split(":", 1)[1] for label in alg.labels])


@pytest.mark.parametrize("family", CONFTEST_FAMILIES)
def test_block_algebra_is_built_the_public_way(family, request):
    G = request.getfixturevalue(family)
    assert_built_the_public_way(G)
    assert_built_the_public_way(GMAlgebra(transpose(G.ctx)))


def test_block_algebra_after_a_json_round_trip_over_q():
    rng = random.Random("assemble/q")
    for G in (full_matrix_gma(Rationals(), 2, 1), full_matrix_gma(Rationals(), 3, 1),
              triangular_gma(Rationals(), 3, 2),
              block_triangular_gma(Rationals(), (1, 2), 1)):
        ctx = _rescaled(G, rng)
        doc = json.loads(jsonio.dumps(jsonio.context_to_json(ctx)))
        back = jsonio.context_from_json(doc)
        assert validate_context(back) == []
        H = GMAlgebra(back)
        assert any(type(c) is Fraction for row in H.algebra.table
                   for cell in row for c in cell)
        assert_built_the_public_way(H)
        assert_built_the_public_way(GMAlgebra(transpose(back)))


def test_block_algebra_with_n_zero():
    for ring in (Zmod(4), Rationals()):
        G = triangular_gma(ring, 3, 1)
        assert G.dims[2] == 0
        assert_built_the_public_way(G)
        assert_built_the_public_way(GMAlgebra(transpose(G.ctx)))


# -- gmalg validate on corrupted contexts -------------------------------------

VALIDATE_FAMILIES = [
    ("M2(Z/4)", lambda: full_matrix_gma(Zmod(4), 2, 1)),
    ("T3(Z/4)", lambda: triangular_gma(Zmod(4), 3, 1)),
    ("M2(Z/9)", lambda: full_matrix_gma(Zmod(9), 2, 1)),
    ("B(2,1)(Z/3)", lambda: block_triangular_gma(Zmod(3), (2, 1), 1)),
    ("M3(Q)", lambda: full_matrix_gma(Rationals(), 3, 1)),
    ("T3(Q)", lambda: triangular_gma(Rationals(), 3, 2)),
    ("T2(Z/9)", lambda: triangular_gma(Zmod(9), 2, 1)),
]


def _with_unit(ctx, block, r, c):
    """The context with coordinate r of A's (or B's) unit set to c."""
    alg = getattr(ctx, block)
    unit = list(alg.unit)
    unit[r] = c
    changed = Algebra(ctx.ring, alg.labels, alg.table, unit)
    A, B = (changed, ctx.B) if block == "A" else (ctx.A, changed)
    M = Bimodule(ctx.ring, ctx.M.dim, ctx.M.left, ctx.M.right, A.dim, B.dim)
    N = Bimodule(ctx.ring, ctx.N.dim, ctx.N.left, ctx.N.right, B.dim, A.dim)
    return MoritaContext(A, B, M, N, ctx.phi, ctx.psi)


def validate_cases():
    """(label, corrupted context): per family one and two corrupted
    structure constants, and a changed unit coordinate."""
    for name, build in VALIDATE_FAMILIES:
        ctx = build().ctx
        rng = random.Random(f"validate/{name}")
        for hits in (1, 2):
            touched, bad = _corrupt_context(ctx, rng, hits)
            yield f"{name} corrupt={touched}", bad
        block = rng.choice(["A", "B"])
        r = rng.randrange(getattr(ctx, block).dim)
        c = _scalar(rng, ctx.ring)
        if c == getattr(ctx, block).unit[r]:
            c = ctx.ring.normal(c + ctx.ring.one)
        yield f"{name} unit {block}[{r}]={c}", _with_unit(ctx, block, r, c)


def compute_validate_golden():
    """Exit code and stdout of ``gmalg validate``, by case label."""
    got = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = str(pathlib.Path(tmp) / "context.json")
        for label, ctx in validate_cases():
            with open(path, "w") as fh:
                fh.write(jsonio.dumps(jsonio.context_to_json(ctx)))
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(["validate", path])
            got[label] = [code, out.getvalue()]
    return got


def test_validate_output_matches_golden():
    expected = json.loads(VALIDATE_GOLDEN.read_text())
    got = compute_validate_golden()
    assert list(got) == list(expected)
    for label in expected:
        assert got[label] == expected[label], label


if __name__ == "__main__":
    VALIDATE_GOLDEN.write_text(
        json.dumps(compute_validate_golden(), indent=1) + "\n")
