import contextlib
import hashlib
import io
import json
import pathlib
import re

import pytest

from gmalg import algebra, cli, families, jsonio, linalg
from gmalg.algebra import Algebra
from gmalg.errors import BadShape, BadSplit, DimensionMismatch
from gmalg.families import (
    InflatedSpec,
    block_triangular_gma,
    block_triangular_matrix_algebra,
    full_matrix_gma,
    inflated_algebra,
    matrix_algebra,
    triangular_gma,
    _tensor,
    triangular_matrix_algebra,
)
from gmalg.maps import LinMap
from gmalg.morita import Bimodule, MoritaContext, _corner_context, build_gma, validate_context
from gmalg.rings import Rationals, Zmod

from conftest import Q_FAMILIES, is_normal, proper_map


def scalar_algebra(R):
    return Algebra(R, ["e"], [[(1,)]], (1,)).validate()


def test_matrix_algebra_shape():
    A = matrix_algebra(Zmod(3), 3)
    assert A.dim == 9
    assert A.labels[0] == "E11"
    assert A.validate() is A


def test_triangular_algebra_shape():
    U = triangular_matrix_algebra(Zmod(3), 3)
    assert U.dim == 6
    L = triangular_matrix_algebra(Zmod(3), 3, lower=True)
    assert L.dim == 6
    # lower is the opposite presentation of upper
    assert sorted(L.labels) == sorted(
        lbl[0] + lbl[2] + lbl[1] for lbl in U.labels
    )


def test_block_triangular_algebra_shape():
    A = block_triangular_matrix_algebra(Zmod(3), (2, 1))
    assert A.dim == 2 * 2 + 2 * 1 + 1
    A.validate()


def full_matrix_basis_bijection(G, n, split_j):
    """Global basis index -> matrix position (r, c) in M_n under the block
    partition; inverts the construction of full_matrix_gma."""
    j = split_j
    out = {}
    for loc, i in enumerate(G.block_range("A")):
        out[i] = (loc // j, loc % j)
    for loc, i in enumerate(G.block_range("M")):
        out[i] = (loc // (n - j), j + loc % (n - j))
    for loc, i in enumerate(G.block_range("N")):
        out[i] = (j + loc // j, loc % j)
    for loc, i in enumerate(G.block_range("B")):
        out[i] = (j + loc // (n - j), j + loc % (n - j))
    return out


def verify_full_matrix_model(G, n, split_j):
    """Whether G's multiplication matches matrix-unit multiplication in
    M_n under the explicit basis bijection."""
    bij = full_matrix_basis_bijection(G, n, split_j)
    rg = G.ring
    for i1 in range(G.dim):
        r1, c1 = bij[i1]
        for i2 in range(G.dim):
            r2, c2 = bij[i2]
            prod = G.algebra.table[i1][i2]
            expect = [rg.zero] * G.dim
            if c1 == r2:
                target = next(
                    idx for idx, pos in bij.items() if pos == (r1, c2)
                )
                expect[target] = rg.one
            if prod != tuple(expect):
                return False
    return True


def test_full_matrix_gma_blocks_and_model():
    G = full_matrix_gma(Zmod(3), 3, 1)
    assert G.dims == (1, 2, 2, 4)
    assert G.dim == 9
    assert verify_full_matrix_model(G, 3, 1)
    bij = full_matrix_basis_bijection(G, 3, 1)
    assert sorted(bij.values()) == [(r, c) for r in range(3) for c in range(3)]


def test_full_matrix_model_other_split():
    G = full_matrix_gma(Zmod(5), 3, 2)
    assert G.dims == (4, 2, 2, 1)
    assert verify_full_matrix_model(G, 3, 2)


def test_bad_splits_rejected():
    with pytest.raises(BadSplit):
        full_matrix_gma(Zmod(3), 2, 2)
    with pytest.raises(BadSplit):
        full_matrix_gma(Zmod(3), 2, 0)
    with pytest.raises(BadShape):
        full_matrix_gma(Zmod(3), 1, 1)
    with pytest.raises(BadSplit):
        triangular_gma(Zmod(3), 3, 3)
    with pytest.raises(BadSplit):
        block_triangular_gma(Zmod(3), (2, 1), 2)
    with pytest.raises(BadShape):
        block_triangular_gma(Zmod(3), (2, 0), 1)


def test_triangular_gma_variants():
    up = triangular_gma(Zmod(3), 2, 1)
    assert up.dims == (1, 1, 0, 1)
    low = triangular_gma(Zmod(3), 2, 1, variant="lower")
    assert low.dims == (1, 0, 1, 1)
    assert validate_context(low.ctx) == []
    with pytest.raises(BadShape):
        triangular_gma(Zmod(3), 2, 1, variant="diagonal")


def test_triangular_gma_with_ten_by_ten_block():
    # from n = 10 on a label E{r}{c} no longer tells the position (E110);
    # building validates every context axiom on the matrix positions
    G = triangular_gma(Zmod(3), 11, 1)
    assert G.dims == (1, 10, 0, 55)
    assert G.ctx.B.labels[9] == "E1,10"


TWELVE = {
    "M12": lambda R: [matrix_algebra(R, 12).labels],
    "T12": lambda R: [triangular_matrix_algebra(R, 12).labels],
    "inflated M12": lambda R: [inflated_algebra(InflatedSpec(
        scalar_algebra(R), 12,
        [[(int(r == c),) for c in range(12)] for r in range(12)])).algebra.labels],
    **{
        kind: lambda R, build=build: [
            labels for G in [build(R)]
            for labels in (G.ctx.A.labels, G.ctx.B.labels, G.algebra.labels)]
        for kind, build in [
            ("full", lambda R: full_matrix_gma(R, 12, 1)),
            ("triangular", lambda R: triangular_gma(R, 12, 1)),
            ("triangular lower", lambda R: triangular_gma(R, 12, 11, "lower")),
            ("block", lambda R: block_triangular_gma(R, (1, 11), 1)),
        ]
    },
}


@pytest.mark.parametrize("kind", sorted(TWELVE))
def test_labels_of_twelve_by_twelve_families_are_distinct(kind):
    # as E{r}{c}, E111 would name both (1, 11) and (11, 1)
    for labels in TWELVE[kind](Zmod(2)):
        assert len(set(labels)) == len(labels)


def test_block_triangular_gma_dims(b21_z3):
    assert b21_z3.dims == (4, 2, 0, 1)
    assert b21_z3.dim == 7


def test_inflated_identity_twist():
    base = scalar_algebra(Zmod(3))
    spec = InflatedSpec(base, 2, [[(1,), (0,)], [(0,), (1,)]])
    inf = inflated_algebra(spec)
    assert inf.has_identity
    # with the trivial twist the product is plain matrix multiplication
    assert inf.identity == (1, 0, 0, 1)
    for p in range(4):
        assert inf.sigma.column(p) == inf.algebra.basis_vector(p)


def test_inflated_invertible_twist():
    base = scalar_algebra(Zmod(3))
    spec = InflatedSpec(base, 2, [[(1,), (0,)], [(0,), (2,)]])
    inf = inflated_algebra(spec)
    assert inf.has_identity
    assert inf.identity == (1, 0, 0, 2)
    alg = inf.algebra
    for i in range(alg.dim):
        e = alg.basis_vector(i)
        assert alg.mul(alg.unit, e) == e
        assert alg.mul(e, alg.unit) == e


def test_inflated_singular_twist_is_non_unital():
    base = scalar_algebra(Zmod(3))
    spec = InflatedSpec(base, 2, [[(1,), (0,)], [(0,), (0,)]])
    inf = inflated_algebra(spec)
    assert not inf.has_identity
    assert inf.identity is None
    assert inf.sigma is None


def test_inflated_over_matrix_base():
    base = matrix_algebra(Zmod(3), 2)
    ident = [(1, 0, 0, 1)]
    zero = [(0, 0, 0, 0)]
    spec = InflatedSpec(
        base,
        2,
        [[ident[0], zero[0]], [zero[0], (2, 0, 0, 2)]],
    )
    inf = inflated_algebra(spec)
    assert inf.has_identity
    inf.algebra.validate()
    assert inf.algebra.dim == 16


@pytest.mark.parametrize("gamma", [
    [[(1,), (0,)]],                   # one row for n = 2
    [[(1,), (0,), (0,)], [(0,), (1,), (0,)]],   # 2 x 3
    [[(1,), (0,)], [(0,)]],           # a short second row
])
def test_inflated_twist_of_wrong_shape_is_refused(gamma):
    with pytest.raises(BadShape):
        inflated_algebra(InflatedSpec(scalar_algebra(Zmod(3)), 2, gamma))


HUGE = 99999999999999999999
TOO_LARGE = "^family too large: a dense document of over 10000000 scalars$"


M12_Z3 = matrix_algebra(Zmod(3), 12)


def _identity_twist(base, n):
    one, zero = base.unit, base.zero()
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("build", [
    lambda R: full_matrix_gma(R, HUGE, 1),
    lambda R: full_matrix_gma(R, 400, 200),
    lambda R: triangular_gma(R, HUGE, 1),
    lambda R: triangular_gma(R, 10**9, 10**9 - 1, "lower"),
    lambda R: block_triangular_gma(R, (HUGE, 1), 1),
    lambda R: block_triangular_gma(R, (1, 1, 10**6), 2),
    lambda R: matrix_algebra(R, HUGE),
    lambda R: triangular_matrix_algebra(R, 10**9),
    lambda R: block_triangular_matrix_algebra(R, (1, HUGE)),
    lambda R: inflated_algebra(InflatedSpec(M12_Z3, 2, _identity_twist(M12_Z3, 2))),
], ids=["full", "full 400", "triangular", "triangular lower", "block", "block 10^6",
        "matrix", "triangular algebra", "block algebra", "inflated over M12"])
def test_a_family_too_large_for_its_document_is_refused_before_it_is_built(build, monkeypatch):
    def built(*args, **kwargs):
        raise AssertionError("a refused family was built")

    monkeypatch.setattr(families, "_matrix_units", built)
    monkeypatch.setattr(families, "_tensor", built)
    with pytest.raises(BadShape, match=TOO_LARGE):
        build(Zmod(3))


def _dense_scalars(doc):
    """The scalars of a dense document: the leaves of its tensors."""
    def leaves(v):
        if isinstance(v, dict):
            return sum(leaves(c) for key, c in v.items() if key not in ("dim", "labels"))
        return sum(map(leaves, v)) if isinstance(v, list) else 1
    return leaves({key: v for key, v in doc.items() if key not in ("schema", "ring")})


@pytest.mark.parametrize("build, document", [
    (lambda R: full_matrix_gma(R, 4, 1), lambda G: jsonio.context_to_json(G.ctx)),
    (lambda R: full_matrix_gma(R, 5, 2), lambda G: jsonio.context_to_json(G.ctx)),
    (lambda R: triangular_gma(R, 5, 2), lambda G: jsonio.context_to_json(G.ctx)),
    (lambda R: triangular_gma(R, 5, 3, "lower"), lambda G: jsonio.context_to_json(G.ctx)),
    (lambda R: block_triangular_gma(R, (2, 1, 3), 1), lambda G: jsonio.context_to_json(G.ctx)),
    (lambda R: block_triangular_gma(R, (2, 1, 3), 2), lambda G: jsonio.context_to_json(G.ctx)),
    (lambda R: matrix_algebra(R, 3), jsonio.algebra_to_json),
    (lambda R: triangular_matrix_algebra(R, 4), jsonio.algebra_to_json),
    (lambda R: block_triangular_matrix_algebra(R, (1, 3)), jsonio.algebra_to_json),
    (lambda R: inflated_algebra(InflatedSpec(scalar_algebra(R), 3, _identity_twist(
        scalar_algebra(R), 3))).algebra, jsonio.algebra_to_json),
], ids=["M4 1", "M5 2", "T5 2", "T5 3 lower", "B(2,1,3) 1", "B(2,1,3) 2", "M3", "T4",
        "B(1,3)", "inflated 3"])
def test_the_size_bound_counts_the_dense_document_exactly(build, document, monkeypatch):
    count = _dense_scalars(document(build(Zmod(3))))
    monkeypatch.setattr(families, "MAX_DOC_SCALARS", count)
    build(Zmod(3))
    monkeypatch.setattr(families, "MAX_DOC_SCALARS", count - 1)
    with pytest.raises(BadShape, match="a dense document of over"):
        build(Zmod(3))


def _context_tensors(ctx):
    return (ctx.A.table, ctx.A.unit, ctx.B.table, ctx.B.unit, ctx.M.left,
            ctx.M.right, ctx.N.left, ctx.N.right, ctx.phi, ctx.psi)


@pytest.mark.parametrize("name", ["m2_z3", "m2_z5", "t2_z3", "t2_z5",
                                  "t3_z3", "b21_z3"])
def test_corner_context_inverts_the_block_algebra(name, request):
    G = request.getfixturevalue(name)
    corner_of = [G.block_of_index(i)[0] for i in range(G.dim)]
    ctx = _corner_context(G.algebra, corner_of)
    assert _context_tensors(ctx) == _context_tensors(G.ctx)
    assert build_gma(ctx).algebra.table == G.algebra.table


@pytest.mark.parametrize("build", [
    lambda R: full_matrix_gma(R, 3, 1),
    lambda R: triangular_gma(R, 3, 2, variant="lower"),
    lambda R: block_triangular_gma(R, (1, 2), 1),
])
def test_family_is_validated_once(build, monkeypatch):
    # the corners are checked as part of the block algebra, not again
    calls = []
    original = Algebra.structure_violations
    monkeypatch.setattr(Algebra, "structure_violations",
                        lambda self: calls.append(self.dim) or original(self))
    G = build(Zmod(3))
    assert calls == [G.dim]

@pytest.mark.parametrize("build", [
    lambda R: full_matrix_gma(R, 3, 1),
    lambda R: triangular_gma(R, 3, 2, variant="lower"),
    lambda R: block_triangular_gma(R, (1, 2), 1),
])
@pytest.mark.parametrize("ring", [Zmod(3), Rationals()])
def test_family_coerces_no_cell(build, ring, monkeypatch):
    """The matrix-unit algebra, its corners and their context are built from
    cells already in normal form, so no scalar is coerced."""
    calls = []
    original = type(ring).coerce
    monkeypatch.setattr(type(ring), "coerce",
                        lambda self, v: calls.append(v) or original(self, v))
    build(ring)
    assert calls == []


# the families of ``conftest``: fixture names, and the Q builders
CONFTEST_FAMILIES = ["m2_z3", "m2_z5", "t2_z3", "t2_z5", "t3_z3", "b21_z3",
                     "non_faithful_z3"] + [name for name, _, _ in Q_FAMILIES]


def _family(name, request):
    return next((build() for q, _, build in Q_FAMILIES if q == name), None) \
        or request.getfixturevalue(name)


def _decoded_verdicts(G, tmp_path, monkeypatch):
    """Decode the context of G, a proper map and a map that is not
    commuting, and make the decoders answer with what they decoded.
    Returns the command lines of ``validate``, ``classify`` (both modes)
    and ``sweep`` (every mode) on them, at k = 1 and 2, for ``_run``."""
    ctx_path = tmp_path / "ctx.json"
    ctx_path.write_text(jsonio.dumps(jsonio.context_to_json(G.ctx)))
    ctx = jsonio.context_from_json(jsonio.load_file(str(ctx_path)))
    alg, m = G.algebra, G.embed("M", G.ctx.M.basis_vector(0))
    thetas = {"proper": proper_map(G, 2, [j % 3 - 1 for j in range(G.dim)]),
              "refuted": LinMap.from_columns(G.ring, [alg.mul(m, e) for e in alg.basis()])}
    decoded, runs = {}, [["validate", str(ctx_path)]]
    for name, theta in thetas.items():
        path = tmp_path / f"{name}.json"
        path.write_text(jsonio.dumps(theta.to_json()))
        doc = jsonio.load_file(str(path))
        decoded[jsonio.dumps(doc)] = jsonio.map_from_json(doc, G.ring)
        runs += [["classify", str(ctx_path), str(path), "--mode", mode, "--k", k]
                 for mode in ("basic", "proper") for k in "12"]
    runs += [["sweep", str(ctx_path), "--mode", mode, "--samples", "2", "--k", k]
             for mode in ("structure", "proper", "steps", "derivations") for k in "12"]
    monkeypatch.setattr(jsonio, "context_from_json", lambda doc: ctx)
    monkeypatch.setattr(jsonio, "map_from_json", lambda doc, ring: decoded[jsonio.dumps(doc)])
    return runs


def _run(runs):
    for argv in runs:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.main(argv)


@pytest.mark.parametrize("name", CONFTEST_FAMILIES)
def test_verdicts_coerce_nothing_after_decoding(name, request, tmp_path, monkeypatch):
    """Once a context and a map are decoded, no verdict coerces a scalar:
    everything gmalg builds from them is in normal form already."""
    G = _family(name, request)
    runs = _decoded_verdicts(G, tmp_path, monkeypatch)
    calls = []
    for cls in (Zmod, Rationals):
        coerce = cls.coerce
        monkeypatch.setattr(cls, "coerce",
                            lambda self, v, coerce=coerce: calls.append(v) or coerce(self, v))
    _run(runs)
    assert calls == []


@pytest.mark.parametrize("name", CONFTEST_FAMILIES)
def test_verdicts_expand_no_dense_view(name, request, tmp_path, monkeypatch):
    """No verdict reads a dense table: ``validate``, ``classify`` and
    ``sweep`` read the stored terms alone, with or without the oracle.
    Only the ``build`` encoder expands a view (``algebra._expanded``)."""
    G = _family(name, request)
    runs = _decoded_verdicts(G, tmp_path, monkeypatch)
    calls, expand = [], algebra._expanded
    monkeypatch.setattr(algebra, "_expanded",
                        lambda *args: calls.append(args[1]) or expand(*args))
    _run(runs)
    assert calls == []
    _run([next(argv for argv in runs if argv[0] == "classify") + ["--oracle"]])
    assert calls == []
    _run([["build", runs[0][1]]])
    assert calls == [G.dim]


@pytest.mark.parametrize("name", CONFTEST_FAMILIES)
def test_elimination_is_fed_normal_form(name, request, tmp_path, monkeypatch):
    """``linalg`` coerces nothing: every entry of every row it eliminates is
    in normal form when it arrives."""
    G = _family(name, request)
    rows, sparse = [], linalg._sparse
    monkeypatch.setattr(linalg, "_sparse", lambda row: rows.append(row) or sparse(row))
    _run(_decoded_verdicts(G, tmp_path, monkeypatch))
    entries = [x for row in rows for x in (row.values() if isinstance(row, dict) else row)]
    assert entries
    assert all(is_normal(G.ring, x) for x in entries)


def test_normal_constructors_keep_the_shape_checks():
    """Each malformed shape is refused, in the same words, by the public
    constructor and by ``jsonio``, which checks a document's shapes through
    the same helpers before it builds the parts from normal form."""
    R = Zmod(3)
    A = Algebra(R, ["e"], [[(1,)]], (1,))
    M = Bimodule(R, 1, [[(1,)]], [[(1,)]], 1, 1)
    doc = jsonio.context_to_json(MoritaContext(A, A, M, M, [[(1,)]], [[(1,)]]))
    # the public call, and the fields of the document that carry the same
    # shapes (in part "A", "M" or the context itself)
    cases = [
        (lambda: Algebra(R, ["a"], [[(1, 0)]], (1,)), "A", {"mul": [[[1, 0]]]}),
        (lambda: Algebra(R, ["a"], [[(1,)]], (1, 0)), "A", {"unit": [1, 0]}),
        (lambda: Algebra(R, ["a", "b"], [[(1, 0)]], (1, 0)), "A",
         {"labels": ["a", "b"], "mul": [[[1, 0]]], "unit": [1, 0]}),
        (lambda: Bimodule(R, 1, [[(1, 0)]], [[(1,)]], 1, 1), "M", {"left": [[[1, 0]]]}),
        (lambda: Bimodule(R, 1, [[(1,)]], [[(1,)], [(0,)]], 1, 1), "M",
         {"right": [[[1]], [[0]]]}),
        (lambda: MoritaContext(A, A, M, M, [[(1, 0)]], [[(1,)]]), None, {"phi": [[[1, 0]]]}),
        (lambda: MoritaContext(A, A, M, M, [[(1,)]], [[(1,)], [(1,)]]), None,
         {"psi": [[[1]], [[1]]]}),
    ]
    for build, part, fields in cases:
        with pytest.raises(DimensionMismatch) as public:
            build()
        bad = json.loads(json.dumps(doc))
        (bad[part] if part else bad).update(fields)
        with pytest.raises(DimensionMismatch, match=f"^{re.escape(str(public.value))}$"):
            jsonio.context_from_json(bad)
    assert build_gma(MoritaContext(A, A, M, M, [[(1,)]], [[(1,)]])).dim == 4
    assert build_gma(jsonio.context_from_json(doc)).dim == 4


@pytest.mark.parametrize("ring", [Zmod(3), Zmod(4), Rationals()])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_tensor_with_the_scalars_is_the_matrix_algebra(ring, n):
    Mn = matrix_algebra(ring, n)
    P = _tensor(Mn, scalar_algebra(ring))
    assert P.table == Mn.table
    assert P.unit == Mn.unit


@pytest.mark.parametrize("ring", [Zmod(3), Rationals()])
def test_tensor_of_two_matrix_algebras_validates(ring):
    M2 = matrix_algebra(ring, 2)
    P = _tensor(M2, M2)
    assert P.dim == 16
    assert P.validate() is P


# ---------------------------------------------------------------------------
# `gmalg family` output, pinned by exit code and digests
# ---------------------------------------------------------------------------

FAMILY_GOLDEN = pathlib.Path(__file__).with_name("golden") / "families.json"

GOLDEN_RINGS = ("zmod:3", "zmod:4", "zmod:9", "q")
# identity, invertible everywhere, invertible over Z/3 and Z/9 but not Z/4,
# invertible over Z/4 but not Z/3 or Z/9, singular, 3 x 3 invertible and
# singular
GAMMAS = ["1,0;0,1", "0,1;1,1", "1,0;0,2", "1,0;0,3", "1,0;0,0",
          "1,0,0;0,1,1;0,0,1", "1,1,0;1,1,0;0,0,1"]
Q_GAMMAS = ["1/2,0;0,-3/4", "1/3,1;2,1/2", "1/2,1;1/4,1/2"]
BAD_FLAGS = [
    ["--kind", "full", "--n", "2", "--split", "2"],
    ["--kind", "full", "--n", "1"],
    ["--kind", "triangular", "--n", "3", "--split", "3"],
    ["--kind", "triangular", "--n", "1"],
    ["--kind", "block", "--dims", "2,0"],
    ["--kind", "block", "--dims", "2,1", "--split", "2"],
    ["--kind", "block"],
    ["--kind", "block", "--dims", "a,b"],
    ["--kind", "inflated"],
    ["--kind", "inflated", "--gamma", "1,0"],
    ["--kind", "inflated", "--gamma", "1,0;0"],
]


def family_commands():
    """The ``gmalg family`` argument lists pinned in ``families.json``."""
    out = []
    for ring in GOLDEN_RINGS:
        flags = []
        for n in (2, 3, 4):
            flags += [["--kind", "full", "--n", str(n), "--split", str(j)]
                      for j in range(1, n)]
        for variant in ("upper", "lower"):
            for n in (2, 3, 4):
                flags += [["--kind", "triangular", "--n", str(n), "--split",
                           str(j), "--variant", variant] for j in range(1, n)]
        for dims, splits in (("2,1", (1,)), ("1,2", (1,)), ("1,1,1", (1, 2)),
                             ("2,1,1", (1, 2))):
            flags += [["--kind", "block", "--dims", dims, "--split", str(j)]
                      for j in splits]
        for g in GAMMAS + (Q_GAMMAS if ring == "q" else []):
            n = str(g.count(";") + 1)
            flags.append(["--kind", "inflated", "--n", n, "--gamma", g])
        out += [["family", "--ring", ring, *f] for f in flags + BAD_FLAGS]
    return out


def compute_family_golden():
    """Exit code and the sha256 of stdout and of stderr, by command line."""
    got = {}
    for argv in family_commands():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        got[" ".join(argv)] = [
            code,
            hashlib.sha256(out.getvalue().encode()).hexdigest(),
            hashlib.sha256(err.getvalue().encode()).hexdigest(),
        ]
    return got


def test_family_output_matches_golden():
    expected = json.loads(FAMILY_GOLDEN.read_text())
    got = compute_family_golden()
    assert list(got) == list(expected)
    for label in expected:
        assert got[label] == expected[label], label


if __name__ == "__main__":
    # regenerate (only when an output change is intended) with
    # PYTHONPATH=src python tests/test_families.py
    FAMILY_GOLDEN.write_text(json.dumps(compute_family_golden(), indent=1) + "\n")
