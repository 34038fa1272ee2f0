"""The nonzero terms are what an ``Algebra``, a ``Bimodule`` and a
``MoritaContext`` store; ``table``, ``left``, ``right``, ``phi`` and ``psi``
are dense views of them.  Checked here against expansions and assemblies
written on the test side: on the conftest families, their transposes and a
context in a random basis of each corner, over Q, Z/3, Z/4 and Z/9.  Also:
the decoder refuses a bad scalar before a bad shape of its table, and
decoding, building and the verdicts expand no view."""

import json
import random

import pytest

from conftest import _in_random_basis, nullspace
from gmalg import algebra, jsonio
from gmalg.errors import DimensionMismatch, InputError
from gmalg.families import block_triangular_gma, full_matrix_gma, triangular_gma
from gmalg.morita import (BLOCKS, PRODUCTS, GMAlgebra, _corner_context, build_gma,
                          check_faithful, transpose, validate_context)
from gmalg.rings import Rationals, Zmod

SHAPES = {
    "M2": lambda R: full_matrix_gma(R, 2, 1),
    "T2": lambda R: triangular_gma(R, 2, 1),
    "T3": lambda R: triangular_gma(R, 3, 1),
    "B(2,1)": lambda R: block_triangular_gma(R, (2, 1), 1),
}
RINGS = [Rationals(), Zmod(3), Zmod(4), Zmod(9)]
VIEWS = ["plain", "transpose", "random basis"]


def _family(shape, ring, view):
    G = SHAPES[shape](ring)
    if view == "transpose":
        return build_gma(transpose(G.ctx))
    if view == "random basis":
        corner_of = [G.block_of_index(i)[0] for i in range(G.dim)]
        moved = _in_random_basis(G.algebra, random.Random(1), corner_of)[0]
        labels = [label.split(":", 1)[1] for label in G.algebra.labels]
        return build_gma(_corner_context(moved, corner_of, labels))
    return G


CASES = [(shape, ring, view) for shape in SHAPES for ring in RINGS for view in VIEWS]


@pytest.fixture(params=CASES, ids=lambda c: f"{c[0]}({c[1]!r}) {c[2]}")
def family(request):
    return _family(*request.param)


def _expand(terms, length):
    """The dense table of a table of nonzero terms."""
    return tuple(tuple(tuple(dict(cell).get(r, 0) for r in range(length)) for cell in row)
                 for row in terms)


def _views(ctx):
    """(the dense view, the terms, the vector length) of each tensor."""
    return [(ctx.A.table, ctx.A._terms, ctx.A.dim), (ctx.B.table, ctx.B._terms, ctx.B.dim),
            (ctx.M.left, ctx.M._left, ctx.M.dim), (ctx.M.right, ctx.M._right, ctx.M.dim),
            (ctx.N.left, ctx.N._left, ctx.N.dim), (ctx.N.right, ctx.N._right, ctx.N.dim),
            (ctx.phi, ctx._phi, ctx.A.dim), (ctx.psi, ctx._psi, ctx.B.dim)]


def test_a_decoded_context_encodes_to_its_document(family):
    doc = jsonio.context_to_json(family.ctx)
    again = jsonio.context_from_json(json.loads(json.dumps(doc)))
    assert jsonio.context_to_json(again) == doc
    assert [terms for _, terms, _ in _views(again)] == [
        terms for _, terms, _ in _views(family.ctx)]


def test_the_views_are_the_expanded_terms(family):
    ctx = jsonio.context_from_json(jsonio.context_to_json(family.ctx))
    G = build_gma(ctx)
    for view, terms, length in _views(ctx) + [(G.algebra.table, G.algebra._terms, G.dim)]:
        assert view == _expand(terms, length)
        # every cell's terms are its nonzero coordinates, in order
        assert terms == tuple(tuple(tuple((r, c) for r, c in enumerate(v) if c) for v in row)
                              for row in view)
    # expanded once, and read-only
    assert ctx.phi is ctx.phi and G.algebra.table is G.algebra.table
    with pytest.raises(AttributeError):
        G.algebra.table = ()


def _assembled(doc):
    """The ``algebra/1`` document of [A M; N B], assembled from the dense
    lists of a ``context/1`` document: each block product placed at the
    block offsets, every other cell zero."""
    parts = {"AAA": doc["A"]["mul"], "AMM": doc["M"]["left"], "MBM": doc["M"]["right"],
             "MNA": doc["phi"], "NMB": doc["psi"], "NAN": doc["N"]["right"],
             "BNN": doc["N"]["left"], "BBB": doc["B"]["mul"]}
    dims = {"A": doc["A"]["dim"], "M": doc["M"]["dim"], "N": doc["N"]["dim"],
            "B": doc["B"]["dim"]}
    offsets, d = {}, 0
    for b in BLOCKS:
        offsets[b], d = d, d + dims[b]
    mul = [[[0] * d for _ in range(d)] for _ in range(d)]
    for x, y, z in PRODUCTS:
        for i, row in enumerate(parts[x + y + z]):
            for j, v in enumerate(row):
                for r, c in enumerate(v):
                    mul[offsets[x] + i][offsets[y] + j][offsets[z] + r] = c
    labels = ([f"A:{s}" for s in doc["A"]["labels"]] + [f"M:{p}" for p in range(dims["M"])]
              + [f"N:{q}" for q in range(dims["N"])] + [f"B:{s}" for s in doc["B"]["labels"]])
    unit = doc["A"]["unit"] + [0] * (dims["M"] + dims["N"]) + doc["B"]["unit"]
    return {"schema": "algebra/1", "ring": doc["ring"], "dim": d, "labels": labels,
            "mul": mul, "unit": unit}


def test_the_built_algebra_is_the_assembled_blocks(family):
    doc = jsonio.context_to_json(family.ctx)
    G = build_gma(jsonio.context_from_json(doc))
    assert jsonio.algebra_to_json(G.algebra) == _assembled(doc)
    assert jsonio.algebra_to_json(family.algebra) == _assembled(doc)


def _dense_faithful(ctx):
    """``check_faithful`` from dense rows, one per (p, c), zero rows kept."""
    M = ctx.M
    left, right = _expand(M._left, M.dim), _expand(M._right, M.dim)

    def faithful(entry, dim):
        rows = [[entry(i, p, c) for i in range(dim)]
                for p in range(M.dim) for c in range(M.dim)]
        return dim == 0 or not nullspace(ctx.ring, rows, dim)

    return {"left_faithful": faithful(lambda i, p, c: left[i][p][c], ctx.A.dim),
            "right_faithful": faithful(lambda j, p, c: right[p][j][c], ctx.B.dim)}


def test_faithfulness_from_terms_is_that_of_dense_rows(family):
    for ctx in (family.ctx, family.transposed_ctx()):
        assert check_faithful(ctx) == _dense_faithful(ctx)


def test_faithfulness_of_a_module_that_is_not_faithful(non_faithful_z3):
    ctx = non_faithful_z3.ctx
    assert check_faithful(ctx) == _dense_faithful(ctx) == {
        "left_faithful": False, "right_faithful": True}


@pytest.mark.parametrize("ring", RINGS, ids=repr)
def test_decoding_and_building_expand_no_view(ring, monkeypatch):
    doc = jsonio.context_to_json(SHAPES["B(2,1)"](ring).ctx)
    calls, expand = [], algebra._expanded
    monkeypatch.setattr(algebra, "_expanded",
                        lambda *args: calls.append(args[1:]) or expand(*args))
    ctx = jsonio.context_from_json(doc)
    assert validate_context(ctx) == []
    G = build_gma(ctx)
    G.gma_center(), G.faithful(), GMAlgebra(G.transposed_ctx())
    assert calls == []
    jsonio.algebra_to_json(G.algebra)
    assert calls == [(G.dim, ring.zero)]


# ---------------------------------------------------------------------------
# refusal precedence: every scalar of a table, then the table's shape
# ---------------------------------------------------------------------------

def _m4_doc(ring):
    """M4 split at 2: every part 4-dimensional, so a table has later cells
    after a short one."""
    return jsonio.context_to_json(full_matrix_gma(ring, 4, 2).ctx)


@pytest.mark.parametrize("ring", [Zmod(3), Rationals()], ids=repr)
@pytest.mark.parametrize("short, bad, error", [
    # a short vector or row, then a bad scalar later in the same table
    (("A", "mul", 0, 0), ("A", "mul", 1, 1, 0), InputError),
    (("A", "mul", 0), ("A", "mul", 1, 1, 0), InputError),
    (("M", "left", 0, 0), ("M", "left", 1, 1, 0), InputError),
    (("phi", 0, 0), ("phi", 1, 1, 0), InputError),
    (("psi", 0), ("psi", 1, 1, 0), InputError),
    # a short table cell and a bad unit scalar of the same algebra; a short
    # vector in one action table and a bad scalar in the other; the same
    # for the two pairings: each part is decoded whole before its check
    (("A", "mul", 0, 0), ("A", "unit", 0), InputError),
    (("M", "left", 0, 0), ("M", "right", 0, 0, 0), InputError),
    (("phi", 0, 0), ("psi", 0, 0, 0), InputError),
    # A is checked before B is decoded, and M before the pairings
    (("A", "mul", 0, 0), ("B", "mul", 0, 0, 0), DimensionMismatch),
    (("M", "left", 0, 0), ("phi", 0, 0, 0), DimensionMismatch),
], ids=lambda x: " ".join(map(str, x)) if isinstance(x, tuple) else None)
def test_a_bad_scalar_is_refused_before_a_bad_shape(ring, short, bad, error):
    doc = _m4_doc(ring)

    def at(path):
        obj = doc
        for key in path:
            obj = obj[key]
        return obj

    at(short).pop()
    at(bad[:-1])[bad[-1]] = True
    with pytest.raises(error) as refused:
        jsonio.context_from_json(doc)
    if error is InputError:
        assert str(refused.value) == f"not a scalar of {ring!r}: True"
