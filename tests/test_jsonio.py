from fractions import Fraction

import pytest

from gmalg import jsonio
from gmalg.errors import DimensionMismatch, InputError
from gmalg.families import full_matrix_gma, triangular_gma
from gmalg.maps import LinMap
from gmalg.morita import build_gma, validate_context
from gmalg.rings import Rationals, Zmod


def test_algebra_round_trip(t3_z3):
    doc = jsonio.algebra_to_json(t3_z3.algebra)
    back = jsonio.algebra_from_json(doc)
    assert back.table == t3_z3.algebra.table
    assert back.unit == t3_z3.algebra.unit
    assert back.labels == t3_z3.algebra.labels


def test_context_round_trip(m2_z3):
    doc = jsonio.context_to_json(m2_z3.ctx)
    ctx = jsonio.context_from_json(doc)
    assert validate_context(ctx) == []
    G = build_gma(ctx)
    assert G.algebra.table == m2_z3.algebra.table


def test_rational_context_round_trip():
    G = triangular_gma(Rationals(), 2, 1)
    ctx = jsonio.context_from_json(jsonio.context_to_json(G.ctx))
    assert build_gma(ctx).algebra.table == G.algebra.table


def test_map_round_trip(m2_z3):
    theta = LinMap.identity(m2_z3.ring, m2_z3.dim).scale(2)
    back = jsonio.map_from_json(theta.to_json(), m2_z3.ring)
    assert back == theta


@pytest.mark.parametrize("ring, matrix, rows", [
    (Zmod(3), [[5, -1], [0, 3]], ((2, 2), (0, 0))),
    (Zmod(9), [[10, 0, -4], [1, 2, 3], [0, 0, 9]], ((1, 0, 5), (1, 2, 3), (0, 0, 0))),
    (Rationals(), [["1/2", "4/2"], [-3, "0/5"]], ((Fraction(1, 2), 2), (-3, 0))),
], ids=repr)
def test_map_decoding_is_in_normal_form(ring, matrix, rows):
    """Each scalar is decoded once, into normal form (an int when whole over
    Q): the map equals the one the coercing constructor builds."""
    theta = jsonio.map_from_json({"schema": "map/1", "matrix": matrix}, ring)
    assert theta.rows == rows
    assert [type(c) for r in theta.rows for c in r] == [type(c) for r in rows for c in r]
    ref = LinMap(ring, rows)
    assert theta == ref and theta._cols == ref._cols


@pytest.mark.parametrize("matrix", [[[1, 0], [0]], [[1, 0]], [[1], [0]]])
def test_a_map_matrix_that_is_not_square_is_refused(matrix):
    with pytest.raises(DimensionMismatch, match="^map matrix must be square$"):
        jsonio.map_from_json({"schema": "map/1", "matrix": matrix}, Zmod(3))


def test_dumps_is_canonical():
    a = jsonio.dumps({"b": 1, "a": [2, 3]})
    b = jsonio.dumps({"a": [2, 3], "b": 1})
    assert a == b == '{"a":[2,3],"b":1}\n'


def test_schema_mismatch_rejected(m2_z3):
    doc = jsonio.context_to_json(m2_z3.ctx)
    doc["schema"] = "context/999"
    with pytest.raises(InputError):
        jsonio.context_from_json(doc)
    with pytest.raises(InputError):
        jsonio.map_from_json({"schema": "map/0", "matrix": []}, Zmod(3))


def test_load_file_rejects_garbage(tmp_path):
    p = tmp_path / "x.json"
    p.write_text("[1, 2,")
    with pytest.raises(InputError):
        jsonio.load_file(str(p))
    with pytest.raises(InputError):
        jsonio.load_file(str(tmp_path / "missing.json"))
