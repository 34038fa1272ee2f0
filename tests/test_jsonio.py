import itertools
import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import scale_map
from gmalg import jsonio
from gmalg.errors import DimensionMismatch, InputError
from gmalg.families import full_matrix_gma, triangular_gma
from gmalg.maps import LinMap
from gmalg.morita import build_gma, validate_context
from gmalg.rings import Rationals, Zmod, scalar_from_json


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
    theta = scale_map(LinMap.identity(m2_z3.ring, m2_z3.dim), 2)
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


def test_load_file_decodes_utf8_whatever_the_locale(tmp_path):
    p = tmp_path / "x.json"
    p.write_bytes('{"labels": ["\u00e9", "\u2218"]}'.encode("utf-8"))
    assert jsonio.load_file(str(p)) == {"labels": ["\u00e9", "\u2218"]}


# ---------------------------------------------------------------------------
# refusals: each decoded scalar, list and shape, with its message
# ---------------------------------------------------------------------------

def _context_doc(ring):
    G = full_matrix_gma(ring, 2, 1)
    return jsonio.context_to_json(G.ctx)


def _set(doc, path, value):
    """``doc`` with the entry at ``path`` (keys and indices) set to ``value``."""
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


@pytest.mark.parametrize("ring, bad, shown", [
    (Zmod(3), True, "True"),
    (Zmod(3), 1.0, "1.0"),
    (Zmod(3), "1/2", "'1/2'"),
    (Zmod(3), "1", "'1'"),
    (Rationals(), False, "False"),
    (Rationals(), 0.5, "0.5"),
    (Rationals(), "1/0", "'1/0'"),
    (Rationals(), "x", "'x'"),
    (Rationals(), None, "None"),
], ids=repr)
@pytest.mark.parametrize("path", [
    ("A", "mul", 0, 0, 0), ("A", "unit", 0), ("M", "left", 0, 0, 0),
    ("N", "right", 0, 0, 0), ("phi", 0, 0, 0), ("psi", 0, 0, 0),
], ids=lambda path: " ".join(map(str, path)))
def test_a_context_scalar_that_is_not_one_is_refused(ring, bad, shown, path):
    doc = _context_doc(ring)
    _set(doc, path, bad)
    with pytest.raises(InputError, match=f"^not a scalar of {re.escape(repr(ring))}: "
                                         f"{re.escape(shown)}$"):
        jsonio.context_from_json(doc)


@pytest.mark.parametrize("ring, bad, shown", [
    (Zmod(4), True, "True"), (Zmod(4), 2.0, "2.0"), (Zmod(4), "1/3", "'1/3'"),
    (Rationals(), True, "True"), (Rationals(), 0.25, "0.25"),
], ids=repr)
def test_a_map_scalar_that_is_not_one_is_refused(ring, bad, shown):
    matrix = [[1, 0], [0, bad]]
    with pytest.raises(InputError, match=f"^not a scalar of {re.escape(repr(ring))}: "
                                         f"{re.escape(shown)}$"):
        jsonio.map_from_json({"schema": "map/1", "matrix": matrix}, ring)


@pytest.mark.parametrize("path, value, message", [
    (("A", "mul"), 5, "A mul must be a JSON list, got 5"),
    (("A", "mul", 0), 5, "A mul must be a JSON list, got 5"),
    (("A", "mul", 0, 0), 5, "A mul must be a JSON list, got 5"),
    (("B", "unit"), "1", "B unit must be a JSON list, got '1'"),
    (("M", "right", 0, 0), {}, "M right must be a JSON list, got {}"),
    (("N", "left"), None, "N left must be a JSON list, got None"),
    (("phi", 0, 0), 7, "context phi must be a JSON list, got 7"),
    (("psi",), 7, "context psi must be a JSON list, got 7"),
], ids=lambda x: " ".join(map(str, x)) if isinstance(x, tuple) else None)
def test_a_context_vector_or_row_that_is_not_a_list_is_refused(path, value, message):
    for ring in (Zmod(3), Rationals()):
        doc = _context_doc(ring)
        _set(doc, path, value)
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            jsonio.context_from_json(doc)


@pytest.mark.parametrize("label", [None, [1, 2], {"a": 1}, 7], ids=repr)
def test_a_label_that_is_not_a_string_is_refused(label):
    """Labels are strings; anything else is refused where they are read, in
    a context and in an algebra document, and never printed as its repr."""
    message = f"^A labels must be strings, got {re.escape(repr(label))}$"
    for ring in (Zmod(5), Rationals()):
        doc = _context_doc(ring)
        doc["A"]["labels"] = [label]
        with pytest.raises(InputError, match=message):
            jsonio.context_from_json(doc)
        doc = jsonio.algebra_to_json(jsonio.context_from_json(_context_doc(ring)).A)
        doc["labels"][0] = label
        with pytest.raises(InputError, match=message.replace("A labels", "algebra labels")):
            jsonio.algebra_from_json(doc)


@pytest.mark.parametrize("matrix, message", [
    (5, "map matrix must be a JSON list, got 5"),
    ([[1, 0], 5], "map row must be a JSON list, got 5"),
    ([[1, 0], "01"], "map row must be a JSON list, got '01'"),
])
def test_a_map_row_that_is_not_a_list_is_refused(matrix, message):
    for ring in (Zmod(3), Rationals()):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            jsonio.map_from_json({"schema": "map/1", "matrix": matrix}, ring)


@pytest.mark.parametrize("edit, message", [
    # a cell of A's table, A's unit, and a cell of each action, one short
    (lambda d: d["A"]["mul"][0][0].pop(), "expected 1 coordinates, got 0"),
    (lambda d: d["A"]["unit"].append(0), "expected 1 coordinates, got 2"),
    (lambda d: d["M"]["left"][0][0].pop(), "left action value has wrong length"),
    (lambda d: d["N"]["right"][0][0].pop(), "right action value has wrong length"),
    # a short pairing value
    (lambda d: d["phi"][0][0].pop(), "phi values must live in A"),
    (lambda d: d["psi"][0][0].pop(), "psi values must live in B"),
    (lambda d: d["psi"][0][0].append(0), "psi values must live in B"),
    # a short row of a table
    (lambda d: d["A"]["mul"][0].pop(), "structure constant table must be dim x dim"),
    (lambda d: d["psi"][0].pop(), "psi tensor has wrong shape"),
], ids=lambda x: x if isinstance(x, str) else None)
def test_a_short_cell_or_pairing_value_is_refused(edit, message):
    for ring in (Zmod(3), Rationals()):
        doc = _context_doc(ring)
        edit(doc)
        with pytest.raises(DimensionMismatch, match=f"^{re.escape(message)}$"):
            jsonio.context_from_json(doc)


def _tensors(doc):
    """(parent, key) of each tensor of scalars in a context document."""
    return [(doc[a], t) for a in ("A", "B") for t in ("mul", "unit")] + [
        (doc[m], t) for m in ("M", "N") for t in ("left", "right")] + [
        (doc, "phi"), (doc, "psi")]


# the texts that T3(Q)'s 0s and 1s are written as, in turn
TEXTS = {1: ("2/2", "3/3", 1, "1/1"), 0: ("0/7", 0, "0/1")}


def _fraction_context_doc():
    """T3(Q) with its scalars written in turn as "p/q" texts and as ints."""
    doc = jsonio.context_to_json(triangular_gma(Rationals(), 3, 1).ctx)
    seen = {0: 0, 1: 0}

    def rewrite(v):
        if isinstance(v, list):
            return [rewrite(c) for c in v]
        seen[v] += 1
        return TEXTS[v][seen[v] % len(TEXTS[v])]

    for parent, key in _tensors(doc):
        parent[key] = rewrite(parent[key])
    return doc


def _scalar_count(doc):
    """The scalars of a context document: the leaves of its tensors."""
    def leaves(v):
        return sum(map(leaves, v)) if isinstance(v, list) else 1
    return sum(leaves(parent[key]) for parent, key in _tensors(doc))


@pytest.mark.parametrize("n", [3, 9])
def test_context_ints_are_decoded_to_residues(n):
    """Over Z/n an int is read as its residue: a document written with
    other representatives, negative ones too, decodes to the same context."""
    doc = jsonio.context_to_json(triangular_gma(Zmod(n), 3, 1).ctx)
    count = itertools.count()

    def shift(v):
        return [shift(c) for c in v] if isinstance(v, list) else v + n * (next(count) % 5 - 2)

    shifted = json.loads(json.dumps(doc))
    for parent, key in _tensors(shifted):
        parent[key] = shift(parent[key])
    assert shifted != doc
    assert jsonio.context_to_json(jsonio.context_from_json(shifted)) == doc


@pytest.mark.parametrize("make", [
    lambda: _context_doc(Zmod(3)),
    lambda: jsonio.context_to_json(triangular_gma(Zmod(3), 3, 1).ctx),
    lambda: _context_doc(Rationals()),
    _fraction_context_doc,
], ids=["M2(Z/3)", "T3(Z/3)", "M2(Q)", "T3(Q) with fraction texts"])
def test_decoding_a_context_coerces_each_scalar_at_most_once(make, monkeypatch):
    doc = make()
    calls = []
    for cls in (Zmod, Rationals):
        coerce = cls.coerce
        monkeypatch.setattr(cls, "coerce",
                            lambda self, v, coerce=coerce: calls.append(v) or coerce(self, v))
    jsonio.context_from_json(doc)
    assert len(calls) <= _scalar_count(doc)


# ---------------------------------------------------------------------------
# zero entries: an int 0 is no term and is not decoded; nothing else changes
# ---------------------------------------------------------------------------

# what stands in for a 0, and the text it is refused with
NOT_ZERO = [
    (False, "False"), (0.0, "0.0"), (None, "None"), ("0", "'0'"), ([], "[]"),
]


def _zero_paths(v, path=()):
    """The paths of the int 0 entries of a nested list or dict, in order."""
    if isinstance(v, dict):
        return [p for key in sorted(v) for p in _zero_paths(v[key], path + (key,))]
    if isinstance(v, list):
        return [p for i, c in enumerate(v) for p in _zero_paths(c, path + (i,))]
    return [path] if type(v) is int and v == 0 else []


@pytest.mark.parametrize("ring", [Zmod(3), Rationals()], ids=repr)
@pytest.mark.parametrize("bad, shown", NOT_ZERO, ids=[shown for _, shown in NOT_ZERO])
def test_each_zero_of_a_context_replaced_by_a_non_int_is_refused(ring, bad, shown):
    message = f"^not a scalar of {re.escape(repr(ring))}: {re.escape(shown)}$"
    doc = jsonio.context_to_json(full_matrix_gma(ring, 3, 1).ctx)
    paths = _zero_paths(doc)
    assert len(paths) == 100
    for path in paths:
        edited = json.loads(json.dumps(doc))
        _set(edited, path, bad)
        with pytest.raises(InputError, match=message):
            jsonio.context_from_json(edited)


@pytest.mark.parametrize("ring", [Zmod(3), Rationals()], ids=repr)
@pytest.mark.parametrize("bad, shown", NOT_ZERO, ids=[shown for _, shown in NOT_ZERO])
def test_each_zero_of_a_map_replaced_by_a_non_int_is_refused(ring, bad, shown):
    message = f"^not a scalar of {re.escape(repr(ring))}: {re.escape(shown)}$"
    matrix = [[int(i == j) for j in range(3)] for i in range(3)]
    for path in _zero_paths(matrix):
        edited = json.loads(json.dumps(matrix))
        _set(edited, path, bad)
        with pytest.raises(InputError, match=message):
            jsonio.map_from_json({"schema": "map/1", "matrix": edited}, ring)


def test_the_first_bad_scalar_in_document_order_is_refused_before_any_shape():
    doc = jsonio.context_to_json(full_matrix_gma(Zmod(3), 3, 1).ctx)
    zeros = _zero_paths(doc["phi"])
    _set(doc["phi"], zeros[0], False)
    _set(doc["phi"], zeros[-1], 0.0)
    doc["psi"][0][0].pop()      # a shape error, checked after every scalar
    with pytest.raises(InputError, match=r"^not a scalar of Zmod\(3\): False$"):
        jsonio.context_from_json(doc)


@pytest.mark.parametrize("ring, text", [
    (Zmod(4), "-0"), (Zmod(4), "4"), (Zmod(4), "8"), (Zmod(4), "-8"),
    (Zmod(9), "9"), (Zmod(9), "18"), (Zmod(9), "-0"),
    (Rationals(), '"0/5"'), (Rationals(), '"-0/3"'), (Rationals(), "-0"),
], ids=lambda x: x if isinstance(x, str) else repr(x))
def test_a_zero_in_any_spelling_is_no_term(ring, text):
    row = json.loads(f"[[[1, {text}], [{text}, {text}]]]")
    _, terms = jsonio._table_load(ring, {"t": row}, "t", "doc")
    assert terms == ((((0, 1),), ()),)
    vec = jsonio._vec_load(ring, json.loads(f"[{text}, 1, {text}]"), "doc")
    assert vec == (0, 1, 0) and all(type(c) is int for c in vec)


def _reference_terms(ring, rows):
    """``_table_load``'s terms with every entry decoded, zeros too."""
    return tuple(tuple(tuple((r, c) for r, x in enumerate(v) if (c := scalar_from_json(ring, x)))
                       for v in row) for row in rows)


def _outcome(f, *args):
    """The repr of what ``f(*args)`` returns (telling an int from an equal
    Fraction), or the type and text of what it raises."""
    try:
        return "value", repr(f(*args))
    except Exception as exc:  # noqa: BLE001 - the refusal is what is compared
        return type(exc), str(exc)


ENTRIES = st.one_of(
    st.just(0), st.just(0), st.just(0), st.just(0), st.just(0),
    st.integers(-30, 30), st.sampled_from(["1/2", "-3/4", "0/5", "6/3", "1/0", "0"]),
    st.sampled_from([False, True, 0.0, 1.5, None, [], [0], {}]),
)


@settings(max_examples=300, deadline=None)
@given(ring=st.sampled_from([Zmod(3), Zmod(4), Zmod(6), Rationals()]),
       rows=st.lists(st.lists(st.lists(ENTRIES, max_size=4), max_size=3), max_size=3))
def test_decoding_skips_zeros_as_a_reference_that_decodes_every_entry(ring, rows):
    got = _outcome(lambda: jsonio._table_load(ring, {"t": rows}, "t", "doc")[1])
    assert got == _outcome(_reference_terms, ring, rows)
    for v in (v for row in rows for v in row):
        assert _outcome(jsonio._vec_load, ring, v, "doc") == \
            _outcome(lambda: tuple(scalar_from_json(ring, c) for c in v))


def _reference_load(path):
    """``load_file`` as the file opened in text mode and read by ``json.load``."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise InputError(f"cannot read JSON document {path}: {exc}") from exc


@pytest.mark.parametrize("data", [
    b'{"a": [1,\r\n 2],\r\n "b": "x"}\r\n',
    b'{"a": [1,\r 2],\r "b": "x"}\r',
    b'{"a": [1,\r\n\r 2\n],\r\n\r\n "b": }\r\n',
    b'{"a":\r\n [1, 2,\r\n\r\n',
    b'["a\rb"]',
    b'[1, "\xff"]',
    b'["' + b"a" * 10000 + b'\xc3"]',
    b'\xef\xbb\xbf{"a": 1}',
    "{\"é\":\r\n [1]}".encode("utf-8"),
    b"",
], ids=["CRLF", "CR", "malformed CRLF", "truncated CRLF", "CR in a string",
        "invalid UTF-8", "invalid UTF-8 past 8 KiB", "BOM", "non-ASCII CRLF", "empty"])
def test_load_file_matches_a_text_mode_read(tmp_path, data):
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    assert _outcome(jsonio.load_file, str(path)) == _outcome(_reference_load, str(path))


def test_load_file_error_texts_are_pinned(tmp_path):
    path = tmp_path / "doc.json"
    path.write_bytes(b'{"a": [1,\r\n 2],\r\n "b": }\r\n')
    with pytest.raises(InputError, match=r"Expecting value: line 3 column 7 \(char 21\)$"):
        jsonio.load_file(str(path))
    path.write_bytes(b'\xef\xbb\xbf[]')
    with pytest.raises(InputError, match=r"Unexpected UTF-8 BOM"):
        jsonio.load_file(str(path))
    path.write_bytes(b'[1, "\xff"]')
    with pytest.raises(InputError, match=r"'utf-8' codec can't decode byte 0xff in position 5: "
                                         r"invalid start byte$"):
        jsonio.load_file(str(path))
