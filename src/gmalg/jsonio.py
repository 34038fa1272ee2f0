"""Versioned JSON documents for algebras, contexts, and maps.

All emitters sort keys and use canonical scalar encodings, so output
bytes are stable for identical inputs.
"""

import json

from .algebra import Algebra, _check_algebra
from .errors import InputError
from .maps import LinMap, _check_square
from .morita import Bimodule, MoritaContext, _check_bimodule, _check_context
from .rings import parse_ring, scalar_from_json, scalar_to_json

ALGEBRA_SCHEMA = "algebra/1"
CONTEXT_SCHEMA = "context/1"
MAP_SCHEMA = "map/1"


def dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _vec_json(ring, v):
    return [scalar_to_json(ring, c) for c in v]


def _list(v, where):
    if not isinstance(v, list):
        raise InputError(f"{where} must be a JSON list, got {v!r:.40}")
    return v


def _vec_load(ring, v, where):
    """The JSON list ``v`` as a vector, decoded as by ``_table_load``: an int
    0 is ``ring.zero``, every other entry goes through ``scalar_from_json``."""
    zero = ring.zero
    return tuple([scalar_from_json(ring, c) if c or type(c) is not int else zero
                  for c in _list(v, where)])


def _table_load(ring, obj, key, where):
    """(``obj[key]``, its nonzero terms): the JSON list of rows of vectors,
    for the shape checks, and each vector decoded straight into its
    (coordinate, scalar) pairs with a nonzero scalar, as ``_set`` stores
    them.  Every scalar is decoded, in document order, before any shape is
    checked, but an int 0 is no term: ``x or type(x) is not int`` is false
    for it alone, so ``false``, ``0.0``, ``null`` or ``[]`` is refused."""
    rows = _require(obj, key, where)
    where = f"{where} {key}"
    # list comprehensions inside the tuples: they run faster than
    # generators, and this loop is most of the cost of a decode
    terms = tuple(
        tuple([tuple([(r, c) for r, x in enumerate(_list(v, where))
                      if (x or type(x) is not int) and (c := scalar_from_json(ring, x))])
               for v in _list(row, where)])
        for row in _list(rows, where))
    return rows, terms


def _require(obj, key, where):
    if not isinstance(obj, dict) or key not in obj:
        raise InputError(f"missing {key!r} in {where} document")
    return obj[key]


def _schema(obj, schema):
    if not isinstance(obj, dict) or obj.get("schema") != schema:
        raise InputError(f"expected schema {schema!r}")


def algebra_to_json(alg):
    return {
        "schema": ALGEBRA_SCHEMA,
        "ring": alg.ring.to_json(),
        **_algebra_fields(alg),
    }


def algebra_from_json(obj):
    _schema(obj, ALGEBRA_SCHEMA)
    return _algebra_from_fields(parse_ring(_require(obj, "ring", "algebra")), obj, "algebra")


def _algebra_fields(alg):
    return {
        "dim": alg.dim,
        "labels": list(alg.labels),
        "mul": [
            [_vec_json(alg.ring, cell) for cell in row] for row in alg.table
        ],
        "unit": _vec_json(alg.ring, alg.unit),
    }


def _algebra_from_fields(ring, obj, where):
    labels = _list(_require(obj, "labels", where), f"{where} labels")
    for label in labels:
        if not isinstance(label, str):
            raise InputError(f"{where} labels must be strings, got {label!r:.40}")
    table, terms = _table_load(ring, obj, "mul", where)
    unit = _vec_load(ring, _require(obj, "unit", where), f"{where} unit")
    _check_algebra(len(labels), table, unit)
    return Algebra._from_normal(ring, labels, terms, unit)


def _bimodule_fields(mod):
    return {
        "dim": mod.dim,
        "left": [[_vec_json(mod.ring, v) for v in row] for row in mod.left],
        "right": [[_vec_json(mod.ring, v) for v in row] for row in mod.right],
    }


def context_to_json(ctx):
    return {
        "schema": CONTEXT_SCHEMA,
        "ring": ctx.ring.to_json(),
        "A": _algebra_fields(ctx.A),
        "B": _algebra_fields(ctx.B),
        "M": _bimodule_fields(ctx.M),
        "N": _bimodule_fields(ctx.N),
        "phi": [[_vec_json(ctx.ring, v) for v in row] for row in ctx.phi],
        "psi": [[_vec_json(ctx.ring, v) for v in row] for row in ctx.psi],
    }


def context_from_json(obj):
    """The context of a ``context/1`` document.  Each scalar is decoded once,
    into normal form (``scalar_from_json``), and each vector straight into
    its nonzero terms; each part's shapes are then checked on the JSON
    lists as by its public constructor, and the parts are built from the
    terms by their ``_from_normal``, which takes the scalars as they are."""
    _schema(obj, CONTEXT_SCHEMA)
    ring = parse_ring(_require(obj, "ring", "context"))
    A = _algebra_from_fields(ring, _require(obj, "A", "context"), "A")
    B = _algebra_from_fields(ring, _require(obj, "B", "context"), "B")

    def load_mod(field, left_dim, right_dim):
        doc = _require(obj, field, "context")
        dim = _require(doc, "dim", field)
        if type(dim) is not int:
            raise InputError(f"{field} dim must be an int, got {dim!r}")
        left, left_terms = _table_load(ring, doc, "left", field)
        right, right_terms = _table_load(ring, doc, "right", field)
        _check_bimodule(dim, left, right, left_dim, right_dim)
        return Bimodule._from_normal(ring, dim, left_terms, right_terms)

    M = load_mod("M", A.dim, B.dim)
    N = load_mod("N", B.dim, A.dim)
    phi, phi_terms = _table_load(ring, obj, "phi", "context")
    psi, psi_terms = _table_load(ring, obj, "psi", "context")
    _check_context(A, B, M, N, phi, psi)
    return MoritaContext._from_normal(A, B, M, N, phi_terms, psi_terms)


def map_from_json(obj, ring):
    """The map of a ``map/1`` document; each scalar is decoded once, into
    normal form, and the shape checked as by ``LinMap``."""
    _schema(obj, MAP_SCHEMA)
    rows = tuple(_vec_load(ring, row, "map row")
                 for row in _list(_require(obj, "matrix", "map"), "map matrix"))
    _check_square(rows)
    return LinMap._from_normal(ring, rows)


def load_file(path):
    """The JSON document at ``path``, decoded as UTF-8 whatever the locale.
    It is read as bytes and decoded once; CRLF and CR become LF, as in text
    mode, so an error's line and column are those of ``json.load``.  A file
    that cannot be opened or decoded, is not JSON, nests deeper than the
    recursion limit or holds an int too long to convert is refused."""
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8")
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        return json.loads(text)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and UnicodeDecodeError
        raise InputError(f"cannot read JSON document {path}: {exc}") from exc
