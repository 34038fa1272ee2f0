"""Versioned JSON documents for algebras, contexts, and maps.

All emitters sort keys and use canonical scalar encodings, so output
bytes are stable for identical inputs.
"""

import json

from .algebra import Algebra
from .errors import InputError
from .maps import LinMap
from .morita import Bimodule, MoritaContext
from .rings import parse_ring, scalar_from_json, scalar_to_json

ALGEBRA_SCHEMA = "algebra/1"
CONTEXT_SCHEMA = "context/1"
MAP_SCHEMA = "map/1"


def dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _vec_json(ring, v):
    return [scalar_to_json(ring, c) for c in v]


def _vec_load(ring, v):
    return tuple(scalar_from_json(ring, c) for c in v)


def _require(obj, key, where):
    if not isinstance(obj, dict) or key not in obj:
        raise InputError(f"missing {key!r} in {where} document")
    return obj[key]


def algebra_to_json(alg):
    return {
        "schema": ALGEBRA_SCHEMA,
        "ring": alg.ring.to_json(),
        **_algebra_fields(alg),
    }


def algebra_from_json(obj, ring=None):
    if obj.get("schema") != ALGEBRA_SCHEMA:
        raise InputError(f"expected schema {ALGEBRA_SCHEMA!r}")
    if ring is None:
        ring = parse_ring(_require(obj, "ring", "algebra"))
    return _algebra_from_fields(ring, obj, "algebra")


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
    table = [
        [_vec_load(ring, cell) for cell in row]
        for row in _require(obj, "mul", where)
    ]
    return Algebra(
        ring, _require(obj, "labels", where), table,
        _vec_load(ring, _require(obj, "unit", where)),
    )


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
    if obj.get("schema") != CONTEXT_SCHEMA:
        raise InputError(f"expected schema {CONTEXT_SCHEMA!r}")
    ring = parse_ring(_require(obj, "ring", "context"))
    A = _algebra_from_fields(ring, _require(obj, "A", "context"), "A")
    B = _algebra_from_fields(ring, _require(obj, "B", "context"), "B")

    def load_mod(field, left_dim, right_dim):
        doc = _require(obj, field, "context")
        dim = int(_require(doc, "dim", field))
        left = [
            [_vec_load(ring, v) for v in row]
            for row in _require(doc, "left", field)
        ]
        right = [
            [_vec_load(ring, v) for v in row]
            for row in _require(doc, "right", field)
        ]
        return Bimodule(ring, dim, left, right, left_dim, right_dim)

    M = load_mod("M", A.dim, B.dim)
    N = load_mod("N", B.dim, A.dim)
    phi = [
        [_vec_load(ring, v) for v in row] for row in _require(obj, "phi", "context")
    ]
    psi = [
        [_vec_load(ring, v) for v in row] for row in _require(obj, "psi", "context")
    ]
    return MoritaContext(A, B, M, N, phi, psi)


def map_from_json(obj, ring):
    if obj.get("schema") != MAP_SCHEMA:
        raise InputError(f"expected schema {MAP_SCHEMA!r}")
    rows = [
        _vec_load(ring, row) for row in _require(obj, "matrix", "map")
    ]
    return LinMap(ring, rows)


def load_file(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read JSON document {path}: {exc}") from exc
