"""Scalars are coerced once, where they enter: the public constructors, the
JSON documents and the command-line scalars take any representation of a
scalar and give its normal form, the same object as built from normal
input.  Everything built from those objects trusts that form."""

import itertools
import random
import re
from fractions import Fraction

import pytest

from gmalg import jsonio
from gmalg.algebra import Algebra, Submodule
from gmalg.errors import DimensionMismatch, InputError
from gmalg.families import full_matrix_gma, triangular_gma
from gmalg.maps import LinMap
from gmalg.morita import Bimodule, MoritaContext
from gmalg.rings import Rationals, Zmod, parse_scalar_flag

from conftest import _in_random_basis, is_normal, q_maps

RINGS = [Zmod(3), Zmod(4), Zmod(9), Rationals()]

# the keys of a document whose values are tensors of scalars
TENSORS = ("mul", "unit", "left", "right", "phi", "psi", "matrix")


def _leaves(t):
    """The scalars of a nested sequence, in order."""
    if isinstance(t, (tuple, list)):
        return [x for v in t for x in _leaves(v)]
    return [t]


def _deep(f, t):
    """``t`` as nested lists, with ``f(scalar, i)`` in place of its i-th
    scalar."""
    count = itertools.count()

    def walk(v):
        return [walk(c) for c in v] if isinstance(v, (tuple, list)) else f(v, next(count))

    return walk(t)


def _disguised(ring):
    """A scalar of ``ring`` written other than in normal form, the i-th of a
    few kinds in turn: over Z/n an int >= n or a negative one, over Q a
    Fraction that is an int, or a "p/q" text not in lowest terms."""
    if ring.size is not None:
        return lambda v, i: v + ring.n * (1, -1, 4)[i % 3]

    def q(v, i):
        if type(v) is int:
            return (Fraction(2 * v, 2), f"{2 * v}/2")[i % 2]
        return f"{2 * v.numerator}/{2 * v.denominator}"

    return q


def _hide_doc(doc, hide):
    """A document with every scalar of its tensors written as ``hide`` says:
    over Q an int or "p/q" text as "2p/2q"."""
    return {key: _hide_doc(value, hide) if isinstance(value, dict) and key != "ring"
            else _deep(hide, value) if key in TENSORS else value
            for key, value in doc.items()}


def _json_disguised(ring):
    """As ``_disguised``, for the scalars a JSON document holds."""
    if ring.size is not None:
        return _disguised(ring)

    def q(v, i):
        num, den = map(int, v.split("/")) if isinstance(v, str) else (v, 1)
        return f"{2 * num}/{2 * den}"

    return q


def _examples(ring):
    """M2 split 1, M2 in a random basis (its scalars are not all 0 and 1),
    and a map: one with halves over Q, a random one over Z/n."""
    G = full_matrix_gma(ring, 2, 1)
    alg = _in_random_basis(G.algebra, random.Random(1))[0]
    if ring.size is None:
        theta = q_maps(triangular_gma(ring, 3, 1))[1][1]
    else:
        rng = random.Random(2)
        theta = LinMap(ring, [[rng.randrange(ring.n) for _ in range(4)] for _ in range(4)])
    return G.ctx, alg, theta


def _emitted(obj):
    if isinstance(obj, LinMap):
        return obj.to_json()
    if isinstance(obj, Algebra):
        return jsonio.algebra_to_json(obj)
    return jsonio.context_to_json(obj)


def _scalars(obj):
    """Every scalar an algebra, context or map holds."""
    if isinstance(obj, LinMap):
        return _leaves(obj.rows)
    if isinstance(obj, Algebra):
        return _leaves((obj.table, obj.unit))
    return _scalars(obj.A) + _scalars(obj.B) + _leaves(
        (obj.M.left, obj.M.right, obj.N.left, obj.N.right, obj.phi, obj.psi))


@pytest.mark.parametrize("ring", RINGS, ids=repr)
def test_public_constructors_give_normal_form(ring):
    ctx, alg, theta = _examples(ring)
    hide = _disguised(ring)
    table = _deep(hide, alg.table)
    assert all(not is_normal(ring, x) for x in _leaves(table))

    built = Algebra(ring, alg.labels, table, _deep(hide, alg.unit))
    assert (built.table, built.unit, built._terms) == (alg.table, alg.unit, alg._terms)

    M = ctx.M
    mod = Bimodule(ring, M.dim, _deep(hide, M.left), _deep(hide, M.right), ctx.A.dim, ctx.B.dim)
    assert (mod.left, mod.right, mod._left, mod._right) == (M.left, M.right, M._left, M._right)

    again = MoritaContext(ctx.A, ctx.B, mod, ctx.N, _deep(hide, ctx.phi), _deep(hide, ctx.psi))
    assert (again.phi, again.psi, again._phi, again._psi) == (ctx.phi, ctx.psi, ctx._phi, ctx._psi)
    assert _emitted(again) == _emitted(ctx)
    assert all(is_normal(ring, x) for x in _scalars(built) + _scalars(again))

    d, rows = theta.dim, _deep(hide, theta.rows)
    for made in (LinMap(ring, rows), LinMap.from_flat(ring, d, _leaves(rows)),
                 LinMap.from_columns(ring, [list(c) for c in zip(*rows)])):
        assert made == theta
        assert all(is_normal(ring, x) for x in _scalars(made))
    # they take no scalars, and give the maps of the disguised 1s and 0s
    for made in (LinMap.identity(ring, d), LinMap.zero(ring, d)):
        assert made == LinMap(ring, _deep(hide, made.rows))
        assert all(is_normal(ring, x) for x in _scalars(made))

    gens = [theta.flatten(), LinMap.identity(ring, d).flatten()]
    sub = Submodule(ring, d * d, _deep(hide, gens))
    assert sub.equals(Submodule(ring, d * d, gens))
    assert all(is_normal(ring, x) for x in _leaves(sub.gens))


@pytest.mark.parametrize("ring", RINGS, ids=repr)
def test_every_document_type_decodes_to_normal_form(ring):
    ctx, alg, theta = _examples(ring)
    hide = _json_disguised(ring)
    for obj, load in ((alg, jsonio.algebra_from_json), (ctx, jsonio.context_from_json),
                      (theta, lambda doc: jsonio.map_from_json(doc, ring))):
        doc = _emitted(obj)
        hidden = _hide_doc(doc, hide)
        assert hidden != doc
        decoded = load(hidden)
        assert _emitted(decoded) == doc
        assert _scalars(decoded) == _scalars(obj)
        assert all(is_normal(ring, x) for x in _scalars(decoded))


@pytest.mark.parametrize("ring, text, value", [
    (Zmod(3), "5", 2), (Zmod(3), "-1", 2), (Zmod(4), "-9", 3), (Zmod(4), "4", 0),
    (Zmod(9), "20", 2), (Zmod(9), " -10 ", 8),
    (Rationals(), "4/2", 2), (Rationals(), "-6/4", Fraction(-3, 2)),
    (Rationals(), "0/3", 0), (Rationals(), "-7", -7),
], ids=str)
def test_a_scalar_flag_is_read_into_normal_form(ring, text, value):
    got = parse_scalar_flag(ring, text)
    assert got == value and type(got) is type(value)
    assert is_normal(ring, got)


@pytest.mark.parametrize("ring, bad", [
    (Zmod(3), 1.0), (Zmod(4), True), (Zmod(9), "4/2"), (Rationals(), 0.5),
    (Rationals(), False),
], ids=str)
def test_every_document_type_keeps_its_refusals(ring, bad):
    ctx, alg, theta = _examples(ring)

    def refused(shown):
        return pytest.raises(InputError, match=f"^not a scalar of {re.escape(repr(ring))}: "
                                               f"{re.escape(shown)}$")

    for obj, path, load in ((alg, ("mul", 0, 0, 0), jsonio.algebra_from_json),
                            (ctx, ("phi", 0, 0, 0), jsonio.context_from_json),
                            (theta, ("matrix", 1, 1), lambda doc: jsonio.map_from_json(doc, ring))):
        doc = at = _emitted(obj)
        for key in path[:-1]:
            at = at[key]
        at[path[-1]] = bad
        with refused(repr(bad)):
            load(doc)
    with refused(repr(str(bad))):
        parse_scalar_flag(ring, str(bad))


@pytest.mark.parametrize("bad", [2.7, 1.9, 2.0, -0.5])
@pytest.mark.parametrize("ring", [Zmod(3), Zmod(9), Rationals()], ids=repr)
def test_the_public_constructors_refuse_a_float(ring, bad):
    """A float is refused, not truncated: 2.7 is not the scalar 2 of Z/3."""
    for build in (lambda: Algebra(ring, ["e"], [[(bad,)]], (1,)),
                  lambda: Algebra(ring, ["e"], [[(1,)]], (bad,)),
                  lambda: LinMap(ring, [[bad]]),
                  lambda: LinMap(ring, [[1, 0], [0, bad]]),
                  lambda: Submodule(ring, 1, [(bad,)]),
                  lambda: Submodule(ring, 2, [(1, 0), (0, bad)])):
        with pytest.raises(InputError, match="^floating point is not accepted"):
            build()


def test_columns_and_flat_entries_of_another_shape_are_refused():
    """A column or an entry list too long is refused, not cut to size."""
    R = Zmod(5)
    with pytest.raises(DimensionMismatch, match="^map matrix must be square$"):
        LinMap.from_columns(R, [(1, 2, 3), (4, 0, 1)])
    with pytest.raises(DimensionMismatch, match="^map matrix must be square$"):
        LinMap.from_columns(R, [(1, 2), (4,)])
    with pytest.raises(DimensionMismatch, match="^expected 4 entries, got 7$"):
        LinMap.from_flat(R, 2, [1, 2, 3, 4, 9, 9, 9])
    assert LinMap.from_columns(R, [(1, 2), (4, 0)]) == LinMap.from_flat(R, 2, [1, 4, 2, 0])
