"""Over Q a map theta and its nonzero multiples c*theta get the same verdicts
at the same points, and every value read off c*theta is c times the value
read off theta: the identities decided are linear in the map.  gmalg
decides a rational map through its integral multiple D*theta
(``LinMap.integral``) and divides the values that leave by D once."""

import contextlib
import gc
import io
import json
import math
import weakref
from fractions import Fraction

import pytest
from conftest import Q_FAMILIES, q_maps, scale_map
from hypothesis import given
from hypothesis import strategies as st

from gmalg import cli, jsonio
from gmalg.algebra import Algebra
from gmalg.families import full_matrix_gma
from gmalg.maps import LinMap
from gmalg.rings import Rationals, Zmod

SCALES = (2, Fraction(1, 3), Fraction(-5, 7))
# the lines whose witness, when they fail, is an element linear in theta
ELEMENT_LINES = {"diag_a_unit_engel", "diag_b_unit_engel", "central_shift"}


def _classify(tmp_path, ctx, theta, k, mode):
    mp = tmp_path / "map.json"
    mp.write_text(jsonio.dumps(theta.to_json()))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["classify", str(ctx), str(mp), "--k", str(k), "--mode", mode])
    return code, json.loads(out.getvalue())


def _scaled(c, got, want):
    """``got`` is c times ``want``, coordinate by coordinate."""
    assert len(got) == len(want)
    assert all(Fraction(g) == c * Fraction(w) for g, w in zip(got, want)), (c, got, want)


def _same_lines(c, got, want):
    """The same lines with the same verdicts; the element witnesses of
    failing lines scaled by c, every other witness equal but for its scaled
    ``image`` (a passing line has none)."""
    assert [(g["cond_id"], g["passed"]) for g in got["lines"]] == [
        (w["cond_id"], w["passed"]) for w in want["lines"]]
    assert got["all_pass"] == want["all_pass"]
    for g, w in zip(got["lines"], want["lines"]):
        gw, ww = g["witness"], w["witness"]
        if g["cond_id"] in ELEMENT_LINES and not g["passed"]:
            _scaled(c, gw, ww)
        elif isinstance(ww, dict) and "image" in ww:
            _scaled(c, gw.pop("image"), ww.pop("image"))
            assert gw == ww
        else:
            assert gw == ww


@pytest.mark.parametrize("name,build", [(f[0], f[2]) for f in Q_FAMILIES])
def test_classify_of_a_multiple_scales_its_values(name, build, tmp_path):
    G = build()
    ctx = tmp_path / "ctx.json"
    ctx.write_text(jsonio.dumps(jsonio.context_to_json(G.ctx)))
    for label, theta in q_maps(G):
        for k in (1, 2, 3):
            for mode in ("basic", "proper"):
                code, want = _classify(tmp_path, ctx, theta, k, mode)
                for c in SCALES:
                    got_code, got = _classify(tmp_path, ctx, scale_map(theta, c), k, mode)
                    where = (label, k, mode, c)
                    assert got_code == code, where
                    assert list(got) == list(want), where
                    for key in ("k_commuting", "counterexample", "proper", "hypotheses"):
                        assert got.get(key) == want.get(key), where
                    if "multiplier" in want:
                        _scaled(c, got["multiplier"], want["multiplier"])
                        _scaled(c, sum(got["offset"]["matrix"], []),
                                sum(want["offset"]["matrix"], []))
                    if "structure_conditions" in want:
                        _same_lines(c, got["structure_conditions"],
                                    want["structure_conditions"])
                    if "proper_form" in want:
                        _scaled(c, got["proper_form"]["center_shift"],
                                want["proper_form"]["center_shift"])
                        _same_lines(c, got["proper_form"]["steps"],
                                    want["proper_form"]["steps"])


RATIONAL = st.fractions(min_value=-20, max_value=20, max_denominator=30)


@given(st.lists(RATIONAL, min_size=4, max_size=4))
def test_the_integral_view_clears_the_denominators_minimally(entries):
    Q = Rationals()
    theta = LinMap(Q, [entries[:2], entries[2:]])
    D, scaled = theta.integral()
    assert D == math.lcm(*(Fraction(v).denominator for v in entries))
    assert all(type(c) is int for row in scaled.rows for c in row)
    assert [c for row in scaled.rows for c in row] == [D * v for v in entries]
    # no proper divisor of D clears them all
    for p in range(2, D + 1):
        if D % p == 0:
            assert any((D // p * Fraction(v)).denominator != 1 for v in entries)
    assert theta.integral()[1] is theta.integral()[1]


def test_the_integral_view_of_an_integral_map_is_the_map():
    for ring in (Zmod(3), Zmod(4), Rationals()):
        theta = LinMap(ring, [[1, 2], [0, 3]])
        assert theta.integral() == (1, theta)
        assert theta.integral()[1] is theta


def test_an_integral_map_is_freed_by_reference_counting():
    """The integral view of a map over Z/n, or of an integral map over Q, is
    the map itself, and the cached view holds no reference to it: with the
    cycle collector off, the last reference going frees the map."""
    gc.disable()
    try:
        for ring in (Zmod(3), Rationals()):
            theta = LinMap(ring, [[1, 2], [0, 1]])
            theta.integral()
            ref = weakref.ref(theta)
            del theta
            assert ref() is None, ring
    finally:
        gc.enable()


def test_a_rational_map_is_decided_through_integral_coefficients(tmp_path, monkeypatch):
    """The k-commuting verdicts of the half map, its own and that of the
    structure report's diagonal line, are computed from the columns of an
    integral multiple; its values still come out halved."""
    G = full_matrix_gma(Rationals(), 2, 1)
    ctx = tmp_path / "ctx.json"
    ctx.write_text(jsonio.dumps(jsonio.context_to_json(G.ctx)))
    seen = []
    original = Algebra.map_groups

    def spy(self, cols, k):
        seen.extend(type(c) for col in cols for _, c in col)
        return original(self, cols, k)

    monkeypatch.setattr(Algebra, "map_groups", spy)
    code, doc = _classify(tmp_path, ctx, dict(q_maps(G))["half"], 2, "proper")
    assert code == cli.EXIT_OK
    assert seen and set(seen) == {int}
    assert doc["multiplier"] == ["1/2", 0, 0, "1/2"]
    assert doc["proper_form"]["center_shift"] == ["1/2", 0, 0, "1/2"]
