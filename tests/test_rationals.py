"""k = 1 over Q: sound counterexamples from polarization, and `classify`
documents with canonically encoded scalars."""

import json
from fractions import Fraction

from gmalg import cli, jsonio
from gmalg.families import full_matrix_gma, triangular_gma
from gmalg.maps import LinMap, is_k_commuting
from gmalg.rings import Rationals, scalar_from_json


def test_polarization_witness_is_not_the_unit():
    # theta = identity + E(1,2): theta(e_2) = e_1 + e_2 on [A M; 0 B] with
    # basis (A:E11, M:0, B:E22).  The polar term of (e_0, e_2) is nonzero,
    # but e_0 + e_2 is the unit, which commutes with everything.
    G = triangular_gma(Rationals(), 2, 1)
    rows = [list(r) for r in LinMap.identity(G.ring, G.dim).rows]
    rows[1][2] = Fraction(1)
    theta = LinMap(G.ring, rows)
    ok, x = is_k_commuting(G, theta, 1)
    assert not ok
    assert x != G.algebra.unit
    alg = G.algebra
    assert not alg.is_zero(alg.bracket(theta.apply(x), x))


def _run(capsys, tmp_path, G, theta):
    ctx = tmp_path / "ctx.json"
    ctx.write_text(jsonio.dumps(jsonio.context_to_json(G.ctx)))
    mp = tmp_path / "map.json"
    mp.write_text(jsonio.dumps(theta.to_json()))
    code = cli.main(["classify", str(ctx), str(mp), "--k", "1"])
    return code, capsys.readouterr().out


def test_classify_proper_map_over_q(tmp_path, capsys):
    G = full_matrix_gma(Rationals(), 2, 1)
    half = LinMap.identity(G.ring, G.dim).scale(Fraction(1, 2))
    code, out = _run(capsys, tmp_path, G, half)
    assert code == cli.EXIT_OK
    doc = json.loads(out)
    assert doc["k_commuting"] is True
    assert doc["proper"] is True
    assert doc["multiplier"] == ["1/2", 0, 0, "1/2"]


def test_classify_non_commuting_map_over_q(tmp_path, capsys):
    G = full_matrix_gma(Rationals(), 2, 1)
    alg = G.algebra
    c = G.embed("M", (Fraction(3, 2),))
    theta = LinMap.from_columns(
        G.ring, [alg.mul(c, alg.basis_vector(j)) for j in range(G.dim)]
    )
    code, out = _run(capsys, tmp_path, G, theta)
    assert code == cli.EXIT_FINDING
    doc = json.loads(out)
    assert doc["k_commuting"] is False
    x = tuple(scalar_from_json(G.ring, v) for v in doc["counterexample"])
    assert not alg.is_zero(alg.bracket(theta.apply(x), x))
