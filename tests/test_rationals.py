"""Q scalars: an int when integral, a reduced Fraction otherwise, from every
operation; sound counterexamples over Q, and `classify` documents with
canonically encoded scalars, byte for byte."""

import contextlib
import io
import json
import pathlib
import tempfile
from fractions import Fraction

from conftest import is_zero, Q_FAMILIES, q_maps, scale_map
from hypothesis import given
from hypothesis import strategies as st

from gmalg import cli, jsonio
from gmalg.families import full_matrix_gma, triangular_gma
from gmalg.maps import LinMap, is_k_commuting
from gmalg.rings import (
    Rationals,
    parse_scalar_flag,
    scalar_from_json,
    scalar_to_json,
)

RAW = st.one_of(st.integers(-10**9, 10**9),
                st.fractions(max_denominator=12),
                st.fractions(min_value=-3, max_value=3, max_denominator=3))


def _is_canonical(got, want):
    """``got`` is the canonical form of the rational ``want``."""
    want = Fraction(want)
    integral = want.denominator == 1
    assert type(got) is (int if integral else Fraction), (got, want)
    assert got == want


@given(RAW, RAW)
def test_every_operation_returns_the_canonical_form(a, b):
    Q = Rationals()
    x, y = Q.coerce(a), Q.coerce(b)
    _is_canonical(x, a)
    _is_canonical(y, b)
    _is_canonical(Q.coerce(str(Fraction(a))), a)
    _is_canonical(Q.normal(x + y), Fraction(a) + Fraction(b))
    _is_canonical(Q.normal(x - y), Fraction(a) - Fraction(b))
    _is_canonical(Q.normal(x * y), Fraction(a) * Fraction(b))
    _is_canonical(Q.normal(-x), -Fraction(a))
    _is_canonical(Q.normal(Fraction(a) * Fraction(b)), Fraction(a) * Fraction(b))
    if a:
        _is_canonical(Q.inv_opt(x), 1 / Fraction(a))
    else:
        assert Q.inv_opt(x) is None
    _is_canonical(scalar_from_json(Q, scalar_to_json(Q, x)), a)
    _is_canonical(parse_scalar_flag(Q, str(scalar_to_json(Q, x))), a)
    # a fraction need not be written reduced
    num, den = Fraction(a).numerator, Fraction(a).denominator
    _is_canonical(scalar_from_json(Q, f"{3 * num}/{3 * den}"), a)
    _is_canonical(parse_scalar_flag(Q, f" {2 * num}/{2 * den} "), a)


def test_constants_are_ints():
    Q = Rationals()
    assert (type(Q.zero), type(Q.one)) == (int, int)
    assert scalar_from_json(Q, "4/2") == 2 and type(scalar_from_json(Q, "4/2")) is int
    assert Q.inv_opt(-1) == -1 and type(Q.inv_opt(-1)) is int
    assert Q.inv_opt(Fraction(-1, 3)) == -3 and type(Q.inv_opt(Fraction(-1, 3))) is int


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
    assert not is_zero(alg.bracket(theta.apply(x), x))


def _run(capsys, tmp_path, G, theta):
    ctx = tmp_path / "ctx.json"
    ctx.write_text(jsonio.dumps(jsonio.context_to_json(G.ctx)))
    mp = tmp_path / "map.json"
    mp.write_text(jsonio.dumps(theta.to_json()))
    code = cli.main(["classify", str(ctx), str(mp), "--k", "1"])
    return code, capsys.readouterr().out


def test_classify_proper_map_over_q(tmp_path, capsys):
    G = full_matrix_gma(Rationals(), 2, 1)
    half = scale_map(LinMap.identity(G.ring, G.dim), Fraction(1, 2))
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
    assert not is_zero(alg.bracket(theta.apply(x), x))


# ---------------------------------------------------------------------------
# CLI output over Q, byte for byte
# ---------------------------------------------------------------------------

CLI_GOLDEN = pathlib.Path(__file__).with_name("golden") / "cli_q.json"

def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return [code, out.getvalue()]


def compute_cli():
    """Exit code and stdout of each Q command, by label; the ``--mode
    proper`` and ``steps`` commands come last."""
    got, proper = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        for name, flags, build in Q_FAMILIES:
            G = build()
            got[f"{name} family"] = _cli(["family", "--ring", "q", *flags])
            ctx = tmp / "ctx.json"
            ctx.write_text(jsonio.dumps(jsonio.context_to_json(G.ctx)))
            got[f"{name} validate"] = _cli(["validate", str(ctx)])
            for label, theta in q_maps(G):
                mp = tmp / f"{label}.json"
                mp.write_text(jsonio.dumps(theta.to_json()))
                for k in (1, 2):
                    argv = ["classify", str(ctx), str(mp), "--k", str(k)]
                    got[f"{name} classify {label} k={k}"] = _cli(argv)
                    proper[f"{name} classify --mode proper {label} k={k}"] = _cli(
                        [*argv, "--mode", "proper"])
            got[f"{name} sweep"] = _cli(
                ["sweep", str(ctx), "--mode", "structure", "--seed", "3"])
            for mode in ("proper", "steps"):
                proper[f"{name} sweep --mode {mode}"] = _cli(
                    ["sweep", str(ctx), "--mode", mode, "--seed", "3"])
    got["inflated family"] = _cli(
        ["family", "--kind", "inflated", "--gamma", "1/2,0;0,-3/4", "--ring", "q"])
    got.update(proper)
    return got


def test_q_cli_output_matches_golden():
    expected = json.loads(CLI_GOLDEN.read_text())
    got = compute_cli()
    assert list(got) == list(expected)
    for label in expected:
        assert got[label] == expected[label], label


if __name__ == "__main__":
    CLI_GOLDEN.write_text(json.dumps(compute_cli(), indent=1) + "\n")
