import argparse
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest

from conftest import scale_map
from gmalg import cli, compiled, jsonio, maps, morita, oracle
from gmalg.algebra import Submodule
from gmalg.errors import HypothesesNotMet, InputError, TheoremViolation
from gmalg.families import full_matrix_gma
from gmalg.maps import LinMap
from gmalg.report import Report
from gmalg.rings import Rationals, Zmod


def run_cli(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture()
def ctx_m2_z3(tmp_path):
    G = full_matrix_gma(Zmod(3), 2, 1)
    path = tmp_path / "m2z3.json"
    path.write_text(jsonio.dumps(jsonio.context_to_json(G.ctx)))
    return str(path), G


def write_map(tmp_path, G, theta, name="map.json"):
    path = tmp_path / name
    path.write_text(jsonio.dumps(theta.to_json()))
    return str(path)


def test_family_output_is_deterministic(tmp_path, capsys):
    args = ["family", "--kind", "full", "--ring", "zmod:3", "--n", "2", "--split", "1"]
    code1, out1, _ = run_cli(args, capsys)
    code2, out2, _ = run_cli(args, capsys)
    assert code1 == code2 == cli.EXIT_OK
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["schema"] == "context/1"


def test_validate_clean_context(ctx_m2_z3, capsys):
    path, _ = ctx_m2_z3
    code, out, _ = run_cli(["validate", path], capsys)
    assert code == cli.EXIT_OK
    assert json.loads(out)["clean"] is True


def test_validate_broken_context(tmp_path, capsys):
    G = full_matrix_gma(Zmod(3), 2, 1)
    doc = jsonio.context_to_json(G.ctx)
    doc["psi"][0][0][0] = 2  # negate one pairing value: diagrams break
    path = tmp_path / "bad.json"
    path.write_text(jsonio.dumps(doc))
    code, out, _ = run_cli(["validate", str(path)], capsys)
    assert code == cli.EXIT_INPUT
    body = json.loads(out)
    assert body["clean"] is False
    assert body["violations"]


def test_build_round_trip(ctx_m2_z3, tmp_path, capsys):
    path, G = ctx_m2_z3
    out_path = tmp_path / "algebra.json"
    code, _, _ = run_cli(["build", path, "--emit", str(out_path)], capsys)
    assert code == cli.EXIT_OK
    reloaded = jsonio.algebra_from_json(json.loads(out_path.read_text()))
    assert reloaded.table == G.algebra.table
    assert reloaded.unit == G.algebra.unit


def test_classify_identity_map(ctx_m2_z3, tmp_path, capsys):
    path, G = ctx_m2_z3
    two_id = scale_map(LinMap.identity(G.ring, G.dim), 2)
    mpath = write_map(tmp_path, G, two_id)
    code, out, _ = run_cli(
        ["classify", path, mpath, "--k", "1", "--oracle", "--mode", "proper"],
        capsys,
    )
    assert code == cli.EXIT_OK
    doc = json.loads(out)
    assert doc["k_commuting"] is True
    assert doc["oracle_k_commuting"] is True
    assert doc["proper"] is True
    assert doc["multiplier"] == [2, 0, 0, 2]
    assert doc["hypotheses"] == {"cond1": True, "cond2": True, "cond3": True}


def test_k_commutation_is_decided_once_per_map(ctx_m2_z3, tmp_path, capsys,
                                               monkeypatch):
    """classify decides [theta(x), x]_k = 0 once and its structure report
    and proper form reuse the verdict; sweep decides it once for each
    generator of the space, not for each swept map."""
    path, G = ctx_m2_z3
    mpath = write_map(tmp_path, G, scale_map(LinMap.identity(G.ring, G.dim), 2))
    decided = []    # the dimension of the algebra of each decision
    real = maps.is_k_commuting

    def counting(A, theta, k):
        decided.append(A.dim)
        return real(A, theta, k)

    monkeypatch.setattr(maps, "is_k_commuting", counting)
    code, _, _ = run_cli(
        ["classify", path, mpath, "--k", "2", "--mode", "proper"], capsys)
    assert code == cli.EXIT_OK
    assert decided.count(G.dim) == 1     # the others are on A and B
    decided.clear()
    code, out, _ = run_cli(["sweep", path, "--k", "2", "--samples", "3"], capsys)
    assert code == cli.EXIT_OK
    doc = json.loads(out)
    assert decided.count(G.dim) == doc["space_generators"] > 0
    assert doc["maps_checked"] == doc["space_generators"] + 3


def test_sweep_runs_the_per_line_reports_only_on_failing_maps(ctx_m2_z3, capsys,
                                                               monkeypatch):
    """A structure, step or proper sweep decides each map from the rows
    compiled once for (G, k); the per-line report, the source of witnesses,
    runs only on a map that fails a compiled line."""
    path, _ = ctx_m2_z3
    reports = []
    monkeypatch.setattr(maps, "report_values", lambda *a: reports.append(a))
    for mode in ("structure", "steps", "proper"):
        code, out, _ = run_cli(["sweep", path, "--k", "2", "--mode", mode], capsys)
        assert code == cli.EXIT_OK and json.loads(out)["all_pass"] is True
    assert reports == []


def test_classify_non_commuting_map_is_a_finding(ctx_m2_z3, tmp_path, capsys):
    path, G = ctx_m2_z3
    alg = G.algebra
    e12 = G.embed("M", (1,))
    theta = LinMap.from_columns(
        G.ring, [alg.mul(e12, alg.basis_vector(j)) for j in range(G.dim)]
    )
    mpath = write_map(tmp_path, G, theta)
    code, out, _ = run_cli(["classify", path, mpath, "--k", "1"], capsys)
    assert code == cli.EXIT_FINDING
    doc = json.loads(out)
    assert doc["k_commuting"] is False
    assert "counterexample" in doc


def test_classify_cross_checks_the_counterexample(ctx_m2_z3, tmp_path, capsys,
                                                  monkeypatch):
    """The oracle's first failing x must be the fast path's witness."""
    path, G = ctx_m2_z3
    rows = [list(r) for r in LinMap.identity(G.ring, G.dim).rows]
    rows[0][1] = 1
    mpath = write_map(tmp_path, G, LinMap(G.ring, rows))
    argv = ["classify", path, mpath, "--oracle"]
    code, out, _ = run_cli(argv, capsys)
    assert code == cli.EXIT_FINDING
    witness = tuple(json.loads(out)["counterexample"])
    wrong = (witness[0] + 1) % 3, *witness[1:]
    monkeypatch.setattr(oracle, "brute_k_commuting", lambda *a: (False, wrong))
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (cli.EXIT_VIOLATION, "")
    assert "oracle disagrees on the counterexample" in err


def test_sweep_modes_all_pass(ctx_m2_z3, capsys):
    path, _ = ctx_m2_z3
    for mode in ("structure", "proper", "steps"):
        code, out, _ = run_cli(
            ["sweep", path, "--k", "2", "--mode", mode, "--seed", "7",
             "--samples", "5"],
            capsys,
        )
        assert code == cli.EXIT_OK, (mode, out)
        doc = json.loads(out)
        assert doc["all_pass"] is True
        assert doc["seed"] == 7
    code, out, _ = run_cli(["sweep", path, "--mode", "derivations"], capsys)
    assert code == cli.EXIT_OK
    assert json.loads(out)["vanishing"] is True


def test_sweep_is_byte_stable(ctx_m2_z3, capsys):
    path, _ = ctx_m2_z3
    args = ["sweep", path, "--k", "1", "--mode", "proper", "--seed", "3",
            "--samples", "4"]
    _, first, _ = run_cli(args, capsys)
    _, second, _ = run_cli(args, capsys)
    assert first == second


# the output of the forced-failure sweep below
SWEEP_50_SHA256 = "d23822bcdfe0628dafdab2198cf7f446ceb67495f40c8fdf1778f473edb1ee94"


def test_a_sweep_draws_each_sample_in_the_order_it_did_when_all_were_held(
        ctx_m2_z3, capsys, monkeypatch):
    """The samples are drawn one at a time, as each is checked, from the
    same seeded stream.  Forced to fail every map whose entries sum to 0
    mod 3, with the map itself as witness, a sweep of 50 samples writes
    each failing map and its index; those bytes are the ones written when
    every sample was drawn before the first was checked."""
    path, _ = ctx_m2_z3

    def failing(G, theta, mode, k):
        rep = Report(mode, ring=G.ring)
        rep.add("forced", False, theta.flatten())
        return rep

    monkeypatch.setattr(compiled.ReportRows, "passes",
                        lambda self, theta: sum(theta.flatten()) % 3 != 0)
    monkeypatch.setattr(maps, "report_values", failing)
    code, out, _ = run_cli(["sweep", path, "--k", "2", "--seed", "5", "--samples", "50"],
                           capsys)
    assert code == cli.EXIT_VIOLATION
    assert len(json.loads(out)["failures"]) == 14
    assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_50_SHA256


def test_a_sweep_holds_no_more_than_one_sample(ctx_m2_z3, capsys):
    """The traced peak of a sweep of 20000 samples stays within 1 MB of that
    of 2 samples; holding every sample, it was 27 MB on M2(Z/3).  The 1 MB
    leaves room for the interpreter's free lists of small tuples, which
    keep up to 2000 freed tuples of each length, and for the maps that wait
    for the cyclic garbage collector (``LinMap.integral`` keeps (1, theta)
    on theta).  Measured: about 0.65 MB on the first long sweep of a
    process, 0.17 MB after."""
    path, _ = ctx_m2_z3

    def peak(samples):
        tracemalloc.start()
        try:
            code, _, _ = run_cli(["sweep", path, "--samples", str(samples)], capsys)
            return code, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2)
    (code_few, few), (code_many, many) = peak(2), peak(20000)
    assert code_few == code_many == cli.EXIT_OK
    assert many < few + 2**20, (few, many)


def _scaled(partner, scales):
    """``GMAlgebra.partner`` with the map from A scaled by scales[0] and the
    one from B by scales[1]: still linear, so both readings see it."""
    def scaled(G, block):
        terms, dim = partner(G, block)
        s = G.ring.coerce(scales[block == "B"])
        return tuple(tuple(tuple((i, G.ring.normal(s * c)) for i, c in cell) for cell in row)
                     for row in terms), dim
    return scaled


@pytest.mark.parametrize("command", ["classify", "sweep"])
@pytest.mark.parametrize("scales, message", [
    # C = diag(d1(1) - phi^-1(m1(1)), phi(d1(1)) - m1(1)) moves from 1 to
    # 1 - diag(1, 0), which is not central
    ((1, 2), "constructed shift is not central"),
    # C moves to 0, central, so theta(e_j) - e_j*C = theta(e_j)
    ((2, 2), "residual escapes the center"),
], ids=["shift0-constructed shift is not central", "shift1-residual escapes the center"])
def test_proper_form_guards_exit_2(ctx_m2_z3, tmp_path, capsys, monkeypatch,
                                   command, scales, message):
    """The two guards of the proper form, with the center partner made
    wrong, stop ``classify --mode proper`` and ``sweep --mode proper`` with
    exit 2; the sweep writes the failing guard of each map in ``failures``.
    The map is the proper theta(x) = x + x_0*1, with d1(1) = 2 and
    m1(1) = 1, so that each scale shows in C."""
    path, G = ctx_m2_z3
    rows = [list(r) for r in LinMap.identity(G.ring, G.dim).rows]
    for r, u in enumerate(G.algebra.unit):
        rows[r][0] += u
    theta = LinMap(G.ring, rows)
    cls = morita.GMAlgebra
    monkeypatch.setattr(cls, "partner", _scaled(cls.partner, scales))
    if command == "classify":
        argv = ["classify", path, write_map(tmp_path, G, theta), "--mode", "proper"]
    else:
        monkeypatch.setattr(maps, "commuting_space", lambda G, k: maps.MapSpace(
            G.algebra, Submodule(G.ring, G.dim ** 2, [theta.flatten()])))
        argv = ["sweep", path, "--mode", "proper", "--samples", "2"]
    code, out, err = run_cli(argv, capsys)
    assert code == cli.EXIT_VIOLATION
    if command == "classify":
        assert out == ""
        assert message in err
        return
    guard = "central_shift" if scales == (1, 2) else "central_residual"
    doc = json.loads(out)
    assert doc["all_pass"] is False and len(doc["failures"]) == 3
    for failure in doc["failures"]:
        assert guard in [line["cond_id"] for line in failure["witness"]]
    assert "sweep found failing guaranteed checks" in err


@pytest.mark.parametrize("mode", ["structure", "steps", "proper"])
def test_a_failing_row_with_no_failing_line_exits_2(ctx_m2_z3, capsys, monkeypatch,
                                                    mode):
    """The rows and the per-line report read the same builders, so a map
    that fails a row passes no line of its report only through a fault:
    exit 2, with nothing on stdout and the mode and the map named."""
    path, _ = ctx_m2_z3
    monkeypatch.setattr(compiled.ReportRows, "passes", lambda self, theta: False)
    code, out, err = run_cli(["sweep", path, "--mode", mode, "--samples", "1"], capsys)
    assert (code, out) == (cli.EXIT_VIOLATION, "")
    assert err == (f"theorem violation: {mode} sweep: map 0 fails a compiled row"
                   " but no line of its report\n")


@pytest.mark.parametrize("mode", ["structure", "steps", "proper"])
def test_non_commuting_space_generator_exits_2(ctx_m2_z3, capsys, monkeypatch, mode):
    """A sweep decides k-commuting once per generator of the space.  A
    generator that fails is an internal fault (exit 2), not rejected input:
    here the space gets the map with a single 1 at flat index 1."""
    path, _ = ctx_m2_z3
    real = maps.commuting_space

    def widened(G, k):
        space, d = real(G, k), G.dim
        extra = [1 if t == 1 else 0 for t in range(d * d)]
        return maps.MapSpace(space.algebra, Submodule(G.ring, d * d, [*space.space.gens, extra]))

    monkeypatch.setattr(maps, "commuting_space", widened)
    code, out, err = run_cli(["sweep", path, "--mode", mode, "--samples", "0"], capsys)
    assert (code, out) == (cli.EXIT_VIOLATION, "")
    assert "is not 1-commuting (witness" in err


@pytest.fixture()
def ctx_m2_q(tmp_path):
    G = full_matrix_gma(Rationals(), 2, 1)
    path = tmp_path / "m2q.json"
    path.write_text(jsonio.dumps(jsonio.context_to_json(G.ctx)))
    return str(path), G


def test_proper_form_center_shift_is_written_as_scalars(ctx_m2_q, tmp_path,
                                                        capsys):
    """x -> x/2 over Q has the non-integral center shift 1/2; it is written
    as "1/2", not handed to json raw."""
    path, G = ctx_m2_q
    half = scale_map(LinMap.identity(G.ring, G.dim), G.ring.coerce(Fraction(1, 2)))
    mpath = write_map(tmp_path, G, half)
    code, out, _ = run_cli(["classify", path, mpath, "--mode", "proper"], capsys)
    assert code == cli.EXIT_OK
    assert json.loads(out)["proper_form"]["center_shift"] == ["1/2", 0, 0, "1/2"]


def test_sweep_failures_are_written_as_report_lines(ctx_m2_q, capsys, monkeypatch):
    path, G = ctx_m2_q

    def failing(G, theta, mode, k):
        rep = Report("structure", ring=G.ring)
        rep.add("forced", False, (Fraction(1, 2), 0))
        return rep

    # the per-line report runs only on a map that fails a compiled line
    monkeypatch.setattr(compiled.ReportRows, "passes", lambda self, theta: False)
    monkeypatch.setattr(maps, "report_values", failing)
    code, out, _ = run_cli(["sweep", path, "--samples", "1"], capsys)
    assert code == cli.EXIT_VIOLATION
    doc = json.loads(out)
    assert doc["all_pass"] is False
    assert doc["failures"][0] == {
        "map_index": 0,
        "witness": [{"cond_id": "forced", "passed": False, "witness": ["1/2", "0"]}],
    }


@pytest.mark.parametrize("k", ["0", "-1"])
def test_derivation_sweep_refuses_an_order_below_one(ctx_m2_z3, capsys, k):
    path, _ = ctx_m2_z3
    code, out, err = run_cli(["sweep", path, "--mode", "derivations", "--k", k],
                             capsys)
    assert (code, out) == (cli.EXIT_INPUT, "")
    assert err == "DimensionMismatch: commuting order must be >= 1\n"


def test_derivation_sweep_refuses_two_torsion_as_the_proper_form_does(tmp_path, capsys):
    """One guard (``maps.require_proper_setting``) refuses a ring with
    2-torsion in every mode that needs it, in the same words."""
    G = full_matrix_gma(Zmod(4), 2, 1)
    path = tmp_path / "m2z4.json"
    path.write_text(jsonio.dumps(jsonio.context_to_json(G.ctx)))
    code, out, err = run_cli(["sweep", str(path), "--mode", "derivations"], capsys)
    assert (code, out) == (cli.EXIT_INPUT, "")
    assert err == "TwoTorsion: the proper-form pipeline needs 2x = 0 => x = 0\n"


def test_sweep_refuses_negative_samples(ctx_m2_z3, capsys):
    path, _ = ctx_m2_z3
    code, out, err = run_cli(["sweep", path, "--samples", "-3"], capsys)
    assert (code, out) == (cli.EXIT_INPUT, "")
    assert err == "InputError: --samples must be >= 0, got -3\n"


@pytest.mark.parametrize("budget", ["-5", "0"])
def test_classify_refuses_a_budget_below_one(ctx_m2_z3, tmp_path, capsys, budget):
    path, G = ctx_m2_z3
    mpath = write_map(tmp_path, G, LinMap.identity(G.ring, G.dim))
    code, out, err = run_cli(["classify", path, mpath, "--oracle", "--budget", budget],
                             capsys)
    assert (code, out) == (cli.EXIT_INPUT, "")
    assert err == f"InputError: --budget must be >= 1, got {budget}\n"


def test_two_torsion_ring_is_rejected(tmp_path, capsys, monkeypatch):
    """A proper or step sweep is refused before it solves the space; an
    order below 1 is refused first, with the error it always had."""
    G = full_matrix_gma(Zmod(4), 2, 1)
    path = tmp_path / "m2z4.json"
    path.write_text(jsonio.dumps(jsonio.context_to_json(G.ctx)))

    def never(*a):
        raise AssertionError("solved before the refusal")
    monkeypatch.setattr(maps, "commuting_space", never)
    for mode in ("proper", "steps"):
        code, out, err = run_cli(
            ["sweep", str(path), "--k", "1", "--mode", mode], capsys
        )
        assert (code, out) == (cli.EXIT_INPUT, "")
        assert err == "TwoTorsion: the proper-form pipeline needs 2x = 0 => x = 0\n"
        code, out, err = run_cli(["sweep", str(path), "--mode", mode, "--k", "0"], capsys)
        assert (code, out) == (cli.EXIT_INPUT, "")
        assert err == "DimensionMismatch: commuting order must be >= 1\n"


def test_proper_classify_checks_the_hypotheses_once(ctx_m2_z3, tmp_path, capsys,
                                                    monkeypatch):
    """The hypotheses recorded in the document are the ones the proper form
    and the step report are built under: checked once, not once each."""
    path, G = ctx_m2_z3
    mpath = write_map(tmp_path, G, scale_map(LinMap.identity(G.ring, G.dim), 2))
    calls = []
    real = maps.check_properness_hypotheses
    monkeypatch.setattr(maps, "check_properness_hypotheses",
                        lambda *a: calls.append(a) or real(*a))
    code, out, _ = run_cli(["classify", path, mpath, "--k", "2", "--mode", "proper"],
                           capsys)
    assert code == cli.EXIT_OK and "proper_form" in json.loads(out)
    assert len(calls) == 1


def _refusing(monkeypatch):
    """Make the oracle's commuting test and the structure report raise: a
    request refused first reaches neither."""
    def never(*a, **kw):
        raise AssertionError("ran before the refusal")
    monkeypatch.setattr(oracle, "brute_k_commuting", never)
    monkeypatch.setattr(maps, "verify_structure_conditions", never)


@pytest.mark.parametrize("n", [4, 6])
def test_proper_classify_refuses_two_torsion_before_the_oracle(n, tmp_path, capsys,
                                                               monkeypatch):
    G = full_matrix_gma(Zmod(n), 2, 1)
    path = tmp_path / "m2.json"
    path.write_text(jsonio.dumps(jsonio.context_to_json(G.ctx)))
    two_id = scale_map(LinMap.identity(G.ring, G.dim), 2)
    mpath = write_map(tmp_path, G, two_id)
    argv = ["classify", str(path), mpath, "--oracle", "--mode", "proper"]
    with monkeypatch.context() as mp:
        _refusing(mp)
        code, out, err = run_cli(argv, capsys)
    assert (code, out) == (cli.EXIT_INPUT, "")
    assert err == "TwoTorsion: the proper-form pipeline needs 2x = 0 => x = 0\n"
    # a map that is not commuting is a finding, and its counterexample is
    # still checked by the oracle
    bad = LinMap(G.ring, [[2, 1, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]])
    argv[2] = write_map(tmp_path, G, bad, "bad.json")
    seen = []
    real = oracle.brute_k_commuting
    monkeypatch.setattr(oracle, "brute_k_commuting",
                        lambda *a: seen.append(a) or real(*a))
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (cli.EXIT_FINDING, "")
    assert len(seen) == 1
    doc = json.loads(out)
    assert doc["k_commuting"] is doc["oracle_k_commuting"] is False
    assert doc["counterexample"] == [0, 1, 0, 0]


@pytest.mark.parametrize("n", [3, 5, 9])
def test_a_proving_oracle_classify_builds_the_commutators_once(n, tmp_path, capsys,
                                                               monkeypatch):
    """The oracle's commuting test, its center and its properness search
    share one set of commutator constants."""
    G = full_matrix_gma(Zmod(n), 2, 1)
    path = tmp_path / "m2.json"
    path.write_text(jsonio.dumps(jsonio.context_to_json(G.ctx)))
    mpath = write_map(tmp_path, G, scale_map(LinMap.identity(G.ring, G.dim), 2))
    calls, real = [], oracle._commutators
    monkeypatch.setattr(oracle, "_commutators", lambda A: calls.append(A) or real(A))
    code, out, _ = run_cli(["classify", str(path), mpath, "--oracle", "--mode", "proper"],
                           capsys)
    doc = json.loads(out)
    assert code == cli.EXIT_OK and doc["oracle_k_commuting"] is doc["oracle_proper"] is True
    assert len(calls) == 1


def test_proper_classify_refuses_a_non_faithful_context_before_the_reports(
        non_faithful_z3, tmp_path, capsys, monkeypatch):
    G = non_faithful_z3
    path = tmp_path / "ctx.json"
    path.write_text(jsonio.dumps(jsonio.context_to_json(G.ctx)))
    theta = LinMap(G.ring, ((0, 0, 0, 0, 0), (0, 1, 0, 0, 0), (2, 0, 1, 0, 0),
                            (0, 0, 0, 0, 0), (0, 0, 0, 0, 0)))
    assert maps.is_k_commuting(G, theta, 1) == (True, None)
    _refusing(monkeypatch)
    code, out, err = run_cli(["classify", str(path), write_map(tmp_path, G, theta),
                              "--oracle", "--mode", "proper"], capsys)
    assert (code, out) == (cli.EXIT_INPUT, "")
    assert err == ("NotFaithful: M must be faithful as a left A-module and a "
                   "right B-module\n")


def test_bad_input_files(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    code, _, err = run_cli(["validate", str(bad)], capsys)
    assert code == cli.EXIT_INPUT
    code, _, _ = run_cli(["family", "--kind", "full", "--ring", "zmod:3",
                          "--n", "2", "--split", "2"], capsys)
    assert code == cli.EXIT_INPUT


# documents that json cannot decode for other reasons than their syntax
UNREADABLE = {
    "not UTF-8": b"\xff\xfe",
    "nested deeper than the recursion limit": b"[" * 200000,
    "an int of more than 4300 digits": (
        b'{"schema": "map/1", "matrix": [[' + b"9" * 4400 + b', 0], [0, 1]]}'),
}


@pytest.mark.parametrize("case", sorted(UNREADABLE))
def test_an_unreadable_document_exits_3(case, ctx_m2_z3, tmp_path, capsys):
    doc = tmp_path / "doc.json"
    doc.write_bytes(UNREADABLE[case])
    path, (ctx, _) = str(doc), ctx_m2_z3
    for argv in (["validate", path], ["classify", ctx, path]):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (cli.EXIT_INPUT, ""), err
        assert err.startswith(f"InputError: cannot read JSON document {path}: "), err
        assert err.count("\n") == 1, err


@pytest.mark.parametrize("argv", [
    ["family", "--kind", "full", "--ring", "zmod:3"],
    ["validate", "CTX"],
])
def test_an_unwritable_emit_path_exits_3(argv, ctx_m2_z3, tmp_path, capsys):
    target = str(tmp_path / "missing" / "out.json")
    argv = [ctx_m2_z3[0] if a == "CTX" else a for a in argv]
    code, out, err = run_cli([*argv, "--emit", target], capsys)
    assert (code, out) == (cli.EXIT_INPUT, ""), err
    assert err.startswith(f"InputError: cannot write {target}: "), err
    assert err.count("\n") == 1, err


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("target", ["/dev/full", "a closed pipe"])
def test_an_unwritable_stdout_exits_3(target, buffered, ctx_m2_z3):
    """A standard output that cannot be written is refused as an --emit path
    is: one line and exit 3, and nothing more when the interpreter exits,
    whether stdout is buffered (the default) or not (``-u``)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    argv = [sys.executable, *([] if buffered else ["-u"]), "-m", "gmalg", "validate",
            ctx_m2_z3[0]]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = src
    if target == "/dev/full":
        if not os.path.exists(target):
            pytest.skip("no /dev/full on this system")
        with open(target, "w") as full:
            proc = subprocess.run(argv, stdout=full, stderr=subprocess.PIPE, text=True,
                                  timeout=60, env=env)
        code, err = proc.returncode, proc.stderr
    else:
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True, env=env)
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert code == cli.EXIT_INPUT, err
    assert err.startswith("InputError: cannot write standard output: "), err
    assert err.count("\n") == 1 and "Exception ignored" not in err, err


def _run_child(argv, buffered, stdout=subprocess.PIPE, stderr=subprocess.PIPE):
    """``python -m gmalg *argv`` from this checkout, its stdout buffered (the
    default) or not (``-u``): (exit code, stdout, stderr)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = src
    proc = subprocess.run([sys.executable, *([] if buffered else ["-u"]), "-m", "gmalg", *argv],
                          stdout=stdout, stderr=stderr, text=True, timeout=60, env=env)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [
    ["validate", "/nonexistent/ctx.json"],
    ["sweep", "CTX", "--mode", "derivations", "--k", "0"],
])
def test_an_unwritable_stderr_keeps_the_exit_code(argv, buffered, ctx_m2_z3):
    """A refusal whose one line cannot be written still exits 3, with
    nothing more at interpreter exit."""
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this system")
    argv = [ctx_m2_z3[0] if a == "CTX" else a for a in argv]
    code, _, err = _run_child(argv, buffered)
    assert code == cli.EXIT_INPUT and err.count("\n") == 1, err
    with open("/dev/full", "w") as full:
        code, _, _ = _run_child(argv, buffered, stdout=subprocess.DEVNULL, stderr=full)
    assert code == cli.EXIT_INPUT


class _Full(io.StringIO):
    def write(self, text):
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize("exc, code", [
    (TheoremViolation("a check failed"), cli.EXIT_VIOLATION),
    (HypothesesNotMet("the hypotheses fail"), cli.EXIT_FINDING),
    (InputError("a bad input"), cli.EXIT_INPUT),
])
def test_each_handler_keeps_its_exit_code_when_stderr_fails(exc, code, monkeypatch):
    def raising(args):
        raise exc

    monkeypatch.setattr(cli, "_parse", lambda argv: argparse.Namespace(func=raising))
    monkeypatch.setattr(sys, "stderr", _Full())
    assert cli.main(["validate", "ctx.json"]) == code


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["--help"], ["classify", "--help"], ["-h", "sweep"]])
def test_help_to_an_unwritable_stdout_exits_3(argv, buffered):
    """Help is written as a document is: to a writable stdout argparse's
    text and exit 0, to an unwritable one exit 3 and one line."""
    code, out, err = _run_child(argv, buffered)
    assert (code, err) == (cli.EXIT_OK, "")
    assert out.startswith("usage: gmalg ")
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this system")
    with open("/dev/full", "w") as full:
        code, _, err = _run_child(argv, buffered, stdout=full)
    assert code == cli.EXIT_INPUT, err
    assert err.startswith("InputError: cannot write standard output: "), err
    assert err.count("\n") == 1 and "Exception ignored" not in err, err


def test_inflated_family_command(capsys):
    code, out, _ = run_cli(
        ["family", "--kind", "inflated", "--ring", "zmod:3", "--n", "2",
         "--gamma", "1,0;0,2"],
        capsys,
    )
    assert code == cli.EXIT_OK
    doc = json.loads(out)
    assert doc["has_identity"] is True
    assert doc["identity"] == [1, 0, 0, 2]


def test_console_script_entry_point(ctx_m2_z3):
    path, _ = ctx_m2_z3
    proc = subprocess.run(
        [sys.executable, "-m", "gmalg.cli", "validate", path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["clean"] is True


def test_package_runs_as_a_module(ctx_m2_z3, tmp_path):
    path, G = ctx_m2_z3
    mpath = write_map(tmp_path, G, LinMap.identity(G.ring, G.dim))
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "gmalg", "classify", path, mpath, "--oracle"],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    assert json.loads(proc.stdout)["oracle_proper"] is True


@pytest.mark.parametrize("flags", [
    ["--kind", "block", "--ring", "zmod:3", "--dims", "99999999999999999999,1"],
    ["--kind", "full", "--ring", "zmod:3", "--n", "99999999999999999999"],
    ["--kind", "triangular", "--ring", "q", "--n", "1000000000"],
], ids=["block", "full", "triangular"])
def test_a_huge_family_is_refused_at_once(flags):
    # run apart, with its memory capped, so that a family built after all
    # fails there instead of filling this process
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "gmalg", "family", *flags],
        capture_output=True,
        text=True,
        timeout=20,
        env={**os.environ, "PYTHONPATH": src},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)),
    )
    assert proc.returncode == cli.EXIT_INPUT
    assert proc.stdout == ""
    assert proc.stderr == "BadShape: family too large: a dense document of over 10000000 scalars\n"


def test_cli_imports_no_numpy():
    # gmalg depends on no third-party package; importing numpy would cost
    # most of a CLI call's start-up
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", "import gmalg.cli, sys; print('numpy' in sys.modules)"],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def _context_doc(ring):
    return jsonio.context_to_json(full_matrix_gma(ring, 2, 1).ctx)


def _map_doc(ring, entry):
    doc = LinMap.identity(ring, 4).to_json()
    doc["matrix"][0][1] = entry
    return doc


def _with(doc, path, value):
    *head, last = path
    for key in head:
        doc = doc[key]
    doc[last] = value


def _bad_context(ring, path, value):
    doc = _context_doc(ring)
    _with(doc, path, value)
    return doc


MALFORMED = {
    "map scalar 'x' over Z/3": ("map", Zmod(3), _map_doc(Zmod(3), "x")),
    "map scalar null over Z/3": ("map", Zmod(3), _map_doc(Zmod(3), None)),
    "map scalar 1.5 over Z/3": ("map", Zmod(3), _map_doc(Zmod(3), 1.5)),
    "map scalar 'x' over Q": ("map", Rationals(), _map_doc(Rationals(), "x")),
    "map scalar null over Q": ("map", Rationals(), _map_doc(Rationals(), None)),
    "map scalar 0.5 over Q": ("map", Rationals(), _map_doc(Rationals(), 0.5)),
    "map row not a list": ("map", Zmod(3), {"schema": "map/1", "matrix": [1, 2]}),
    "map document a list": ("map", Zmod(3), [1, 2]),
    "context scalar 'x' over Z/3": (
        "context", None, _bad_context(Zmod(3), ("phi", 0, 0, 0), "x")),
    "context scalar null over Q": (
        "context", None, _bad_context(Rationals(), ("M", "left", 0, 0, 0), None)),
    "context scalar 1.5 over Z/3": (
        "context", None, _bad_context(Zmod(3), ("A", "unit", 0), 1.5)),
    "ring modulus 3.9": (
        "context", None, _bad_context(Zmod(3), ("ring", "n"), 3.9)),
    "module dim 1.5": (
        "context", None, _bad_context(Zmod(3), ("M", "dim"), 1.5)),
    "context document a list": ("context", None, [_context_doc(Zmod(3))]),
    "map scalar of more than 4300 digits over Q": (
        "map", Rationals(), _map_doc(Rationals(), "9" * 4400 + "/1")),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_document_exits_3(case, tmp_path, capsys):
    kind, ring, doc = MALFORMED[case]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    if kind == "map":
        ctx = tmp_path / "ctx.json"
        ctx.write_text(json.dumps(_context_doc(ring)))
        argv = ["classify", str(ctx), str(path)]
    else:
        argv = ["build", str(path)]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (cli.EXIT_INPUT, ""), err
    assert err.startswith("InputError:"), err


@pytest.mark.parametrize("flags", [
    ["--kind", "full", "--ring", "zmod:abc"],
    ["--kind", "block", "--ring", "zmod:3", "--dims", "2,a"],
    ["--kind", "inflated", "--ring", "zmod:3", "--gamma", "1,x;0,1"],
    ["--kind", "inflated", "--ring", "zmod:3", "--gamma", "1/2,0;0,1"],
])
def test_malformed_family_flags_exit_3(flags, capsys):
    code, out, err = run_cli(["family", *flags], capsys)
    assert (code, out) == (cli.EXIT_INPUT, ""), err


# an int of more digits than int() converts, in each flag that holds one
OVERLONG = "9" * 5000


@pytest.mark.parametrize("flags, what", [
    (["--kind", "inflated", "--ring", "zmod:3", "--n", "2", "--gamma", f"1,{OVERLONG};0,1"],
     "a command-line scalar"),
    (["--kind", "full", "--ring", f"zmod:{OVERLONG}", "--n", "2"], "a command-line modulus"),
], ids=["--gamma", "--ring"])
def test_an_overlong_int_in_a_flag_exits_3(flags, what, capsys):
    code, out, err = run_cli(["family", *flags], capsys)
    assert (code, out) == (cli.EXIT_INPUT, ""), err
    assert err.startswith(f"InputError: cannot read {what}: Exceeds the limit"), err
    assert err.count("\n") == 1, err


def test_inflated_family_decodes_each_twist_entry_once(capsys, monkeypatch):
    """The twist's scalars are coerced where the command line decodes them
    and nowhere again: once for each int entry ("1/2" is read as a
    Fraction, not coerced)."""
    calls, coerce = [], Rationals.coerce
    monkeypatch.setattr(Rationals, "coerce",
                        lambda self, v: calls.append(v) or coerce(self, v))
    code, _, _ = run_cli(["family", "--kind", "inflated", "--ring", "q", "--n", "3",
                          "--gamma", "1/2,1,0;0,1,1;0,0,1"], capsys)
    assert code == cli.EXIT_OK
    assert calls == [1, 0, 0, 1, 1, 0, 0, 1]


def test_inflated_family_takes_rational_gamma(capsys):
    code, out, _ = run_cli(
        ["family", "--kind", "inflated", "--ring", "q", "--n", "2",
         "--gamma", "1/2,0;0,-3/4"],
        capsys,
    )
    assert code == cli.EXIT_OK
    assert json.loads(out)["identity"] == [2, 0, 0, "-4/3"]


def test_parser_is_built_once_and_keeps_no_state(ctx_m2_z3, tmp_path, capsys,
                                                 monkeypatch):
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    cli._parser.cache_clear()
    try:
        path, G = ctx_m2_z3
        mpath = write_map(tmp_path, G, LinMap.identity(G.ring, G.dim))
        code, out, _ = run_cli(["classify", path, mpath, "--oracle"], capsys)
        assert code == cli.EXIT_OK
        assert json.loads(out)["oracle_k_commuting"] is True
        # nothing of the last call's options carries over
        code, out, _ = run_cli(["classify", path, mpath], capsys)
        assert code == cli.EXIT_OK
        assert "oracle_k_commuting" not in json.loads(out)
        with pytest.raises(SystemExit) as exc:
            cli.main(["classify", path])
        assert exc.value.code == cli.EXIT_INPUT
        assert "usage: gmalg classify" in capsys.readouterr().err
        assert len(built) == 1
    finally:
        cli._parser.cache_clear()


# -- dispatch: each command line parsed once, by its subcommand's parser ------

CTX, MAP, OUT = "ctx.json", "map.json", "out.json"
COMMANDS = ("validate", "build", "classify", "sweep", "family")
PARSED = [
    ["validate", CTX],
    ["validate", CTX, "--emit", OUT],
    ["build", CTX],
    ["build", CTX, "--emit", OUT],
    ["classify", CTX, MAP],
    ["classify", CTX, MAP, "--k", "2", "--oracle", "--mode", "proper",
     "--budget", "50", "--emit", OUT],
    ["sweep", CTX],
    ["sweep", CTX, "--k", "3", "--mode", "steps", "--seed", "7", "--samples", "2",
     "--emit", OUT],
    ["family", "--kind", "full", "--ring", "zmod:3"],
    ["family", "--kind", "inflated", "--ring", "q", "--n", "3", "--split", "2",
     "--dims", "2,1", "--gamma", "1,0,0;0,1,0;0,0,1", "--variant", "lower",
     "--emit", OUT],
    ["classify", CTX, MAP, "--mode=proper"],
    ["classify", CTX, MAP, "--ora"],
    ["classify", "--k", "2", "--", CTX, MAP],
    ["sweep", "--", CTX],
]
# argparse exits on these: help (0) or a usage error (3)
EXITING = [
    ["classify", "-h"],
    ["sweep", CTX, "--help"],
    ["-h"],
    [],
    ["frob"],
    ["classify", CTX, MAP, "--bogus"],
    ["sweep", CTX, "extra"],
    ["classify", CTX],
    ["classify", CTX, MAP, "--mode", "fast"],
    ["classify", CTX, MAP, "--k", "two"],
    ["classify", CTX, MAP, "--k"],
]


def _outcome(parse, argv, capsys):
    """(exit code, namespace, stdout, stderr) of ``parse(argv)``; the
    namespace is None when it exits."""
    try:
        args, code = parse(argv), cli.EXIT_OK
    except SystemExit as exc:
        args, code = None, exc.code
    out = capsys.readouterr()
    return code, args, out.out, out.err


@pytest.fixture()
def recording_commands(monkeypatch):
    """Each subcommand's function replaced by one that records its
    namespace; the parser is rebuilt around them, and again after."""
    seen = []
    for name in COMMANDS:
        monkeypatch.setattr(cli, f"cmd_{name}",
                            lambda args, name=name: seen.append((name, args)) or cli.EXIT_OK)
    cli._parser.cache_clear()
    yield seen
    cli._parser.cache_clear()


def _main_namespace(seen):
    def parse(argv):
        seen.clear()
        assert cli.main(argv) == cli.EXIT_OK
        (name, args), = seen
        assert args.command == name
        return args
    return parse


@pytest.mark.parametrize("argv", PARSED + EXITING, ids=" ".join)
def test_main_parses_a_command_line_as_the_full_parser(argv, recording_commands, capsys):
    """The same namespace, exit code, stdout and stderr bytes: help, usage
    and error texts included."""
    full = _outcome(lambda argv: cli.build_parser().parse_args(argv), argv, capsys)
    assert _outcome(_main_namespace(recording_commands), argv, capsys) == full
    assert (full[1] is not None) == (argv in PARSED)


@pytest.mark.parametrize("argv", PARSED, ids=" ".join)
def test_a_subcommand_line_is_parsed_once(argv, recording_commands, capsys, monkeypatch):
    """A command line that its subcommand's parser takes whole never
    reaches the full parser."""
    def refuse(*_):
        raise AssertionError("parsed twice")

    monkeypatch.setattr(cli._parser(), "parse_args", refuse)
    monkeypatch.setattr(cli._parser(), "parse_known_args", refuse)
    assert _outcome(_main_namespace(recording_commands), argv, capsys)[0] == cli.EXIT_OK


def test_build_parser_keeps_each_subcommand_parser_by_name():
    parser = cli.build_parser()
    assert sorted(parser.commands) == sorted(COMMANDS)
    for name, sub in parser.commands.items():
        assert sub.prog == f"gmalg {name}"
