"""The center of G and the sufficient-hypothesis check.

Both read the rows of ``GMAlgebra.center_blocks``.  Here they are checked
against definitions written independently of those rows: the center of
the underlying algebra, the brute-force oracle, and an enumeration of
every module pair for cond3."""

import contextlib
import io
import itertools
import json
import random

import pytest

from gmalg import cli, jsonio, linalg, oracle
from gmalg.algebra import Algebra, Submodule, _as_rows
from gmalg.errors import BudgetExceeded, NotFaithful
from gmalg.families import (
    block_triangular_gma,
    full_matrix_gma,
    triangular_gma,
)
from gmalg.algebra import iter_vectors, lattice_points
from gmalg.maps import (
    HypothesisWitness,
    LinMap,
    MapSpace,
    _witness_order,
    check_properness_hypotheses,
    commuting_space,
    properness_certificate,
    require_proper_setting,
)
from gmalg.morita import Bimodule, MoritaContext, build_gma
from gmalg.rings import Rationals, Zmod

from conftest import no_module, nullspace, scalars, square_zero_algebra
from test_compiled import SHAPES, _view
from test_stream import non_faithful, reference_adjoint


def negative_control(R):
    """A = R[x,y]/(x,y)^2, B = R, M = R^3 with x: e2 -> e1 and
    y: e3 -> e1, N = 0.  No single m0 cuts out the center."""
    A = square_zero_algebra(R)
    B = scalars(R)
    left = [
        [(1, 0, 0), (0, 1, 0), (0, 0, 1)],   # 1
        [(0, 0, 0), (1, 0, 0), (0, 0, 0)],   # x
        [(0, 0, 0), (0, 0, 0), (1, 0, 0)],   # y
    ]
    M = Bimodule(R, 3, left, [[(1, 0, 0)], [(0, 1, 0)], [(0, 0, 1)]], 3, 1)
    return build_gma(MoritaContext(A, B, M, no_module(R, B, A), [[]] * 3, []))


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _write(tmp_path, G, theta):
    ctx, mp = tmp_path / "ctx.json", tmp_path / "map.json"
    ctx.write_text(jsonio.dumps(jsonio.context_to_json(G.ctx)))
    mp.write_text(jsonio.dumps(theta.to_json()))
    return str(ctx), str(mp)


@pytest.mark.parametrize("oracle_flag", [[], ["--oracle"]])
def test_non_faithful_map_is_not_proper(non_faithful_z3, tmp_path, oracle_flag):
    """The commuting map has the multiplier diag(E22, 0), which commutes
    with M but is not in Z(A); it is not proper."""
    G = non_faithful_z3
    theta = LinMap(G.ring, ((0, 0, 0, 0, 0), (0, 1, 0, 0, 0), (2, 0, 1, 0, 0),
                            (0, 0, 0, 0, 0), (0, 0, 0, 0, 0)))
    code, out = _run(["classify", *_write(tmp_path, G, theta), *oracle_flag])
    doc = json.loads(out)
    assert code == cli.EXIT_FINDING
    assert doc["k_commuting"] is True
    assert doc["proper"] is False


@pytest.mark.parametrize("family", [
    "non_faithful_z3", "m2_z3", "m2_z5", "t2_z3", "t2_z5", "t3_z3", "b21_z3",
])
def test_gma_center_is_the_algebra_center(family, request):
    G = request.getfixturevalue(family)
    assert G.gma_center().equals(G.algebra.center())


def _adjoint_rows(G):
    """The rows of [a, e_i] = 0 and [b, e_j] = 0 read off the coefficients
    W_alpha of the adjoint operators at k = 1, re-indexed to (a | b): the
    route into Z(A) x Z(B) that the annihilators of the centers replace."""
    rows = []
    for off, alg in ((0, G.A), (G.dims[0], G.B)):
        for _, cols in sorted(reference_adjoint(alg, 1).items()):
            w = _as_rows(cols)
            rows += [{off + p: v for p, v in w[r].items()} for r in sorted(w)]
    return rows


def _center_bytes(G):
    """The bytes of ``center_kernel``, ``gma_center`` and both partners (or
    the refusal of a partner that is not unique)."""
    out = [G.center_kernel().gens, G.gma_center().gens]
    for block in "AB":
        try:
            out.append(G.partner(block))
        except NotFaithful as e:
            out.append(str(e))
    return repr(out)


CENTER_FAMILIES = {**SHAPES, "non-faithful": non_faithful, "negative": negative_control}
CENTER_RINGS = [Rationals(), Zmod(3), Zmod(4), Zmod(6), Zmod(9), Zmod(15)]


@pytest.mark.parametrize("view", ["plain", "transpose", "random basis"])
@pytest.mark.parametrize("ring", CENTER_RINGS, ids=repr)
@pytest.mark.parametrize("family", CENTER_FAMILIES)
def test_the_center_annihilators_cut_out_the_diagonal_centers(family, ring, view):
    """The kernel of ``_diagonal_center_rows`` is the kernel of the W_alpha
    rows, Z(A) x Z(B), and Z(G) built on it is the one built on them."""
    G = _view(CENTER_FAMILIES[family](ring), view, random.Random(f"center/{family}/{view}"))
    n = G.dims[0] + G.dims[3]

    def kernel(rows):
        return Submodule._from_normal(ring, n, nullspace(ring, rows, n)).gens

    assert kernel(G._diagonal_center_rows()) == kernel(_adjoint_rows(G))
    old = build_gma(G.ctx)
    old._diagonal_center_rows = lambda: _adjoint_rows(old)
    assert _center_bytes(G) == _center_bytes(old)


@pytest.mark.parametrize("R", [Zmod(3), Zmod(5), Rationals()], ids=repr)
def test_negative_control(R):
    G = negative_control(R)
    h = check_properness_hypotheses(G, 1)
    assert (h.cond1, h.cond2, h.cond3) == (False, True, False)
    # r': the pinned set at (0, 0) is Z(A) x Z(B), 3 dimensions over Z(G)
    pinned = nullspace(R, [r for b in G.center_blocks([(0, 0, 0)], []) for r in b], 4)
    assert len(pinned) - G.algebra.center().rank == 3
    gens = commuting_space(G, 1).basis()
    assert len(gens) == 11
    improper = [g for g in gens if properness_certificate(G, g) is None]
    assert len(improper) == 3
    if R == Zmod(3):
        assert [oracle.brute_properness(G, g)[0] for g in gens] == [
            properness_certificate(G, g) is not None for g in gens
        ]


def test_proper_classify_outside_the_hypotheses_is_a_finding(tmp_path):
    """A proper k-commuting map whose sufficient hypotheses fail gets its
    hypotheses recorded and no proper form: a finding (exit 1) from the
    hypotheses alone, not a violation."""
    G = negative_control(Zmod(3))
    theta = next(g for g in commuting_space(G, 1).basis()
                 if properness_certificate(G, g) is not None)
    code, out = _run(["classify", *_write(tmp_path, G, theta), "--mode", "proper"])
    doc = json.loads(out)
    assert code == cli.EXIT_FINDING
    assert doc["k_commuting"] is doc["proper"] is True
    assert doc["hypotheses"] == {"cond1": False, "cond2": True, "cond3": False}
    assert "proper_form" not in doc


@pytest.mark.parametrize("mode", ["proper", "steps"])
def test_sweep_outside_the_hypotheses_draws_no_sample(mode, tmp_path, monkeypatch):
    """A proper or step sweep whose hypotheses fail is a finding: it reports
    the size of the space and the maps it would check, and draws none."""
    G = negative_control(Zmod(3))
    ctx, _ = _write(tmp_path, G, LinMap.identity(G.ring, G.dim))

    def never(*a):
        raise AssertionError("a sample was drawn")
    monkeypatch.setattr(MapSpace, "random_member", never)
    code, out = _run(["sweep", ctx, "--mode", mode, "--samples", "4"])
    assert code == cli.EXIT_FINDING
    assert json.loads(out) == {
        "command": "sweep", "mode": mode, "k": 1, "seed": 0,
        "hypotheses": {"cond1": False, "cond2": True, "cond3": False},
        "space_generators": 11, "maps_checked": 15,
        "finding": "sufficient hypotheses not satisfied"}


def _matched_first(nm, nn):
    pairs = [(min(i, nm - 1), min(i, nn - 1)) for i in range(max(nm, nn))]
    pairs += itertools.product(range(nm), range(nn))
    return list(dict.fromkeys(pairs))


def reference_cond3(G):
    """(cond3, m0, n0) by trying every module pair, matched indices first:
    (m0, n0) works iff the (a, b) in Z(A) x Z(B) with a*m0 = m0*b and
    n0*a = b*n0 form a space of the dimension of Z(G)."""
    R, ctx = G.ring, G.ctx
    za, zb = ctx.A.center().gens, ctx.B.center().gens
    target = G.algebra.center().rank
    Ms = list(itertools.product(range(R.n), repeat=ctx.M.dim))
    Ns = list(itertools.product(range(R.n), repeat=ctx.N.dim))
    for i, j in _matched_first(len(Ms), len(Ns)):
        m, n = Ms[i], Ns[j]
        # the columns: the residue of each central basis element
        cols = [ctx.am(a, m) + ctx.na(n, a) for a in za]
        cols += [tuple(R.normal(-c) for c in ctx.mb(m, b) + ctx.bn(b, n)) for b in zb]
        rows = [list(r) for r in zip(*cols)]
        if len(cols) - len(linalg.span_basis(R, rows, len(cols))) == target:
            return True, m, n
    return False, None, None


CROSS = [
    lambda R: full_matrix_gma(R, 2, 1),
    lambda R: full_matrix_gma(R, 3, 1),
    lambda R: triangular_gma(R, 2, 1),
    lambda R: triangular_gma(R, 3, 1),
    lambda R: triangular_gma(R, 3, 2),
    lambda R: triangular_gma(R, 4, 1),
    lambda R: block_triangular_gma(R, (2, 1), 1),
    lambda R: block_triangular_gma(R, (1, 2), 1),
    lambda R: block_triangular_gma(R, (1, 1, 1), 1),
    negative_control,
]


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("build", CROSS)
def test_cond3_matches_the_enumeration(build, p):
    G = build(Zmod(p))
    h = check_properness_hypotheses(G, 1)
    assert (h.cond3, h.m_witness, h.n_witness) == reference_cond3(G)


def test_hypotheses_on_m4_z7_and_composite_budget():
    # 7^8 module pairs, but over a field only lattice points are tried
    h = check_properness_hypotheses(full_matrix_gma(Zmod(7), 4, 2), 1)
    assert (h.cond1, h.cond2, h.cond3) == (True, True, True)
    # composite n enumerates every pair: 9^8 of them exceed the budget
    with pytest.raises(BudgetExceeded):
        check_properness_hypotheses(full_matrix_gma(Zmod(9), 5, 1), 1)
    h = check_properness_hypotheses(triangular_gma(Zmod(9), 2, 1), 2)
    assert (h.cond3, h.m_witness, h.n_witness) == (True, (1,), ())


@pytest.mark.parametrize("n", [3, 4])
def test_proper_mode_over_q(tmp_path, n):
    G = full_matrix_gma(Rationals(), n, 1)
    ctx, mp = _write(tmp_path, G, LinMap.identity(G.ring, G.dim))
    for k in (1, 2, 3):
        code, out = _run(["classify", ctx, mp, "--k", str(k), "--mode", "proper"])
        assert code == cli.EXIT_OK
        assert json.loads(out)["hypotheses"] == {
            "cond1": True, "cond2": True, "cond3": True}
        for mode in ("proper", "steps"):
            code, _ = _run(["sweep", ctx, "--k", str(k), "--mode", mode,
                            "--samples", "2"])
            assert code == cli.EXIT_OK


# -- Z(G) and cond3 by size -----------------------------------------------------

def full_center_kernel(G):
    """Z(G) on its diagonal from every row at once: the W_alpha rows of
    Z(A) x Z(B) (``_adjoint_rows``) and every module row of
    ``center_blocks``, with no early stop."""
    n = G.dims[0] + G.dims[3]
    blocks = list(G.center_blocks(G.ctx.M.basis(), G.ctx.N.basis()))[1:]
    rows = _adjoint_rows(G) + [r for b in blocks for r in b]
    return Submodule._from_normal(G.ring, n, nullspace(G.ring, rows, n)).gens


def split_center(R):
    """A = R x R, B = R, M = R with (1, 0) acting as 1 and (0, 1) as 0,
    N = 0: diag((0, 1), 0) is central, so Z(G) is larger than span(1)."""
    A = Algebra(R, ["e1", "e2"], [[(1, 0), (0, 0)], [(0, 0), (0, 1)]], (1, 1))
    B = scalars(R)
    M = Bimodule(R, 1, [[(1,)], [(0,)]], [[(1,)]], A.dim, B.dim)
    return build_gma(MoritaContext(A, B, M, no_module(R, B, A), [[]], []))


@pytest.mark.parametrize("view", ["plain", "transpose", "random basis"])
@pytest.mark.parametrize("ring", [Rationals()] + [Zmod(n) for n in range(2, 10)], ids=repr)
def test_the_center_kernel_equals_the_full_elimination(ring, view):
    """Same generators as every row at once.  Z(G) is span(1) on every
    family, where the routine returns its lower bound, and larger on
    ``split_center``, where it falls back on the kernel."""
    for family, build in {**CENTER_FAMILIES, "split": split_center}.items():
        G = _view(build(ring), view, random.Random(f"zkernel/{family}/{view}"))
        one = Submodule(ring, G.dims[0] + G.dims[3], [G.A.unit + G.B.unit]).gens
        got = G.center_kernel().gens
        assert got == full_center_kernel(build_gma(G.ctx)), family
        assert (got == one) == (family != "split"), family


def membership_hypotheses(G, k):
    """``check_properness_hypotheses`` with cond3 decided as before the size
    test: a pair works iff each generator of its pinned set's kernel lies
    in Z(G)."""
    require_proper_setting(G)
    rg, (dA, dM, dN, dB) = G.ring, G.dims
    piA, piB = G.center_projections()
    cond1 = G.ctx.A.engel_center(k).equals(piA)
    cond2 = G.ctx.B.engel_center(k).equals(piB)
    zdiag = G.center_kernel()
    if rg.is_field:
        top = G.ctx.A.center().rank + G.ctx.B.center().rank - zdiag.rank
        Ms, Ns = (list(lattice_points(rg, d, top)) for d in (dM, dN))
    else:
        Ms, Ns = list(iter_vectors(rg, dM)), list(iter_vectors(rg, dN))
    for i, j in _witness_order(len(Ms), len(Ns)):
        rows = [r for b in G.center_blocks([Ms[i]], [Ns[j]]) for r in b]
        if all(map(zdiag.contains, nullspace(rg, rows, dA + dB))):
            return HypothesisWitness(cond1, cond2, True, Ms[i], Ns[j])
    return HypothesisWitness(cond1, cond2, False, None, None)


def _hypotheses_or_refusal(check, G, k):
    try:
        return check(G, k)
    except NotFaithful as e:
        return repr(e)


@pytest.mark.parametrize("view", ["plain", "transpose", "random basis"])
@pytest.mark.parametrize("ring", [Zmod(3), Zmod(5), Zmod(9), Rationals()], ids=repr)
@pytest.mark.parametrize("family", CENTER_FAMILIES)
def test_cond3_by_size_equals_the_membership_loop(family, ring, view):
    G = _view(CENTER_FAMILIES[family](ring), view, random.Random(f"cond3/{family}/{view}"))
    for k in (1, 2, 3):
        assert (_hypotheses_or_refusal(check_properness_hypotheses, build_gma(G.ctx), k)
                == _hypotheses_or_refusal(membership_hypotheses, build_gma(G.ctx), k)), k
