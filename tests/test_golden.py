"""Golden outputs of the verification reports and of context validation.

The expected file pins, for seeded inputs, the order of every report's
``cond_id`` lines and each failing line with its witness, the full
violation list of ``validate_context`` in order, and the line order of
the derivation normal-form report.  Inputs are genuine k-commuting maps,
clean and with one block component overwritten, and contexts with one to
three corrupted structure constants.

Regenerate (only when an output change is intended) with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import json
import pathlib
import random
from fractions import Fraction

from gmalg.algebra import Algebra
from gmalg.derivations import adjoint_map, verify_derivation_form
from gmalg.families import block_triangular_gma, full_matrix_gma, triangular_gma
from gmalg.maps import (
    HypothesisWitness,
    commuting_space,
    decompose,
    verify_proper_form_steps,
    verify_structure_conditions,
)
from gmalg.morita import BLOCKS, Bimodule, MoritaContext, validate_context
from gmalg.rings import Rationals, Zmod

GOLDEN = pathlib.Path(__file__).with_name("golden") / "reports.json"

# name, builder, orders k
FAMILIES = [
    ("M2(Z/3)", lambda: full_matrix_gma(Zmod(3), 2, 1), (1, 2)),
    ("T2(Z/3)", lambda: triangular_gma(Zmod(3), 2, 1), (1, 2)),
    ("T3(Z/3)", lambda: triangular_gma(Zmod(3), 3, 1), (1,)),
    ("B(2,1)(Z/3)", lambda: block_triangular_gma(Zmod(3), (2, 1), 1), (1,)),
    ("M2(Z/5)", lambda: full_matrix_gma(Zmod(5), 2, 1), (1,)),
    ("M2(Q)", lambda: full_matrix_gma(Rationals(), 2, 1), (1,)),
    ("T3(Q)", lambda: triangular_gma(Rationals(), 3, 1), (1,)),
]
# The step identities are checked whether or not the sufficient hypotheses
# hold, so that every family exercises them.
FORCED = HypothesisWitness(True, True, True, None, None)


def _scalar(rng, ring):
    if ring.enumerable:
        return ring.coerce(rng.randrange(ring.size))
    return ring.coerce(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))


def _lines(rep):
    return [(line["cond_id"], line["passed"], line["witness"])
            for line in rep.to_json()["lines"]]


def _cases(name, G, k):
    """(label, theta, blocks): every commuting-space basis map clean; two
    seeded members clean and with each nonempty block overwritten: the
    first member's blocks with seeded scalars throughout, the second's in
    one seeded entry."""
    rng = random.Random(f"{name}/{k}")
    space = commuting_space(G, k)
    members = [space.random_member(rng) for _ in range(2)]
    cases = [(f"basis {t}", theta, None) for t, theta in enumerate(space.basis())]
    for t, theta in enumerate(members):
        cases += [(f"member {t}", theta, None)]
        cases += [(f"member {t}", theta, (s, d)) for s in BLOCKS for d in BLOCKS]
    for label, theta, corrupt in cases:
        dec = decompose(G, theta)
        if corrupt is not None:
            rows = [list(row) for row in dec.block(*corrupt)]
            if not rows or not rows[0]:
                continue
            if label == "member 0":
                rows = [[_scalar(rng, G.ring) for _ in row] for row in rows]
            else:
                r, c = rng.randrange(len(rows)), rng.randrange(len(rows[0]))
                rows[r][c] = G.ring.add(rows[r][c], G.ring.one)
                label += f" entry={r},{c}"
            dec.set_block(*corrupt, rows)
        yield f"{name} k={k} {label} corrupt={corrupt}", theta, dec


def _report_cases(name, G, k):
    out = []
    for label, theta, dec in _cases(name, G, k):
        out.append([label, "structure",
                    _lines(verify_structure_conditions(G, theta, k, blocks=dec))])
        out.append([label, "steps", _lines(verify_proper_form_steps(
            G, theta, k, blocks=dec, hypotheses=FORCED))])
    return out


def _corrupt_context(ctx, rng, hits):
    """A copy of the context with ``hits`` random structure constants
    replaced by random scalars."""
    rg = ctx.ring
    parts = {
        "A.table": [list(map(list, row)) for row in ctx.A.table],
        "B.table": [list(map(list, row)) for row in ctx.B.table],
        "A.unit": [list(ctx.A.unit)],
        "B.unit": [list(ctx.B.unit)],
        "M.left": [list(map(list, row)) for row in ctx.M.left],
        "M.right": [list(map(list, row)) for row in ctx.M.right],
        "N.left": [list(map(list, row)) for row in ctx.N.left],
        "N.right": [list(map(list, row)) for row in ctx.N.right],
        "phi": [list(map(list, row)) for row in ctx.phi],
        "psi": [list(map(list, row)) for row in ctx.psi],
    }
    cells = []
    for key, rows in parts.items():
        if key.endswith("unit"):
            cells += [(key, None, None, r) for r in range(len(rows[0]))]
            continue
        for i, row in enumerate(rows):
            for j, vec in enumerate(row):
                cells += [(key, i, j, r) for r in range(len(vec))]
    touched = []
    for key, i, j, r in rng.sample(cells, hits):
        if i is None:
            parts[key][0][r] = _scalar(rng, rg)
        else:
            parts[key][i][j][r] = _scalar(rng, rg)
        touched.append([key, i, j, r])
    A = Algebra(rg, ctx.A.labels, parts["A.table"], parts["A.unit"][0])
    B = Algebra(rg, ctx.B.labels, parts["B.table"], parts["B.unit"][0])
    M = Bimodule(rg, ctx.M.dim, parts["M.left"], parts["M.right"], A.dim, B.dim)
    N = Bimodule(rg, ctx.N.dim, parts["N.left"], parts["N.right"], B.dim, A.dim)
    return touched, MoritaContext(A, B, M, N, parts["phi"], parts["psi"])


def _context_cases(name, G):
    rng = random.Random(f"{name}/contexts")
    out = []
    for hits in (1, 1, 2, 3):
        touched, bad = _corrupt_context(G.ctx, rng, hits)
        found = [[v.axiom, v.witness] for v in validate_context(bad)]
        out.append([f"{name} corrupt={touched}", found])
    return out


def compute():
    """The golden document: the distinct ``cond_id`` sequences of each
    report kind, the failing lines of every report, and every violation
    list."""
    ids = {"structure": [], "steps": [], "derivation": []}
    reports, contexts = [], []
    for name, build, orders in FAMILIES:
        G = build()
        for k in orders:
            for label, kind, lines in _report_cases(name, G, k):
                seq = [cid for cid, _, _ in lines]
                if seq not in ids[kind]:
                    ids[kind].append(seq)
                failing = [[cid, wit] for cid, ok, wit in lines if not ok]
                reports.append([label, kind, failing])
        contexts += _context_cases(name, G)
        rng = random.Random(f"{name}/derivation")
        c = tuple(_scalar(rng, G.ring) for _ in range(G.dim))
        rep, _ = verify_derivation_form(G, adjoint_map(G, c))
        seq = [cid for cid, _, _ in _lines(rep)]
        if seq not in ids["derivation"]:
            ids["derivation"].append(seq)
    return json.loads(json.dumps(
        {"ids": ids, "reports": reports, "contexts": contexts}))


def test_reports_and_violations_match_golden():
    expected = json.loads(GOLDEN.read_text())
    got = compute()
    assert got["ids"] == expected["ids"]
    assert len(got["reports"]) == len(expected["reports"])
    for g, e in zip(got["reports"], expected["reports"]):
        assert g == e
    assert len(got["contexts"]) == len(expected["contexts"])
    for g, e in zip(got["contexts"], expected["contexts"]):
        assert g == e


def _fails_at(cid, side, k, x):
    """Whether the identity of line ``cid`` fails at the witness ``x``,
    computed here from the paper's formulas on one side of the blocks."""
    c, dec, rg = side.ctx, side.blocks, side.ctx.ring
    if cid.endswith("_k_commuting"):
        y = dec.component_map("A", "A").apply(x)
        return not c.A.is_zero(c.A.iterated_bracket(y, x, k))
    two = rg.add(rg.one, rg.one)
    da, mb = dec.apply("M", "A", x), dec.apply("M", "B", x)
    if cid.endswith("_quadratic_balance"):
        return c.am(da, x) != c.mb(x, mb)
    sumA = c.A.add(dec.at_unit("A", "A"), dec.at_unit("B", "A"))
    sumB = c.B.add(dec.at_unit("A", "B"), dec.at_unit("B", "B"))
    return c.am(c.A.add(sumA, c.A.scale(two, da)), x) != c.mb(
        x, c.B.add(sumB, c.B.scale(two, mb)))


def test_rational_witnesses_reverify():
    # over Q the witnesses of the degree-2 module identities and of the
    # diagonal k-commuting lines are lattice points; each must violate its
    # identity
    expected = iter(json.loads(GOLDEN.read_text())["reports"])
    checked = 0
    for name, build, orders in FAMILIES:
        G = build()
        for k in orders:
            for label, _, dec in _cases(name, G, k):
                for _ in ("structure", "steps"):
                    elabel, _, failing = next(expected)
                    assert elabel == label
                    if G.ring.enumerable:
                        continue
                    for cid, wit in failing:
                        if cid.endswith(("_balance_symmetrized", "_quadratic_balance")):
                            wit = wit["module_element"]
                        elif not cid.endswith("_k_commuting"):
                            continue
                        side = dec.sides()[cid.startswith(("n_", "diag_b"))]
                        x = tuple(G.ring.coerce(v) for v in wit)
                        assert _fails_at(cid, side, k, x), (label, cid, x)
                        checked += 1
    assert checked > 0


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(compute(), separators=(",", ":")) + "\n")
