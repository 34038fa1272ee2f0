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

import itertools
import json
import pathlib
import random
from fractions import Fraction

from gmalg.algebra import Algebra
from gmalg.derivations import adjoint_map, verify_derivation_form
from gmalg.families import block_triangular_gma, full_matrix_gma, triangular_gma
from gmalg.maps import (
    HypothesisWitness,
    LinMap,
    commuting_space,
    verify_proper_form_steps,
    verify_structure_conditions,
)
from gmalg.morita import BLOCKS, Bimodule, MoritaContext, validate_context
from gmalg.rings import Rationals, Zmod

from conftest import is_zero, iterated_bracket

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


def _block(G, theta, src, dst):
    """The src -> dst component of theta as a matrix."""
    return [[theta.rows[r][c] for c in G.block_range(src)] for r in G.block_range(dst)]


def _overwritten(G, theta, src, dst, block):
    """theta with its src -> dst component replaced by ``block``."""
    rows = [list(row) for row in theta.rows]
    for r, brow in zip(G.block_range(dst), block):
        for c, v in zip(G.block_range(src), brow):
            rows[r][c] = v
    return LinMap(G.ring, rows)


def _cases(name, G, k):
    """(label, theta, verdict): every commuting-space basis map clean; two
    seeded members clean and with each nonempty block overwritten: the
    first member's blocks with seeded scalars throughout, the second's in
    one seeded entry.  An overwritten map is passed as k-commuting
    (``verdict``), so that its lines fail."""
    rng = random.Random(f"{name}/{k}")
    space = commuting_space(G, k)
    members = [space.random_member(rng) for _ in range(2)]
    cases = [(f"basis {t}", theta, None) for t, theta in enumerate(space.basis())]
    for t, theta in enumerate(members):
        cases += [(f"member {t}", theta, None)]
        cases += [(f"member {t}", theta, (s, d)) for s in BLOCKS for d in BLOCKS]
    for label, theta, corrupt in cases:
        verdict = None
        if corrupt is not None:
            rows = _block(G, theta, *corrupt)
            if not rows or not rows[0]:
                continue
            if label == "member 0":
                rows = [[_scalar(rng, G.ring) for _ in row] for row in rows]
            else:
                r, c = rng.randrange(len(rows)), rng.randrange(len(rows[0]))
                rows[r][c] = G.ring.normal(rows[r][c] + G.ring.one)
                label += f" entry={r},{c}"
            theta, verdict = _overwritten(G, theta, *corrupt, rows), (True, None)
        yield f"{name} k={k} {label} corrupt={corrupt}", theta, verdict


def _report_cases(name, G, k):
    out = []
    for label, theta, verdict in _cases(name, G, k):
        out.append([label, "structure", _lines(verify_structure_conditions(
            G, theta, k, verdict=verdict))])
        out.append([label, "steps", _lines(verify_proper_form_steps(
            G, theta, k, hypotheses=FORCED, verdict=verdict))])
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


class _View:
    """One side of G, read off theta's entries with the test's own
    arithmetic: the M side, or the N side as the M side of [B N; M A],
    with A<->B, M<->N and the products renamed (a*m read as b*n, m*b as
    n*a)."""

    SWAP = {"A": "B", "B": "A", "M": "N", "N": "M"}
    KEYS = {"a_index": "b_index", "b_index": "a_index",
            "m_index": "n_index", "n_index": "m_index"}

    def __init__(self, G, theta, swap):
        c = G.ctx
        self.G, self.theta, self.rg = G, theta, G.ring
        self.names = self.SWAP if swap else {b: b for b in BLOCKS}
        self.keys = self.KEYS if swap else {}
        self.alg = {"A": c.B, "B": c.A} if swap else {"A": c.A, "B": c.B}
        self.mod = {"M": c.N, "N": c.M} if swap else {"M": c.M, "N": c.N}
        self.am, self.mb = (c.bn, c.na) if swap else (c.am, c.mb)
        self.na, self.bn = (c.mb, c.am) if swap else (c.na, c.bn)

    def space(self, name):
        return self.alg.get(name) or self.mod[name]

    def e(self, name, i):
        dim = self.space(name).dim
        return tuple(self.rg.one if t == i else self.rg.zero for t in range(dim))

    def image(self, src, dst, v):
        """The src -> dst component of theta at v."""
        rg, rows = self.rg, self.theta.rows
        cols = self.G.block_range(self.names[src])
        out = []
        for r in self.G.block_range(self.names[dst]):
            acc = rg.zero
            for c, x in zip(cols, v):
                acc = rg.normal(acc + rows[r][c] * x)
            out.append(acc)
        return tuple(out)

    def unit(self, src, dst):
        return self.image(src, dst, self.alg[src].unit)

    def lin(self, *terms):
        """The sum of the c*x over (c, x) in ``terms``, c an int."""
        rg = self.rg
        out = [rg.zero] * len(terms[0][1])
        for c, x in terms:
            for t, v in enumerate(x):
                out[t] = rg.normal(out[t] + rg.coerce(c) * v)
        return tuple(out)


def _off_engel(alg, a, k):
    """Whether some x has [a, x]_k != 0: every x over Z/n, and over Q the
    grid {0..k}^dim, on which a nonzero polynomial of degree <= k in each
    coordinate does not vanish."""
    rg = alg.ring
    digits = range(rg.size) if rg.enumerable else range(k + 1)
    return any(not is_zero(iterated_bracket(alg, a, tuple(map(rg.coerce, x)), k))
               for x in itertools.product(digits, repeat=alg.dim))


def _central(G, z):
    alg = G.algebra
    return all(alg.mul(z, e) == alg.mul(e, z) for e in alg.basis())


# the side each mirrored line is read on; every other line is read on the M
# side
_N_SIDE = {"n_balance_symmetrized", "n_to_n_doubling", "diag_b_k_commuting",
           "diag_b_unit_engel", "n_to_a_quadratic_balance", "m_to_b_n_compat",
           "n_to_diag_central"}


def _fails_at(G, theta, k, cid, wit):
    """Whether the identity of line ``cid`` fails at the witness ``wit`` (as
    JSON data), computed here from the paper's formulas on one side of
    theta's blocks."""
    v = _View(G, theta, cid in _N_SIDE)
    rg = v.rg
    if isinstance(wit, dict):
        wit = {v.keys.get(key, key): x for key, x in wit.items()}

    def element(x):
        return tuple(map(rg.coerce, x))

    A, B = v.alg["A"], v.alg["B"]
    if cid.endswith("_engel_range"):
        src, dst = (name.upper() for name in cid.split("_")[0:3:2])
        image = v.image(src, dst, v.e(src, wit["basis_index"]))
        return element(wit["image"]) == image and _off_engel(v.alg[dst], image, k)
    if cid.endswith("_unit_engel"):
        return element(wit) == v.unit("A", "A") and _off_engel(A, element(wit), k)
    if cid.endswith("_k_commuting"):
        x = element(wit)
        return not is_zero(iterated_bracket(A, v.image("A", "A", x), x, k))
    if cid.endswith(("_balance_symmetrized", "_quadratic_balance")):
        m = element(wit["module_element"])
        da, mb = v.image("M", "A", m), v.image("M", "B", m)
        if cid.endswith("_quadratic_balance"):
            return v.am(da, m) != v.mb(m, mb)
        # (d1(1)+d4(1)+2*d2(m))*m = m*(m1(1)+m4(1)+2*m2(m))
        sumA = v.lin((1, v.unit("A", "A")), (1, v.unit("B", "A")), (2, da))
        sumB = v.lin((1, v.unit("A", "B")), (1, v.unit("B", "B")), (2, mb))
        return v.am(sumA, m) != v.mb(m, sumB)
    if cid.endswith("_doubling"):
        # 2*m3(m) = (d1(1)-d4(1))*m - m*(m1(1)-m4(1))
        m = v.e("M", wit["basis_index"])
        difA = v.lin((1, v.unit("A", "A")), (-1, v.unit("B", "A")))
        difB = v.lin((1, v.unit("A", "B")), (-1, v.unit("B", "B")))
        return v.lin((2, v.image("M", "M", m))) != v.lin(
            (1, v.am(difA, m)), (-1, v.mb(m, difB)))
    if cid.endswith("_compat"):
        # d(n)*m = m*d'(n) for the N -> A and N -> B components
        n, m = v.e("N", wit["n_index"]), v.e("M", wit["m_index"])
        return v.am(v.image("N", "A", n), m) != v.mb(m, v.image("N", "B", n))
    if cid.endswith("_diag_central"):
        m = v.e("M", wit["m_index"])
        z = [rg.zero] * G.dim
        for name in "AB":
            for r, x in zip(G.block_range(v.names[name]), v.image("M", name, m)):
                z[r] = x
        return not _central(G, tuple(z))
    # the unit reductions, on the M side; d1(1)*m - m*m1(1) and
    # n*d1(1) - m1(1)*n
    d1, m1 = v.unit("A", "A"), v.unit("A", "B")
    if cid.startswith("diag_a"):
        a = v.e("A", wit["a_index"])
        da, ma = v.image("A", "A", a), v.image("A", "B", a)
        if cid.endswith("_m"):
            m = v.e("M", wit["m_index"])
            inner = v.lin((1, v.am(d1, m)), (-1, v.mb(m, m1)))
            return v.lin((1, v.am(da, m)), (-1, v.mb(m, ma))) != v.am(a, inner)
        n = v.e("N", wit["n_index"])
        inner = v.lin((1, v.na(n, d1)), (-1, v.bn(m1, n)))
        return v.na(inner, a) != v.lin((1, v.na(n, da)), (-1, v.bn(ma, n)))
    b = v.e("B", wit["b_index"])
    db, mb = v.image("B", "A", b), v.image("B", "B", b)
    if cid.endswith("_m"):
        m = v.e("M", wit["m_index"])
        inner = v.lin((1, v.mb(m, m1)), (-1, v.am(d1, m)))
        return v.lin((1, v.am(db, m)), (-1, v.mb(m, mb))) != v.mb(inner, b)
    n = v.e("N", wit["n_index"])
    inner = v.lin((1, v.na(n, d1)), (-1, v.bn(m1, n)))
    return v.lin((1, v.bn(mb, n)), (-1, v.na(n, db))) != v.bn(b, inner)


def test_rational_witnesses_reverify():
    """Every failing line with a witness, in every golden case, over Z/3,
    Z/5 and Q: the witness violates its identity, computed from the
    paper's formulas with the test's own arithmetic (``_fails_at``), not
    with the report's code."""
    expected = iter(json.loads(GOLDEN.read_text())["reports"])
    checked = {}
    for name, build, orders in FAMILIES:
        G = build()
        for k in orders:
            for label, theta, _ in _cases(name, G, k):
                for _ in ("structure", "steps"):
                    elabel, _, failing = next(expected)
                    assert elabel == label
                    for cid, wit in failing:
                        if wit is None:
                            continue
                        assert _fails_at(G, theta, k, cid, wit), (label, cid, wit)
                        checked.setdefault(repr(G.ring), set()).add(cid)
    assert set(checked) == {"Zmod(3)", "Zmod(5)", "Rationals()"}
    # every line but the six zero lines, n_to_a/n_to_b_engel_range and
    # diag_a_unit_reduction_n fails with a witness in some golden case
    assert len(set().union(*checked.values())) == 21, checked


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(compute(), separators=(",", ":")) + "\n")
