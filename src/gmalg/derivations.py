"""Derivations of a generalized matrix algebra: the Leibniz test, the
linear space of all derivations, the structural normal form on a 2x2
block algebra, and the vanishing of k-commuting derivations."""

import itertools
from collections import namedtuple

from . import linalg
from .algebra import Submodule, stream_rows
from .errors import DimensionMismatch, NotDerivation, TheoremViolation
from .maps import LinMap, MapSpace, _Values, require_order, require_proper_setting
from .morita import BLOCKS
from .report import Report


def is_derivation(G, theta):
    """(True, None) if theta(xy) = theta(x)y + x theta(y), else the first
    failing basis pair (i, j).  The law is bilinear, so basis pairs
    suffice: it is the Leibniz rows at vec(theta), d rows per pair, read
    until the first pair that fails.  The law is linear in theta, so over
    Q the rows are read at D*theta (``LinMap.integral``), in int
    arithmetic."""
    alg = getattr(G, "algebra", G)
    if theta.dim != alg.dim:
        raise DimensionMismatch("map dimension does not match the algebra")
    flat, normal = theta.integral()[1].flatten(), alg.ring.normal
    bad = next((t for t, row in enumerate(_iter_leibniz_rows(alg))
                if normal(sum(c * flat[s] for s, c in row.items()))), None)
    return bad is None, None if bad is None else divmod(bad // alg.dim, alg.dim)


def adjoint_map(G, c):
    """The inner derivation x -> cx - xc."""
    alg = getattr(G, "algebra", G)
    cols = [alg.bracket(c, e) for e in alg.basis()]
    return LinMap._from_normal(alg.ring, tuple(zip(*cols)))


def _iter_leibniz_rows(alg):
    """Constraint rows over the flattened unknowns theta[p][q] expressing
    theta(e_i e_j) - theta(e_i) e_j - e_i theta(e_j) = 0, one per (i, j)
    and output coordinate r in that order, each a dict of its nonzero
    entries in column order.  They are read off the nonzero products:
    theta(e_i e_j) puts (e_i e_j)_p at theta[r][p] in every row r, and
    theta(e_i) e_j = sum_p theta[p][i] e_p e_j puts -(e_p e_j)_r at
    theta[p][i], e_i theta(e_j) puts -(e_i e_p)_r at theta[p][j].  The
    rows of a pair are built when it is reached, empty rows included."""
    normal = alg.ring.normal
    d = alg.dim
    T = alg._terms
    every = range(d)
    # by j, the (p, r, c) with (e_p e_j)_r = c; by i, those with (e_i e_p)_r = c
    right = [[(p, r, c) for p in every for r, c in T[p][j]] for j in every]
    left = [[(p, r, c) for p in every for r, c in T[i][p]] for i in every]
    for i in every:
        for j in every:
            out = [{} for _ in every]
            for p, c in T[i][j]:
                for r in every:
                    out[r][r * d + p] = c
            for p, r, c in right[j]:
                row, col = out[r], p * d + i
                row[col] = row.get(col, 0) - c
            for p, r, c in left[i]:
                row, col = out[r], p * d + j
                row[col] = row.get(col, 0) - c
            for row in out:
                yield {col: x for col in sorted(row) if (x := normal(row[col]))}


def derivation_space(G):
    """All maps satisfying the Leibniz law, as a MapSpace."""
    alg = getattr(G, "algebra", G)
    d = alg.dim
    gens = linalg.certified_kernel(alg.ring, [list(_iter_leibniz_rows(alg))], d * d)
    return MapSpace(alg, Submodule._from_normal(alg.ring, d * d, gens))


DerivationForm = namedtuple(
    "DerivationForm",
    ["inner_m", "inner_n", "diag_a", "m_to_m", "n_to_n", "diag_b"],
)


def verify_derivation_form(G, theta):
    """Extract the normal form of a derivation on the 2x2 block algebra
    and verify it: the off-diagonal unit images (inner_m, inner_n) drive
    an inner part, the four retained components satisfy the product rules
    coupling them, and the reassembled map equals the original exactly.

    Every check is linear in theta, so like the reports (``maps._Values``)
    they read D*theta (``LinMap.integral``) throughout, the unit images
    included; the form returned is theta's own."""
    ok, bad = is_derivation(G, theta)
    if not ok:
        raise NotDerivation(f"Leibniz law fails on basis pair {bad}")
    ctx = G.ctx
    rg = G.ring
    alg = G.algebra
    rep = Report("derivation normal form")

    sides = _Values.pair(G, theta)
    F = sides[0]
    m0, n0 = F.at_unit("A", "M"), F.at_unit("A", "N")
    own = theta.apply(G.embed("A", ctx.A.unit))
    form = DerivationForm(G.extract("M", own), G.extract("N", own), *(
        tuple(row[r.start:r.stop] for row in theta.rows[r.start:r.stop])
        for r in map(G.block_range, BLOCKS)))

    def reassembled(x):
        """theta(x) rebuilt from the normal form, block by block."""
        a, m, n, b = (G.extract(name, x) for name in BLOCKS)
        return [
            *F.combine((1, F.image("A", "A", a)), (-1, ctx.pair_mn(m, n0)),
                       (-1, ctx.pair_mn(m0, n))),
            *F.combine((1, ctx.am(a, m0)), (-1, ctx.mb(m0, b)), (1, F.image("M", "M", m))),
            *F.combine((1, ctx.na(n0, a)), (-1, ctx.bn(b, n0)), (1, F.image("N", "N", n))),
            *F.combine((1, ctx.pair_nm(n0, m)), (1, ctx.pair_nm(n, m0)),
                       (1, F.image("B", "B", b))),
        ]

    # reassembly on every basis element of G
    rep.add("reassembly", *F.zero(("basis_index",), lambda j: F.combine(
        (1, F.image("G", "G", alg.basis_vector(j))), (-1, reassembled(alg.basis_vector(j))),
    ), range(G.dim)))

    # each rule is written for the M side and read on both (see
    # ``compiled``)
    for side, cid in zip(sides, ("diag_a_leibniz", "diag_b_leibniz")):
        # the two diagonal components are themselves derivations
        rep.add(cid, *is_derivation(side.ctx.A, LinMap._from_normal(rg, side.block("A", "A"))))

    for side, cid in zip(sides, ("diag_a_of_pairing", "diag_b_of_pairing")):
        c = side.ctx
        em, en = c.M.basis(), c.N.basis()
        rep.add(cid, *side.zero(("m_index", "n_index"), lambda p, q: side.combine(
            (1, side.image("A", "A", c.pair_mn(em[p], en[q]))),
            (-1, c.pair_mn(side.image("M", "M", em[p]), en[q])),
            (-1, c.pair_mn(em[p], side.image("N", "N", en[q]))),
        ), range(len(em)), range(len(en))))

    # product rules coupling the retained components, on basis tuples
    for side, (left_id, right_id) in zip(sides, (
        ("m_to_m_left_rule", "m_to_m_right_rule"),
        ("n_to_n_left_rule", "n_to_n_right_rule"),
    )):
        c = side.ctx
        eA, eB, em = c.A.basis(), c.B.basis(), c.M.basis()
        rep.add(left_id, *side.zero(("a_index", "m_index"), lambda i, p: side.combine(
            (1, side.image("M", "M", c.am(eA[i], em[p]))),
            (-1, c.am(eA[i], side.image("M", "M", em[p]))),
            (-1, c.am(side.image("A", "A", eA[i]), em[p])),
        ), range(len(eA)), range(len(em))))
        rep.add(right_id, *side.zero(("m_index", "b_index"), lambda p, j: side.combine(
            (1, side.image("M", "M", c.mb(em[p], eB[j]))),
            (-1, c.mb(side.image("M", "M", em[p]), eB[j])),
            (-1, c.mb(em[p], side.image("B", "B", eB[j]))),
        ), range(len(em)), range(len(eB))))

    if not rep.all_pass:
        raise TheoremViolation(
            "derivation normal form failed for a genuine derivation",
            rep.failures(),
        )
    return rep, form


def verify_commuting_derivations_vanish(G, k):
    """True iff the only derivation that is also k-commuting is zero.

    Both are linear conditions on the entries of the map: the Leibniz rows
    and the rows that make [theta(x), x]_k vanish (see
    ``algebra.vanishing_rows``), read group by group from
    ``Algebra.commuting_groups`` (``stream_rows``), fed to one kernel
    until it is zero (``linalg.certified_kernel``, lower bound {0}): no
    group is computed after that.  A generator of the kernel
    contradicts the vanishing theorem and is raised as TheoremViolation
    with the map attached.  Outside the setting of
    ``maps.require_proper_setting`` it refuses."""
    require_order(k)
    require_proper_setting(G)
    rg = G.ring
    alg = G.algebra
    d = alg.dim
    blocks = itertools.chain([list(_iter_leibniz_rows(alg))],
                             stream_rows(rg, alg.commuting_groups(k), k + 1, d))
    gens = linalg.certified_kernel(rg, blocks, d * d)
    if gens:
        raise TheoremViolation(
            "nonzero k-commuting derivation found",
            LinMap._from_normal(rg, tuple(gens[0][i * d:(i + 1) * d] for i in range(d)))
        )
    return True
