"""The structure and step reports compiled to rows over vec(theta).

Every line of ``maps.verify_structure_conditions`` and of
``maps.verify_proper_form_steps`` is linear in the map theta.
``structure_rows`` and ``step_rows`` compile each report, once per (G, k),
into sparse rows over the entries of theta, one list per ``cond_id`` in
report order (``ReportRows``); a map passes a line iff every row of the
line vanishes on it.  A sweep decides its maps from these rows and runs the
per-line report, the only source of witnesses, on a map that fails a line.
``classify`` sees one map, and compiling costs about as much as checking it
line by line, so it keeps the per-line report.

Each N-side line is built as its M-side line read on the transpose (see
``maps.BlockDecomposition.sides``).
"""

import itertools
from collections import namedtuple
from math import comb, prod
from operator import mul

from . import linalg
from .algebra import lattice_points, vanishing_rows
from .maps import _SWAP, RANGE_LINES, ZERO_LINES
from .morita import BLOCKS


class ReportRows:
    """A report compiled to rows: for each ``cond_id``, in report order, the
    sparse rows (dicts flat index -> scalar) that all vanish on vec(theta)
    iff the line passes.  Flat index t = r*d + c is theta.rows[r][c], as in
    ``maps.LinMap.flatten``."""

    def __init__(self, ring, lines):
        self.ring = ring
        self.lines = lines
        # For ``passes``: the entries that a row u*theta_t, u a unit, forces
        # to 0, and the other rows once each without those entries, which
        # add nothing once they are 0.  Stripping them may leave such a row,
        # so this repeats.
        zeros, rest = set(), {tuple(row.items()) for _, rows in lines for row in rows}
        while new := {t for row in rest if len(row) == 1
                      for t, u in row if ring.inv_opt(u) is not None}:
            zeros |= new
            rest = {kept for row in rest
                    if (kept := tuple((t, c) for t, c in row if t not in zeros))}
        self._zeros = sorted(zeros)
        self._rest = _packed(map(dict, rest))

    def verdicts(self, theta):
        """(cond_id, passed) for each line, in report order."""
        get = theta.flatten().__getitem__
        return [(cid, self._holds(_packed(rows), get)) for cid, rows in self.lines]

    def passes(self, theta):
        get = theta.flatten().__getitem__
        return not any(map(get, self._zeros)) and self._holds(self._rest, get)

    def _holds(self, rows, get):
        normal = self.ring.normal
        return not any(normal(sum(map(mul, cs, map(get, ts)))) for ts, cs in rows)


def _packed(rows):
    """Each row as (flat indices, coefficients)."""
    return [(tuple(row), tuple(row.values())) for row in rows]


class _Forms(namedtuple("_Forms", ["G", "ctx", "names"])):
    """Elements whose coordinates are linear in theta, read on one side of G.

    Such an element (a form) is a dict: coordinate -> its row over vec(theta)
    (as in ``ReportRows``).  Forms are summed in int (or Fraction)
    arithmetic and brought to normal form only as rows (``_normal_rows``).
    ``names`` maps this side's block names to G's: the identity on the M
    side, A<->B and M<->N on the N side, whose context ``ctx`` is the
    transpose (as in ``maps.BlockDecomposition.sides``)."""

    def image(self, src, dst, v):
        """The src -> dst component of theta applied to v."""
        G = self.G
        cols = G.block_range(self.names[src])
        return {i: row for i, r in enumerate(G.block_range(self.names[dst]))
                if (row := {r * G.dim + c: x for c, x in zip(cols, v) if x})}

    def at_unit(self, src, dst):
        return self.image(src, dst, getattr(self.ctx, src).unit)

    def act(self, product, x, y):
        """The ``product`` of the context ("am", "mb", "bn" or "na", as in
        ``morita.MoritaContext``) at (x, y), one of them a form."""
        c = self.ctx
        terms = {"am": c.M._left, "mb": c.M._right,
                 "bn": c.N._left, "na": c.N._right}[product]
        if isinstance(x, dict):
            pairs = ((row, terms[i][j], s) for i, row in x.items()
                     for j, s in enumerate(y) if s)
        else:
            pairs = ((row, terms[i][j], s) for i, s in enumerate(x) if s
                     for j, row in y.items())
        out = {}
        for row, cell, s in pairs:
            for r, v in cell:
                _add_row(out.setdefault(r, {}), s * v, row)
        return out

    def diag(self, a, b):
        """diag(a, b) as an element of G."""
        off = self.G.offsets
        return {off[self.names[name]] + i: row
                for name, form in (("A", a), ("B", b)) for i, row in form.items()}

    def commuting_rows(self, k):
        """The rows of the A -> A component k-commuting on A: those of
        ``vanishing_rows`` on ``A.commuting_coefficients(k)``, re-indexed
        from A's flat indices to G's."""
        A, G = self.ctx.A, self.G
        off, dA = G.offsets[self.names["A"]], A.dim
        return [{(off + t // dA) * G.dim + off + t % dA: v for t, v in row.items()}
                for block in vanishing_rows(G.ring, A.commuting_coefficients(k), k + 1, dA)
                for row in block]


def _form_sides(G):
    return (_Forms(G, G.ctx, {b: b for b in BLOCKS}),
            _Forms(G, G.transposed_ctx(), _SWAP))


def _add_row(acc, c, row):
    """acc += c*row."""
    for t, v in row.items():
        acc[t] = acc.get(t, 0) + c * v


def _combine(*terms):
    """The sum of c*form over the (c, form) in ``terms``."""
    out = {}
    for c, form in terms:
        for i, row in form.items():
            _add_row(out.setdefault(i, {}), c, row)
    return out


def _normal_rows(ring, form):
    """The nonzero rows of a form, in normal form."""
    out = []
    for acc in form.values():
        row = {t: x for t, v in acc.items() if (x := ring.normal(v))}
        if row:
            out.append(row)
    return out


def _annihilator(S):
    """Generators of {w : w.s = 0 for every s in S}.  v lies in S iff w.v = 0
    for each of them: over a field by linear duality, and over Z/n because
    Z/n is quasi-Frobenius, so that S is its own double annihilator."""
    return linalg.nullspace(S.ring, S.gens, S.ambient_dim)


def _rows(ring, forms, ann=None):
    """The rows that all vanish iff every element in ``forms`` lies in the
    submodule with annihilator generators ``ann``; by default, iff every
    element is 0 (its coordinate rows)."""
    out = []
    for form in forms:
        if ann is None:
            out += _normal_rows(ring, form)
            continue
        for w in ann:
            out += _normal_rows(ring, _combine(
                *((w[i], {0: row}) for i, row in form.items() if w[i])))
    return out


def _lattice_rows(ring, dim, defect):
    """The rows that all vanish iff ``defect``, a form-valued map of degree
    <= 2 on R^dim, vanishes on all of R^dim: those of its forward
    differences D^alpha f(0) = sum over beta <= alpha of
    (-1)^|alpha - beta| C(alpha, beta) f(beta), at the lattice points
    alpha (``lattice_points``).  They are the values at the lattice points,
    on which the per-line code decides (``algebra.lattice_check``), combined
    unitriangularly, so they vanish together; and they are sparser, since
    a difference drops the terms of lower degree."""
    values, out = {}, []
    for alpha in lattice_points(ring, dim, 2):
        values[alpha] = defect(tuple(map(ring.coerce, alpha)))
        out += _normal_rows(ring, _combine(*(
            ((-1) ** (sum(alpha) - sum(beta)) * prod(map(comb, alpha, beta)), values[beta])
            for beta in itertools.product(*(range(a + 1) for a in alpha))
        )))
    return out


def structure_rows(G, k):
    """``maps.verify_structure_conditions`` compiled to rows (see
    ``ReportRows``), exact for every map on every ring: the degree-2 balance
    identity is decided on the lattice points (``_lattice_rows``) as the
    per-line code does, and every other line on the basis elements it
    reads."""
    rg, ctx = G.ring, G.ctx
    sides = _form_sides(G)
    F = sides[0]
    spaces = dict(zip(BLOCKS, (ctx.A, ctx.M, ctx.N, ctx.B)))

    def images(src, dst):
        return (F.image(src, dst, e) for e in spaces[src].basis())

    lines = [(cid, _rows(rg, images(src, dst))) for src, dst, cid in ZERO_LINES]
    lines += [(cid, _rows(rg, images(src, dst), _annihilator(spaces[dst].engel_center(k))))
              for src, dst, cid in RANGE_LINES]
    for side, (kc_id, unit_id) in zip(sides, (
        ("diag_a_k_commuting", "diag_a_unit_engel"),
        ("diag_b_k_commuting", "diag_b_unit_engel"),
    )):
        lines.append((kc_id, side.commuting_rows(k)))
        lines.append((unit_id, _rows(rg, [side.at_unit("A", "A")],
                                     _annihilator(side.ctx.A.engel_center(k)))))

    def sums(side, sign):
        # d1(1) + sign*d4(1) and m1(1) + sign*m4(1)
        return (_combine((1, side.at_unit("A", dst)), (sign, side.at_unit("B", dst)))
                for dst in "AB")

    def balance(side):
        c = side.ctx
        sumA, sumB = sums(side, 1)
        return _lattice_rows(rg, c.M.dim, lambda m: _combine(
            (1, side.act("am", _combine((1, sumA), (2, side.image("M", "A", m))), m)),
            (-1, side.act("mb", m, _combine((1, sumB), (2, side.image("M", "B", m))))),
        ))

    def doubling(side):
        c = side.ctx
        difA, difB = sums(side, -1)
        return _rows(rg, (_combine(
            (2, side.image("M", "M", m)), (-1, side.act("am", difA, m)),
            (1, side.act("mb", m, difB)),
        ) for m in c.M.basis()))

    lines += _mirrored_rows(sides, (
        (("m_balance_symmetrized", "n_balance_symmetrized"), balance),
        (("m_to_m_doubling", "n_to_n_doubling"), doubling),
    ))
    return ReportRows(rg, lines)


def _mirrored_rows(sides, builders):
    """The rows of each line on the M side, then on the N side (see
    ``maps._add_mirrored``)."""
    return [(cid, build(side)) for ids, build in builders
            for cid, side in zip(ids, sides)]


def step_rows(G, k):
    """``maps.verify_proper_form_steps`` compiled to rows (see ``ReportRows``).
    The quadratic balance is decided on the lattice points
    (``_lattice_rows``), every other line on the basis elements (pairs)
    the per-line code reads."""
    rg, ctx = G.ring, G.ctx
    sides = _form_sides(G)
    zann = _annihilator(G.gma_center())

    def quadratic(side):
        c = side.ctx
        return _lattice_rows(rg, c.M.dim, lambda m: _combine(
            (1, side.act("am", side.image("M", "A", m), m)),
            (-1, side.act("mb", m, side.image("M", "B", m))),
        ))

    def compat(side):
        c = side.ctx
        return _rows(rg, (_combine(
            (1, side.act("am", side.image("N", "A", n), m)),
            (-1, side.act("mb", m, side.image("N", "B", n))),
        ) for n in c.N.basis() for m in c.M.basis()))

    def diag_central(side):
        return _rows(rg, (side.diag(side.image("M", "A", m), side.image("M", "B", m))
                          for m in side.ctx.M.basis()), zann)

    lines = _mirrored_rows(sides, (
        (("m_to_a_quadratic_balance", "n_to_a_quadratic_balance"), quadratic),
        (("n_to_a_m_compat", "m_to_b_n_compat"), compat),
        (("m_to_diag_central", "n_to_diag_central"), diag_central),
    ))

    # the unit reductions, as written (see ``maps.verify_proper_form_steps``)
    F = sides[0]
    d1_1, m1_1 = F.at_unit("A", "A"), F.at_unit("A", "B")
    eA, eB, em, en = ctx.A.basis(), ctx.B.basis(), ctx.M.basis(), ctx.N.basis()
    AA, AB = ([F.image("A", dst, a) for a in eA] for dst in "AB")
    BA, BB = ([F.image("B", dst, b) for b in eB] for dst in "AB")
    m_inner = [_combine((1, F.act("am", d1_1, m)), (-1, F.act("mb", m, m1_1)))
               for m in em]
    n_inner = [_combine((1, F.act("na", n, d1_1)), (-1, F.act("bn", m1_1, n)))
               for n in en]
    lines += [
        ("diag_a_unit_reduction_m", _rows(rg, (_combine(
            (1, F.act("am", AA[i], m)), (-1, F.act("mb", m, AB[i])),
            (-1, F.act("am", a, m_inner[p])),
        ) for i, a in enumerate(eA) for p, m in enumerate(em)))),
        ("diag_a_unit_reduction_n", _rows(rg, (_combine(
            (1, F.act("na", n_inner[q], a)), (-1, F.act("na", n, AA[i])),
            (1, F.act("bn", AB[i], n)),
        ) for i, a in enumerate(eA) for q, n in enumerate(en)))),
        ("diag_b_unit_reduction_m", _rows(rg, (_combine(
            (1, F.act("am", BA[j], m)), (-1, F.act("mb", m, BB[j])),
            (1, F.act("mb", m_inner[p], b)),
        ) for j, b in enumerate(eB) for p, m in enumerate(em)))),
        ("diag_b_unit_reduction_n", _rows(rg, (_combine(
            (1, F.act("bn", BB[j], n)), (-1, F.act("na", n, BA[j])),
            (-1, F.act("bn", b, n_inner[q])),
        ) for j, b in enumerate(eB) for q, n in enumerate(en)))),
    ]
    return ReportRows(rg, lines)
