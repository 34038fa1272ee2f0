"""The structure and step reports and the proper form's guards, each line
written once.

Every line of ``maps.verify_structure_conditions``, of
``maps.verify_proper_form_steps`` and of ``maps.construct_proper_form`` is
an identity linear in the map theta.  ``structure_lines``, ``step_lines``
and ``proper_lines`` write each line once against a side of G (``_Side``):
the line's elements are built with ``image``, ``at_unit``, ``act``,
``diag``, ``combine`` and ``central`` (one implementation for both
readings: the center partner ``GMAlgebra.partner`` is one linear map, solved
once per G and applied through ``act``), and its reading names the target its
points must meet: 0 (``zero``), a submodule (``within``, ``member``: an
order-k center or Z(G)), the degree-2 identity in a module variable
(``lattice``) or k-commuting on A (``commuting``).  ``REPORTS`` names the
three reports by sweep mode, each a title and the builder of its lines, and
a side has two readings of a builder:

- ``_Forms`` (here) reads an element's coordinates as rows over
  vec(theta), and a line as the rows that all vanish iff it passes.
  ``report_rows`` compiles them so, once per (G, k), and a sweep decides
  its maps from the rows (``ReportRows``).
- ``maps._Values`` reads the elements as values for one theta and a line
  point by point, in the order the rows are built; the first failing point
  gives the witness.  That is the per-line report (``maps.report_values``),
  the only source of witnesses.  ``classify`` sees one map, and compiling
  the structure report costs more than checking that map line by line (on
  a 2-core Xeon VM, median of 41 with a fresh G each: M2(Z/3) at k = 1
  0.42 ms against 0.36 ms, M4(Q) with x -> x/2 + f(x)*1 at k = 1..3
  4.0-16 ms against 1.4-3.7 ms), so it runs the per-line report.

Each N-side line is its M-side line read on the transpose [B N; M A]
(``GMAlgebra.transposed_ctx``): block names pass through A<->B and M<->N,
diag(a, b) is read as diag(b, a), and witness keys pass through a<->b and
m<->n.
"""

import itertools
from math import comb, prod
from operator import mul

from .algebra import lattice_points, stream_rows
from .morita import BLOCKS


class ReportRows:
    """A report's lines compiled into the rows ``passes`` reads: sparse rows
    (flat index -> scalar), merged over all lines, that all vanish on
    vec(theta) iff every line passes; no per-line structure is kept.  Flat
    index t = r*d + c is theta.rows[r][c], as in ``maps.LinMap.flatten``.
    The rows are linear, so they are read at D*theta
    (``maps.LinMap.integral``), in int arithmetic over Q."""

    def __init__(self, ring, lines):
        self.ring = ring
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

    def passes(self, theta):
        get, normal = theta.integral()[1].flatten().__getitem__, self.ring.normal
        return not any(map(get, self._zeros)) and not any(
            normal(sum(map(mul, cs, map(get, ts)))) for ts, cs in self._rest)


def _packed(rows):
    """Each row as (flat indices, coefficients)."""
    return [(tuple(row), tuple(row.values())) for row in rows]


_SAME = dict(zip(BLOCKS, BLOCKS))
_SWAP = {"A": "B", "B": "A", "M": "N", "N": "M"}
_SWAP_KEYS = {"a_index": "b_index", "b_index": "a_index",
              "m_index": "n_index", "n_index": "m_index"}


class _Side:
    """One side of G: the context ``ctx`` it is read in (G's, or the
    transpose's on the N side), ``names`` from this side's block names to
    G's, and ``keys`` from its witness keys to G's.

    A line's elements are built with ``image(src, dst, v)`` (the src -> dst
    component of theta at v; "G" for all of G), ``at_unit(src, dst)``,
    ``act(product, x, y)`` (a product of the context: "am", "mb", "bn" or
    "na", as in ``morita.MoritaContext``, "G", or G's block "A" or "B" for
    the center partner from it, set by ``central``), ``diag(a, b)``,
    ``combine(*(c, x))`` (the sum of the c*x) and ``central(name, x)``,
    which both readings share.  Its points are ``at(*i)`` for i over
    ``ranges``, in the order of ``report.failures``, named by ``keys`` in
    a witness (None: the line reports none).  The readings are
    ``zero(keys, at, *ranges)``, ``within(S, keys, at, *ranges,
    image=False)``, ``member(S, x)``, ``lattice(defect)`` for a map
    m -> element of degree <= 2 on this side's M, and ``commuting(k)``."""

    def __init__(self, G, ctx, names, keys):
        self.G, self.ctx, self.names, self.keys = G, ctx, names, keys
        # for ``image``: each block's coordinates in G; for ``act``: each
        # product's nonzero terms and module dimension; "G" for all of G
        self.ranges = {name: G.block_range(names[name]) for name in BLOCKS}
        self.ranges["G"] = range(G.dim)
        M, N = ctx.M, ctx.N
        self._products = {"am": (M._left, M.dim), "mb": (M._right, M.dim),
                          "bn": (N._left, N.dim), "na": (N._right, N.dim),
                          "G": (G.algebra._terms, G.dim)}

    @classmethod
    def pair(cls, G, *args):
        """The M side and the N side of G."""
        return (cls(G, G.ctx, _SAME, {}, *args),
                cls(G, G.transposed_ctx(), _SWAP, _SWAP_KEYS, *args))

    def at_unit(self, src, dst):
        return self.image(src, dst, getattr(self.ctx, src).unit)

    def central(self, name, x):
        """The central element of G whose ``name`` part (A or B) is x, for x
        in the projection of Z(G) to that block.  The other part is x's
        center partner, the linear map ``GMAlgebra.partner`` applied by
        ``act`` as the product of x with the unit 1 of the ring."""
        block = self.names[name]
        self._products[block] = self.G.partner(block)
        y = self.act(block, x, (self.G.ring.one,))
        return self.diag(x, y) if name == "A" else self.diag(y, x)


class _Forms(_Side):
    """A side read as rows.  An element (a form) is a dict: coordinate ->
    its row over vec(theta) (as in ``ReportRows``).  Forms are summed in
    int (or Fraction) arithmetic and brought to normal form only as rows
    (``_normal_rows``); each reading returns its line's rows."""

    def image(self, src, dst, v):
        d, cols = self.G.dim, self.ranges[src]
        return {i: row for i, r in enumerate(self.ranges[dst])
                if (row := {r * d + c: x for c, x in zip(cols, v) if x})}

    def act(self, product, x, y):
        """One of x, y is a form."""
        terms = self._products[product][0]
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
        off = self.G.offsets
        return {off[self.names[name]] + i: row
                for name, form in (("A", a), ("B", b)) for i, row in form.items()}

    @staticmethod
    def combine(*terms):
        out = {}
        for c, form in terms:
            for i, row in form.items():
                _add_row(out.setdefault(i, {}), c, row)
        return out

    def zero(self, keys, at, *ranges):
        return _rows(self.G.ring, itertools.starmap(at, itertools.product(*ranges)))

    def within(self, S, keys, at, *ranges, image=False):
        return _rows(self.G.ring, itertools.starmap(at, itertools.product(*ranges)),
                     S.annihilator())

    def member(self, S, x):
        return _rows(self.G.ring, [x], S.annihilator())

    def lattice(self, defect):
        return _lattice_rows(self.G.ring, self.ctx.M.dim, defect)

    def commuting(self, k):
        """The rows of ``stream_rows`` on ``A.commuting_groups(k)``,
        re-indexed from A's flat indices to G's."""
        A, G = self.ctx.A, self.G
        off, dA = G.offsets[self.names["A"]], A.dim
        return [{(off + t // dA) * G.dim + off + t % dA: v for t, v in row.items()}
                for block in stream_rows(G.ring, A.commuting_groups(k), k + 1, dA)
                for row in block]


def _add_row(acc, c, row):
    """acc += c*row."""
    for t, v in row.items():
        acc[t] = acc.get(t, 0) + c * v


def _normal_rows(ring, form):
    """The nonzero rows of a form, in normal form."""
    out = []
    for acc in form.values():
        row = {t: x for t, v in acc.items() if (x := ring.normal(v))}
        if row:
            out.append(row)
    return out


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
            out += _normal_rows(ring, _Forms.combine(
                *((w[i], {0: row}) for i, row in form.items() if w[i])))
    return out


def _lattice_rows(ring, dim, defect):
    """The rows that all vanish iff ``defect``, a form-valued map of degree
    <= 2 on R^dim, vanishes on all of R^dim: those of its forward
    differences D^alpha f(0) = sum over beta <= alpha of
    (-1)^|alpha - beta| C(alpha, beta) f(beta), at the lattice points
    alpha (``lattice_points``).  They are the values at the lattice points,
    on which the values reading decides (``algebra.lattice_check``),
    combined unitriangularly, so they vanish together; and they are
    sparser, since a difference drops the terms of lower degree."""
    values, out = {}, []
    for alpha in lattice_points(ring, dim, 2):
        values[alpha] = defect(tuple(map(ring.normal, alpha)))
        out += _normal_rows(ring, _Forms.combine(*(
            ((-1) ** (sum(alpha) - sum(beta)) * prod(map(comb, alpha, beta)), values[beta])
            for beta in itertools.product(*(range(a + 1) for a in alpha))
        )))
    return out


def _mirrored(sides, builders):
    """For each ((M-side id, N-side id), build): the line built on the M
    side, then on the N side."""
    return [(cid, build(side)) for ids, build in builders
            for cid, side in zip(ids, sides)]


# the components that vanish, and those that range in the order-k center of
# their target, in report order
ZERO_LINES = (
    ("A", "M", "a_to_m_zero"),
    ("A", "N", "a_to_n_zero"),
    ("B", "M", "b_to_m_zero"),
    ("B", "N", "b_to_n_zero"),
    ("N", "M", "n_to_m_zero"),
    ("M", "N", "m_to_n_zero"),
)
RANGE_LINES = (
    ("M", "A", "m_to_a_engel_range"),
    ("N", "A", "n_to_a_engel_range"),
    ("B", "A", "b_to_a_engel_range"),
    ("A", "B", "a_to_b_engel_range"),
    ("M", "B", "m_to_b_engel_range"),
    ("N", "B", "n_to_b_engel_range"),
)


def structure_lines(sides, k):
    """The structural consequences that every k-commuting map satisfies, as
    (cond_id, the line read on ``sides``) in report order: six vanishing
    components, six components ranging in the order-k centers, the two
    diagonal components k-commuting with central unit images, and four
    compatibility identities between the off-diagonal components."""
    F = sides[0]
    ctx = F.ctx
    spaces = dict(zip(BLOCKS, (ctx.A, ctx.M, ctx.N, ctx.B)))

    def images(src, dst):
        basis = spaces[src].basis()
        return (lambda p: F.image(src, dst, basis[p])), range(len(basis))

    lines = [(cid, F.zero(None, *images(src, dst))) for src, dst, cid in ZERO_LINES]
    lines += [(cid, F.within(spaces[dst].engel_center(k), ("basis_index",),
                             *images(src, dst), image=True))
              for src, dst, cid in RANGE_LINES]
    for side, (kc_id, unit_id) in zip(sides, (
        ("diag_a_k_commuting", "diag_a_unit_engel"),
        ("diag_b_k_commuting", "diag_b_unit_engel"),
    )):
        lines.append((kc_id, side.commuting(k)))
        lines.append((unit_id, side.member(side.ctx.A.engel_center(k),
                                           side.at_unit("A", "A"))))

    def sums(side, sign):
        # d1(1) + sign*d4(1) and m1(1) + sign*m4(1)
        return (side.combine((1, side.at_unit("A", dst)), (sign, side.at_unit("B", dst)))
                for dst in "AB")

    def balance(side):
        # (d1(1)+d4(1)+2*d2(m))*m = m*(m1(1)+m4(1)+2*m2(m)); degree two in
        # m, so checking the basis is not enough
        sumA, sumB = sums(side, 1)
        return side.lattice(lambda m: side.combine(
            (1, side.act("am", side.combine((1, sumA), (2, side.image("M", "A", m))), m)),
            (-1, side.act("mb", m, side.combine((1, sumB), (2, side.image("M", "B", m))))),
        ))

    def doubling(side):
        # 2*m3(m) = (d1(1)-d4(1))*m - m*(m1(1)-m4(1))
        difA, difB = sums(side, -1)
        em = side.ctx.M.basis()
        return side.zero(("basis_index",), lambda p: side.combine(
            (2, side.image("M", "M", em[p])), (-1, side.act("am", difA, em[p])),
            (1, side.act("mb", em[p], difB)),
        ), range(len(em)))

    return lines + _mirrored(sides, (
        (("m_balance_symmetrized", "n_balance_symmetrized"), balance),
        (("m_to_m_doubling", "n_to_n_doubling"), doubling),
    ))


def step_lines(sides, k):
    """The intermediate identities on the way to the proper form, as
    (cond_id, the line read on ``sides``) in report order."""
    F = sides[0]
    ctx = F.ctx
    zG = F.G.gma_center()

    def quadratic(side):
        return side.lattice(lambda m: side.combine(
            (1, side.act("am", side.image("M", "A", m), m)),
            (-1, side.act("mb", m, side.image("M", "B", m))),
        ))

    def compat(side):
        em, en = side.ctx.M.basis(), side.ctx.N.basis()
        return side.zero(("n_index", "m_index"), lambda q, p: side.combine(
            (1, side.act("am", side.image("N", "A", en[q]), em[p])),
            (-1, side.act("mb", em[p], side.image("N", "B", en[q]))),
        ), range(len(en)), range(len(em)))

    def diag_central(side):
        em = side.ctx.M.basis()
        return side.within(zG, ("m_index",), lambda p: side.diag(
            side.image("M", "A", em[p]), side.image("M", "B", em[p])), range(len(em)))

    lines = _mirrored(sides, (
        (("m_to_a_quadratic_balance", "n_to_a_quadratic_balance"), quadratic),
        (("n_to_a_m_compat", "m_to_b_n_compat"), compat),
        (("m_to_diag_central", "n_to_diag_central"), diag_central),
    ))

    # the unit reductions agree under transposition only modulo the balance
    # identity, so each is written out on the M side
    d1_1, m1_1 = F.at_unit("A", "A"), F.at_unit("A", "B")
    eA, eB, em, en = ctx.A.basis(), ctx.B.basis(), ctx.M.basis(), ctx.N.basis()
    AA, AB = ([F.image("A", dst, a) for a in eA] for dst in "AB")
    BA, BB = ([F.image("B", dst, b) for b in eB] for dst in "AB")
    # d1(1)*m - m*m1(1) and n*d1(1) - m1(1)*n
    m_inner = [F.combine((1, F.act("am", d1_1, m)), (-1, F.act("mb", m, m1_1)))
               for m in em]
    n_inner = [F.combine((1, F.act("na", n, d1_1)), (-1, F.act("bn", m1_1, n)))
               for n in en]
    return lines + [
        ("diag_a_unit_reduction_m", F.zero(("a_index", "m_index"), lambda i, p: F.combine(
            (1, F.act("am", AA[i], em[p])), (-1, F.act("mb", em[p], AB[i])),
            (-1, F.act("am", eA[i], m_inner[p])),
        ), range(len(eA)), range(len(em)))),
        ("diag_a_unit_reduction_n", F.zero(("a_index", "n_index"), lambda i, q: F.combine(
            (1, F.act("na", n_inner[q], eA[i])), (-1, F.act("na", en[q], AA[i])),
            (1, F.act("bn", AB[i], en[q])),
        ), range(len(eA)), range(len(en)))),
        ("diag_b_unit_reduction_m", F.zero(("b_index", "m_index"), lambda j, p: F.combine(
            (1, F.act("am", BA[j], em[p])), (-1, F.act("mb", em[p], BB[j])),
            (1, F.act("mb", m_inner[p], eB[j])),
        ), range(len(eB)), range(len(em)))),
        ("diag_b_unit_reduction_n", F.zero(("b_index", "n_index"), lambda j, q: F.combine(
            (1, F.act("bn", BB[j], en[q])), (-1, F.act("na", en[q], BA[j])),
            (-1, F.act("bn", eB[j], n_inner[q])),
        ), range(len(eB)), range(len(en)))),
    ]


def proper_lines(sides):
    """The two guards of the proper form x -> x*C + f(x), as (cond_id, the
    line read on ``sides``): the shift C = diag(d1(1) - phi^-1(m1(1)),
    phi(d1(1)) - m1(1)) lies in Z(G), and so does the residual
    f(e_j) = theta(e_j) - e_j*C at each basis element e_j of G.  Both
    readings apply the same linear partner (``GMAlgebra.partner``), which
    is phi on Z(G)'s projections; where both guards pass, theta is proper,
    so d1(1) and m1(1) lie in them."""
    F = sides[0]
    zG, eG = F.G.gma_center(), F.G.algebra.basis()
    C = F.combine((1, F.central("A", F.at_unit("A", "A"))),
                  (-1, F.central("B", F.at_unit("A", "B"))))
    return [("central_shift", F.member(zG, C)),
            ("central_residual", F.within(zG, ("basis_index",), lambda j: F.combine(
                (1, F.image("G", "G", eG[j])), (-1, F.act("G", eG[j], C))),
                range(len(eG)), image=True))]


# each report: its title (formatted with k) and the builder of its lines
REPORTS = {
    "structure": ("structure conditions (k={k})", structure_lines),
    "steps": ("proper-form step invariants (k={k})", step_lines),
    "proper": ("proper form", lambda sides, k: proper_lines(sides)),
}


def report_rows(G, mode, k):
    """The lines of ``REPORTS[mode]`` compiled to rows (see ``ReportRows``),
    exact for every map on every ring: the degree-2 balance identity is
    decided on the lattice points (``_lattice_rows``) as the values reading
    does, and every other line on the points it reads."""
    return ReportRows(G.ring, REPORTS[mode][1](_Forms.pair(G), k))
