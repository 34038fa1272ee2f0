"""Linear self-maps of a generalized matrix algebra.

Covers: the k-commuting test, the linear solution space of all k-commuting
maps, the sixteen-block decomposition of a self-map, the structure-condition
report for k-commuting maps, the sufficient-hypothesis check and the
proper-form construction, plus a hypothesis-free properness decision.

The reports here are checked line by line and are the only source of
witnesses.  Every line of the structure and step reports is linear in the
map, and ``gmalg.compiled`` compiles each report into rows, once per
(G, k), from which a sweep decides its maps.
"""

import copy
import itertools
from collections import namedtuple

from . import linalg
from .algebra import (
    Submodule,
    evaluator,
    iter_vectors,
    lattice_check,
    lattice_points,
    scalar_multiples_of,
    vanishing_kernel,
    vanishing_rows,
)
from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    HypothesesNotMet,
    NotKCommuting,
    TheoremViolation,
    TwoTorsion,
)
from .morita import BLOCKS
from .report import Report, first_failure


class LinMap:
    """A square matrix acting on coordinate columns; column j is the image
    of basis vector e_j."""

    def __init__(self, ring, rows):
        self.ring = ring
        self.dim = len(rows)
        self.rows = tuple(
            tuple(ring.coerce(c) for c in r) for r in rows
        )
        for r in self.rows:
            if len(r) != self.dim:
                raise DimensionMismatch("map matrix must be square")
        self._cols = [
            [(r, row[j]) for r, row in enumerate(self.rows) if row[j]]
            for j in range(self.dim)
        ]

    @classmethod
    def identity(cls, ring, dim):
        return cls(
            ring,
            [
                [ring.one if i == j else ring.zero for j in range(dim)]
                for i in range(dim)
            ],
        )

    @classmethod
    def zero(cls, ring, dim):
        return cls(ring, [[ring.zero] * dim for _ in range(dim)])

    @classmethod
    def from_columns(cls, ring, cols):
        dim = len(cols)
        return cls(
            ring, [[cols[j][i] for j in range(dim)] for i in range(dim)]
        )

    @classmethod
    def from_flat(cls, ring, dim, flat):
        return cls(
            ring,
            [flat[i * dim : (i + 1) * dim] for i in range(dim)],
        )

    def flatten(self):
        return tuple(c for row in self.rows for c in row)

    def apply(self, v):
        if len(v) != self.dim:
            raise DimensionMismatch("vector length does not match map")
        rg = self.ring
        out = [rg.zero] * self.dim
        for j, x in enumerate(v):
            if x:
                for r, c in self._cols[j]:
                    out[r] = rg.add(out[r], rg.mul(c, x))
        return tuple(out)

    def column(self, j):
        return tuple(row[j] for row in self.rows)

    def _entrywise(self, op, other):
        return LinMap(
            self.ring,
            [[op(a, b) for a, b in zip(r1, r2)]
             for r1, r2 in zip(self.rows, other.rows)],
        )

    def add(self, other):
        return self._entrywise(self.ring.add, other)

    def sub(self, other):
        return self._entrywise(self.ring.sub, other)

    def scale(self, c):
        rg = self.ring
        return LinMap(rg, [[rg.mul(c, a) for a in r] for r in self.rows])

    def is_zero(self):
        return all(c == self.ring.zero for r in self.rows for c in r)

    def __eq__(self, other):
        return (
            isinstance(other, LinMap)
            and self.ring == other.ring
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.ring, self.rows))

    def to_json(self):
        from .rings import scalar_to_json

        return {
            "schema": "map/1",
            "matrix": [
                [scalar_to_json(self.ring, c) for c in row] for row in self.rows
            ],
        }

    def __repr__(self):
        return f"LinMap(dim={self.dim})"


def _underlying(G):
    """Accept either a plain Algebra or a GMAlgebra wrapper."""
    return getattr(G, "algebra", G)


def is_k_commuting(G, theta, k):
    """(True, None) if [theta(x), x]_k = 0 for every x, else (False, x).

    The coefficients C_gamma of f(x) = [theta(x), x]_k, homogeneous of
    degree k+1, come from ``Algebra.map_coefficients``.  f vanishes everywhere iff they are all zero
    over Q and over Z/p with p >= k+1, and iff its Newton differences
    (sums of the C_gamma weighted by Stirling numbers) are all zero on
    every other Z/n; the test stops at the first nonzero one (see
    ``algebra.vanishing_rows``).  On failure x is the lexicographically
    first failing element: of the whole algebra over a finite ring, of
    {0..k+1}^dim over Q (see ``algebra.lattice_check``), with f evaluated
    from its coefficients."""
    alg = _underlying(G)
    if k < 1:
        raise DimensionMismatch("commuting order must be >= 1")
    if theta.dim != alg.dim:
        raise DimensionMismatch("map dimension does not match the algebra")
    rg = alg.ring
    coeffs = alg.map_coefficients(theta._cols, k)
    if next(vanishing_rows(rg, coeffs, k + 1, alg.dim), None) is None:
        return True, None
    return lattice_check(rg, alg.dim, k + 1, evaluator(rg, coeffs, k + 1))


class MapSpace:
    """A submodule of LinMaps given by flattened-matrix generators."""

    def __init__(self, algebra, space):
        self.algebra = algebra
        self.space = space

    @property
    def ring(self):
        return self.algebra.ring

    def basis(self):
        d = self.algebra.dim
        return [LinMap.from_flat(self.ring, d, g) for g in self.space.gens]

    @property
    def rank(self):
        return self.space.rank

    def contains(self, linmap):
        return self.space.contains(linmap.flatten())

    def random_member(self, rng):
        """A random linear combination of the generators; deterministic for
        a seeded generator."""
        rg = self.ring
        d = self.algebra.dim
        total = [0] * (d * d)
        for g in self.space.gens:
            if rg.enumerable:
                c = rg.coerce(rng.randrange(rg.size))
            else:
                c = rg.coerce(rng.randint(-9, 9))
            if c:
                for t, v in enumerate(g):
                    if v:
                        total[t] += c * v
        return LinMap.from_flat(rg, d, [rg.normal(v) for v in total])

    def __repr__(self):
        return f"MapSpace(dim={self.algebra.dim}, ngens={len(self.space.gens)})"


def commuting_space(G, k):
    """All maps theta with [theta(x), x]_k = 0 for every x, as the solution
    of the linear system in theta's matrix entries: the coefficients of
    [theta(x), x]_k (``Algebra.commuting_coefficients``) over Q and over
    Z/p with p >= k+1, their Newton differences on every other Z/n (see
    ``algebra.vanishing_rows``)."""
    alg = _underlying(G)
    d = alg.dim
    if k < 1:
        raise DimensionMismatch("commuting order must be >= 1")
    gens = vanishing_kernel(alg.ring, alg.commuting_coefficients(k), k + 1, d, d * d)
    return MapSpace(alg, Submodule(alg.ring, d * d, gens))


class BlockDecomposition:
    """The sixteen source-block -> target-block components of a self-map."""

    def __init__(self, G, theta):
        if theta.dim != G.dim:
            raise DimensionMismatch("map dimension does not match the algebra")
        self.G = G
        self.theta = theta
        self.ring = G.ring
        self._units = {"A": G.ctx.A.unit, "B": G.ctx.B.unit}
        self._blocks = {}
        self._cols = {}
        for src in BLOCKS:
            for dst in BLOCKS:
                self._store((src, dst), tuple(
                    tuple(theta.rows[r][c] for c in G.block_range(src))
                    for r in G.block_range(dst)
                ))

    def _store(self, key, rows):
        """Keep a component as its rows and, for ``apply``, as the nonzero
        (row, entry) pairs of each column."""
        self._blocks[key] = rows
        self._cols[key] = tuple(
            tuple((r, row[c]) for r, row in enumerate(rows) if row[c])
            for c in range(len(rows[0]) if rows else 0)
        )

    def block(self, src, dst):
        return self._blocks[(src, dst)]

    def set_block(self, src, dst, matrix):
        """Test hook: overwrite one component (negative controls only)."""
        rows = tuple(
            tuple(self.ring.coerce(c) for c in r) for r in matrix
        )
        if list(map(len, rows)) != list(map(len, self._blocks[(src, dst)])):
            raise DimensionMismatch("block shape mismatch")
        self._store((src, dst), rows)

    def apply(self, src, dst, v):
        """The component applied to ``v``, over the nonzero coordinates of
        ``v`` and the nonzero entries of their columns only."""
        rg = self.ring
        out = [rg.zero] * len(self._blocks[(src, dst)])
        for x, col in zip(v, self._cols[(src, dst)]):
            if x:
                for r, c in col:
                    out[r] = rg.add(out[r], rg.mul(c, x))
        return tuple(out)

    def block_is_zero(self, src, dst):
        return not any(self._cols[(src, dst)])

    def at_unit(self, src, dst):
        """Component applied to the unit of the source algebra (A or B)."""
        return self.apply(src, dst, self._units[src])

    def reassemble(self):
        cols = []
        for j in range(self.G.dim):
            src, loc = self.G.block_of_index(j)
            e = tuple(
                self.ring.one if t == loc else self.ring.zero
                for t in range(len(self.G.block_range(src)))
            )
            # the column is the images in every block, in basis order
            cols.append(sum((self.apply(src, dst, e) for dst in BLOCKS), ()))
        return LinMap.from_columns(self.ring, cols)

    def component_map(self, src, dst):
        """The component as a LinMap on the source algebra (square blocks
        only: A->A and B->B)."""
        return LinMap(self.ring, self.block(src, dst))

    def transposed(self):
        """These components read on [B N; M A] (see ``morita.transpose``):
        block names pass through A<->B, M<->N.  The view belongs to no
        built algebra, so it has no ``G``, ``theta`` or ``reassemble``."""
        view = copy.copy(self)
        view.G = view.theta = None
        view._units = {_SWAP[s]: u for s, u in self._units.items()}
        view._blocks, view._cols = (
            {(_SWAP[s], _SWAP[d]): v for (s, d), v in parts.items()}
            for parts in (self._blocks, self._cols)
        )
        return view

    def sides(self):
        """The M side and the N side of these components.

        The N side is the M side of the transpose: context
        ``G.transposed_ctx()``, the ``transposed`` blocks, diagonal pairs
        diag(a, b) read as diag(b, a), and witness keys with a<->b and
        m<->n exchanged.  Checks written once for the M side thus cover
        both."""
        G = self.G

        def central(a, b):
            return G.gma_center().contains(G.embed_diag(a, b))

        return (
            Side(G.ctx, self, central, {}),
            Side(G.transposed_ctx(), self.transposed(),
                 lambda b, a: central(a, b), _SWAP_KEYS),
        )


_SWAP = {"A": "B", "B": "A", "M": "N", "N": "M"}
_SWAP_KEYS = {"a_index": "b_index", "b_index": "a_index",
              "m_index": "n_index", "n_index": "m_index"}


class Side(namedtuple("Side", ["ctx", "blocks", "central", "keys"])):
    """One side of a block decomposition; see ``BlockDecomposition.sides``.
    ``central(a, b)`` tells whether diag(a, b) is central."""

    def witness(self, wit):
        """An M-side witness named for this side."""
        if isinstance(wit, dict):
            return {self.keys.get(k, k): v for k, v in wit.items()}
        return wit


def _add_mirrored(rep, sides, checks):
    """For each ((M-side id, N-side id), check): the line of the check on
    the M side, then on the N side."""
    for ids, check in checks:
        for cid, side in zip(ids, sides):
            ok, wit = check(side)
            rep.add(cid, ok, side.witness(wit))


def decompose(G, theta):
    return BlockDecomposition(G, theta)


def _require_k_commuting(G, theta, k, verdict):
    """Raise NotKCommuting unless theta is k-commuting.  ``verdict`` is the
    result of ``is_k_commuting(G, theta, k)`` when the caller has it, so
    that one classification decides the identity once."""
    ok, bad = verdict if verdict is not None else is_k_commuting(G, theta, k)
    if not ok:
        raise NotKCommuting(f"map is not {k}-commuting (witness {bad})")


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


def verify_structure_conditions(G, theta, k, blocks=None, verdict=None):
    """The structural consequences that every k-commuting map satisfies:
    six vanishing components, six components ranging in the order-k
    centers, the two diagonal components k-commuting with central unit
    images, and four compatibility identities between the off-diagonal
    components."""
    _require_k_commuting(G, theta, k, verdict)
    dec = blocks if blocks is not None else decompose(G, theta)
    rep = Report(f"structure conditions (k={k})", ring=G.ring)
    ctx = G.ctx
    rg = G.ring

    for src, dst, cid in ZERO_LINES:
        rep.add(cid, dec.block_is_zero(src, dst), None)

    spaces = dict(zip(BLOCKS, (ctx.A, ctx.M, ctx.N, ctx.B)))
    for src, dst, cid in RANGE_LINES:
        basis = spaces[src].basis()
        target = spaces[dst].engel_center(k)
        ok, wit = first_failure(
            ("basis_index",),
            lambda p: target.contains(dec.apply(src, dst, basis[p])),
            range(len(basis)),
        )
        if not ok:
            wit["image"] = dec.apply(src, dst, basis[wit["basis_index"]])
        rep.add(cid, ok, wit)

    sides = dec.sides()
    for side, (kc_id, unit_id) in zip(sides, (
        ("diag_a_k_commuting", "diag_a_unit_engel"),
        ("diag_b_k_commuting", "diag_b_unit_engel"),
    )):
        A, diag = side.ctx.A, side.blocks
        rep.add(kc_id, *is_k_commuting(A, diag.component_map("A", "A"), k))
        unit = diag.at_unit("A", "A")
        rep.add(unit_id, A.engel_center(k).contains(unit), unit)

    two = rg.add(rg.one, rg.one)

    def balance(side):
        # (d1(1)+d4(1)+2*d2(m))*m = m*(m1(1)+m4(1)+2*m2(m)); degree two in
        # the module variable, so basis checking is insufficient
        c, dec = side.ctx, side.blocks
        sumA = c.A.add(dec.at_unit("A", "A"), dec.at_unit("B", "A"))
        sumB = c.B.add(dec.at_unit("A", "B"), dec.at_unit("B", "B"))

        def holds(m):
            lhs = c.am(
                c.A.add(sumA, c.A.scale(two, dec.apply("M", "A", m))), m
            )
            rhs = c.mb(
                m, c.B.add(sumB, c.B.scale(two, dec.apply("M", "B", m)))
            )
            return lhs == rhs

        return _scan_module_identity(rg, c.M.dim, holds)

    def doubling(side):
        # 2*m3(m) = (d1(1)-d4(1))*m - m*(m1(1)-m4(1))
        c, dec = side.ctx, side.blocks
        difA = c.A.sub(dec.at_unit("A", "A"), dec.at_unit("B", "A"))
        difB = c.B.sub(dec.at_unit("A", "B"), dec.at_unit("B", "B"))
        em = c.M.basis()

        def holds(p):
            lhs = tuple(rg.mul(two, x) for x in dec.apply("M", "M", em[p]))
            rhs = tuple(
                rg.sub(a, b)
                for a, b in zip(c.am(difA, em[p]), c.mb(em[p], difB))
            )
            return lhs == rhs

        return first_failure(("basis_index",), holds, range(len(em)))

    _add_mirrored(rep, sides, (
        (("m_balance_symmetrized", "n_balance_symmetrized"), balance),
        (("m_to_m_doubling", "n_to_n_doubling"), doubling),
    ))
    return rep


def _scan_module_identity(ring, dim, predicate):
    """Check an identity of degree <= 2 in one module variable on the
    lattice points (see ``algebra.lattice_check``)."""
    ok, m = lattice_check(ring, dim, 2, predicate)
    return ok, None if ok else {"module_element": m}


HypothesisWitness = namedtuple(
    "HypothesisWitness",
    ["cond1", "cond2", "cond3", "m_witness", "n_witness"],
)


def _hyp_all(h):
    return h.cond1 and h.cond2 and h.cond3


# composite Z/n: the most module pairs (m0, n0) the cond3 search may try
PAIR_BUDGET = 10**6


def check_properness_hypotheses(G, k):
    """The three sufficient conditions for properness of every k-commuting
    map: both order-k centers are exactly the diagonal projections of the
    center (cond1, cond2), and some single pair (m0, n0) already cuts out
    the center (cond3).

    cond3 asks whether the pinned set of some pair, the kernel of
    ``GMAlgebra.center_rows([m0], [n0])``, is Z(G).  The pinned set always
    contains Z(G), and at (0, 0) it is Z(A) x Z(B).  Over a field it is
    Z(G) iff the pinning rows, restricted to Z(A) x Z(B), have rank
    r' = dim Z(A) + dim Z(B) - dim Z(G).  Those rows are linear in
    (m0, n0), so their r' x r' minors are polynomials of degree r', and
    some pair works iff some minor is not the zero function; by the
    lattice criterion (``algebra.lattice_points``) it is then nonzero at a
    lattice point |beta| <= r' of M x N.  So the candidates
    ``lattice_points(M, r') x lattice_points(N, r')``, a superset of those
    points, make the search complete over Z/p and Q.  Over composite Z/n
    the rank argument fails, and every pair is tried, at most
    ``PAIR_BUDGET`` of them.  Either way the candidates go in
    ``_witness_order``, and the first pair that works is the witness."""
    rg = G.ring
    if not rg.is_two_torsion_free():
        raise TwoTorsion("the proper-form pipeline needs 2x = 0 => x = 0")
    G.require_faithful()
    piA, piB = G.center_projections()
    cond1 = G.ctx.A.engel_center(k).equals(piA)
    cond2 = G.ctx.B.engel_center(k).equals(piB)

    dA, dM, dN, dB = G.dims
    zdiag = Submodule(rg, dA + dB, [
        G.extract("A", g) + G.extract("B", g) for g in G.gma_center().gens
    ])
    if rg.is_field:
        top = G.ctx.A.center().rank + G.ctx.B.center().rank - zdiag.rank
        Ms, Ns = (list(lattice_points(rg, d, top)) for d in (dM, dN))
    elif rg.size ** (dM + dN) > PAIR_BUDGET:
        raise BudgetExceeded("witness-pair search space too large")
    else:
        Ms, Ns = list(iter_vectors(rg, dM)), list(iter_vectors(rg, dN))
    for i, j in _witness_order(len(Ms), len(Ns)):
        rows = G.center_rows([Ms[i]], [Ns[j]])
        if Submodule(rg, dA + dB, linalg.nullspace(rg, rows, dA + dB)).equals(zdiag):
            return HypothesisWitness(cond1, cond2, True, Ms[i], Ns[j])
    return HypothesisWitness(cond1, cond2, False, None, None)


def _witness_order(nm, nn):
    """Matched-index pairs first, then the remaining lexicographic grid."""
    seen = set()
    for i in range(max(nm, nn)):
        p = (min(i, nm - 1), min(i, nn - 1))
        if p not in seen:
            seen.add(p)
            yield p
    for p in itertools.product(range(nm), range(nn)):
        if p not in seen:
            seen.add(p)
            yield p


PropernessCertificate = namedtuple(
    "PropernessCertificate", ["multiplier", "offset"]
)

ProperFormResult = namedtuple(
    "ProperFormResult", ["center_shift", "residual_map"]
)


def construct_proper_form(G, theta, k, hypotheses=None, verdict=None):
    """Split a k-commuting map as x -> x*C + (central-valued remainder),
    with C built from the unit images of the two diagonal components via
    the center isomorphism."""
    _require_k_commuting(G, theta, k, verdict)
    hyp = hypotheses if hypotheses is not None else check_properness_hypotheses(G, k)
    if not _hyp_all(hyp):
        raise HypothesesNotMet(f"sufficient conditions fail: {hyp}")
    dec = decompose(G, theta)
    d1_1 = dec.at_unit("A", "A")
    m1_1 = dec.at_unit("A", "B")
    Ca = G.ctx.A.sub(d1_1, G.phi_inv_apply(m1_1))
    Cb = G.ctx.B.sub(G.phi_apply(d1_1), m1_1)
    C = G.embed_diag(Ca, Cb)
    z = G.gma_center()
    if not z.contains(C):
        raise TheoremViolation("constructed shift is not central", C)
    alg = G.algebra
    cols = []
    for j in range(G.dim):
        ej = alg.basis_vector(j)
        res = alg.sub(theta.apply(ej), alg.mul(ej, C))
        if not z.contains(res):
            raise TheoremViolation(
                "residual escapes the center despite the hypotheses",
                {"basis_index": j, "residual": res},
            )
        cols.append(res)
    return ProperFormResult(C, LinMap.from_columns(G.ring, cols))


def properness_certificate(G, theta):
    """Any (central multiplier, central-valued remainder) splitting of the
    map, or None when no such splitting exists.

    Membership of the remainder in the center is encoded with auxiliary
    unknowns (one coordinate vector per basis element), which keeps the
    system linear over every supported ring."""
    alg = _underlying(G)
    rg = alg.ring
    d = alg.dim
    zgens = (G.gma_center() if hasattr(G, "gma_center") else alg.center()).gens
    nz = len(zgens)
    if nz == 0:
        if all(theta.column(j) == alg.zero() for j in range(d)):
            return PropernessCertificate(alg.zero(), LinMap.zero(rg, d))
        return None
    # unknowns: t (nz multiplier coords), then u_j (nz per basis element)
    nunk = nz * (1 + d)
    rows = []
    rhs = []
    for j in range(d):
        ej = alg.basis_vector(j)
        ej_z = [alg.mul(ej, g) for g in zgens]
        tj = theta.apply(ej)
        for r in range(d):
            row = [rg.zero] * nunk
            for s in range(nz):
                row[s] = ej_z[s][r]
                row[nz * (1 + j) + s] = zgens[s][r]
            rows.append(row)
            rhs.append(tj[r])
    sol = linalg.solve_linear(rg, rows, rhs)
    if sol is None:
        return None
    t = sol.particular[:nz]
    lam = alg.zero()
    for c, g in zip(t, zgens):
        lam = alg.add(lam, alg.scale(c, g))
    cols = [
        alg.sub(theta.apply(alg.basis_vector(j)), alg.mul(alg.basis_vector(j), lam))
        for j in range(d)
    ]
    return PropernessCertificate(lam, LinMap.from_columns(rg, cols))


def verify_proper_form_steps(G, theta, k, blocks=None, hypotheses=None,
                             verdict=None):
    """The intermediate identities established on the way to the proper
    form, checked directly on the supplied map."""
    _require_k_commuting(G, theta, k, verdict)
    hyp = hypotheses if hypotheses is not None else check_properness_hypotheses(G, k)
    if not _hyp_all(hyp):
        raise HypothesesNotMet(f"sufficient conditions fail: {hyp}")
    dec = blocks if blocks is not None else decompose(G, theta)
    ctx = G.ctx
    rg = G.ring
    dA, dM, dN, dB = G.dims
    rep = Report(f"proper-form step invariants (k={k})", ring=G.ring)

    def quadratic(side):
        c, dec = side.ctx, side.blocks
        return _scan_module_identity(
            rg, c.M.dim,
            lambda m: c.am(dec.apply("M", "A", m), m)
            == c.mb(m, dec.apply("M", "B", m)),
        )

    def compat(side):
        c, dec = side.ctx, side.blocks
        em, en = c.M.basis(), c.N.basis()
        return first_failure(
            ("n_index", "m_index"),
            lambda q, p: c.am(dec.apply("N", "A", en[q]), em[p])
            == c.mb(em[p], dec.apply("N", "B", en[q])),
            range(len(en)), range(len(em)),
        )

    def diag_central(side):
        dec = side.blocks
        em = side.ctx.M.basis()
        return first_failure(
            ("m_index",),
            lambda p: side.central(
                dec.apply("M", "A", em[p]), dec.apply("M", "B", em[p])
            ),
            range(len(em)),
        )

    _add_mirrored(rep, dec.sides(), (
        (("m_to_a_quadratic_balance", "n_to_a_quadratic_balance"), quadratic),
        (("n_to_a_m_compat", "m_to_b_n_compat"), compat),
        (("m_to_diag_central", "n_to_diag_central"), diag_central),
    ))

    # the unit reductions agree under transposition only modulo the balance
    # identity, so each is checked as written
    d1_1 = dec.at_unit("A", "A")
    m1_1 = dec.at_unit("A", "B")
    eA, eB, em, en = ctx.A.basis(), ctx.B.basis(), ctx.M.basis(), ctx.N.basis()
    AA = [dec.apply("A", "A", a) for a in eA]
    AB = [dec.apply("A", "B", a) for a in eA]
    BA = [dec.apply("B", "A", b) for b in eB]
    BB = [dec.apply("B", "B", b) for b in eB]

    def minus(x, y):
        return tuple(rg.sub(u, v) for u, v in zip(x, y))

    # d1(1)*m - m*m1(1) and n*d1(1) - m1(1)*n
    m_inner = [minus(ctx.am(d1_1, m), ctx.mb(m, m1_1)) for m in em]
    n_inner = [minus(ctx.na(n, d1_1), ctx.bn(m1_1, n)) for n in en]
    rep.add("diag_a_unit_reduction_m", *first_failure(
        ("a_index", "m_index"),
        lambda i, p: minus(ctx.am(AA[i], em[p]), ctx.mb(em[p], AB[i]))
        == ctx.am(eA[i], m_inner[p]),
        range(dA), range(dM),
    ))
    rep.add("diag_a_unit_reduction_n", *first_failure(
        ("a_index", "n_index"),
        lambda i, q: ctx.na(n_inner[q], eA[i])
        == minus(ctx.na(en[q], AA[i]), ctx.bn(AB[i], en[q])),
        range(dA), range(dN),
    ))
    rep.add("diag_b_unit_reduction_m", *first_failure(
        ("b_index", "m_index"),
        lambda j, p: minus(ctx.am(BA[j], em[p]), ctx.mb(em[p], BB[j]))
        == ctx.mb(minus(ctx.mb(em[p], m1_1), ctx.am(d1_1, em[p])), eB[j]),
        range(dB), range(dM),
    ))
    rep.add("diag_b_unit_reduction_n", *first_failure(
        ("b_index", "n_index"),
        lambda j, q: minus(ctx.bn(BB[j], en[q]), ctx.na(en[q], BA[j]))
        == ctx.bn(eB[j], n_inner[q]),
        range(dB), range(dN),
    ))
    return rep


def has_scalar_engel_centers(G, k):
    """Whether both order-k centers collapse to the scalar multiples of the
    unit -- the easy sufficient condition for properness of every
    k-commuting map."""
    ZA = G.ctx.A.engel_center(k)
    ZB = G.ctx.B.engel_center(k)
    return ZA.equals(scalar_multiples_of(G.ctx.A)) and ZB.equals(
        scalar_multiples_of(G.ctx.B)
    )
