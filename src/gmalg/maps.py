"""Linear self-maps of a generalized matrix algebra.

Covers: the k-commuting test, the linear solution space of all k-commuting
maps, the structure-condition report for k-commuting maps, the
sufficient-hypothesis check and the proper-form construction, plus a
hypothesis-free properness decision.

Each line of the structure and step reports, and each guard of the proper
form, is written once, in ``gmalg.compiled``, against a side of G.  Here a
side is read as values for one map (``_Values``), and the lines are checked
point by point: they are the only source of witnesses.  A sweep reads the
same lines as rows, compiled once per (G, k).
"""

import itertools
from collections import namedtuple

from . import compiled, linalg
from .algebra import (
    Submodule,
    _Normal,
    _as_rows,
    _bilinear,
    evaluator,
    iter_vectors,
    lattice_check,
    lattice_points,
    stream_rows,
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
from .report import Report, failures


def _check_square(rows):
    """Raise ``DimensionMismatch`` unless ``rows`` is a square matrix."""
    if any(len(r) != len(rows) for r in rows):
        raise DimensionMismatch("map matrix must be square")


class LinMap(_Normal):
    """A square matrix acting on coordinate columns; column j is the image
    of basis vector e_j."""

    def __init__(self, ring, rows):
        """Every scalar is coerced and the shape checked."""
        rows = tuple(tuple(map(ring.coerce, r)) for r in rows)
        _check_square(rows)
        self._set(ring, rows)

    def _set(self, ring, rows):
        """``rows``: a tuple of row tuples."""
        self.ring = ring
        self.dim = len(rows)
        self.rows = rows
        self._cols = [
            [(r, row[j]) for r, row in enumerate(rows) if row[j]]
            for j in range(self.dim)
        ]
        self._integral = None

    @classmethod
    def identity(cls, ring, dim):
        return cls._from_normal(
            ring, tuple(tuple(ring.one if i == j else ring.zero for j in range(dim))
                        for i in range(dim)))

    @classmethod
    def zero(cls, ring, dim):
        return cls._from_normal(ring, ((ring.zero,) * dim,) * dim)

    @classmethod
    def from_columns(cls, ring, cols):
        _check_square(cols)
        dim = len(cols)
        return cls(
            ring, [[cols[j][i] for j in range(dim)] for i in range(dim)]
        )

    @classmethod
    def from_flat(cls, ring, dim, flat):
        if len(flat) != dim * dim:
            raise DimensionMismatch(f"expected {dim * dim} entries, got {len(flat)}")
        return cls(
            ring,
            [flat[i * dim : (i + 1) * dim] for i in range(dim)],
        )

    def integral(self):
        """(D, D*theta) for the least D >= 1 that makes every entry an int
        (``rings``' ``integral``): the lcm of the denominators over Q, 1 over
        Z/n and for integral maps, where D*theta is this map itself.
        Computed once."""
        if self._integral is None:
            D, rows = self.ring.integral(self.rows)
            self._integral = (1, self) if D == 1 else (D, LinMap._from_normal(self.ring, rows))
        return self._integral

    def flatten(self):
        return tuple(c for row in self.rows for c in row)

    def apply(self, v):
        if len(v) != self.dim:
            raise DimensionMismatch("vector length does not match map")
        normal = self.ring.normal
        out = [self.ring.zero] * self.dim
        for j, x in enumerate(v):
            if x:
                for r, c in self._cols[j]:
                    out[r] = normal(out[r] + c * x)
        return tuple(out)

    def column(self, j):
        return tuple(row[j] for row in self.rows)

    def sub(self, other):
        normal = self.ring.normal
        return LinMap._from_normal(self.ring, tuple(tuple(normal(a - b) for a, b in zip(r1, r2))
                                                     for r1, r2 in zip(self.rows, other.rows)))

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


def require_order(k):
    """Raise ``DimensionMismatch`` unless the commuting order k is >= 1."""
    if k < 1:
        raise DimensionMismatch("commuting order must be >= 1")


def is_k_commuting(G, theta, k):
    """(True, None) if [theta(x), x]_k = 0 for every x, else (False, x).

    f(x) = [theta(x), x]_k is homogeneous of degree k+1, and its
    coefficients C_gamma come from ``Algebra.map_groups``, grouped by the
    least index t of gamma from the highest t down.  f vanishes everywhere
    iff every group's rows vanish (``algebra.vanishing_rows``: over Q and
    over Z/p with p >= k+1 iff the group is empty, zeros being dropped).
    The groups are read until the first one that does not vanish; none is
    computed after it.

    Its t is the lead.  Each group is a homogeneous polynomial of its own,
    and its rows are those of its coefficients alone, so each group read
    before it vanishes as a function, and each group below it is zero
    where x_0..x_{t-1} = 0.  There f is group t's polynomial, which does
    not vanish, and where x_0..x_t = 0 f is zero (``lattice_check``'s
    lead).  On failure x is the lexicographically first failing element:
    of the whole algebra over a finite ring, of {0..k+1}^dim over Q (see
    ``algebra.lattice_check``), searched from the lead on, where f is
    evaluated from group t.

    f is linear in theta, so over Q the map D*theta of ``LinMap.integral``
    has the coefficients D*C_gamma, the same zero set and so the same
    verdict and witness; they are computed from it, in int arithmetic."""
    alg = _underlying(G)
    require_order(k)
    if theta.dim != alg.dim:
        raise DimensionMismatch("map dimension does not match the algebra")
    rg, d = alg.ring, alg.dim
    for t, group in alg.map_groups(theta.integral()[1]._cols, k):
        if group:
            group = {gamma: _as_rows(cols) for gamma, cols in group.items()}
            if next(vanishing_rows(rg, group, k + 1, d), None) is not None:
                return lattice_check(rg, d, k + 1, evaluator(rg, group, k + 1), lead=t)
    return True, None


class MapSpace:
    """A submodule of LinMaps given by flattened-matrix generators."""

    def __init__(self, algebra, space):
        self.algebra = algebra
        self.space = space

    @property
    def ring(self):
        return self.algebra.ring

    def basis(self):
        """The generators as maps; the Howell rows are in normal form."""
        d = self.algebra.dim
        return [LinMap._from_normal(self.ring, tuple(g[i * d:(i + 1) * d] for i in range(d)))
                for g in self.space.gens]

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
            # a residue in [0, n), or an int over Q: in normal form
            c = rng.randrange(rg.size) if rg.enumerable else rng.randint(-9, 9)
            if c:
                for t, v in enumerate(g):
                    if v:
                        total[t] += c * v
        flat = [rg.normal(v) for v in total]
        return LinMap._from_normal(rg, tuple(tuple(flat[i * d:(i + 1) * d])
                                             for i in range(d)))

    def __repr__(self):
        return f"MapSpace(dim={self.algebra.dim}, ngens={len(self.space.gens)})"


def commuting_space(G, k):
    """All maps theta with [theta(x), x]_k = 0 for every x, as the solution
    of the linear system in theta's matrix entries: the coefficients of
    [theta(x), x]_k over Q and over Z/p with p >= k+1, those coefficients
    folded by x_i^p = x_i over Z/p with p < k+1, and their Newton
    differences over composite Z/n (see ``algebra.vanishing_rows``), read
    group by group from ``Algebra.commuting_groups``."""
    alg = _underlying(G)
    d = alg.dim
    require_order(k)
    blocks = stream_rows(alg.ring, alg.commuting_groups(k), k + 1, d)
    gens = linalg.certified_kernel(alg.ring, blocks, d * d)
    return MapSpace(alg, Submodule._from_normal(alg.ring, d * d, gens))


def _divided(ring, D, x):
    """x / D, in x's sequence type: the value that theta gives where D*theta
    (``LinMap.integral``) gives x."""
    if D == 1:
        return x
    inv = ring.inv_opt(D)
    return type(x)(ring.normal(inv * v) for v in x)


class _Values(compiled._Side):
    """A side of G read as values for one map theta (see ``compiled``): an
    element is a coordinate sequence in normal form, so that integral data
    keep int arithmetic over Q.  Each reading evaluates its line point by
    point, to (passed, witness); the witness is the first failing point,
    its keys named for G.

    Every line is linear in theta and asks whether elements vanish or lie
    in a submodule, so over Q, for D > 0, it fails on theta exactly where
    it fails on D*theta.  The side reads D*theta (``LinMap.integral``),
    whose images are integral on integral points, and divides by D once
    the values that leave as witnesses: ``member``'s element and
    ``within``'s image.  Over Z/n, D = 1."""

    def __init__(self, G, ctx, names, keys, scaled, D, components):
        super().__init__(G, ctx, names, keys)
        self.scaled, self.D = scaled, D
        self.ring = G.ring
        self._components = {(s, d): (len(self.ranges[d]), components[names[s], names[d]])
                            for s in BLOCKS for d in BLOCKS}
        self._components["G", "G"] = G.dim, scaled._cols

    @classmethod
    def pair(cls, G, theta):
        """The two sides of theta, which share the components of D*theta:
        for each pair of G's blocks, the nonzero (row, entry) pairs of each
        column, the rows counted within the target block."""
        if theta.dim != G.dim:
            raise DimensionMismatch("map dimension does not match the algebra")
        D, scaled = theta.integral()
        block_of = [(name, i) for name, size in zip(BLOCKS, G.dims) for i in range(size)]
        components = {(s, d): [[] for _ in G.block_range(s)] for s in BLOCKS for d in BLOCKS}
        for (src, c), col in zip(block_of, scaled._cols):
            for r, x in col:
                dst, i = block_of[r]
                components[src, dst][c].append((i, x))
        return super().pair(G, scaled, D, components)

    def block(self, src, dst):
        """The src -> dst component of D*theta as a matrix."""
        cols = self.G.block_range(self.names[src])
        return tuple(self.scaled.rows[r][cols.start:cols.stop]
                     for r in self.G.block_range(self.names[dst]))

    def image(self, src, dst, v):
        """Over the nonzero coordinates of ``v`` and the nonzero entries of
        their columns only.  The points of a line are basis elements, units
        and lattice points, whose coordinates are mostly 0 and 1, so a
        factor 1 and a zero partial sum are skipped: testing that is much
        cheaper than Fraction arithmetic."""
        size, cols = self._components[src, dst]
        normal = self.ring.normal
        out = [self.ring.zero] * size
        for x, col in zip(v, cols):
            if x:
                for r, c in col:
                    if x != 1:
                        c = normal(c * x)
                    out[r] = normal(out[r] + c) if out[r] else c
        return tuple(out)

    def act(self, product, x, y):
        return _bilinear(self.ring, x, y, *self._products[product])

    def diag(self, a, b):
        G = self.G
        out = [self.ring.zero] * G.dim
        for name, x in (("A", a), ("B", b)):
            off = G.offsets[self.names[name]]
            out[off:off + len(x)] = x
        return tuple(out)

    def combine(self, *terms):
        (c, x), *rest = terms
        out = list(x) if c == 1 else [c * v for v in x]
        for c, x in rest:
            for i, v in enumerate(x):
                if v:
                    out[i] += v if c == 1 else -v if c == -1 else c * v
        return list(map(self.ring.normal, out))

    def zero(self, keys, at, *ranges):
        return self._first(keys, lambda *i: not any(at(*i)), ranges)[:2]

    def within(self, S, keys, at, *ranges, image=False):
        ok, wit, bad = self._first(keys, lambda *i: S.contains(at(*i)), ranges)
        if image and not ok:
            wit["image"] = _divided(self.ring, self.D, at(*bad))
        return ok, wit

    def member(self, S, x):
        return S.contains(x), _divided(self.ring, self.D, x)

    def lattice(self, defect):
        ok, m = lattice_check(self.ring, self.ctx.M.dim, 2, lambda m: not any(defect(m)))
        return ok, None if ok else {"module_element": m}

    def commuting(self, k):
        return is_k_commuting(self.ctx.A, LinMap._from_normal(self.ring, self.block("A", "A")), k)

    def _first(self, keys, holds, ranges):
        """(passed, witness, the first failing index)."""
        bad = next(failures(holds, *ranges), None)
        if bad is None:
            return True, None, None
        return False, keys and {self.keys.get(k, k): i for k, i in zip(keys, bad)}, bad


def _require_k_commuting(G, theta, k, verdict):
    """Raise NotKCommuting unless theta is k-commuting.  ``verdict`` is the
    result of ``is_k_commuting(G, theta, k)`` when the caller has it, so
    that one classification decides the identity once."""
    ok, bad = verdict if verdict is not None else is_k_commuting(G, theta, k)
    if not ok:
        raise NotKCommuting(f"map is not {k}-commuting (witness {bad})")


def report_values(G, theta, mode, k):
    """The lines of ``compiled.REPORTS[mode]`` checked line by line on
    ``theta``, as a ``Report``.  No precondition is checked: a map that is
    not k-commuting, or outside the hypotheses, gets the lines it fails.  A
    passing line has no witness: ``member`` reads its element whether it
    passes or not (the proper form reads its shift C so), and it is
    dropped here."""
    title, build = compiled.REPORTS[mode]
    rep = Report(title.format(k=k), ring=G.ring)
    for cid, (ok, wit) in build(_Values.pair(G, theta), k):
        rep.add(cid, ok, None if ok else wit)
    return rep


def verify_structure_conditions(G, theta, k, verdict=None):
    """The structural consequences that every k-commuting map satisfies
    (``compiled.structure_lines``), checked line by line on ``theta``."""
    _require_k_commuting(G, theta, k, verdict)
    return report_values(G, theta, "structure", k)


HypothesisWitness = namedtuple(
    "HypothesisWitness",
    ["cond1", "cond2", "cond3", "m_witness", "n_witness"],
)


def _hyp_all(h):
    return h.cond1 and h.cond2 and h.cond3


# composite Z/n: the most module pairs (m0, n0) the cond3 search may try
PAIR_BUDGET = 10**6


def require_proper_setting(G):
    """Raise ``TwoTorsion`` unless 2x = 0 => x = 0 in the ring, then
    ``NotFaithful`` unless M is faithful: the setting of the proper-form
    pipeline, outside which it refuses a request before any other work."""
    if not G.ring.is_two_torsion_free():
        raise TwoTorsion("the proper-form pipeline needs 2x = 0 => x = 0")
    G.require_faithful()


def check_properness_hypotheses(G, k):
    """The three sufficient conditions for properness of every k-commuting
    map: both order-k centers are exactly the diagonal projections of the
    center (cond1, cond2), and some single pair (m0, n0) already cuts out
    the center (cond3).

    cond3 asks whether the pinned set of some pair, the kernel of
    ``GMAlgebra.center_blocks([m0], [n0])``, is Z(G).  The pinned set always
    contains Z(G), so it is Z(G) iff the two have the same size
    (``linalg.certified_kernel``); at (0, 0) it is Z(A) x Z(B).  Over a field it is
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
    ``_witness_order``, and the first pair that works is the witness.
    Outside the setting of ``require_proper_setting`` it refuses."""
    require_proper_setting(G)
    rg = G.ring
    # Z^(k) first: when it is span(1), so is the center Z(G) is read from
    zA, zB = G.ctx.A.engel_center(k), G.ctx.B.engel_center(k)
    piA, piB = G.center_projections()
    cond1, cond2 = zA.equals(piA), zB.equals(piB)

    dA, dM, dN, dB = G.dims
    zdiag = G.center_kernel()
    if rg.is_field:
        top = G.ctx.A.center().rank + G.ctx.B.center().rank - zdiag.rank
        Ms, Ns = (list(lattice_points(rg, d, top)) for d in (dM, dN))
    elif rg.size ** (dM + dN) > PAIR_BUDGET:
        raise BudgetExceeded("witness-pair search space too large")
    else:
        Ms, Ns = list(iter_vectors(rg, dM)), list(iter_vectors(rg, dN))
    for i, j in _witness_order(len(Ms), len(Ns)):
        pinned = G.center_blocks([Ms[i]], [Ns[j]])
        if linalg.certified_kernel(rg, pinned, dA + dB, zdiag.gens) == zdiag.gens:
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
    the center isomorphism; its two guards (``compiled.proper_lines``)
    raise ``TheoremViolation``."""
    _require_k_commuting(G, theta, k, verdict)
    hyp = hypotheses if hypotheses is not None else check_properness_hypotheses(G, k)
    if not _hyp_all(hyp):
        raise HypothesesNotMet(f"sufficient conditions fail: {hyp}")
    (_, (central, C)), (_, (ok, wit)) = compiled.proper_lines(_Values.pair(G, theta))
    if not central:
        raise TheoremViolation("constructed shift is not central", C)
    if not ok:
        raise TheoremViolation("residual escapes the center despite the hypotheses", wit)
    return ProperFormResult(tuple(C), theta.sub(
        LinMap._from_normal(G.ring, tuple(G.algebra.right_mult_matrix(C)))))


def properness_certificate(G, theta):
    """Any (central multiplier, central-valued remainder) splitting of the
    map, or None when no such splitting exists.

    Membership of the remainder in the center is encoded with auxiliary
    unknowns (one coordinate vector per basis element), which keeps the
    system linear over every supported ring.

    The right-hand side is read off D*theta (``LinMap.integral``): the
    particular solution of the reduced form of [rows | D*rhs] is D times
    that of [rows | rhs], so lambda is divided by D once, and the offset
    is computed from theta itself."""
    alg = _underlying(G)
    rg = alg.ring
    d = alg.dim
    D, scaled = theta.integral()
    zgens = (G.gma_center() if hasattr(G, "gma_center") else alg.center()).gens
    nz = len(zgens)
    if nz == 0:
        if all(theta.column(j) == alg.zero() for j in range(d)):
            return PropernessCertificate(alg.zero(), LinMap.zero(rg, d))
        return None
    # unknowns: t (nz multiplier coords), then u_j (nz per basis element);
    # the equation of coordinate r at e_j is sum_s t_s (e_j z_s)_r +
    # sum_s (u_j)_s (z_s)_r = (D*theta)(e_j)_r, a sparse row over these
    # columns, in column order; a row and right-hand side that are both 0
    # are left out
    nunk = nz * (1 + d)
    zterms = [[(r, c) for r, c in enumerate(g) if c] for g in zgens]
    rows = []
    rhs = []
    for j in range(d):
        eqs = {}            # r -> the row of coordinate r
        ej = alg.basis_vector(j)
        for s, g in enumerate(zgens):
            for r, c in enumerate(alg.mul(ej, g)):
                if c:
                    eqs.setdefault(r, {})[s] = c
        for s, g in enumerate(zterms):
            for r, c in g:
                eqs.setdefault(r, {})[nz * (1 + j) + s] = c
        tj = dict(scaled._cols[j])
        for r in sorted(eqs.keys() | tj.keys()):
            rows.append(eqs.get(r, {}))
            rhs.append(tj.get(r, rg.zero))
    sol = linalg.solve_linear(rg, rows, rhs, nunk)
    if sol is None:
        return None
    t = sol.particular[:nz]
    lam = _divided(rg, D, tuple(rg.normal(sum(c * g[r] for c, g in zip(t, zgens)))
                                for r in range(d)))
    return PropernessCertificate(
        lam, theta.sub(LinMap._from_normal(rg, tuple(alg.right_mult_matrix(lam)))))


def verify_proper_form_steps(G, theta, k, hypotheses=None, verdict=None):
    """The intermediate identities established on the way to the proper
    form (``compiled.step_lines``), checked line by line on ``theta``."""
    _require_k_commuting(G, theta, k, verdict)
    hyp = hypotheses if hypotheses is not None else check_properness_hypotheses(G, k)
    if not _hyp_all(hyp):
        raise HypothesesNotMet(f"sufficient conditions fail: {hyp}")
    return report_values(G, theta, "steps", k)

