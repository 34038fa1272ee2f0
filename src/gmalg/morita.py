"""Morita contexts and the order-2 generalized matrix algebra they generate.

A context is given by raw action/pairing tensors over basis elements.  Its
axioms are checked at load time rather than trusted, since every theorem
downstream assumes them, and they are checked as what they are: the unit
and associativity laws of the block algebra [A M; N B], assembled
unchecked, one scan over its structure constants (``AXIOMS`` names each
failure).  The global basis order of the built algebra is fixed as blocks
A, M, N, B.
"""

import itertools
from collections import namedtuple

from . import linalg
from .algebra import (Algebra, Submodule, _bilinear, _check_tensor, _coerced, _dense_view,
                      _Normal, _nonzero_terms)
from .errors import (
    DimensionMismatch,
    InvalidContext,
    NotFaithful,
    TheoremViolation,
)

Violation = namedtuple("Violation", ["axiom", "witness"])

BLOCKS = ("A", "M", "N", "B")


def _check_bimodule(dim, left, right, left_dim, right_dim):
    """The shapes of the action tensors of a ``Bimodule``."""
    _check_tensor(left, (left_dim, dim, dim), "left action tensor has wrong shape",
                  "left action value has wrong length")
    _check_tensor(right, (dim, right_dim, dim), "right action tensor has wrong shape",
                  "right action value has wrong length")


def _check_context(A, B, M, N, phi, psi):
    """The shapes of a ``MoritaContext``'s parts: one ring, module actions
    of the algebras' dimensions, pairings into A and into B (as tables of
    vectors, or of JSON lists)."""
    if A.ring != B.ring:
        raise DimensionMismatch("A and B must share a coefficient ring")
    # ``GMAlgebra`` places the action cells by these shapes unchecked
    for name, mod, left, right in (("M", M, A, B), ("N", N, B, A)):
        if len(mod._left) != left.dim or any(len(row) != right.dim for row in mod._right):
            raise DimensionMismatch(
                f"{name} actions do not match the dimensions of the algebras")
    _check_tensor(phi, (M.dim, N.dim, A.dim), "phi tensor has wrong shape",
                  "phi values must live in A")
    _check_tensor(psi, (N.dim, M.dim, B.dim), "psi tensor has wrong shape",
                  "psi values must live in B")


class Bimodule(_Normal):
    """A finite free module with a left action of one algebra and a right
    action of another, both given as basis tensors: ``left[i][p]`` is
    a_i * m_p and ``right[p][j]`` is m_p * b_j.  Stored as their nonzero
    terms, ``_left`` and ``_right``; ``left`` and ``right`` are views."""

    left = _dense_view("_left", "dim")
    right = _dense_view("_right", "dim")

    def __init__(self, ring, dim, left, right, left_dim, right_dim):
        """Every scalar is coerced and every shape checked."""
        left, right = _coerced(ring, left), _coerced(ring, right)
        _check_bimodule(dim, left, right, left_dim, right_dim)
        self._set(ring, dim, _nonzero_terms(left), _nonzero_terms(right))

    def _set(self, ring, dim, left, right):
        """``left``, ``right``: the actions' nonzero terms."""
        self.ring, self.dim = ring, dim
        self._left, self._right = left, right

    def act_left(self, a, m):
        return _bilinear(self.ring, a, m, self._left, self.dim)

    def act_right(self, m, b):
        # tensor is indexed module-basis first
        return _bilinear(self.ring, m, b, self._right, self.dim)

    def basis_vector(self, p):
        return tuple(
            self.ring.one if r == p else self.ring.zero for r in range(self.dim)
        )

    def basis(self):
        return [self.basis_vector(p) for p in range(self.dim)]


class MoritaContext(_Normal):
    """(A, B, M, N, pairing M x N -> A, pairing N x M -> B).  The pairings
    are stored as their nonzero terms, ``_phi`` and ``_psi``; ``phi`` and
    ``psi`` are views."""

    phi = _dense_view("_phi", "A.dim")
    psi = _dense_view("_psi", "B.dim")

    def __init__(self, A, B, M, N, phi, psi):
        """Every scalar of the pairings is coerced and every shape checked;
        the algebras and modules are built already."""
        phi, psi = _coerced(A.ring, phi), _coerced(A.ring, psi)
        _check_context(A, B, M, N, phi, psi)
        self._set(A, B, M, N, _nonzero_terms(phi), _nonzero_terms(psi))

    def _set(self, A, B, M, N, phi, psi):
        """``phi``, ``psi``: the pairings' nonzero terms."""
        self.ring, self.A, self.B, self.M, self.N = A.ring, A, B, M, N
        self._phi, self._psi = phi, psi

    # element-level operations
    def pair_mn(self, m, n):
        return _bilinear(self.ring, m, n, self._phi, self.A.dim)

    def pair_nm(self, n, m):
        return _bilinear(self.ring, n, m, self._psi, self.B.dim)

    def am(self, a, m):
        return self.M.act_left(a, m)

    def mb(self, m, b):
        return self.M.act_right(m, b)

    def bn(self, b, n):
        return self.N.act_left(b, n)

    def na(self, n, a):
        return self.N.act_right(n, a)


def transpose(ctx):
    """The context of [B N; M A].

    (a, m, n, b) -> (b, n, m, a) is an algebra isomorphism from [A M; N B]
    onto it, so every N-side identity of ctx is the M-side identity of its
    transpose."""
    return MoritaContext._from_normal(ctx.B, ctx.A, ctx.N, ctx.M, ctx._psi, ctx._phi)


# Each context axiom is the associativity law of [A M; N B] on one triple
# xyz of block types with xy and yz both block products; on every other
# triple both sides are 0 by the block shape.  With the axiom goes a sort
# key over the triple's local indices, which lists violations as the axioms
# are stated: A's laws (0), B's (1), "modules_both_zero" (2), the module
# units (3), A x A and B x B acting on M and N (4), the mixed laws (5), the
# pairings at each (m, n) (6) and the two diagrams (7); ties keep the
# scan's lexicographic order.
AXIOMS = {
    "AAA": ("algebra_A_associativity", lambda i, j, k: (0,)),
    "BBB": ("algebra_B_associativity", lambda i, j, k: (1,)),
    "AAM": ("m_left_associativity", lambda i, j, p: (4, 0, i, j, 0)),
    "NAA": ("n_right_associativity", lambda q, i, j: (4, 0, i, j, 1)),
    "MBB": ("m_right_associativity", lambda p, i, j: (4, 1, i, j, 0)),
    "BBN": ("n_left_associativity", lambda i, j, q: (4, 1, i, j, 1)),
    "AMB": ("m_mixed_associativity", lambda i, p, j: (5, 0)),
    "BNA": ("n_mixed_associativity", lambda i, q, j: (5, 1)),
    "AMN": ("pairing_mn_left_linear", lambda i, p, q: (6, 0, p, q, 0, i, 0)),
    "MNA": ("pairing_mn_right_linear", lambda p, q, i: (6, 0, p, q, 0, i, 1)),
    "MBN": ("pairing_mn_balanced", lambda p, j, q: (6, 0, p, q, 1, j)),
    "BNM": ("pairing_nm_left_linear", lambda i, q, p: (6, 1, q, p, 0, i, 0)),
    "NMB": ("pairing_nm_right_linear", lambda q, p, i: (6, 1, q, p, 0, i, 1)),
    "NAM": ("pairing_nm_balanced", lambda q, j, p: (6, 1, q, p, 1, j)),
    "MNM": ("diagram_mnm", lambda p, q, r: (7, 0)),
    "NMN": ("diagram_nmn", lambda q, p, s: (7, 1)),
}
# the unit laws at a basis element of each block: axiom prefix, sort key
_UNITS = {"A": ("algebra_A", (0,)), "B": ("algebra_B", (1,)),
          "M": ("m", (3,)), "N": ("n", (3,))}


def validate_context(ctx):
    """Every violated axiom with a witnessing basis tuple of local indices;
    empty iff valid.  The axioms are the unit and associativity laws of the
    unchecked block algebra, plus M and N not both 0."""
    return _violations(GMAlgebra(ctx))


def _violations(G):
    out = []
    for kind, w in G.algebra.structure_violations():
        if kind == "associativity":
            blocks, local = zip(*map(G.block_of_index, w))
            axiom, key = AXIOMS["".join(blocks)]
            out.append((key(*local), Violation(axiom, local)))
        else:
            block, p = G.block_of_index(w)
            prefix, key = _UNITS[block]
            out.append((key, Violation(f"{prefix}_{kind}", p)))
    if G.dims[1] == G.dims[2] == 0:
        out.append(((2,), Violation("modules_both_zero", None)))
    out.sort(key=lambda kv: kv[0])
    return [v for _, v in out]


def check_faithful(ctx):
    """Faithfulness of M as a left A-module and as a right B-module: that
    a -> (a m_p)_p, and b -> (m_p b)_p, is injective, i.e. that the rows
    over the coordinates of a (or b), one per coordinate c of each image
    of m_p, have no kernel.  The rows are read off the action terms."""
    M = ctx.M

    def faithful(cells, dim):
        rows = {}   # p -> c -> {i: the c-th coordinate of e_i acting on m_p}
        for i, p, cell in cells:
            for c, v in cell:
                rows.setdefault(p, {}).setdefault(c, {})[i] = v
        blocks = (list(by_c.values()) for by_c in rows.values())    # one m_p at a time
        return not linalg.certified_kernel(ctx.ring, blocks, dim)

    return {
        "left_faithful": faithful(((i, p, cell) for i, row in enumerate(M._left)
                                   for p, cell in enumerate(row)), ctx.A.dim),
        "right_faithful": faithful(((j, p, cell) for p, row in enumerate(M._right)
                                    for j, cell in enumerate(row)), ctx.B.dim),
    }


# the eight block products xy = z of [A M; N B]; every other product of
# two blocks is 0
PRODUCTS = ("AAA", "AMM", "MBM", "MNA", "NMB", "NAN", "BNN", "BBB")


def _corner_context(alg, corner_of, labels=None):
    """The context read off an algebra split into corners: basis element i
    lies in block ``corner_of[i]``, and the eight tensors are the terms of
    ``alg`` restricted to the ``PRODUCTS``, each block in ``alg``'s basis
    order.  The inverse of ``GMAlgebra.__init__``.  The split must be a Peirce
    split at an idempotent e (A = eGe, M = eG(1-e), ...), so that the
    products of blocks land where ``PRODUCTS`` says; nothing is checked
    here (``build_gma`` checks the context).  ``labels`` (default
    ``alg.labels``) names the basis elements of the A and B corners."""
    labels = alg.labels if labels is None else labels
    at = {b: [i for i, c in enumerate(corner_of) if c == b] for b in BLOCKS}
    T = alg._terms

    def restricted(x, y, z):
        # the cells x*y, their terms re-indexed within block z
        local = {i: t for t, i in enumerate(at[z])}
        return tuple(tuple(tuple((local[r], c) for r, c in T[i][j] if r in local)
                           for j in at[y]) for i in at[x])

    t = {xyz: restricted(*xyz) for xyz in PRODUCTS}

    def corner(b):
        return Algebra._from_normal(alg.ring, [labels[i] for i in at[b]], t[3 * b],
                                    [alg.unit[i] for i in at[b]])

    # the cells are restrictions of alg's, so already in normal form
    A, B = corner("A"), corner("B")
    M = Bimodule._from_normal(alg.ring, len(at["M"]), t["AMM"], t["MBM"])
    N = Bimodule._from_normal(alg.ring, len(at["N"]), t["BNN"], t["NAN"])
    return MoritaContext._from_normal(A, B, M, N, t["MNA"], t["NMB"])


class GMAlgebra:
    """The order-2 matrix-like algebra [A M; N B] with block bookkeeping,
    assembled from the context unchecked (``build_gma`` checks it).

    ``algebra`` is G, built from the nonzero terms of the eight block
    products alone, each shifted to its block offsets; its dense ``table``
    is a view that no verdict reads."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.ring = rg = ctx.ring
        self.dims = dA, dM, dN, dB = (ctx.A.dim, ctx.M.dim, ctx.N.dim, ctx.B.dim)
        self.dim = dA + dM + dN + dB
        self.offsets = {"A": 0, "M": dA, "N": dA + dM, "B": dA + dM + dN}
        self._gma_center = self._zkernel = self._transposed = None
        self._faithful = None
        self._partners = {}
        blocks = (ctx.A._terms, ctx.M._left, ctx.M._right, ctx._phi, ctx._psi,
                  ctx.N._right, ctx.N._left, ctx.B._terms)
        terms = [[()] * self.dim for _ in range(self.dim)]
        for (x, y, z), cells in zip(PRODUCTS, blocks):
            # the block cells are in normal form, so each is placed at the
            # block offsets as it is, its coordinates shifted into block z
            oz, ox, oy = self.offsets[z], self.offsets[x], self.offsets[y]
            for i, row in enumerate(cells):
                out = terms[ox + i]
                for j, t in enumerate(row):
                    if t:
                        out[oy + j] = tuple((s + oz, c) for s, c in t) if oz else t
        labels = (
            [f"A:{s}" for s in ctx.A.labels]
            + [f"M:{p}" for p in range(dM)]
            + [f"N:{q}" for q in range(dN)]
            + [f"B:{s}" for s in ctx.B.labels]
        )
        unit = ctx.A.unit + (rg.zero,) * (dM + dN) + ctx.B.unit
        self.algebra = Algebra._from_normal(rg, labels, tuple(map(tuple, terms)), unit)

    @property
    def A(self):
        return self.ctx.A

    @property
    def B(self):
        return self.ctx.B

    def block_range(self, name):
        off = self.offsets[name]
        size = self.dims[BLOCKS.index(name)]
        return range(off, off + size)

    def block_of_index(self, i):
        """(block name, local index) of a global basis index."""
        for b, name in enumerate(BLOCKS):
            off = self.offsets[name]
            if off <= i < off + self.dims[b]:
                return name, i - off
        raise DimensionMismatch(f"index {i} out of range")

    def embed(self, name, v):
        out = [self.ring.zero] * self.dim
        off = self.offsets[name]
        out[off:off + len(v)] = v
        return tuple(out)

    def extract(self, name, v):
        return tuple(v[i] for i in self.block_range(name))

    def embed_diag(self, a, b):
        return self.algebra.add(self.embed("A", a), self.embed("B", b))

    def transposed_ctx(self):
        """``transpose(self.ctx)``, the context the N-side checks read;
        built once."""
        if self._transposed is None:
            self._transposed = transpose(self.ctx)
        return self._transposed

    def faithful(self):
        """``check_faithful(self.ctx)``, computed once."""
        if self._faithful is None:
            self._faithful = check_faithful(self.ctx)
        return dict(self._faithful)

    def require_faithful(self):
        f = self.faithful()
        if not (f["left_faithful"] and f["right_faithful"]):
            raise NotFaithful(
                "M must be faithful as a left A-module and a right B-module"
            )

    # -- center machinery ---------------------------------------------------

    def center_blocks(self, ms, ns):
        """Blocks of rows over the unknowns (a | b), as dicts column ->
        scalar: those of a in Z(A), b in Z(B) (``_diagonal_center_rows``),
        then a*m = m*b for each m in ``ms``, then n*a = b*n for each n in
        ``ns``, one block each, built when pulled.

        With the module bases (``center_kernel``, by linearity all of M and
        N) their kernel is the center of G read on its diagonal; with one
        pair (m0, n0) it is the pinned set of the hypothesis check."""
        ctx, rg = self.ctx, self.ring
        dA, dM, dN, _ = self.dims
        eA, eB = ctx.A.basis(), ctx.B.basis()
        yield self._diagonal_center_rows()
        # a*m - m*b for each m, then n*a - b*n for each n
        for acols, bcols, dim in itertools.chain(
                (([ctx.am(a, m) for a in eA], [ctx.mb(m, b) for b in eB], dM) for m in ms),
                (([ctx.na(n, a) for a in eA], [ctx.bn(b, n) for b in eB], dN) for n in ns)):
            rows = ({i: v[c] for i, v in enumerate(acols) if v[c]}
                    | {dA + j: rg.normal(-v[c]) for j, v in enumerate(bcols) if v[c]}
                    for c in range(dim))
            yield [row for row in rows if row]

    def _diagonal_center_rows(self):
        """The rows of a in Z(A) and b in Z(B): the annihilators of the two
        cached centers (``Submodule.annihilator``), re-indexed to (a | b).
        Each center is its own double annihilator, so their kernel is
        Z(A) x Z(B)."""
        return [{off + p: v for p, v in enumerate(w) if v}
                for off, alg in ((0, self.A), (self.dims[0], self.B))
                for w in alg.center().annihilator()]

    def center_kernel(self):
        """Z(G) read on its diagonal, over the unknowns (a | b): the kernel
        of ``center_blocks`` at the module bases, read until it is the span
        of the central (1_A | 1_B) (``linalg.certified_kernel``); cached."""
        if self._zkernel is None:
            n, rg = self.dims[0] + self.dims[3], self.ring
            one = Submodule._from_normal(rg, n, [self.A.unit + self.B.unit])
            blocks = self.center_blocks(self.ctx.M.basis(), self.ctx.N.basis())
            gens = linalg.certified_kernel(rg, blocks, n, one.gens)
            self._zkernel = one if gens == one.gens else Submodule._from_normal(rg, n, gens)
        return self._zkernel

    def gma_center(self):
        """{diag(a, b) : a in Z(A), b in Z(B), a*m = m*b and n*a = b*n for
        all m, n}: the center of the underlying algebra."""
        if self._gma_center is None:
            dA = self.dims[0]
            self._gma_center = Submodule._from_normal(self.ring, self.dim, [
                self.embed_diag(g[:dA], g[dA:]) for g in self.center_kernel().gens])
        return self._gma_center

    def center_projections(self):
        """(image of the center in A, image of the center in B)."""
        z, dA = self.center_kernel(), self.dims[0]
        return z.project(range(dA)), z.project(range(dA, z.ambient_dim))

    def partner(self, block):
        """The center partner on the projection of Z(G) to ``block``: phi
        from A, phi^-1 from B.  It is a linear map L, fitted to the
        generators (a | b) of ``center_kernel`` and returned as the product
        terms (``_bilinear``) of x, s -> s*L(x) for a scalar s, with its
        output dimension; cached.

        L exists iff the partner is unique: over Q, and over Z/n, which is
        self-injective, a linear map on a submodule extends to the whole
        block.  A partner that is not unique is a nonzero central diag(0, b)
        or diag(a, 0), which annihilates M; that raises ``NotFaithful``."""
        if block not in self._partners:
            dA, dB = self.dims[0], self.dims[3]
            a, b = (slice(None, dA), dA), (slice(dA, None), dB)
            (src, n), (dst, m) = (a, b) if block == "A" else (b, a)
            gens = self.center_kernel().gens
            rows = [dict(enumerate(g[src])) for g in gens]
            # row i of L: L_i . x = y_i at each generator (x | y)
            L = [linalg.solve_linear(self.ring, rows, [g[dst][i] for g in gens], n)
                 for i in range(m)]
            if None in L:
                raise NotFaithful("center partner is not unique; M is not faithful")
            self._partners[block] = tuple(
                (tuple((i, x) for i, sol in enumerate(L) if (x := sol.particular[c])),)
                for c in range(n)), m
        return self._partners[block]

    def phi_apply(self, a):
        """The unique b with diag(a, b) central; needs a in the A-image."""
        return self._apply_partner("A", a)

    def phi_inv_apply(self, b):
        return self._apply_partner("B", b)

    def _apply_partner(self, block, x):
        if not self.center_projections()[block == "B"].contains(x):
            raise TheoremViolation("no center partner for the given element", x)
        return _bilinear(self.ring, x, (self.ring.one,), *self.partner(block))


CenterIso = namedtuple("CenterIso", ["domain", "codomain", "mapping"])


def center_iso_phi(G):
    """The multiplicative bijection a -> b between the two diagonal images
    of the center, verified on generators: phi and phi^-1 are the linear
    maps of ``GMAlgebra.partner``, so generators decide each law."""
    G.require_faithful()
    dom, cod = G.center_projections()
    mapping = [(a, G.phi_apply(a)) for a in dom.gens]
    for a, b in mapping:
        if G.phi_inv_apply(b) != a:
            raise TheoremViolation("center map is not injective", a)
    for a1, b1 in mapping:
        for a2, b2 in mapping:
            if G.phi_apply(G.A.mul(a1, a2)) != G.B.mul(b1, b2):
                raise TheoremViolation("center map is not multiplicative", (a1, a2))
    if not Submodule._from_normal(G.ring, G.dims[3], [b for _, b in mapping]).equals(cod):
        raise TheoremViolation("center map image mismatch")
    return CenterIso(dom, cod, mapping)


def build_gma(ctx):
    """Assemble the generalized matrix algebra; the context must validate."""
    G = GMAlgebra(ctx)
    bad = _violations(G)
    if bad:
        raise InvalidContext(f"context axioms violated: {bad[:5]}")
    return G
