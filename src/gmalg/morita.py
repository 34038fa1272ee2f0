"""Morita contexts and the order-2 generalized matrix algebra they generate.

A context is given by raw action/pairing tensors over basis elements; all
axioms are checked at load time rather than trusted, since every theorem
downstream assumes them.  The global basis order of the built algebra is
fixed as blocks A, M, N, B.
"""

import itertools
from collections import namedtuple

from . import linalg
from .algebra import Algebra, Submodule, _bilinear, _nonzero_terms
from .errors import (
    DimensionMismatch,
    InvalidContext,
    NotFaithful,
    TheoremViolation,
)
from .report import failures

Violation = namedtuple("Violation", ["axiom", "witness"])

BLOCKS = ("A", "M", "N", "B")


def _tensor(ring, t, shape, name, values_in=None):
    """``t`` with coerced entries, checked to be a rows x cols array of
    vectors of the given length: ``shape`` = (rows, cols, length)."""
    rows, cols, length = shape
    if len(t) != rows or any(len(row) != cols for row in t):
        raise DimensionMismatch(f"{name} tensor has wrong shape")
    out = tuple(tuple(tuple(ring.coerce(c) for c in v) for v in row) for row in t)
    if any(len(v) != length for row in out for v in row):
        raise DimensionMismatch(
            f"{name} values must live in {values_in}" if values_in
            else f"{name} value has wrong length"
        )
    return out


class Bimodule:
    """A finite free module with a left action of one algebra and a right
    action of another, both given as basis tensors."""

    def __init__(self, ring, dim, left, right, left_dim, right_dim):
        self.ring = ring
        self.dim = dim
        self.left = _tensor(ring, left, (left_dim, dim, dim), "left action")
        self.right = _tensor(ring, right, (dim, right_dim, dim), "right action")
        self._left = _nonzero_terms(self.left)
        self._right = _nonzero_terms(self.right)

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


class MoritaContext:
    """(A, B, M, N, pairing M x N -> A, pairing N x M -> B)."""

    def __init__(self, A, B, M, N, phi, psi):
        if A.ring != B.ring:
            raise DimensionMismatch("A and B must share a coefficient ring")
        self.ring = A.ring
        self.A = A
        self.B = B
        self.M = M
        self.N = N
        self.phi = _tensor(self.ring, phi, (M.dim, N.dim, A.dim), "phi", "A")
        self.psi = _tensor(self.ring, psi, (N.dim, M.dim, B.dim), "psi", "B")
        self._phi = _nonzero_terms(self.phi)
        self._psi = _nonzero_terms(self.psi)

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
    return MoritaContext(ctx.B, ctx.A, ctx.N, ctx.M, ctx.psi, ctx.phi)


def validate_context(ctx):
    """Every violated axiom with a witnessing basis tuple; empty iff valid.

    The N-side axioms are the M-side ones checked on ``transpose(ctx)``,
    named with m and n exchanged."""
    out = []
    A, B, M, N = ctx.A, ctx.B, ctx.M, ctx.N
    for name, alg in (("algebra_A", A), ("algebra_B", B)):
        for kind, wit in alg.structure_violations():
            out.append(Violation(f"{name}_{kind}", wit))
    if M.dim == 0 and N.dim == 0:
        out.append(Violation("modules_both_zero", None))
    sides = [
        (c, s, t, c.A.basis(), c.B.basis(), c.M.basis(), c.N.basis())
        for c, s, t in ((ctx, "m", "n"), (transpose(ctx), "n", "m"))
    ]

    def scan(axiom, holds, *ranges):
        out.extend(Violation(axiom, w) for w in failures(holds, *ranges))

    for c, s, _, _, _, em, _ in sides:
        for p, m in enumerate(em):
            if c.am(c.A.unit, m) != m:
                out.append(Violation(f"{s}_left_unit", p))
            if c.mb(m, c.B.unit) != m:
                out.append(Violation(f"{s}_right_unit", p))

    # A acting on M and N, then B acting on M and N: the B group is the
    # A group of the transpose, listing its N' = M scan first
    for c, s, t, eA, _, em, en in sides:
        for i, j in itertools.product(range(len(eA)), repeat=2):
            prod = c.A.table[i][j]
            left = [
                Violation(f"{s}_left_associativity", (i, j, p))
                for p, m in enumerate(em)
                if c.am(prod, m) != c.am(eA[i], c.am(eA[j], m))
            ]
            right = [
                Violation(f"{t}_right_associativity", (q, i, j))
                for q, n in enumerate(en)
                if c.na(n, prod) != c.na(c.na(n, eA[i]), eA[j])
            ]
            out.extend(left + right if c is ctx else right + left)

    for c, s, _, eA, eB, em, _ in sides:
        scan(
            f"{s}_mixed_associativity",
            lambda i, p, j: c.mb(c.am(eA[i], em[p]), eB[j])
            == c.am(eA[i], c.mb(em[p], eB[j])),
            range(len(eA)), range(len(em)), range(len(eB)),
        )

    for c, s, t, eA, eB, em, en in sides:
        for p, m in enumerate(em):
            for q, n in enumerate(en):
                mn = c.pair_mn(m, n)
                for i, a in enumerate(eA):
                    if c.pair_mn(c.am(a, m), n) != c.A.mul(a, mn):
                        out.append(Violation(f"pairing_{s}{t}_left_linear", (i, p, q)))
                    if c.pair_mn(m, c.na(n, a)) != c.A.mul(mn, a):
                        out.append(Violation(f"pairing_{s}{t}_right_linear", (p, q, i)))
                for j, b in enumerate(eB):
                    if c.pair_mn(c.mb(m, b), n) != c.pair_mn(m, c.bn(b, n)):
                        out.append(Violation(f"pairing_{s}{t}_balanced", (p, j, q)))

    # the two commuting diagrams
    for c, s, t, _, _, em, en in sides:
        scan(
            f"diagram_{s}{t}{s}",
            lambda p, q, r: c.am(c.pair_mn(em[p], en[q]), em[r])
            == c.mb(em[p], c.pair_nm(en[q], em[r])),
            range(len(em)), range(len(en)), range(len(em)),
        )
    return out


def check_faithful(ctx):
    """Faithfulness of M as a left A-module and as a right B-module."""
    dM = ctx.M.dim

    def faithful(entry, dim):
        rows = [[entry(i, p, c) for i in range(dim)]
                for p in range(dM) for c in range(dM)]
        return dim == 0 or not linalg.nullspace(ctx.ring, rows, dim)

    return {
        "left_faithful": faithful(lambda i, p, c: ctx.M.left[i][p][c], ctx.A.dim),
        "right_faithful": faithful(lambda j, p, c: ctx.M.right[p][j][c], ctx.B.dim),
    }


class GMAlgebra:
    """The order-2 matrix-like algebra [A M; N B] with block bookkeeping."""

    def __init__(self, ctx, algebra):
        self.ctx = ctx
        self.algebra = algebra
        self.ring = ctx.ring
        self.dims = (ctx.A.dim, ctx.M.dim, ctx.N.dim, ctx.B.dim)
        dA, dM, dN, dB = self.dims
        self.offsets = {"A": 0, "M": dA, "N": dA + dM, "B": dA + dM + dN}
        self._gma_center = None

    @property
    def dim(self):
        return self.algebra.dim

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
        for r, c in enumerate(v):
            out[off + r] = self.ring.coerce(c)
        return tuple(out)

    def extract(self, name, v):
        return tuple(v[i] for i in self.block_range(name))

    def embed_diag(self, a, b):
        return self.algebra.add(self.embed("A", a), self.embed("B", b))

    def faithful(self):
        return check_faithful(self.ctx)

    def require_faithful(self):
        f = self.faithful()
        if not (f["left_faithful"] and f["right_faithful"]):
            raise NotFaithful(
                "M must be faithful as a left A-module and a right B-module"
            )

    # -- center machinery ---------------------------------------------------

    def _center_pair_rows(self, m0=None, n0=None):
        """Rows over unknowns (a | b) of a*m = m*b, n*a = b*n.

        With m0/n0 given, only those elements are used; otherwise every
        module basis element (equivalently, all of M and N, by linearity).
        """
        ctx = self.ctx
        rg = self.ring
        dA, dM, dN, dB = self.dims
        ms = [m0] if m0 is not None else ctx.M.basis()
        ns = [n0] if n0 is not None else ctx.N.basis()
        rows = []
        eA = ctx.A.basis()
        eB = ctx.B.basis()
        # a*m - m*b for each m, then n*a - b*n for each n
        images = [([ctx.am(a, m) for a in eA], [ctx.mb(m, b) for b in eB], dM)
                  for m in ms]
        images += [([ctx.na(n, a) for a in eA], [ctx.bn(b, n) for b in eB], dN)
                   for n in ns]
        for acols, bcols, dim in images:
            for c in range(dim):
                rows.append(
                    [acols[i][c] for i in range(dA)]
                    + [rg.neg(bcols[j][c]) for j in range(dB)]
                )
        return rows

    def gma_center(self):
        """{diag(a, b) : a*m = m*b and n*a = b*n for all m, n}.

        When M is faithful both ways this coincides with the center of the
        underlying algebra.
        """
        if self._gma_center is None:
            dA, dB = self.dims[0], self.dims[3]
            gens = linalg.nullspace(self.ring, self._center_pair_rows(), dA + dB)
            self._gma_center = Submodule(
                self.ring,
                self.dim,
                [self.embed_diag(g[:dA], g[dA:]) for g in gens],
            )
        return self._gma_center

    def center_projections(self):
        """(image of the center in A, image of the center in B)."""
        z = self.gma_center()
        return (
            z.project(list(self.block_range("A"))),
            z.project(list(self.block_range("B"))),
        )

    def phi_apply(self, a):
        """The unique b with diag(a, b) central; needs a in the A-image."""
        dA = self.dims[0]
        return self._center_partner(a, slice(None, dA), slice(dA, None))

    def phi_inv_apply(self, b):
        dA = self.dims[0]
        return self._center_partner(b, slice(dA, None), slice(None, dA))

    def _center_partner(self, x, known, unknown):
        """The unique y with the center rows holding at x in the ``known``
        columns and y in the ``unknown`` ones."""
        rg = self.ring
        rhs = []
        mat = []
        for r in self._center_pair_rows():
            # move the known part to the right-hand side
            rhs.append(_dot(rg, r[known], x))
            mat.append([rg.neg(c) for c in r[unknown]])
        sol = linalg.solve_linear(rg, mat, rhs)
        if sol is None:
            raise TheoremViolation("no center partner for the given element", x)
        if sol.kernel:
            raise NotFaithful("center partner is not unique; M is not faithful")
        return tuple(sol.particular)


def _dot(ring, coeffs, vec):
    out = ring.zero
    for c, v in zip(coeffs, vec):
        out = ring.add(out, ring.mul(c, v))
    return out


CenterIso = namedtuple("CenterIso", ["domain", "codomain", "mapping"])


def center_iso_phi(G):
    """The multiplicative bijection a -> b between the two diagonal images
    of the center, verified exhaustively over finite rings."""
    G.require_faithful()
    dom, cod = G.center_projections()
    mapping = []
    if G.ring.enumerable:
        for a in dom.elements():
            b = G.phi_apply(a)
            mapping.append((a, b))
        table = dict(mapping)
        images = set(table.values())
        if len(images) != len(table) or images != set(cod.elements()):
            raise TheoremViolation("center map is not a bijection")
        A = G.ctx.A
        B = G.ctx.B
        for a1, b1 in mapping:
            for a2, b2 in mapping:
                if table[A.mul(a1, a2)] != B.mul(b1, b2):
                    raise TheoremViolation(
                        "center map is not multiplicative", (a1, a2)
                    )
    else:
        for a in dom.gens:
            mapping.append((a, G.phi_apply(a)))
        img = Submodule(G.ring, G.dims[3], [b for _, b in mapping])
        if not img.equals(cod):
            raise TheoremViolation("center map image mismatch")
    return CenterIso(dom, cod, mapping)


def build_gma(ctx):
    """Assemble the generalized matrix algebra; the context must validate."""
    bad = validate_context(ctx)
    if bad:
        raise InvalidContext(f"context axioms violated: {bad[:5]}")
    rg = ctx.ring
    dA, dM, dN, dB = ctx.A.dim, ctx.M.dim, ctx.N.dim, ctx.B.dim
    dim = dA + dM + dN + dB
    offs = {"A": 0, "M": dA, "N": dA + dM, "B": dA + dM + dN}

    def emb(name, v):
        out = [rg.zero] * dim
        for r, c in enumerate(v):
            out[offs[name] + r] = c
        return tuple(out)

    zero = (rg.zero,) * dim
    table = [[zero for _ in range(dim)] for _ in range(dim)]

    for i in range(dA):
        for j in range(dA):
            table[offs["A"] + i][offs["A"] + j] = emb("A", ctx.A.table[i][j])
        for p in range(dM):
            table[offs["A"] + i][offs["M"] + p] = emb("M", ctx.M.left[i][p])
    for p in range(dM):
        for j in range(dB):
            table[offs["M"] + p][offs["B"] + j] = emb("M", ctx.M.right[p][j])
        for q in range(dN):
            table[offs["M"] + p][offs["N"] + q] = emb("A", ctx.phi[p][q])
    for q in range(dN):
        for p in range(dM):
            table[offs["N"] + q][offs["M"] + p] = emb("B", ctx.psi[q][p])
        for i in range(dA):
            table[offs["N"] + q][offs["A"] + i] = emb("N", ctx.N.right[q][i])
    for j in range(dB):
        for q in range(dN):
            table[offs["B"] + j][offs["N"] + q] = emb("N", ctx.N.left[j][q])
        for i in range(dB):
            table[offs["B"] + j][offs["B"] + i] = emb("B", ctx.B.table[j][i])

    labels = (
        [f"A:{s}" for s in ctx.A.labels]
        + [f"M:{p}" for p in range(dM)]
        + [f"N:{q}" for q in range(dN)]
        + [f"B:{s}" for s in ctx.B.labels]
    )
    unit = list(emb("A", ctx.A.unit))
    for r, c in enumerate(ctx.B.unit):
        unit[offs["B"] + r] = c
    alg = Algebra(rg, labels, table, unit).validate()
    return GMAlgebra(ctx, alg)
