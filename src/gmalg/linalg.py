"""Exact linear-system solving over Z/nZ and Q.

Three engines behind one interface:

* prime modulus  -- numpy int64 row reduction mod p, exact while the sums
  of ncols products of residues stay below 2**63; larger primes go to the
  next engine,
* rationals      -- Fraction Gaussian elimination (any exact field),
* composite Z/n  -- integer diagonalization by unimodular row/column
  transforms (Smith form), then per-diagonal congruences mod n.

Kernels are returned in the eliminator's pivot order so downstream
reports are byte-stable.
"""

from collections import namedtuple
from math import gcd

import numpy as np

from .rings import Zmod

LinearSolution = namedtuple("LinearSolution", ["particular", "kernel"])


# ---------------------------------------------------------------------------
# field accumulators (incremental reduced row echelon form)
# ---------------------------------------------------------------------------

class _ModPAccumulator:
    """Incremental RREF over Z/p, vectorized with numpy."""

    def __init__(self, p, ncols):
        self.p = p
        self.ncols = ncols
        self.rows = np.zeros((0, ncols), dtype=np.int64)
        self.pivots = []

    def add_rows(self, block):
        p = self.p
        block = np.asarray(block, dtype=np.int64).reshape(-1, self.ncols) % p
        if len(self.pivots):
            # pivot columns of self.rows form an identity, so one matmul
            # clears every known pivot from the whole block
            block = (block - block[:, self.pivots] @ self.rows) % p
        for r in block:
            for idx, c in enumerate(self.pivots):
                if r[c]:
                    r = (r - r[c] * self.rows[idx]) % p
            nz = np.nonzero(r)[0]
            if not len(nz):
                continue
            j = int(nz[0])
            r = (r * pow(int(r[j]), -1, p)) % p
            if len(self.pivots):
                col = self.rows[:, j].copy()
                self.rows = (self.rows - col[:, None] * r[None, :]) % p
            self.rows = np.vstack([self.rows, r[None, :]])
            self.pivots.append(j)

    @property
    def rank(self):
        return len(self.pivots)

    def basis(self):
        """Canonical RREF rows, ordered by pivot column."""
        order = np.argsort(self.pivots) if self.pivots else []
        return [tuple(int(v) for v in self.rows[i]) for i in order]

    def nullspace(self):
        piv = {c: i for i, c in enumerate(self.pivots)}
        out = []
        for f in range(self.ncols):
            if f in piv:
                continue
            v = [0] * self.ncols
            v[f] = 1
            for c, i in piv.items():
                v[c] = int((-self.rows[i, f]) % self.p)
            out.append(tuple(v))
        return out


class _FractionAccumulator:
    """Incremental RREF over Q (or any exact field via the ring object)."""

    def __init__(self, ring, ncols):
        self.ring = ring
        self.ncols = ncols
        self.rows = []       # list of lists
        self.pivots = []

    def add_rows(self, block):
        rg = self.ring
        for raw in block:
            r = [rg.coerce(x) for x in raw]
            for c, row in zip(self.pivots, self.rows):
                if r[c] != rg.zero:
                    _subtract_multiple(rg, r, r[c], row)
            j = next((i for i, x in enumerate(r) if x != rg.zero), None)
            if j is None:
                continue
            inv = rg.inv_opt(r[j])
            r = [rg.mul(inv, x) for x in r]
            for row in self.rows:
                if row[j] != rg.zero:
                    _subtract_multiple(rg, row, row[j], r)
            self.rows.append(r)
            self.pivots.append(j)

    @property
    def rank(self):
        return len(self.pivots)

    def basis(self):
        order = sorted(range(len(self.pivots)), key=lambda i: self.pivots[i])
        return [tuple(self.rows[i]) for i in order]

    def nullspace(self):
        rg = self.ring
        piv = {c: i for i, c in enumerate(self.pivots)}
        out = []
        for f in range(self.ncols):
            if f in piv:
                continue
            v = [rg.zero] * self.ncols
            v[f] = rg.one
            for c, i in piv.items():
                v[c] = rg.neg(self.rows[i][f])
            out.append(tuple(v))
        return out


def _subtract_multiple(rg, r, f, row):
    """r -= f * row in place, touching only the nonzero entries of row."""
    for i, b in enumerate(row):
        if b:
            r[i] = rg.sub(r[i], rg.mul(f, b))


class _CompositeAccumulator:
    """Collects constraint rows over composite Z/n; kernel via Smith form."""

    rank = None

    def __init__(self, ring, ncols):
        self.ring = ring
        self.ncols = ncols
        self._rows = []
        self._seen = set()

    def add_rows(self, block):
        for r in block:
            t = tuple(self.ring.coerce(x) for x in r)
            if any(t) and t not in self._seen:
                self._seen.add(t)
                self._rows.append(t)

    def nullspace(self):
        _, d, V = smith_form(self._rows, len(self._rows), self.ncols)
        return _kernel_zmod(self.ring.n, d, V)

    def basis(self):
        raise NotImplementedError("no canonical basis over composite Z/n")


def kernel_builder(ring, ncols):
    """Accumulator for a homogeneous system: feed rows, ask for the kernel."""
    if isinstance(ring, Zmod):
        if not ring.is_field:
            return _CompositeAccumulator(ring, ncols)
        if ncols * (ring.n - 1) ** 2 < 2**63:
            return _ModPAccumulator(ring.n, ncols)
    return _FractionAccumulator(ring, ncols)


def span_basis(ring, vectors, ncols):
    """Canonical (RREF) basis of the span; field rings only."""
    if not ring.is_field:
        raise NotImplementedError("span_basis needs a field ring")
    acc = kernel_builder(ring, ncols)
    acc.add_rows(list(vectors))
    return acc.basis()


def nullspace(ring, rows, ncols):
    acc = kernel_builder(ring, ncols)
    acc.add_rows(list(rows))
    return acc.nullspace()


# ---------------------------------------------------------------------------
# Smith form over Z and congruence solving mod composite n
# ---------------------------------------------------------------------------

def smith_form(mat, nrows, ncols):
    """U, d, V with U @ mat @ V diagonal(d), U and V unimodular over Z.

    d satisfies the divisibility chain d[0] | d[1] | ... (zeros last).
    """
    A = [[int(x) for x in row] for row in mat]
    U = [[int(i == j) for j in range(nrows)] for i in range(nrows)]
    V = [[int(i == j) for j in range(ncols)] for i in range(ncols)]

    def row_op(i, k, q):              # row i -= q * row k
        A[i] = [a - q * b for a, b in zip(A[i], A[k])]
        U[i] = [a - q * b for a, b in zip(U[i], U[k])]

    def col_op(j, k, q):              # col j -= q * col k
        for row in A:
            row[j] -= q * row[k]
        for row in V:
            row[j] -= q * row[k]

    def row_swap(i, k):
        A[i], A[k] = A[k], A[i]
        U[i], U[k] = U[k], U[i]

    def col_swap(j, k):
        for row in A:
            row[j], row[k] = row[k], row[j]
        for row in V:
            row[j], row[k] = row[k], row[j]

    t = 0
    while t < min(nrows, ncols):
        piv = None
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                a = abs(A[i][j])
                if a and (best is None or a < best):
                    best = a
                    piv = (i, j)
        if piv is None:
            break
        row_swap(t, piv[0])
        col_swap(t, piv[1])
        while True:
            # clear column t
            again = False
            for i in range(t + 1, nrows):
                if A[i][t]:
                    q = A[i][t] // A[t][t]
                    row_op(i, t, q)
                    if A[i][t]:
                        row_swap(i, t)
                        again = True
            if again:
                continue
            for j in range(t + 1, ncols):
                if A[t][j]:
                    q = A[t][j] // A[t][t]
                    col_op(j, t, q)
                    if A[t][j]:
                        col_swap(j, t)
                        again = True
            if again:
                continue
            break
        if A[t][t] < 0:
            A[t] = [-a for a in A[t]]
            U[t] = [-a for a in U[t]]
        t += 1
    rank = t

    # divisibility chain fixup
    changed = True
    while changed:
        changed = False
        for i in range(rank - 1):
            a, b = A[i][i], A[i + 1][i + 1]
            if b % a == 0:
                continue
            changed = True
            g, x, y = _xgcd(a, b)
            # col i += col i+1, then unimodular row mix, then clear fill-in
            for row in (A, V):
                for r in row:
                    r[i] += r[i + 1]
            Ai = A[i][:]
            Ai1 = A[i + 1][:]
            A[i] = [x * p + y * q for p, q in zip(Ai, Ai1)]
            A[i + 1] = [-(b // g) * p + (a // g) * q for p, q in zip(Ai, Ai1)]
            Ui = U[i][:]
            Ui1 = U[i + 1][:]
            U[i] = [x * p + y * q for p, q in zip(Ui, Ui1)]
            U[i + 1] = [-(b // g) * p + (a // g) * q for p, q in zip(Ui, Ui1)]
            q = A[i][i + 1] // A[i][i]
            col_op(i + 1, i, q)
    d = [A[i][i] for i in range(min(nrows, ncols))]
    return U, d, V


def _xgcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _kernel_zmod(n, d, V):
    """Generators of {x : rows @ x == 0 mod n} from the Smith form
    U @ rows @ V = diag(d) of the rows."""
    ncols = len(V)
    gens = []
    for j in range(ncols):
        dj = d[j] if j < len(d) else 0
        step = n // gcd(dj, n)
        if step % n == 0:
            continue
        g = tuple((V[i][j] * step) % n for i in range(ncols))
        if any(g):
            gens.append(g)
    return gens


def _solve_zmod(n, rows, rhs, ncols):
    U, d, V = smith_form(rows, len(rows), ncols)
    c = [sum(U[i][k] * rhs[k] for k in range(len(rhs))) % n for i in range(len(rows))]
    y = [0] * ncols
    for i in range(len(rows)):
        di = d[i] if i < len(d) else 0
        ri = c[i]
        g = gcd(di, n)
        if ri % g:
            return None
        if i < ncols:
            if di % n == 0:
                if ri % n:
                    return None
                continue
            y[i] = (ri // g) * pow((di // g) % (n // g), -1, n // g) % (n // g)
        elif ri % n:
            return None
    part = tuple(sum(V[i][j] * y[j] for j in range(ncols)) % n for i in range(ncols))
    return LinearSolution(part, _kernel_zmod(n, d, V))


def solve_linear(ring, rows, rhs):
    """All solutions of rows @ x = rhs, or None when inconsistent.

    Returns a particular solution (free variables zeroed, deterministic)
    plus kernel generators, both from one elimination.
    """
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    if nrows == 0:
        return LinearSolution((), [])
    if isinstance(ring, Zmod) and not ring.is_field:
        return _solve_zmod(ring.n, rows, [ring.coerce(x) for x in rhs], ncols)

    # field path: the RREF of the augmented matrix; the right-hand side
    # column is free when the system is consistent, and is the last one
    acc = kernel_builder(ring, ncols + 1)
    acc.add_rows([
        [ring.coerce(x) for x in row] + [ring.coerce(b)]
        for row, b in zip(rows, rhs)
    ])
    if ncols in acc.pivots:
        return None
    part = [ring.zero] * ncols
    for c, row in zip(acc.pivots, acc.rows):
        part[c] = ring.coerce(row[ncols])
    *kernel, _ = acc.nullspace()
    return LinearSolution(tuple(part), [v[:ncols] for v in kernel])
