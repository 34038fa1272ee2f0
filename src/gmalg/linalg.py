"""Exact linear-system solving over Z/nZ and Q.

Two engines behind one interface:

* fields (Z/p of any size, and Q) -- incremental reduced row echelon form
  over sparse rows (dicts column -> nonzero scalar), so elimination
  touches only nonzero entries; Python ints and Fractions never overflow,
* composite Z/n -- integer diagonalization by unimodular row/column
  transforms (Smith form), then per-diagonal congruences mod n.

Kernels are returned in the eliminator's pivot order so downstream
reports are byte-stable.
"""

from collections import namedtuple
from math import gcd

LinearSolution = namedtuple("LinearSolution", ["particular", "kernel"])


def _sparse(ring, row):
    """A row given as a dict column -> scalar or as a dense sequence, as a
    dict of its nonzero coerced entries."""
    items = row.items() if isinstance(row, dict) else enumerate(row)
    out = {}
    for c, x in items:
        if x:
            x = ring.coerce(x)
            if x:
                out[c] = x
    return out


# ---------------------------------------------------------------------------
# field accumulator (incremental sparse reduced row echelon form)
# ---------------------------------------------------------------------------

class _FieldAccumulator:
    """Incremental RREF over a field ring.  ``rows`` maps each pivot column
    to its row, a dict of the row's nonzero entries whose pivot (smallest
    column) entry is 1; the rows stay fully reduced, so no row has an entry
    in another row's pivot column."""

    def __init__(self, ring, ncols):
        self.ring = ring
        self.ncols = ncols
        self.rows = {}

    def add_rows(self, block):
        rg = self.ring
        for raw in block:
            r = _sparse(rg, raw)
            # the known rows are zero at every other pivot, so one pass over
            # the pivots r holds now clears them all
            for c in [c for c in r if c in self.rows]:
                _subtract_multiple(rg, r, r[c], self.rows[c])
            if not r:
                continue
            j = min(r)
            inv = rg.inv_opt(r[j])
            r = {c: rg.mul(inv, x) for c, x in r.items()}
            for row in self.rows.values():
                if j in row:
                    _subtract_multiple(rg, row, row[j], r)
            self.rows[j] = r

    @property
    def rank(self):
        return len(self.rows)

    def basis(self):
        """Canonical RREF rows, ordered by pivot column."""
        zero = self.ring.zero
        return [
            tuple(self.rows[c].get(j, zero) for j in range(self.ncols))
            for c in sorted(self.rows)
        ]

    def nullspace(self):
        rg = self.ring
        out = []
        for f in range(self.ncols):
            if f in self.rows:
                continue
            v = [rg.zero] * self.ncols
            v[f] = rg.one
            for c, row in self.rows.items():
                if f in row:
                    v[c] = rg.neg(row[f])
            out.append(tuple(v))
        return out


def _subtract_multiple(rg, r, f, row):
    """r -= f * row in place over the entries of row, keeping r sparse."""
    for j, b in row.items():
        x = rg.sub(r.get(j, rg.zero), rg.mul(f, b))
        if x:
            r[j] = x
        else:
            del r[j]


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
            r = _sparse(self.ring, r)
            t = tuple(r.get(j, 0) for j in range(self.ncols))
            if r and t not in self._seen:
                self._seen.add(t)
                self._rows.append(t)

    def nullspace(self):
        _, d, V = smith_form(self._rows, len(self._rows), self.ncols)
        return _kernel_zmod(self.ring.n, d, V)

    def basis(self):
        raise NotImplementedError("no canonical basis over composite Z/n")


def kernel_builder(ring, ncols):
    """Accumulator for a homogeneous system: feed rows, ask for the kernel."""
    if ring.is_field:
        return _FieldAccumulator(ring, ncols)
    return _CompositeAccumulator(ring, ncols)


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
    if not ring.is_field:
        return _solve_zmod(ring.n, rows, [ring.coerce(x) for x in rhs], ncols)

    # field path: the RREF of the augmented matrix; the right-hand side
    # column is free when the system is consistent, and is the last one
    acc = kernel_builder(ring, ncols + 1)
    acc.add_rows([[*row, b] for row, b in zip(rows, rhs)])
    if ncols in acc.rows:
        return None
    part = [ring.zero] * ncols
    for c, row in acc.rows.items():
        part[c] = row.get(ncols, ring.zero)
    *kernel, _ = acc.nullspace()
    return LinearSolution(tuple(part), [v[:ncols] for v in kernel])
