"""Exact linear-system solving over Z/nZ and Q.

One engine for every ring: the Howell form (Howell 1986; Storjohann and
Mulders, ESA 1998), built incrementally over sparse rows (dicts column ->
nonzero scalar), so elimination touches only nonzero entries; Python ints
and Fractions never overflow, and residues stay in [0, n).

Each row's leading entry (its lead) is scaled by a unit to gcd(lead, n).
Over a field (Z/p of any size, and Q) every lead is a unit, so the form is
the reduced row echelon form.  Over composite Z/n two rows with the same
pivot are merged by the extended gcd, and the multiple (n/g)*row that
vanishes at a pivot of lead g is fed back in.  The form is canonical, and
kernels and particular solutions are read off it by back-substitution, in
column order, membership by reduction, so downstream reports are byte-stable.
"""

import heapq
from collections import namedtuple
from math import gcd, prod

from .errors import TheoremViolation

LinearSolution = namedtuple("LinearSolution", ["particular", "kernel"])


def _sparse(row):
    """A row given as a dict column -> scalar or as a dense sequence, as a
    dict of its nonzero entries.  The scalars must be ring elements in
    normal form: nothing is coerced here."""
    items = row.items() if isinstance(row, dict) else enumerate(row)
    return {c: x for c, x in items if x}


class _HowellAccumulator:
    """Incremental Howell form.  ``rows`` maps each pivot column to its row,
    a dict of the row's nonzero entries, zero before the pivot, whose lead
    divides n (is 1 over a field).  The rows stay reduced: each entry in
    another row's pivot column lies in [0, that row's lead).  And they have
    the Howell property: (n/b)*row, for a row of lead b, lies in the span
    of the rows with larger pivots, since it is fed back when the row is
    placed.  ``_nonunit`` holds the pivots whose lead is not 1; while it is
    empty, as it always is over a field, the rows are zero at each other's
    pivots."""

    def __init__(self, ring, ncols):
        self.ring = ring
        self.ncols = ncols
        self.rows = {}
        self._nonunit = set()

    def add_rows(self, block):
        """Add the rows of ``block``; an all-zero row is dropped before it is reduced."""
        for r in filter(None, map(_sparse, block)):
            todo = [r]
            while todo:
                r = self._reduce(todo.pop())
                if r:
                    todo.extend(self._place(r))

    def _reduce(self, r, own=None):
        """r, in place, minus the multiples of the rows that bring each of
        its entries at a pivot other than ``own`` into [0, lead): to 0 when
        the lead is 1, and at r's own lead to a nonzero remainder when that
        is a pivot whose lead does not divide it (``_place`` merges them)."""
        rg, rows = self.ring, self.rows
        if not self._nonunit:
            # the rows are zero at each other's pivots, so one pass over the
            # pivots r holds now clears them all
            for c in [c for c in r if c in rows and c != own]:
                _subtract_multiple(rg, r, r[c], rows[c])
            return r
        # a row has entries at later pivots, so clear them in column order
        heap = [c for c in r if c in rows and c != own]
        queued = set(heap)
        heapq.heapify(heap)
        while heap:
            c = heapq.heappop(heap)
            p = rows[c]
            q = r.get(c, 0) // p[c]
            if q:
                _subtract_multiple(rg, r, q, p)
                for j in p:
                    if j > c and j in rows and j not in queued:
                        queued.add(j)
                        heapq.heappush(heap, j)
        return r

    def _place(self, r):
        """Make r, reduced and nonzero, the row of its lead column j.
        Returns the rows still to add: (n/g)*r when its lead g is not a
        unit, and the second row of a merge."""
        rg, rows = self.ring, self.rows
        j = min(r)
        out = []
        p = rows.pop(j, None)
        if p is not None:
            # r[j] is not a multiple of p's lead b: the pair becomes
            # s*r + t*p, of lead g = gcd(r[j], b), and (b/g)*r - (r[j]/g)*p,
            # zero at j (a unimodular change, so the span is kept)
            self._nonunit.discard(j)
            a, b = r[j], p[j]
            g, s, t = _xgcd(a, b)
            out.append(_combine(rg, b // g, r, -(a // g), p))
            r = _combine(rg, s, r, t, p)
        # the unit u with u*r[j] = gcd(r[j], n): the inverse of a unit lead
        u = rg.inv_opt(r[j])
        if u is None and gcd(r[j], rg.n) != r[j]:
            u = _unit_normalizer(r[j], rg.n)
        if u is not None:
            r = {c: rg.normal(u * x) for c, x in r.items()}
        if self._nonunit:
            # a unit multiple of a reduced row need not be reduced
            self._reduce(r)
        lead = r[j]
        if lead != 1:
            self._nonunit.add(j)
            m = rg.n // lead
            out.append({c: y for c, x in r.items() if (y := rg.normal(m * x))})
        for c, row in rows.items():
            if j in row:
                q = row[j] if lead == 1 else row[j] // lead
                if q:
                    _subtract_multiple(rg, row, q, r)
                    if self._nonunit:
                        self._reduce(row, own=c)
        rows[j] = r
        return out

    def basis(self):
        """The rows of the canonical form, ordered by pivot column."""
        zero = self.ring.zero
        return [
            tuple(self.rows[c].get(j, zero) for j in range(self.ncols))
            for c in sorted(self.rows)
        ]

    def contains(self, v):
        """Whether v (dense or sparse) lies in the span: by the Howell
        property, iff its reduction by the rows (``_reduce``) leaves nothing."""
        return not self._reduce(_sparse(v))

    def nullspace(self):
        """Kernel generators in column order: for each column f without a
        pivot, the solution with 1 at f and 0 at every other such column,
        and for each pivot c of lead b != 1 the one with n/b at c; both are
        0 after their column, and the pivots before it are solved by
        back-substitution.  Over a field there is only the first kind, and
        the rows are zero at each other's pivots, so each pivot entry is
        minus the row's entry at f."""
        rg = self.ring
        out = []
        if not self._nonunit:
            for f in range(self.ncols):
                if f in self.rows:
                    continue
                v = [rg.zero] * self.ncols
                v[f] = rg.one
                for c, row in self.rows.items():
                    if f in row:
                        v[c] = rg.normal(-row[f])
                out.append(tuple(v))
            return out
        n = rg.n
        order = sorted(self.rows, reverse=True)
        for f in range(self.ncols):
            p = self.rows.get(f)
            if p is None:
                x = {f: 1}
            elif p[f] != 1:
                x = {f: n // p[f]}
            else:
                continue
            for c in order:
                if c < f:
                    row = self.rows[c]
                    # row . x = 0 has a solution at c by the Howell property
                    s = -sum(v * x[k] for k, v in row.items() if k in x) % n
                    if s:
                        x[c] = s // row[c]
            out.append(tuple(x.get(j, 0) for j in range(self.ncols)))
        return out


def _subtract_multiple(rg, r, f, row):
    """r -= f * row in place over the entries of row, keeping r sparse."""
    normal = rg.normal
    for j, b in row.items():
        x = normal(r.get(j, 0) - f * b)
        if x:
            r[j] = x
        else:
            r.pop(j, None)   # over Z/n, f*b may be 0 where r is


def _combine(rg, s, r, t, p):
    """s*r + t*p over Z/n, for int s and t, as a sparse row."""
    out = {}
    for j in r.keys() | p.keys():
        x = rg.normal(s * r.get(j, 0) + t * p.get(j, 0))
        if x:
            out[j] = x
    return out


def _xgcd(a, b):
    """(g, s, t) with g = gcd(a, b) >= 0 and s*a + t*b = g."""
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


def _unit_normalizer(a, n):
    """A unit u of Z/n with u*a = gcd(a, n): s*a = g for the Bezout s, and
    s + i*(n/g) is a unit for some i < g."""
    g, s, _ = _xgcd(a, n)
    m = n // g
    u = s % m
    while gcd(u, n) != 1:
        u += m
    return u


def kernel_builder(ring, ncols):
    """Accumulator for a homogeneous system: feed rows, ask for the kernel."""
    return _HowellAccumulator(ring, ncols)


def certified_kernel(ring, blocks, ncols, lower=()):
    """The kernel K of the rows in ``blocks`` (sized lists, pulled one at a
    time into one accumulator), given the canonical generators (``howell_form``)
    of a submodule ``lower`` of K, {0} by default.  A Howell form spans
    prod(n/lead) elements (n = 2 over Q), the kernel K' of the rows read
    n^ncols / that many.  lower <= K <= K', so once |K'| <= |lower| and lower
    passes those rows (else ``TheoremViolation``), K = lower: no more blocks
    are pulled and lower is returned.  Otherwise ``nullspace``'s generators.
    The rows span at most n^len(rows) elements and the target n^ncols/|lower|
    is at least n^(ncols - len(lower)), so below that many rows no size is taken."""
    acc = kernel_builder(ring, ncols)
    n, rows, nonunit = ring.size or 2, acc.rows, acc._nonunit
    span = n ** ncols // prod([n // next(filter(None, g)) for g in lower])
    blocks = iter(blocks)
    while (len(rows) < ncols - len(lower)
           or n ** len(rows) // prod([rows[c][c] for c in nonunit]) < span):
        block = next(blocks, None)
        if block is None:
            return acc.nullspace()
        acc.add_rows(block)
    if lower and any(ring.normal(sum(v * g[c] for c, v in row.items()))
                     for row in rows.values() for g in lower):
        raise TheoremViolation("a kernel's lower bound violates its rows")
    return list(lower)


def howell_form(ring, vectors, ncols):
    """The accumulator of the span, whose ``basis`` is the canonical one: the
    rows of its Howell form (the RREF over a field)."""
    acc = kernel_builder(ring, ncols)
    acc.add_rows(list(vectors))
    return acc


def solve_linear(ring, rows, rhs, ncols):
    """All solutions of rows @ x = rhs, for rows dicts column -> scalar over
    ``ncols`` columns, or None when inconsistent: a particular solution
    (free variables zeroed) plus kernel generators, both read off the
    kernel of the augmented rows [row, b].  A solution is a kernel vector
    that is -1 at column ncols; there is one iff that column has no pivot
    (a pivot of lead b allows only multiples of n/b there), i.e. iff the
    last kernel generator is 1 there, and then it is minus a solution."""
    gens = certified_kernel(ring, [[{**row, ncols: b} for row, b in zip(rows, rhs)]], ncols + 1)
    if not gens or gens[-1][ncols] != 1:
        return None
    *kernel, last = gens
    return LinearSolution(tuple(ring.normal(-x) for x in last[:ncols]),
                          [v[:ncols] for v in kernel])
