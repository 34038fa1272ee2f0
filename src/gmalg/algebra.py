"""Finite-dimensional unital associative algebras via structure constants.

Elements are coordinate tuples over the coefficient ring.  The product
e_i * e_j is stored directly as a coordinate vector, i.e. ``table[i][j]``
is the full expansion of the basis product.
"""

import itertools
from math import comb, prod

from . import linalg
from .errors import DimensionMismatch, InvalidAlgebra, NotEnumerable


def iter_vectors(ring, dim):
    """All coordinate vectors over a finite ring, lexicographic ascending."""
    if not ring.enumerable:
        raise NotEnumerable("cannot enumerate vectors over an infinite ring")
    return itertools.product(ring.scalars(), repeat=dim)


def lattice_points(ring, dim, degree):
    """The exponent vectors beta in N^dim with |beta| <= degree, lexicographic
    ascending, as int tuples; over a finite ring each beta_i < |R|.

    A polynomial map f of degree <= ``degree`` vanishes on all of R^dim iff
    it vanishes at these points.  By Newton's forward-difference formula
    f(x) = sum over |alpha| <= degree of D^alpha f(0) C(x, alpha) at every x
    in N^dim, and the differences D^alpha f(0) are the values f(beta),
    beta <= alpha, combined unitriangularly.  N^dim covers Z/n and is
    Zariski dense in Q^dim; over Z/n, beta_i >= n repeats beta_i - n."""
    top = degree if ring.size is None else min(degree, ring.size - 1)

    def points(dim, budget):
        if dim == 0:
            yield ()
            return
        for b in range(min(budget, top) + 1):
            for rest in points(dim - 1, budget - b):
                yield (b, *rest)

    return points(dim, degree)


def lattice_check(ring, dim, degree, holds):
    """(True, None) if ``holds(x)`` for every x in R^dim, else (False, the
    lexicographically first x where it fails).  ``holds(x)`` must test
    f(x) = 0 for a polynomial map f of degree <= ``degree``.

    The witness is found one coordinate at a time: the next one is the
    first c for which f restricted to the coordinates fixed so far and c
    does not vanish.  The restriction has degree <= ``degree`` again, so it
    is decided on the lattice points of the remaining coordinates, and c is
    at most ``degree``.  Over a finite ring this is the first failing
    element of R^dim; over Q, of {0..degree}^dim."""
    scalars = [ring.coerce(b) for b in range(degree + 1)]
    seen = {}   # by digits; the search revisits the points whose prefix is zero

    def vanishes(prefix):
        for beta in lattice_points(ring, dim - len(prefix), degree):
            x = prefix + beta
            if x not in seen:
                seen[x] = holds(tuple(scalars[b] for b in x))
            if not seen[x]:
                return False
        return True

    if vanishes(()):
        return True, None
    digits = [c for (c,) in lattice_points(ring, 1, degree)]
    x = ()
    while len(x) < dim:
        x = next(x + (c,) for c in digits if not vanishes(x + (c,)))
    return False, tuple(scalars[b] for b in x)


def newton_kernel(ring, dim, degree, rows_at, ncols):
    """Kernel generators, over ``ncols`` unknowns, of the constraints that
    f(x) = 0 on all of R^dim, where f is homogeneous of degree ``degree``
    >= 1 in x and linear in the unknowns, and ``rows_at(x)`` gives the rows
    of f(x) as dicts column -> coefficient.

    The constraint rows are the Newton differences D^alpha f(0) at the
    lattice points (see ``lattice_points``) but alpha = 0 and the pure
    powers m*e_i, m >= 2: for a homogeneous f the first is zero and the
    others are multiples of the row of e_i (only the monomial x_i^degree
    reaches them)."""
    scalars = [ring.coerce(b) for b in range(degree + 1)]
    values = {
        beta: rows_at(tuple(scalars[b] for b in beta))
        for beta in lattice_points(ring, dim, degree)
    }
    acc = linalg.kernel_builder(ring, ncols)
    for alpha, rows in values.items():
        if max(alpha, default=0) == sum(alpha) != 1:
            continue
        diff = [{} for _ in rows]
        for gamma in itertools.product(*(range(a + 1) for a in alpha)):
            c = (-1) ** (sum(alpha) - sum(gamma)) * prod(map(comb, alpha, gamma))
            for out, row in zip(diff, values[gamma]):
                for col, v in row.items():
                    out[col] = ring.add(out.get(col, ring.zero), ring.mul(c, v))
        acc.add_rows(diff)
    return acc.nullspace()


def _nonzero_terms(table):
    """For each cell of a table of coordinate vectors (a bilinear map on
    basis elements), its (coordinate, value) pairs with a nonzero value."""
    return tuple(
        tuple(tuple((r, c) for r, c in enumerate(cell) if c) for cell in row)
        for row in table
    )


def _bilinear(ring, x, y, terms, out_dim):
    """Sum_{i,j} x_i * y_j * cell_ij over the nonzero x_i and y_j, with the
    cells given as ``_nonzero_terms``.  Scalars are zero exactly when falsy
    (int residues, Fractions), which is much cheaper to test than comparing
    Fractions."""
    out = [ring.zero] * out_dim
    ys = [(j, yj) for j, yj in enumerate(y) if yj]
    for i, xi in enumerate(x):
        if not xi:
            continue
        row = terms[i]
        for j, yj in ys:
            cell = row[j]
            if cell:
                c = ring.mul(xi, yj)
                for r, cr in cell:
                    out[r] = ring.add(out[r], ring.mul(c, cr))
    return tuple(out)


class Algebra:
    def __init__(self, ring, labels, table, unit):
        self.ring = ring
        self.labels = list(labels)
        self.dim = len(self.labels)
        if len(table) != self.dim or any(len(row) != self.dim for row in table):
            raise DimensionMismatch("structure constant table must be dim x dim")
        self.table = tuple(
            tuple(self.vec(cell) for cell in row) for row in table
        )
        self._terms = _nonzero_terms(self.table)
        self.unit = self.vec(unit)
        self._engel = {}

    # -- vector helpers -----------------------------------------------------

    def vec(self, coords):
        coords = tuple(self.ring.coerce(c) for c in coords)
        if len(coords) != self.dim:
            raise DimensionMismatch(
                f"expected {self.dim} coordinates, got {len(coords)}"
            )
        return coords

    def zero(self):
        return (self.ring.zero,) * self.dim

    def basis_vector(self, i):
        return tuple(
            self.ring.one if j == i else self.ring.zero for j in range(self.dim)
        )

    def basis(self):
        return [self.basis_vector(i) for i in range(self.dim)]

    # a zero term is skipped: testing that is much cheaper than adding a
    # zero Fraction
    def add(self, x, y):
        return tuple(self.ring.add(a, b) if b else a for a, b in zip(x, y))

    def sub(self, x, y):
        return tuple(self.ring.sub(a, b) if b else a for a, b in zip(x, y))

    def scale(self, c, x):
        return tuple(self.ring.mul(c, a) for a in x)

    def is_zero(self, x):
        return not any(x)

    # -- multiplication and brackets ---------------------------------------

    def mul(self, x, y):
        if len(x) != self.dim or len(y) != self.dim:
            raise DimensionMismatch("element length does not match algebra dim")
        return _bilinear(self.ring, x, y, self._terms, self.dim)

    def bracket(self, x, y):
        return self.sub(self.mul(x, y), self.mul(y, x))

    def iterated_bracket(self, x, y, k):
        """[x, y]_k with [x, y]_0 = x and [x, y]_k = [[x, y]_{k-1}, y]."""
        if k < 0:
            raise DimensionMismatch("bracket order must be >= 0")
        out = x
        for _ in range(k):
            out = self.bracket(out, y)
        return out

    def left_mult_matrix(self, x):
        """Matrix of y -> x*y (rows over output coords)."""
        cols = [self.mul(x, self.basis_vector(q)) for q in range(self.dim)]
        return [tuple(cols[q][r] for q in range(self.dim)) for r in range(self.dim)]

    def right_mult_matrix(self, x):
        """Matrix of y -> y*x."""
        cols = [self.mul(self.basis_vector(p), x) for p in range(self.dim)]
        return [tuple(cols[p][r] for p in range(self.dim)) for r in range(self.dim)]

    def adjoint_matrix(self, x):
        """Matrix of y -> [y, x] = y*x - x*y."""
        L = self.left_mult_matrix(x)
        R = self.right_mult_matrix(x)
        return [
            tuple(self.ring.sub(a, b) for a, b in zip(R[r], L[r]))
            for r in range(self.dim)
        ]

    # -- validation ---------------------------------------------------------

    def structure_violations(self):
        """Associativity and unit failures, as witness records."""
        out = []
        basis = self.basis()
        for i, ei in enumerate(basis):
            if self.mul(self.unit, ei) != ei:
                out.append(("left_unit", i))
            if self.mul(ei, self.unit) != ei:
                out.append(("right_unit", i))
        # (e_i e_j) e_k = sum_r c_r (e_r e_k) over the terms c_r e_r of
        # e_i e_j, and e_i (e_j e_k) likewise; both are 0 when neither
        # product has a term
        T = self._terms
        every = range(self.dim)
        nonzero = [[k for k in every if row[k]] for row in T]
        for i, j in itertools.product(every, repeat=2):
            for k in every if T[i][j] else nonzero[j]:
                a = self._combine((c, T[r][k]) for r, c in T[i][j])
                b = self._combine((d, T[i][s]) for s, d in T[j][k])
                if a != b:
                    out.append(("associativity", (i, j, k)))
        return out

    def _combine(self, scaled):
        """sum c * v over the (c, terms of v) pairs, as a dict of its
        nonzero coordinates."""
        rg = self.ring
        out = {}
        for c, terms in scaled:
            for r, v in terms:
                out[r] = rg.add(out.get(r, rg.zero), rg.mul(c, v))
        return {r: v for r, v in out.items() if v}

    def validate(self):
        bad = self.structure_violations()
        if bad:
            raise InvalidAlgebra(f"structure constants invalid: {bad[:5]}")
        return self

    def opposite(self):
        """Same module, product reversed."""
        table = [
            [self.table[j][i] for j in range(self.dim)] for i in range(self.dim)
        ]
        return Algebra(self.ring, self.labels, table, self.unit)

    # -- centers ------------------------------------------------------------

    def center(self):
        """{a : [a, x] = 0 for all x}."""
        return self.engel_center(1)

    def engel_center(self, k):
        """{a : [a, x]_k = 0 for all x} (the ordinary center when k = 1).

        [a, x]_k is linear in a and homogeneous of degree k in x, so the
        constraints on a are its Newton differences at the lattice points
        of degree <= k (see ``newton_kernel``); exact over every ring."""
        if k < 1:
            raise DimensionMismatch("engel order must be >= 1")
        if k not in self._engel:
            gens = newton_kernel(self.ring, self.dim, k,
                                 lambda x: self.bracket_rows(x, k), self.dim)
            self._engel[k] = Submodule(self.ring, self.dim, gens)
        return self._engel[k]

    def bracket_rows(self, x, k):
        """The matrix of a -> [a, x]_k, as one dict column -> entry per
        output coordinate."""
        cols = [self.iterated_bracket(e, x, k) for e in self.basis()]
        return [
            {p: col[r] for p, col in enumerate(cols) if col[r]}
            for r in range(self.dim)
        ]


class Submodule:
    """Span of finitely many coordinate vectors, with canonical form over
    fields and containment-based comparison over composite Z/n."""

    def __init__(self, ring, ambient_dim, generators):
        self.ring = ring
        self.ambient_dim = ambient_dim
        gens = [tuple(ring.coerce(c) for c in g) for g in generators]
        gens = [g for g in gens if any(c != ring.zero for c in g)]
        for g in gens:
            if len(g) != ambient_dim:
                raise DimensionMismatch("generator length mismatch")
        if ring.is_field:
            self.gens = linalg.span_basis(ring, gens, ambient_dim)
        else:
            seen = set()
            self.gens = []
            for g in gens:
                if g not in seen:
                    seen.add(g)
                    self.gens.append(g)
        self._elements = None

    @property
    def rank(self):
        if not self.ring.is_field:
            raise NotImplementedError("rank is only defined over fields")
        return len(self.gens)

    def is_zero(self):
        return not self.gens

    def contains(self, v):
        v = tuple(self.ring.coerce(c) for c in v)
        if len(v) != self.ambient_dim:
            raise DimensionMismatch("vector length mismatch")
        if self.ring.is_field:
            rg = self.ring
            v = list(v)
            for g in self.gens:
                piv = next(i for i, c in enumerate(g) if c != rg.zero)
                f = v[piv]
                if f != rg.zero:
                    v = [rg.sub(a, rg.mul(f, b)) for a, b in zip(v, g)]
            return all(c == rg.zero for c in v)
        if not self.gens:
            return all(c == self.ring.zero for c in v)
        rows = [
            [g[r] for g in self.gens] for r in range(self.ambient_dim)
        ]
        return linalg.solve_linear(self.ring, rows, list(v)) is not None

    def __contains__(self, v):
        return self.contains(v)

    def contains_all(self, vectors):
        return all(self.contains(v) for v in vectors)

    def equals(self, other):
        if self.ring != other.ring or self.ambient_dim != other.ambient_dim:
            return False
        if self.ring.is_field:
            return self.gens == other.gens
        return self.contains_all(other.gens) and other.contains_all(self.gens)

    def elements(self, budget=2 * 10**5):
        """Every element of the span (finite rings), sorted. Cached."""
        if not self.ring.enumerable:
            raise NotEnumerable("infinite ring")
        if self._elements is None:
            if self.ring.size ** max(len(self.gens), 0) > budget:
                from .errors import BudgetExceeded

                raise BudgetExceeded("submodule too large to enumerate")
            rg = self.ring
            out = {(rg.zero,) * self.ambient_dim}
            for coeffs in itertools.product(rg.scalars(), repeat=len(self.gens)):
                v = [rg.zero] * self.ambient_dim
                for c, g in zip(coeffs, self.gens):
                    if c != rg.zero:
                        for r, gr in enumerate(g):
                            v[r] = rg.add(v[r], rg.mul(c, gr))
                out.add(tuple(v))
            self._elements = sorted(out)
        return self._elements

    def project(self, indices):
        """Image under coordinate projection (a linear surjection)."""
        return Submodule(
            self.ring, len(indices), [tuple(g[i] for i in indices) for g in self.gens]
        )

    def __repr__(self):
        return f"Submodule(dim={self.ambient_dim}, ngens={len(self.gens)})"


def scalar_multiples_of(algebra):
    """The submodule R*1 inside an algebra."""
    return Submodule(algebra.ring, algebra.dim, [algebra.unit])
