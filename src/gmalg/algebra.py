"""Finite-dimensional unital associative algebras via structure constants.

Elements are coordinate tuples over the coefficient ring.  The product
e_i * e_j is stored directly as a coordinate vector, i.e. ``table[i][j]``
is the full expansion of the basis product.
"""

import itertools

import numpy as np

from . import linalg
from .errors import DimensionMismatch, InvalidAlgebra, NotEnumerable
from .rings import Zmod


def iter_vectors(ring, dim):
    """All coordinate vectors over a finite ring, lexicographic ascending."""
    if not ring.enumerable:
        raise NotEnumerable("cannot enumerate vectors over an infinite ring")
    return itertools.product(ring.scalars(), repeat=dim)


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
        self.unit = self.vec(unit)
        self._np_table = None
        self._center = None
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

    def add(self, x, y):
        return tuple(self.ring.add(a, b) for a, b in zip(x, y))

    def sub(self, x, y):
        return tuple(self.ring.sub(a, b) for a, b in zip(x, y))

    def scale(self, c, x):
        return tuple(self.ring.mul(c, a) for a in x)

    def is_zero(self, x):
        return all(a == self.ring.zero for a in x)

    # -- multiplication and brackets ---------------------------------------

    def mul(self, x, y):
        if len(x) != self.dim or len(y) != self.dim:
            raise DimensionMismatch("element length does not match algebra dim")
        rg = self.ring
        out = [rg.zero] * self.dim
        for i, xi in enumerate(x):
            if xi == rg.zero:
                continue
            row = self.table[i]
            for j, yj in enumerate(y):
                if yj == rg.zero:
                    continue
                c = rg.mul(xi, yj)
                cell = row[j]
                for r, cr in enumerate(cell):
                    if cr != rg.zero:
                        out[r] = rg.add(out[r], rg.mul(c, cr))
        return tuple(out)

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
        for i in range(self.dim):
            ei = self.basis_vector(i)
            if self.mul(self.unit, ei) != ei:
                out.append(("left_unit", i))
            if self.mul(ei, self.unit) != ei:
                out.append(("right_unit", i))
        for i in range(self.dim):
            for j in range(self.dim):
                left = self.table[i][j]
                for k in range(self.dim):
                    a = self.mul(left, self.basis_vector(k))
                    b = self.mul(self.basis_vector(i), self.table[j][k])
                    if a != b:
                        out.append(("associativity", (i, j, k)))
        return out

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
        """{a : [a, x] = 0 for all x}, from the basis constraints."""
        if self._center is None:
            acc = linalg.kernel_builder(self.ring, self.dim)
            for i in range(self.dim):
                acc.add_rows(self.adjoint_matrix(self.basis_vector(i)))
            self._center = Submodule(self.ring, self.dim, acc.nullspace())
        return self._center

    def engel_center(self, k):
        """{a : [a, x]_k = 0 for all x} (the ordinary center when k = 1).

        The constraint is not linear in x for k >= 2, so the whole finite
        algebra is scanned; over the rationals only k = 1 is available.
        """
        if k < 1:
            raise DimensionMismatch("engel order must be >= 1")
        if k == 1:
            return self.center()
        if not self.ring.enumerable:
            raise NotEnumerable(
                "iterated centers over an infinite ring need enumeration"
            )
        if k not in self._engel:
            n = self.ring.n
            d = self.dim
            Tl, Tr = self._np_tensors()
            acc = linalg.kernel_builder(self.ring, d)
            for x in iter_vectors(self.ring, d):
                xv = np.asarray(x, dtype=np.int64)
                L = ((xv @ Tl) % n).reshape(d, d).T
                R = ((xv @ Tr) % n).reshape(d, d).T
                D = (R - L) % n
                P = D
                for _ in range(k - 1):
                    P = (P @ D) % n
                acc.add_rows(P)
            self._engel[k] = Submodule(self.ring, d, acc.nullspace())
        return self._engel[k]

    def _np_tensors(self):
        """Cached structure tensor views for the Z/n fast path.

        Returns (Tl, Tr):  x @ Tl reshaped (q, r) is x*e_q expanded,
        x @ Tr reshaped (p, r) is e_p*x expanded.
        """
        if self._np_table is None:
            d = self.dim
            T = np.zeros((d, d, d), dtype=np.int64)
            for i in range(d):
                for j in range(d):
                    T[i, j] = [int(c) for c in self.table[i][j]]
            self._np_table = (
                T.reshape(d, d * d).copy(),
                T.transpose(1, 0, 2).reshape(d, d * d).copy(),
            )
        return self._np_table


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
