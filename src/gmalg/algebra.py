"""Finite-dimensional unital associative algebras via structure constants.

Elements are coordinate tuples over the coefficient ring.  What is stored
of the product e_i * e_j is its nonzero terms, ``_terms[i][j]``: the
(coordinate, scalar) pairs with a nonzero scalar, in coordinate order.
Every product, bracket and scan reads them.  ``table[i][j]``, the product
as a full coordinate vector, is a read-only view, expanded from the terms
on first read; the modules and pairings of ``morita`` are stored and viewed
the same way.
"""

import itertools
from bisect import bisect_right
from functools import cache
from math import prod
from operator import attrgetter

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
    beta = [0] * dim
    total = 0
    while True:
        yield tuple(beta)
        # the successor: raise the last coordinate that may grow once the
        # ones after it are zeroed
        j = dim - 1
        while j >= 0 and (beta[j] == top or total == degree):
            total -= beta[j]
            beta[j] = 0
            j -= 1
        if j < 0:
            return
        beta[j] += 1
        total += 1


def lattice_check(ring, dim, degree, holds, lead=None):
    """(True, None) if ``holds(x)`` for every x in R^dim, else (False, the
    lexicographically first x where it fails).  ``holds(x)`` must test
    f(x) = 0 for a polynomial map f of degree <= ``degree``.

    The witness is found one coordinate at a time: the next one is the
    first c for which f restricted to the coordinates fixed so far and c
    does not vanish.  The restriction has degree <= ``degree`` again, so it
    is decided on the lattice points of the remaining coordinates, and c is
    at most ``degree``.  Over a finite ring this is the first failing
    element of R^dim; over Q, of {0..degree}^dim.

    ``lead`` is a t, known from f's coefficients (``maps.is_k_commuting``),
    such that f does not vanish where x_0..x_{t-1} = 0 and does where
    x_0..x_t = 0.  Those points come first, so the witness starts with t
    zeros and a nonzero digit: the search starts there, f is not evaluated
    on the zero prefix, and every point it is evaluated at has x_0..x_{t-1}
    = 0."""
    scalars = [ring.normal(b) for b in range(degree + 1)]
    seen = {}   # by digits; the search revisits the points whose prefix is zero

    def vanishes(prefix):
        for beta in lattice_points(ring, dim - len(prefix), degree):
            x = prefix + beta
            if x not in seen:
                seen[x] = holds(tuple(scalars[b] for b in x))
            if not seen[x]:
                return False
        return True

    digits = [c for (c,) in lattice_points(ring, 1, degree)]
    if lead is None:
        if vanishes(()):
            return True, None
        x = ()
    else:
        x = (0,) * lead
        x += (next(c for c in digits[1:] if not vanishes(x + (c,))),)
    while len(x) < dim:
        x = next(x + (c,) for c in digits if not vanishes(x + (c,)))
    return False, tuple(scalars[b] for b in x)


@cache
def _surjections(degree):
    """``table[g][a]`` = a! S(g, a), for g, a <= ``degree``: the number of
    maps of a g-set onto an a-set, with S the Stirling number of the second
    kind.  It is the forward difference (Delta^a t^g)(0), since
    t^g = sum_a S(g, a) t(t-1)...(t-a+1)."""
    table = [[1] + [0] * degree]
    for _ in range(degree):
        prev = table[-1]
        table.append(
            [0] + [a * (prev[a] + prev[a - 1]) for a in range(1, degree + 1)]
        )
    return table


def _times(monomial, i):
    """The monomial (a sorted index tuple, see ``ad_stream``) times x_i."""
    t = bisect_right(monomial, i)
    return monomial[:t] + (i,) + monomial[t:]


def ad_stream(ad, start, k, normal):
    """The nonzero coefficients of [f0(x), x]_k, from those of f0, grouped by
    the least index t of their monomial: (t, the coefficients of least index
    t) for t = d-1 down to 0, d = len(ad), an empty group included.

    A coefficient is keyed by its monomial x^gamma, written as the sorted
    tuple of the indices in gamma (x_0^2 x_3 is (0, 0, 3)), and is a dict
    column -> vector (dict coordinate -> scalar), one column per unknown
    of f0 (one column for a given f0), in normal form.  ``ad[r]`` lists the
    (i, terms) with [e_r, e_i] != 0, its terms the nonzero (s, c), so that
    R_i y = [y, e_i] is read off it.  Since [y, x] = sum_i x_i R_i y, one
    bracket maps the coefficients C to C'_gamma = sum_{i in supp gamma}
    R_i C_{gamma - e_i}.

    C_beta is pushed to x^beta x_i, whose least index is min(t, i) for beta
    of least index t (the constant monomial () counts as d-1): a support
    only shrinks along the pushes.  So the sums are kept in one bucket per
    (level, least index), and at each t, level by level, the bucket
    (level, t) is complete: every push still to come starts from a least
    index below t, or from t at a higher level.  It is brought to normal
    form once, zeros dropped, and pushed on; the last level's bucket is the
    group of t.  Sums are taken in int (or Fraction) arithmetic."""
    d = len(ad)
    first, *buckets = [{} for _ in range(k + 1)]    # by level: least index -> sums
    for beta, cols in start.items():
        first.setdefault(beta[0] if beta else d - 1, {})[beta] = cols
    for t in range(d - 1, -1, -1):
        level = first.pop(t, None)
        for out in buckets:
            if level:
                for beta, cols in level.items():
                    targets = {}    # i -> the coefficient of x^beta x_i
                    for col, vec in cols.items():
                        for r, v in vec.items():
                            for i, terms in ad[r]:
                                target = targets.get(i)
                                if target is None:
                                    u = i if i < t else t
                                    bucket = out.get(u)
                                    if bucket is None:
                                        bucket = out[u] = {}
                                    target = targets[i] = bucket.setdefault(_times(beta, i), {})
                                acc = target.get(col)
                                if acc is None:
                                    acc = target[col] = {}
                                for s, c in terms:
                                    acc[s] = acc.get(s, 0) + v * c
            sums, level = out.pop(t, None), {}
            if sums:
                for gamma, cols in sums.items():
                    kept = {}
                    for col, vec in cols.items():
                        vec = {s: w for s, v in vec.items() if (w := normal(v))}
                        if vec:
                            kept[col] = vec
                    if kept:
                        level[gamma] = kept
        yield t, level


def _as_rows(cols):
    """A coefficient given as columns (see ``ad_stream``), as rows: one
    dict column -> scalar per output coordinate."""
    rows = {}
    for col, vec in cols.items():
        for r, v in vec.items():
            rows.setdefault(r, {})[col] = v
    return rows


def vanishing_rows(ring, coeffs, degree, dim):
    """Blocks of nonzero rows that all vanish iff f(x) = sum_gamma C_gamma
    x^gamma vanishes on all of R^dim.  ``coeffs`` maps each monomial (as
    in ``ad_stream``) to its coefficient as rows (see ``_as_rows``); f
    must be homogeneous of degree ``degree`` >= 1.

    Over Q, and over Z/p with p >= ``degree``, they are the coefficients,
    a block per monomial in sorted order.  Over Z/p with p < ``degree``
    they are those of f reduced modulo the x_i^p - x_i: x_i^e is the
    function x_i^(1 + (e-1) mod (p-1)) (Fermat), and a polynomial of
    degree < p in each x_i is zero iff it vanishes, so the rows of the
    monomials that fold together are summed.  Over composite Z/n they are
    the Newton differences of ``_newton_rows``.  Each keeps a monomial's
    support, so the rows of the coefficients of least index t are theirs
    alone, and the blocks of the groups of ``ad_stream``, from the highest
    t down, are those of f."""
    if not ring.is_field:
        yield from _newton_rows(ring, coeffs, degree, dim)
        return
    p = ring.size
    if p is not None and degree > p:
        folds = {}      # a reduced monomial -> the (1, C_gamma) folding to it
        for gamma, rows in coeffs.items():
            reduced = tuple(i for i in dict.fromkeys(gamma)
                            for _ in range(1 + (gamma.count(i) - 1) % (p - 1)))
            folds.setdefault(reduced, []).append((1, rows))
        coeffs = {gamma: terms[0][1] if len(terms) == 1 else _summed(ring, terms)
                  for gamma, terms in folds.items()}
    for gamma in sorted(coeffs):
        if rows := coeffs[gamma]:
            yield [rows[r] for r in sorted(rows)]


def _newton_rows(ring, coeffs, degree, dim):
    """The blocks of ``vanishing_rows`` over Z/n: the Newton differences
    D^alpha f(0) = sum_gamma C_gamma prod_i a_i! S(g_i, a_i)
    (``_surjections``) at the lattice points alpha, in the order of
    ``lattice_points``, which says why they decide f.  A factor with
    a_i = 0 < g_i or a_i > g_i is 0, so only the alpha with the support of
    some gamma >= alpha are built, each from that support's coefficients.
    alpha = 0 and the m*e_i (m >= 2) are left out: for a homogeneous f the
    first is 0, the others multiples of the difference at e_i."""
    top = min(degree, ring.size - 1)
    surj = _surjections(degree)
    groups = {}
    for gamma, rows in coeffs.items():
        support = tuple(dict.fromkeys(gamma))
        exps = tuple(gamma.count(i) for i in support)
        groups.setdefault(support, []).append((exps, rows))
    alphas = []
    for support, members in groups.items():
        highest = [min(top, max(e[t] for e, _ in members))
                   for t in range(len(support))]
        for a in itertools.product(*(range(1, h + 1) for h in highest)):
            if len(a) > 1 or a == (1,):
                dense = [0] * dim
                for i, ai in zip(support, a):
                    dense[i] = ai
                alphas.append((dense, support, a))
    alphas.sort()
    for _, support, a in alphas:
        if rows := _summed(ring, ((w, c) for exps, c in groups[support]
                                  if (w := prod(surj[g][b] for g, b in zip(exps, a))))):
            yield [rows[r] for r in sorted(rows)]


def _summed(ring, terms):
    """The sum of w*rows over the (w, rows) in ``terms``, rows as in
    ``vanishing_rows``, in normal form, its zero rows dropped."""
    out = {}
    for w, rows in terms:
        for r, row in rows.items():
            acc = out.setdefault(r, {})
            for col, v in row.items():
                acc[col] = acc.get(col, 0) + w * v
    return {r: row for r, acc in out.items()
            if (row := {c: x for c, v in acc.items() if (x := ring.normal(v))})}


def stream_rows(ring, groups, degree, dim):
    """The blocks of ``vanishing_rows`` for f given by its (t, group)
    stream (``ad_stream``, coefficients as rows), one nonempty group at a
    time: only that group is held."""
    return (block for _, group in groups if group
            for block in vanishing_rows(ring, group, degree, dim))


def evaluator(ring, coeffs, degree):
    """``holds(x)``: whether f(x) = sum_gamma C_gamma x^gamma is zero, for x
    in normal form and coefficients as in ``vanishing_rows``.  Only the
    gamma with supp gamma inside supp x contribute, so they are looked up
    by the subsets of supp x of size <= ``degree``.  The points
    ``lattice_check`` tries have at most 2*degree + 1 nonzero coordinates:
    the lexicographically first failing point has at most ``degree``
    (zeroing a coordinate makes a point smaller, and f on points with more
    is a sum of its values on their faces), and the others add a digit and
    a lattice point to a prefix of it."""
    groups = {}
    for gamma, rows in coeffs.items():
        groups.setdefault(tuple(dict.fromkeys(gamma)), []).append((gamma, rows))
    normal = ring.normal

    def holds(x):
        support = [i for i, c in enumerate(x) if c]
        acc = {}
        for size in range(1, min(len(support), degree) + 1):
            for sub in itertools.combinations(support, size):
                for gamma, rows in groups.get(sub, ()):
                    m = prod(x[i] for i in gamma)
                    for r, row in rows.items():
                        for col, v in row.items():
                            acc[r, col] = acc.get((r, col), 0) + m * v
        return not any(normal(v) for v in acc.values())

    return holds


def _nonzero_terms(table):
    """For each cell of a table of coordinate vectors (a bilinear map on
    basis elements), its (coordinate, value) pairs with a nonzero value."""
    return tuple(
        tuple(tuple((r, c) for r, c in enumerate(cell) if c) for cell in row)
        for row in table
    )


def _expanded(terms, length, zero):
    """The table of coordinate vectors of ``length`` coordinates whose cells
    have the nonzero terms ``terms``: the inverse of ``_nonzero_terms``."""
    blank = [zero] * length
    out = []
    for row in terms:
        cells = []
        for cell in row:
            v = blank[:]
            for r, c in cell:
                v[r] = c
            cells.append(tuple(v))
        out.append(tuple(cells))
    return tuple(out)


def _dense_view(terms, length):
    """A read-only property: the table whose nonzero terms are the attribute
    ``terms``, its vectors of ``length`` (an attribute path) coordinates,
    expanded by ``_expanded`` on first read and kept."""
    cached, get_terms, get_length = "_dense" + terms, attrgetter(terms), attrgetter(length)

    def view(self):
        table = self.__dict__.get(cached)
        if table is None:
            table = self.__dict__[cached] = _expanded(
                get_terms(self), get_length(self), self.ring.zero)
        return table

    return property(view, doc=f"The dense view of ``{terms}``, expanded on first read.")


class _Normal:
    """Scalars are coerced, and shapes checked, once, where they enter: the
    public constructor of a subclass coerces every scalar and checks every
    shape, then hands the data to ``_set``, a table of vectors as its
    ``_nonzero_terms``.  ``_from_normal(*args)`` hands ``_set`` data
    already in normal form and of the right shapes, as they are: nothing is
    coerced or checked.  Everything gmalg builds from its own results, and
    every context ``jsonio`` decodes, is built so."""

    @classmethod
    def _from_normal(cls, *args):
        obj = cls.__new__(cls)
        obj._set(*args)
        return obj


def _coerced(ring, t):
    """The rows of vectors ``t`` as tuples, each scalar coerced."""
    return tuple(tuple(tuple(map(ring.coerce, v)) for v in row) for row in t)


def _check_tensor(t, shape, wrong_shape, wrong_length):
    """Raise ``DimensionMismatch`` unless ``t`` is a rows x cols array of
    vectors of the given length, ``shape`` = (rows, cols, length):
    ``wrong_shape`` when the array has other rows or columns, else
    ``wrong_length``, formatted with the length found, at the first vector
    of another length."""
    rows, cols, length = shape
    if len(t) != rows or any(len(row) != cols for row in t):
        raise DimensionMismatch(wrong_shape)
    for row in t:
        for v in row:
            if len(v) != length:
                raise DimensionMismatch(wrong_length.format(len(v)))


def _check_vector(v, dim):
    """Raise ``DimensionMismatch`` unless ``v`` has ``dim`` coordinates."""
    if len(v) != dim:
        raise DimensionMismatch(f"expected {dim} coordinates, got {len(v)}")


def _check_algebra(dim, table, unit):
    """The shapes of an algebra of dimension ``dim``: a dim x dim table of
    vectors of length dim, and the unit."""
    _check_tensor(table, (dim, dim, dim), "structure constant table must be dim x dim",
                  f"expected {dim} coordinates, got {{}}")
    _check_vector(unit, dim)


def _bilinear(ring, x, y, terms, out_dim):
    """Sum_{i,j} x_i * y_j * cell_ij over the nonzero x_i and y_j, with the
    cells given as ``_nonzero_terms``.  Scalars are zero exactly when falsy
    (int residues, Fractions), which is much cheaper to test than comparing
    Fractions."""
    normal = ring.normal
    out = [ring.zero] * out_dim
    ys = [(j, yj) for j, yj in enumerate(y) if yj]
    for i, xi in enumerate(x):
        if not xi:
            continue
        row = terms[i]
        for j, yj in ys:
            cell = row[j]
            if cell:
                c = xi * yj
                for r, cr in cell:
                    out[r] = normal(out[r] + c * cr)
    return tuple(out)


class Algebra(_Normal):
    table = _dense_view("_terms", "dim")

    def __init__(self, ring, labels, table, unit):
        """The algebra on ``labels`` whose product e_i * e_j is
        ``table[i][j]`` and whose unit is ``unit``; every scalar is coerced
        and every shape checked."""
        labels = list(labels)
        table, unit = _coerced(ring, table), tuple(map(ring.coerce, unit))
        _check_algebra(len(labels), table, unit)
        self._set(ring, labels, _nonzero_terms(table), unit)

    def _set(self, ring, labels, terms, unit):
        """``terms``: the nonzero terms of each product e_i * e_j, a tuple
        of row tuples of cell tuples, as ``_nonzero_terms`` gives them."""
        self.ring = ring
        self.labels = list(labels)
        self.dim = len(self.labels)
        self._terms = terms
        self.unit = tuple(unit)
        self._engel, self._ad = {}, None

    # -- vector helpers -----------------------------------------------------

    def vec(self, coords):
        """``coords`` as an element: each scalar coerced, the length checked."""
        coords = tuple(map(self.ring.coerce, coords))
        _check_vector(coords, self.dim)
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
        return tuple(self.ring.normal(a + b) if b else a for a, b in zip(x, y))

    def sub(self, x, y):
        return tuple(self.ring.normal(a - b) if b else a for a, b in zip(x, y))

    # -- multiplication and brackets ---------------------------------------

    def mul(self, x, y):
        if len(x) != self.dim or len(y) != self.dim:
            raise DimensionMismatch("element length does not match algebra dim")
        return _bilinear(self.ring, x, y, self._terms, self.dim)

    def bracket(self, x, y):
        return self.sub(self.mul(x, y), self.mul(y, x))

    def left_mult_matrix(self, x):
        """Matrix of y -> x*y (rows over output coords)."""
        cols = [self.mul(x, self.basis_vector(q)) for q in range(self.dim)]
        return [tuple(cols[q][r] for q in range(self.dim)) for r in range(self.dim)]

    def right_mult_matrix(self, x):
        """Matrix of y -> y*x."""
        cols = [self.mul(self.basis_vector(p), x) for p in range(self.dim)]
        return [tuple(cols[p][r] for p in range(self.dim)) for r in range(self.dim)]

    # -- validation ---------------------------------------------------------

    def structure_violations(self):
        """Unit and associativity failures, as witness records: the unit
        laws at each basis element, then associativity at each triple
        (i, j, k) in lexicographic order.  Each row's nonzero cells are
        listed once, and every sum below walks those alone."""
        out = []
        T, normal = self._terms, self.ring.normal
        d, every = self.dim, range(self.dim)
        cells = [[(j, cell) for j, cell in enumerate(row) if cell] for row in T]
        # 1 e_i - e_i and e_i 1 - e_i, summed in int (or Fraction) arithmetic
        # and brought to normal form once: 1 e_i from the rows r of the
        # unit's support, e_i 1 from row i's cells in its columns
        unit = {r: c for r, c in enumerate(self.unit) if c}
        ue, eu = [{i: -1} for i in every], [{i: -1} for i in every]
        for r, c in unit.items():
            for i, cell in cells[r]:
                acc = ue[i]
                for t, v in cell:
                    acc[t] = acc.get(t, 0) + c * v
        for acc, row in zip(eu, cells):
            for j, cell in row:
                c = unit.get(j)
                if c:
                    for t, v in cell:
                        acc[t] = acc.get(t, 0) + c * v
        for i in every:
            if any(map(normal, ue[i].values())):
                out.append(("left_unit", i))
            if any(map(normal, eu[i].values())):
                out.append(("right_unit", i))
        # (e_i e_j) e_k = sum_r c_r (e_r e_k) over the terms c_r e_r of
        # e_i e_j, and e_i (e_j e_k) = sum_s d_s (e_i e_s) over the terms
        # d_s e_s of e_j e_k.  For each i the two sides, over every (j, k), are
        # summed into two dicts keyed (j*d + k)*d + t: the left from the terms
        # (k, t, v) of each row r (``row_terms``), the right from the (j, k,
        # d_s) with s in supp(e_j e_k) (``into``).  Equal dicts, as in a valid
        # row, cost one comparison; else each key's difference is brought to
        # normal form (over Z/n the sides may differ by a multiple of n).  A
        # (j, k) that no path reaches has both sides 0, so only the failing
        # ones are collected, and sorted.
        row_terms = [[(k * d + t, v) for k, cell in row for t, v in cell] for row in cells]
        into = [[] for _ in every]    # into[s]: the ((j*d + k)*d, d_s) of e_j e_k
        for j, row in enumerate(cells):
            for k, cell in row:
                for s, c in cell:
                    into[s].append(((j * d + k) * d, c))
        for i, row in enumerate(cells):
            left, right = {}, {}
            for j, cell in row:
                jd = j * d * d
                for r, c in cell:
                    for kt, v in row_terms[r]:
                        left[jd + kt] = left.get(jd + kt, 0) + c * v
            for s, cell in row:
                for jk, c in into[s]:
                    for t, v in cell:
                        right[jk + t] = right.get(jk + t, 0) + c * v
            if left != right:
                bad = {key // d for key in left.keys() | right.keys()
                       if normal(left.get(key, 0) - right.get(key, 0))}
                out += [("associativity", (i, *divmod(jk, d))) for jk in sorted(bad)]
        return out

    def validate(self):
        bad = self.structure_violations()
        if bad:
            raise InvalidAlgebra(f"structure constants invalid: {bad[:5]}")
        return self

    # -- centers ------------------------------------------------------------

    def center(self):
        """{a : [a, x] = 0 for all x}."""
        return self.engel_center(1)

    def engel_center(self, k):
        """{a : [a, x]_k = 0 for all x} (the ordinary center when k = 1).

        [a, x]_k = sum_alpha x^alpha W_alpha a over |alpha| = k
        (``adjoint_groups``), linear in a and homogeneous of degree k in x,
        so the constraints on a are (see ``vanishing_rows``) the rows of the
        W_alpha over Q and over Z/p with p >= k, of the W_alpha folded by
        x_i^p = x_i over Z/p with p < k, and of their Newton differences
        over composite Z/n; exact over every ring, fed group by group until
        their kernel is span(1), which it contains (``linalg.certified_kernel``).
        Then so is Z^(j) <= Z^(k) for j <= k, and it is recorded too."""
        if k < 1:
            raise DimensionMismatch("engel order must be >= 1")
        if k not in self._engel:
            groups = ((t, {alpha: _as_rows(cols) for alpha, cols in group.items()})
                      for t, group in self.adjoint_groups(k))
            one = Submodule._from_normal(self.ring, self.dim, [self.unit])
            gens = linalg.certified_kernel(self.ring, stream_rows(self.ring, groups, k, self.dim),
                                           self.dim, one.gens)
            if gens == one.gens:
                for j in range(1, k + 1):
                    self._engel.setdefault(j, one)
            else:
                self._engel[k] = Submodule._from_normal(self.ring, self.dim, gens)
        return self._engel[k]

    def adjoint_groups(self, k):
        """The groups of ``ad_stream`` for the operator a -> [a, x]_k: its
        nonzero coefficients W_alpha, |alpha| = k, from W_0 = I, with one
        column per coordinate of a.  Each call runs a fresh stream, which
        computes no group its reader does not pull."""
        identity = {(): {p: {p: 1} for p in range(self.dim)}}
        return ad_stream(self.adjoint_terms(), identity, k, self.ring.normal)

    def map_groups(self, columns, k):
        """``ad_stream`` for [theta(x), x]_k, from C_{e_q} = theta(e_q) in
        one column 0, for the map theta with the given columns theta(e_q),
        each as its nonzero (coordinate, scalar) pairs in normal form."""
        start = {(q,): {0: dict(col)} for q, col in enumerate(columns) if col}
        return ad_stream(self.adjoint_terms(), start, k, self.ring.normal)

    def commuting_groups(self, k):
        """The groups of [theta(x), x]_k, by least index as in
        ``ad_stream``, each coefficient as rows over the entries
        theta[p][q] of an unknown map, at flat index p*d+q.

        [a, x]_k = sum_alpha x^alpha W_alpha a (``adjoint_groups``) and
        theta(x) = sum_q x_q theta(e_q), so the coefficient of x^gamma is
        sum_q W_{gamma - e_q} theta(e_q): theta[p][q] enters it with the
        column p of W_{gamma - e_q}.  These are the coefficients that
        ``ad_stream`` gives from C_{e_q} = theta(e_q) with one unknown
        column per entry, without carrying the d*d columns through it.
        x^alpha x_q has least index t when alpha has and q >= t, or when
        alpha's is larger and q = t, so the group of t is read off the
        W_alpha of least index t and those that came before them."""
        d = self.dim
        older = []      # the (alpha, W_alpha) of least index > t
        for t, group in self.adjoint_groups(k):
            entries = [(alpha, cols, q) for alpha, cols in group.items() for q in range(t, d)]
            entries += [(alpha, cols, t) for alpha, cols in older]
            older += group.items()
            coeffs = {}
            for alpha, cols, q in entries:
                rows = coeffs.setdefault(_times(alpha, q), {})
                for p, vec in cols.items():
                    for r, v in vec.items():
                        rows.setdefault(r, {})[p * d + q] = v
            yield t, coeffs

    def adjoint_terms(self):
        """``ad[r]``: the (i, terms) with [e_r, e_i] != 0, its terms the
        nonzero (s, c) with c in normal form (see ``ad_stream``).  A pair
        whose two products have the same terms commutes and is skipped;
        where e_i e_r = 0 the terms are those of e_r e_i; otherwise the two
        are subtracted in plain ints and reduced once per coordinate."""
        if self._ad is None:
            normal, T = self.ring.normal, self._terms
            ad = []
            for r in range(self.dim):
                row = []
                for i in range(self.dim):
                    ri, ir = T[r][i], T[i][r]
                    if ri == ir:
                        continue
                    if ir:
                        c = dict(ri)
                        for s, v in ir:
                            c[s] = c.get(s, 0) - v
                        ri = tuple((s, w) for s, v in c.items() if (w := normal(v)))
                    if ri:
                        row.append((i, ri))
                ad.append(tuple(row))
            self._ad = tuple(ad)
        return self._ad


class Submodule(_Normal):
    """Span of finitely many coordinate vectors, kept as its canonical
    basis: the rows of its Howell form (``linalg.span_basis``), the RREF
    over a field."""

    def __init__(self, ring, ambient_dim, generators):
        gens = [tuple(map(ring.coerce, g)) for g in generators]
        for g in gens:
            if len(g) != ambient_dim:
                raise DimensionMismatch("generator length mismatch")
        self._set(ring, ambient_dim, gens)

    def _set(self, ring, ambient_dim, gens):
        self.ring = ring
        self.ambient_dim = ambient_dim
        self.gens = linalg.span_basis(ring, gens, ambient_dim)
        self._annihilator = None

    @property
    def rank(self):
        # over composite Z/n the number of Howell rows is not a rank
        if not self.ring.is_field:
            raise NotImplementedError("rank is only defined over fields")
        return len(self.gens)

    def contains(self, v):
        if len(v) != self.ambient_dim:
            raise DimensionMismatch("vector length mismatch")
        return linalg.in_span(self.ring, self.gens, v)

    def __contains__(self, v):
        return self.contains(v)

    def annihilator(self):
        """Generators of {w : w.s = 0 for every s in the span}; computed
        once.  v lies in the span iff w.v = 0 for each of them: over a field
        by linear duality, and over Z/n because Z/n is quasi-Frobenius, so
        that the span is its own double annihilator."""
        if self._annihilator is None:
            self._annihilator = linalg.certified_kernel(self.ring, [self.gens], self.ambient_dim)
        return self._annihilator

    def equals(self, other):
        return (self.ring == other.ring and self.ambient_dim == other.ambient_dim
                and self.gens == other.gens)

    def project(self, indices):
        """Image under coordinate projection (a linear surjection)."""
        return Submodule._from_normal(
            self.ring, len(indices), [tuple(g[i] for i in indices) for g in self.gens]
        )

    def __repr__(self):
        return f"Submodule(dim={self.ambient_dim}, ngens={len(self.gens)})"
