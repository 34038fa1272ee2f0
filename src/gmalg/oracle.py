"""Definitional brute-force cross-checks.

Everything here is computed straight from the definitions with its own
multiplication and enumeration loops -- deliberately sharing nothing with
the optimized implementations except ``ring.normal`` -- so the two
routes can validate each other.  The oracle reads only ``A._terms``, the
nonzero terms the algebra stores of each product e_i e_j, and
``theta.rows``; it never expands the dense view ``A.table``.  Products
come from the structure constants, brackets from the commutator
constants [e_i, e_j] = e_i e_j - e_j e_i of the pairs i < j alone:
[y, x] = sum_{i<j} (y_i x_j - y_j x_i) [e_i, e_j], exact because
[e_j, e_i] = -[e_i, e_j] and [e_i, e_i] = 0.  Each product and each
bracket is summed in plain ints and reduced once per coordinate, so an
iterated bracket [y, x]_k is reduced once per bracket, and the chain
stops as soon as it reaches 0, since [0, x] = 0.  theta is applied from
its own sparse columns.  The oracle shares no engine code with the fast
paths.

Every "for all x" identity is decided at one element of each unit orbit
{u*x : u a unit}: at its representative, the element that comes first in
odometer order (``representatives``).  That loses nothing, because the
identities are homogeneous.  theta is linear and the bracket bilinear, so
[theta(ux), ux]_k = u^(k+1) [theta(x), x]_k, and x and ux pass or fail
together.  The first failing x in odometer order is a representative (if
ux came before a failing x, ux would fail first), so the witness is the
first failing element of the whole algebra.  An order-k center for
k >= 2 is linear in a and of degree k in x: [ua, x]_k = u [a, x]_k and
[a, ux]_k = u^k [a, x]_k.  So only representatives a are tested, each
central one stands for its whole orbit, against one held list of the
representatives x.  The other searches hold one element at a time.

The center (k = 1) is read off the commutator constants instead:
[a, x] = sum_{i,j} a_i x_j [e_i, e_j], so a is central iff
sum_i a_i [e_i, e_j]_r = 0 for every j and r.  ``brute_center`` sets
the digits of a one at a time and makes each check once its last digit
is set.  A check that fails on a prefix fails on all its extensions, so
dropping the prefix loses no central element; no bracket is computed.
"""

from .errors import BudgetExceeded, DimensionMismatch, NotEnumerable

DEFAULT_BUDGET = 10**6


def _scalars(A, budget):
    """The ring's scalars in ``ring.scalars()`` order, once A is known to
    be finite with at most ``budget`` elements."""
    ring = A.ring
    if not ring.enumerable:
        raise NotEnumerable("cannot enumerate over an infinite ring")
    total = ring.size ** A.dim
    if total > budget:
        raise BudgetExceeded(
            f"{total} elements exceed the enumeration budget {budget}"
        )
    return list(ring.scalars())


def _odometer(scalars, prefix, width):
    """prefix followed by every tuple of ``width`` scalars, lexicographic
    with the first coordinate most significant; an odometer, not a library
    product, to keep this path independent.  The tail is updated in place,
    one digit per carry."""
    n = len(scalars)
    digits = [0] * width
    tail = [scalars[0]] * width
    while True:
        yield prefix + tuple(tail)
        pos = width - 1
        while pos >= 0:
            digits[pos] += 1
            if digits[pos] < n:
                tail[pos] = scalars[digits[pos]]
                break
            digits[pos] = 0
            tail[pos] = scalars[0]
            pos -= 1
        if pos < 0:
            return


def enumerate_elements(A, budget=DEFAULT_BUDGET):
    """Every coordinate vector over the (finite) ring, in odometer order."""
    yield from _odometer(_scalars(A, budget), (), A.dim)


def _units(ring, scalars):
    """The scalars u with u*v = 1 for some scalar v."""
    one = ring.one
    return [u for u in scalars if any(ring.normal(u * v) == one for v in scalars)]


def representatives(A, budget=DEFAULT_BUDGET):
    """The elements x that come first in odometer order among their
    multiples u*x by the units u, in odometer order.

    x is one iff each digit x_i is the least of its multiples u*x_i over
    the units u that fix x_1..x_{i-1}: at the first digit where u*x and x
    differ, u fixes the digits before it.  The digits are chosen one at a
    time; once only 1 fixes the prefix, every tail is allowed."""
    ring, d = A.ring, A.dim
    scalars = _scalars(A, budget)
    rank = {s: i for i, s in enumerate(scalars)}
    steps = {}

    def step(fixing):
        # the digits least among their multiples by ``fixing``, each with
        # the units of ``fixing`` that fix it
        if fixing not in steps:
            steps[fixing] = [
                (c, tuple(u for u in fixing if ring.normal(u * c) == c))
                for c in scalars
                if all(rank[c] <= rank[ring.normal(u * c)] for u in fixing)
            ]
        return steps[fixing]

    def prefixes(prefix, fixing):
        # the prefixes whose every tail is allowed: only 1 fixes them, or
        # they are whole
        if len(fixing) == 1 or len(prefix) == d:
            yield prefix
            return
        for c, keep in step(fixing):
            yield from prefixes(prefix + (c,), keep)

    for prefix in prefixes((), tuple(_units(ring, scalars))):
        yield from _odometer(scalars, prefix, d - len(prefix))


def _products(A):
    """The nonzero constants of e_i e_j, the stored terms ``A._terms``, as
    the groups [(i, [(j, ((r, c), ...)), ...]), ...] that ``_sums`` reads:
    empty cells and rows are left out."""
    out = []
    for i, row in enumerate(A._terms):
        group = [(j, cell) for j, cell in enumerate(row) if cell]
        if group:
            out.append((i, group))
    return out


def _commutators(A):
    """The nonzero constants of [e_i, e_j] = e_i e_j - e_j e_i for i < j,
    read off the stored terms ``A._terms``, grouped as ``_products`` groups
    them; [e_j, e_i] = -[e_i, e_j] and [e_i, e_i] = 0 give the rest.  A
    pair whose two products have the same terms commutes and is left out;
    where e_j e_i = 0 the constants are those of e_i e_j; otherwise the two
    are subtracted in plain ints and reduced once per coordinate."""
    T, normal, d = A._terms, A.ring.normal, A.dim
    out = []
    for i in range(d):
        group = []
        for j in range(i + 1, d):
            ij, ji = T[i][j], T[j][i]
            if ij == ji:
                continue
            if ji:
                c = dict(ij)
                for r, v in ji:
                    c[r] = c.get(r, 0) - v
                ij = tuple((r, w) for r, v in sorted(c.items()) if (w := normal(v)))
            if ij:
                group.append((j, ij))
        if group:
            out.append((i, group))
    return out


def _sums(d, terms, x, y):
    """Sum_{i,j} x_i y_j t_ij over the nonzero x_i and y_j, with the t_ij
    grouped as ``_products`` gives them, as d plain ints, unreduced."""
    out = [0] * d
    for i, row in terms:
        xi = x[i]
        if not xi:
            continue
        for j, cell in row:
            yj = y[j]
            if yj:
                c = xi * yj
                for r, cr in cell:
                    out[r] += c * cr
    return out


def _bilinear(A, terms, x, y):
    """``_sums`` with one ``ring.normal`` per coordinate: x * y, with the
    terms ``_products(A)``."""
    return tuple(map(A.ring.normal, _sums(A.dim, terms, x, y)))


def _bracket_power(A, comm, y, x, k):
    """[y, x]_k by direct recursion on ``comm = _commutators(A)``: each
    bracket [y, x] = sum_{i<j} (y_i x_j - y_j x_i) [e_i, e_j] is summed in
    plain ints and reduced mod n once per coordinate (the oracle's rings
    are the finite Z/n), so y may come unreduced when k >= 1.  A row i
    with y_i = x_i = 0 adds nothing and is skipped, and the chain stops
    once a bracket is 0, since [0, x] = 0."""
    d, n = A.dim, A.ring.n
    for _ in range(k):
        out = [0] * d
        for i, row in comm:
            yi, xi = y[i], x[i]
            if yi or xi:
                for j, cell in row:
                    c = yi * x[j] - y[j] * xi
                    if c:
                        for r, cr in cell:
                            out[r] += c * cr
        y = tuple([v % n for v in out])
        if not any(y):
            break
    return y


def _columns(A, theta):
    """theta's nonzero columns, read off its rows, as the one group
    [(0, [(j, ((r, c), ...)), ...])] of ``_bilinear`` terms."""
    if theta.dim != A.dim:
        raise DimensionMismatch("map dimension does not match the algebra")
    rows = theta.rows
    return [(0, [
        (j, col)
        for j in range(A.dim)
        if (col := tuple((r, row[j]) for r, row in enumerate(rows) if row[j]))
    ])]


def _apply(A, cols, x):
    """theta(x) = sum_j 1 * x_j theta(e_j), from ``cols = _columns(A, theta)``."""
    return _bilinear(A, cols, (1,), x)


def _basis(A):
    """The unit vectors e_1, ..., e_d."""
    ring = A.ring
    return [
        tuple(ring.one if j == i else ring.zero for j in range(A.dim))
        for i in range(A.dim)
    ]


def brute_center(A, budget=DEFAULT_BUDGET, comm=None):
    """All a with ax = xa for every x, as a sorted element list (odometer
    order over the ascending scalars): the a with [a, e_j] = 0 for every
    j, from the commutator constants ``comm = _commutators(A)``.  Each check
    sum_i a_i [e_i, e_j]_r = 0 is made once its last digit is set, and a
    prefix that fails one is dropped with all its extensions; after the
    last digit that ends a check every tail is central.  A pair i < j
    gives a_i [e_i, e_j] to the checks of j and a_j [e_j, e_i] =
    -a_j [e_i, e_j] to those of i; the pairs come in ascending i, so each
    check's terms do too."""
    scalars = _scalars(A, budget)
    d, normal = A.dim, A.ring.normal
    forms = {}
    for i, row in _commutators(A) if comm is None else comm:
        for j, cell in row:
            for r, c in cell:
                forms.setdefault((j, r), []).append((i, c))
                forms.setdefault((i, r), []).append((j, normal(-c)))
    ending = [[] for _ in range(d)]     # by last digit: (the rest, its coefficient)
    for terms in dict.fromkeys(map(tuple, forms.values())):
        *rest, (last, c) = terms
        ending[last].append((rest, c))
    depth = max((i + 1 for i in range(d) if ending[i]), default=0)
    a, out = [None] * depth, []

    def walk(i):
        if i == depth:
            out.extend(_odometer(scalars, tuple(a), d - depth))
            return
        checks = [(sum(a[t] * c for t, c in rest), c) for rest, c in ending[i]]
        for s in scalars:
            if not any(normal(base + s * c) for base, c in checks):
                a[i] = s
                walk(i + 1)

    walk(0)
    return out


def brute_zk(A, k, budget=DEFAULT_BUDGET):
    """All a with [a, x]_k = 0 for every x, as a sorted element list.  For
    k = 1 this is ``brute_center``.  For k >= 2 only the representatives a
    are tested, against one held list of the representatives x, and each
    central one is expanded into its orbit {u*a}."""
    if k == 1:
        return brute_center(A, budget)
    ring, comm = A.ring, _commutators(A)
    units = _units(ring, _scalars(A, budget))
    reps = list(representatives(A, budget))
    return sorted({
        tuple(ring.normal(u * c) for c in a)
        for a in reps
        if not any(any(_bracket_power(A, comm, a, x, k)) for x in reps)
        for u in units
    })


def brute_k_commuting(G, theta, k, budget=DEFAULT_BUDGET, comm=None):
    """(True, None) or (False, the first failing x in odometer order),
    straight from the definition at the representatives x, which keep that
    first witness.  theta(x) is summed in plain ints and handed on
    unreduced; each of its k brackets with x is reduced once per
    coordinate, and the chain stops at 0 (``_bracket_power``).  Reduction
    is a ring homomorphism from the integers, so this is exact.  ``comm``
    is ``_commutators(A)``, if given."""
    if k < 1:
        raise DimensionMismatch("commuting order must be >= 1")
    A = getattr(G, "algebra", G)
    d = A.dim
    comm = _commutators(A) if comm is None else comm
    cols = _columns(A, theta)
    for x in representatives(A, budget):
        if any(_bracket_power(A, comm, _sums(d, cols, (1,), x), x, k)):
            return False, x
    return True, None


def brute_properness(G, theta, budget=DEFAULT_BUDGET, comm=None):
    """Search every central lambda and test, element by element, whether
    x -> theta(x) - x*lambda lands in the center; (True, lambda) on the
    first hit, else (False, None).  ``comm`` as in ``brute_k_commuting``."""
    A = getattr(G, "algebra", G)
    ring, products = A.ring, _products(A)
    center = brute_center(A, budget, comm)
    cset = set(center)
    basis = _basis(A)
    cols = _columns(A, theta)
    images = [_apply(A, cols, e) for e in basis]
    for lam in center:
        if all(
            tuple(ring.normal(a - b) for a, b in zip(img, _bilinear(A, products, e, lam))) in cset
            for e, img in zip(basis, images)
        ):
            return True, lam
    return False, None
