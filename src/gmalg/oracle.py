"""Definitional brute-force cross-checks.

Everything here is computed straight from the definitions with its own
multiplication and enumeration loops -- deliberately sharing nothing with
the optimized implementations except scalar arithmetic -- so the two
routes can validate each other.  The oracle reads only ``A.table`` and
``theta.rows``: products and brackets come from the nonzero structure
constants and the commutator constants e_i e_j - e_j e_i, summed in plain
ints and reduced once per coordinate; theta is applied from its own sparse
columns.

Every "for all x" identity is decided at one element of each unit orbit
{u*x : u a unit}: at its representative, the element that comes first in
odometer order (``representatives``).  That loses nothing, because the
identities are homogeneous.  theta is linear and the bracket bilinear, so
[theta(ux), ux]_k = u^(k+1) [theta(x), x]_k, and x and ux pass or fail
together.  The first failing x in odometer order is a representative (if
ux came before a failing x, ux would fail first), so the witness is the
first failing element of the whole algebra.  An order-k center is
linear in a and of degree k in x: [ua, x]_k = u [a, x]_k and
[a, ux]_k = u^k [a, x]_k.  So only representatives a are tested, each
central one stands for its whole orbit, and they are tested against the
representatives x.  For k = 1 the bracket is even linear in x,
[a, x] = sum_j x_j [a, e_j], and a is central iff it commutes with the d
basis elements; for k >= 2 one list of the representatives is held.
The other searches hold one element at a time.
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
    product, to keep this path independent."""
    n = len(scalars)
    digits = [0] * width
    while True:
        yield prefix + tuple(scalars[i] for i in digits)
        pos = width - 1
        while pos >= 0:
            digits[pos] += 1
            if digits[pos] < n:
                break
            digits[pos] = 0
            pos -= 1
        if pos < 0:
            return


def enumerate_elements(A, budget=DEFAULT_BUDGET):
    """Every coordinate vector over the (finite) ring, in odometer order."""
    yield from _odometer(_scalars(A, budget), (), A.dim)


def _units(ring, scalars):
    """The scalars u with u*v = 1 for some scalar v."""
    one = ring.one
    return [u for u in scalars if any(ring.mul(u, v) == one for v in scalars)]


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
                (c, tuple(u for u in fixing if ring.mul(u, c) == c))
                for c in scalars
                if all(rank[c] <= rank[ring.mul(u, c)] for u in fixing)
            ]
        return steps[fixing]

    def walk(prefix, fixing):
        if len(fixing) == 1 or len(prefix) == d:
            yield from _odometer(scalars, prefix, d - len(prefix))
            return
        for c, keep in step(fixing):
            yield from walk(prefix + (c,), keep)

    yield from walk((), tuple(_units(ring, scalars)))


def _grouped(d, cell):
    """The nonzero values of ``cell(i, j, r)`` as
    [(i, [(j, ((r, c), ...)), ...]), ...], empty groups left out."""
    out = []
    for i in range(d):
        row = []
        for j in range(d):
            terms = tuple((r, c) for r in range(d) if (c := cell(i, j, r)))
            if terms:
                row.append((j, terms))
        if row:
            out.append((i, row))
    return out


def _structure(A):
    """(products, commutators): the nonzero constants of e_i e_j and of
    e_i e_j - e_j e_i, read off the table with the oracle's own loops."""
    ring, T = A.ring, A.table
    return (
        _grouped(A.dim, lambda i, j, r: T[i][j][r]),
        _grouped(A.dim, lambda i, j, r: ring.sub(T[i][j][r], T[j][i][r])),
    )


def _sums(d, terms, x, y):
    """Sum_{i,j} x_i y_j t_ij over the nonzero x_i and y_j, with the t_ij
    grouped as ``_grouped`` gives them, as d plain ints, unreduced."""
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
    """``_sums`` with one ``ring.normal`` per coordinate."""
    return tuple(map(A.ring.normal, _sums(A.dim, terms, x, y)))


def _mul(A, S, x, y):
    """x * y from ``S = _structure(A)``."""
    return _bilinear(A, S[0], x, y)


def _bracket_power(A, S, y, x, k):
    """[y, x]_k by direct recursion on the commutator constants of
    ``S = _structure(A)``."""
    for _ in range(k):
        y = _bilinear(A, S[1], y, x)
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


def brute_center(A, budget=DEFAULT_BUDGET, S=None):
    """All a with ax = xa for every x, as a sorted element list."""
    return brute_zk(A, 1, budget, S)


def brute_zk(A, k, budget=DEFAULT_BUDGET, S=None):
    """All a with [a, x]_k = 0 for every x, as a sorted element list, from
    ``S = _structure(A)`` when given.  Only the representatives a are
    tested, for k = 1 at the d basis elements and for k >= 2 against one
    held list of the representatives x; each central one is expanded into
    its orbit {u*a}."""
    if S is None:
        S = _structure(A)
    ring = A.ring
    units = _units(ring, _scalars(A, budget))
    reps = representatives(A, budget)
    if k > 1:
        reps = list(reps)
    tests = _basis(A) if k == 1 else reps
    return sorted({
        tuple(ring.mul(u, c) for c in a)
        for a in reps
        if not any(any(_bracket_power(A, S, a, x, k)) for x in tests)
        for u in units
    })


def brute_k_commuting(G, theta, k, budget=DEFAULT_BUDGET):
    """(True, None) or (False, the first failing x in odometer order),
    straight from the definition at the representatives x, which keep that
    first witness.  theta(x) and its k brackets with x are summed in plain
    ints and reduced once per coordinate: reduction is a ring
    homomorphism from the integers."""
    A = getattr(G, "algebra", G)
    d, normal = A.dim, A.ring.normal
    comm = _structure(A)[1]
    cols = _columns(A, theta)
    for x in representatives(A, budget):
        y = _sums(d, cols, (1,), x)
        for _ in range(k):
            y = _sums(d, comm, y, x)
        if any(map(normal, y)):
            return False, x
    return True, None


def brute_properness(G, theta, budget=DEFAULT_BUDGET):
    """Search every central lambda and test, element by element, whether
    x -> theta(x) - x*lambda lands in the center; (True, lambda) on the
    first hit, else (False, None)."""
    A = getattr(G, "algebra", G)
    ring = A.ring
    S = _structure(A)
    center = brute_center(A, budget, S)
    cset = set(center)
    basis = _basis(A)
    cols = _columns(A, theta)
    images = [_apply(A, cols, e) for e in basis]
    for lam in center:
        if all(
            tuple(map(ring.sub, img, _mul(A, S, e, lam))) in cset
            for e, img in zip(basis, images)
        ):
            return True, lam
    return False, None
