"""Definitional brute-force cross-checks.

Everything here is computed straight from the definitions with its own
multiplication and enumeration loops -- deliberately sharing nothing with
the optimized implementations except scalar arithmetic -- so the two
routes can validate each other.  The oracle reads only ``A.table`` and
``theta.rows``: products and brackets come from the nonzero structure
constants and the commutator constants e_i e_j - e_j e_i, summed in plain
ints and reduced once per coordinate; theta is applied from its own sparse
columns.  Every "for all x" identity is decided at every element, in the
odometer order of ``enumerate_elements``, with one exception: the product
is bilinear, so [a, x] = sum_j x_j [a, e_j] and a is central iff it
commutes with the d basis elements.  The center search therefore streams
the elements once and tests each at the basis.  An order-k center with
k >= 2 is not linear in x; it holds one list of the n^dim <= budget
elements and tests each against all of them.  The other searches hold one
element at a time.
"""

from .errors import BudgetExceeded, DimensionMismatch, NotEnumerable

DEFAULT_BUDGET = 10**6


def enumerate_elements(A, budget=DEFAULT_BUDGET):
    """Every coordinate vector over the (finite) ring, lexicographic with
    the first coordinate most significant; an odometer, not a library
    product, to keep this path independent."""
    ring = A.ring
    if not ring.enumerable:
        raise NotEnumerable("cannot enumerate over an infinite ring")
    n = ring.size
    total = n ** A.dim
    if total > budget:
        raise BudgetExceeded(
            f"{total} elements exceed the enumeration budget {budget}"
        )
    scalars = list(ring.scalars())
    digits = [0] * A.dim
    while True:
        yield tuple(scalars[i] for i in digits)
        pos = A.dim - 1
        while pos >= 0:
            digits[pos] += 1
            if digits[pos] < n:
                break
            digits[pos] = 0
            pos -= 1
        if pos < 0:
            return


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
    ``S = _structure(A)`` when given.  For k = 1 the bracket is linear in
    x, so each a of one streamed enumeration is tested at the d basis
    elements only; for k >= 2 it is not, and A is enumerated once into a
    list that serves both loops."""
    if S is None:
        S = _structure(A)
    elements = enumerate_elements(A, budget)
    if k > 1:
        elements = list(elements)
    tests = _basis(A) if k == 1 else elements
    return sorted(
        a for a in elements
        if not any(any(_bracket_power(A, S, a, x, k)) for x in tests)
    )


def brute_k_commuting(G, theta, k, budget=DEFAULT_BUDGET):
    """(True, None) or (False, first failing x), straight from the
    definition.  theta(x) and its k brackets with x are summed in plain
    ints and reduced once per coordinate: reduction is a ring
    homomorphism from the integers."""
    A = getattr(G, "algebra", G)
    d, normal = A.dim, A.ring.normal
    comm = _structure(A)[1]
    cols = _columns(A, theta)
    for x in enumerate_elements(A, budget):
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
