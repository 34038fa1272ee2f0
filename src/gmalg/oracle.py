"""Definitional brute-force cross-checks.

Everything here is computed straight from the definitions with its own
multiplication and enumeration loops -- deliberately sharing nothing with
the optimized implementations except scalar arithmetic -- so the two
routes can validate each other.  The oracle reads only ``A.table`` and
``theta.rows``: products and brackets come from the nonzero structure
constants and the commutator constants e_i e_j - e_j e_i, summed in plain
ints and reduced once per coordinate; theta is applied from its own sparse
columns.  Every identity is decided at every element, in the odometer
order of ``enumerate_elements``.  A center search holds one list of the
n^dim <= budget elements; the other searches hold one element at a time.
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


def _bilinear(A, terms, x, y):
    """Sum_{i,j} x_i y_j t_ij over the nonzero x_i and y_j, with the t_ij
    grouped as ``_grouped`` gives them; plain int sums, one ``ring.normal``
    per coordinate."""
    out = [0] * A.dim
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
    return tuple(map(A.ring.normal, out))


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


def brute_center(A, budget=DEFAULT_BUDGET):
    """All a with ax = xa for every x, as a sorted element list."""
    return brute_zk(A, 1, budget)


def brute_zk(A, k, budget=DEFAULT_BUDGET):
    """All a with [a, x]_k = 0 for every x, as a sorted element list.  A is
    enumerated once and the list serves both loops."""
    S = _structure(A)
    elements = list(enumerate_elements(A, budget))
    return sorted(
        a for a in elements
        if not any(any(_bracket_power(A, S, a, x, k)) for x in elements)
    )


def brute_k_commuting(G, theta, k, budget=DEFAULT_BUDGET):
    """(True, None) or (False, first failing x), straight from the
    definition."""
    A = getattr(G, "algebra", G)
    S = _structure(A)
    cols = _columns(A, theta)
    for x in enumerate_elements(A, budget):
        if any(_bracket_power(A, S, _apply(A, cols, x), x, k)):
            return False, x
    return True, None


def brute_properness(G, theta, budget=DEFAULT_BUDGET):
    """Search every central lambda and test, element by element, whether
    x -> theta(x) - x*lambda lands in the center; (True, lambda) on the
    first hit, else (False, None)."""
    A = getattr(G, "algebra", G)
    ring = A.ring
    center = brute_center(A, budget)
    cset = set(center)
    basis = [
        tuple(ring.one if j == i else ring.zero for j in range(A.dim))
        for i in range(A.dim)
    ]
    cols = _columns(A, theta)
    images = [_apply(A, cols, e) for e in basis]
    S = _structure(A)
    for lam in center:
        if all(
            tuple(map(ring.sub, img, _mul(A, S, e, lam))) in cset
            for e, img in zip(basis, images)
        ):
            return True, lam
    return False, None
