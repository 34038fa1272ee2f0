"""Definitional brute-force cross-checks.

Everything here is computed straight from the definitions with its own
multiplication and enumeration loops -- deliberately sharing nothing with
the optimized implementations except scalar arithmetic -- so the two
routes can validate each other.
"""

from .errors import BudgetExceeded, NotEnumerable

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


def _structure(A):
    """For each basis product e_i e_j, its nonzero coordinates (r, c),
    read off the table with the oracle's own loops."""
    ring = A.ring
    return [
        [
            [(r, A.table[i][j][r]) for r in range(A.dim)
             if A.table[i][j][r] != ring.zero]
            for j in range(A.dim)
        ]
        for i in range(A.dim)
    ]


def _mul(A, S, x, y):
    """x * y from the nonzero structure constants ``S = _structure(A)``."""
    ring = A.ring
    out = [ring.zero] * A.dim
    for i in range(A.dim):
        if x[i] == ring.zero:
            continue
        for j in range(A.dim):
            if y[j] == ring.zero:
                continue
            c = ring.mul(x[i], y[j])
            for r, cr in S[i][j]:
                out[r] = ring.add(out[r], ring.mul(c, cr))
    return tuple(out)


def _bracket_power(A, S, y, x, k):
    """[y, x]_k by direct recursion on products."""
    ring = A.ring
    out = y
    for _ in range(k):
        a = _mul(A, S, out, x)
        b = _mul(A, S, x, out)
        out = tuple(ring.sub(u, v) for u, v in zip(a, b))
    return out


def _is_zero(A, v):
    return all(c == A.ring.zero for c in v)


def brute_center(A, budget=DEFAULT_BUDGET):
    """All a with ax = xa for every x, as a sorted element list."""
    S = _structure(A)
    out = []
    for a in enumerate_elements(A, budget):
        ok = True
        for x in enumerate_elements(A, budget):
            if _mul(A, S, a, x) != _mul(A, S, x, a):
                ok = False
                break
        if ok:
            out.append(a)
    return sorted(out)


def brute_zk(A, k, budget=DEFAULT_BUDGET):
    """All a with [a, x]_k = 0 for every x, as a sorted element list."""
    S = _structure(A)
    out = []
    for a in enumerate_elements(A, budget):
        ok = True
        for x in enumerate_elements(A, budget):
            if not _is_zero(A, _bracket_power(A, S, a, x, k)):
                ok = False
                break
        if ok:
            out.append(a)
    return sorted(out)


def brute_k_commuting(G, theta, k, budget=DEFAULT_BUDGET):
    """(True, None) or (False, first failing x), straight from the
    definition."""
    A = getattr(G, "algebra", G)
    S = _structure(A)
    for x in enumerate_elements(A, budget):
        tx = theta.apply(x)
        if not _is_zero(A, _bracket_power(A, S, tx, x, k)):
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
    images = [theta.apply(e) for e in basis]
    S = _structure(A)
    for lam in center:
        ok = True
        for e, img in zip(basis, images):
            res = tuple(
                ring.sub(u, v) for u, v in zip(img, _mul(A, S, e, lam))
            )
            if res not in cset:
                ok = False
                break
        if ok:
            return True, lam
    return False, None
