"""Constructors for the standard worked families, each read off one
algebra.

A unital algebra G with an idempotent e is the generalized matrix algebra
[eGe eG(1-e); (1-e)Ge (1-e)G(1-e)].  The full, triangular and block
triangular families are matrix-unit algebras split at e = E11 + ... + Ejj,
their contexts read off by the corner split (``morita._corner_context``).
The inflated algebras are n x n matrices over a base algebra with the
twisted product X o Y = X * Gamma * Y, taken inside M_n(R) ⊗ base."""

from collections import namedtuple

from . import linalg
from .algebra import Algebra, _nonzero_terms
from .errors import BadShape, BadSplit, TheoremViolation
from .maps import LinMap
from .morita import _corner_context, build_gma

# the most scalars a family's dense document may hold (inflated 12 x 12: 3 million)
MAX_DOC_SCALARS = 10**7


def _check_size(a, m=0, n=0, b=0):
    """Refuse, before anything is built, a family whose dense ``context/1``
    document (corners of dimension a, b, modules of dimension m, n; an
    algebra alone: a) would hold more than ``MAX_DOC_SCALARS`` scalars."""
    if a**3 + b**3 + a + b + (a + b) * (m * m + m * n + n * n) > MAX_DOC_SCALARS:
        raise BadShape(f"family too large: a dense document of over {MAX_DOC_SCALARS} scalars")


def _blocks(dvec):
    """The block sizes as ints, and the dimension of their triangular algebra."""
    dvec = tuple(int(d) for d in dvec)
    if not dvec or any(d < 1 for d in dvec):
        raise BadShape(f"block sizes must be positive: {dvec}")
    return dvec, (sum(dvec) ** 2 + sum(d * d for d in dvec)) // 2


def block_triangular_matrix_algebra(ring, dvec, lower=False):
    """Matrices supported on the blocks on or above (below, if ``lower``)
    the diagonal of the given block shape."""
    dvec, dim = _blocks(dvec)
    _check_size(dim)
    return _matrix_units(ring, dvec, lower)[0].validate()


def _matrix_units(ring, dvec, lower=False):
    """``block_triangular_matrix_algebra``, unchecked, and the matrix
    position (r, c) of each of its basis elements, for ``_blocks`` sizes.
    Its terms are built from ``ring.one``, so they are not coerced."""
    block = [b for b, d in enumerate(dvec) for _ in range(d)]
    n = len(block)
    positions = [(r, c) for r in range(n) for c in range(n)
                 if (block[r] >= block[c] if lower else block[r] <= block[c])]
    index = {pos: i for i, pos in enumerate(positions)}
    dim = len(positions)
    terms = [[()] * dim for _ in range(dim)]
    # E_rc E_cd = E_rd, on the matrix units (c, d) of the support
    for i, (r, c) in enumerate(positions):
        for d in range(n):
            j = index.get((c, d))
            if j is not None:
                terms[i][j] = ((index[(r, d)], ring.one),)
    unit = [ring.zero] * dim
    for r in range(n):
        unit[index[(r, r)]] = ring.one
    labels = [_unit_label(r + 1, c + 1, n) for r, c in positions]
    return Algebra._from_normal(ring, labels, tuple(map(tuple, terms)), unit), positions


def _unit_label(r, c, n):
    """The label of the matrix unit at the 1-based position (r, c) of an
    n x n matrix: E{r}{c}, with a comma between r and c from n = 10 on,
    where the digits alone no longer tell the position (E111)."""
    return f"E{r},{c}" if n >= 10 else f"E{r}{c}"


def matrix_algebra(ring, n):
    """The full n x n matrix algebra on matrix units."""
    if n < 1:
        raise BadShape(f"matrix size must be positive, got {n}")
    return block_triangular_matrix_algebra(ring, (n,))


def triangular_matrix_algebra(ring, n, lower=False):
    if n < 1:
        raise BadShape(f"matrix size must be positive, got {n}")
    _check_size(n * (n + 1) // 2)
    return block_triangular_matrix_algebra(ring, (1,) * n, lower=lower)


def _split_gma(ring, dvec, split, lower=False):
    """The block (lower) triangular matrix algebra of shape dvec as
    [A M; N B], split at e = E11 + ... + E_split,split: the matrix unit at
    (r, c) lies in the corner (r >= split, c >= split).  A and B are
    labelled by their local matrix positions."""
    alg, positions = _matrix_units(ring, dvec, lower)
    size = sum(dvec)
    corner_of, labels = [], []
    for r, c in positions:
        low, right = r >= split, c >= split
        corner_of.append("AMNB"[2 * low + right])
        labels.append(_unit_label(r - split * low + 1, c - split * right + 1, size))
    return build_gma(_corner_context(alg, corner_of, labels))


def full_matrix_gma(ring, n, split_j):
    """M_n(R) presented as a 2x2 generalized matrix algebra with an
    (split_j, n - split_j) partition."""
    if n < 2:
        raise BadShape(f"need n >= 2, got {n}")
    if not 1 <= split_j < n:
        raise BadSplit(f"split must satisfy 1 <= j < {n}, got {split_j}")
    j, r = split_j, n - split_j
    _check_size(j * j, j * r, j * r, r * r)
    return _split_gma(ring, (n,), split_j)


def triangular_gma(ring, n, split_k, variant="upper"):
    """T_n(R) as [T_k, rectangle; 0, T_{n-k}] (upper), or the mirrored
    lower-triangular presentation with the rectangle in the (2,1) block."""
    if n < 2:
        raise BadShape(f"need n >= 2, got {n}")
    if not 1 <= split_k < n:
        raise BadSplit(f"split must satisfy 1 <= k < {n}, got {split_k}")
    if variant not in ("upper", "lower"):
        raise BadShape(f"variant must be upper or lower, got {variant!r}")
    k, r = split_k, n - split_k
    _check_size(k * (k + 1) // 2, k * r, 0, r * (r + 1) // 2)
    return _split_gma(ring, (1,) * n, split_k, variant == "lower")


def block_triangular_gma(ring, dvec, split_j):
    """The block upper triangular algebra with shape dvec, split after the
    first split_j blocks."""
    dvec, _ = _blocks(dvec)
    if not 1 <= split_j < len(dvec):
        raise BadSplit(f"split must satisfy 1 <= j < {len(dvec)}, got {split_j}")
    split = sum(dvec[:split_j])
    _check_size(_blocks(dvec[:split_j])[1], split * (sum(dvec) - split), 0,
                _blocks(dvec[split_j:])[1])
    return _split_gma(ring, dvec, split)


InflatedSpec = namedtuple("InflatedSpec", ["base", "n", "gamma"])

InflatedAlgebra = namedtuple(
    "InflatedAlgebra", ["algebra", "has_identity", "identity", "sigma"]
)


def _tensor(X, Y):
    """X ⊗ Y over their common ring, on the basis e_i ⊗ f_t at index
    i * Y.dim + t, labelled "x:y"; its structure constants are the
    products of the two algebras' terms, in normal form.  Unchecked."""
    rg, dY = X.ring, Y.dim

    def kron(x, y):
        return tuple((r * dY + t, c) for r, a in x for t, b in y if (c := rg.normal(a * b)))

    terms = tuple(tuple(kron(x, y) for x in xrow for y in yrow)
                  for xrow in X._terms for yrow in Y._terms)
    labels = [f"{a}:{b}" for a in X.labels for b in Y.labels]
    unit = tuple(rg.normal(a * b) for a in X.unit for b in Y.unit)
    return Algebra._from_normal(rg, labels, terms, unit)


def inflated_algebra(spec):
    """n x n matrices over the base algebra with the twisted product
    X o Y = X * Gamma * Y, taken in P = M_n(R) ⊗ base.  Unital exactly
    when Gamma is invertible in P; then the identity is Gamma^{-1} and
    X -> X * Gamma^{-1} is an isomorphism onto P (verified on basis
    pairs).  Each twist entry is coerced by ``base.vec``."""
    return _inflated(spec, spec.base.vec)


def inflated_from_normal(spec):
    """``inflated_algebra`` for a twist whose entries are tuples of
    ``base.dim`` scalars in normal form already, as the command line
    decodes them: nothing is coerced again."""
    return _inflated(spec, tuple)


def _inflated(spec, vec):
    """``inflated_algebra``, each twist entry read as ``vec(entry)``."""
    base, g = spec.base, spec.gamma
    rg = base.ring
    n = int(spec.n)
    if n < 1:
        raise BadShape(f"need n >= 1, got {n}")
    if len(g) != n or any(len(row) != n for row in g):
        raise BadShape("twist matrix must be n x n")
    _check_size(n * n * base.dim)
    P = _tensor(matrix_algebra(rg, n), base)
    # n x n entries of the base's dimension, so P.dim coordinates
    gamma = tuple(c for row in g for entry in row for c in vec(entry))
    basis = P.basis()
    table = [[P.mul(x, e) for e in basis] for x in (P.mul(e, gamma) for e in basis)]
    terms = _nonzero_terms(table)
    # the matrix unit E_ij of P is the basis element X_ij
    labels = [f"X{label[1:]}" for label in P.labels]

    sol = linalg.solve_linear(rg, [dict(enumerate(row)) for row in P.left_mult_matrix(gamma)],
                              P.unit, P.dim)
    ginv = None if sol is None else sol.particular
    if ginv is None or P.mul(ginv, gamma) != P.unit:
        # no identity: return the raw (non-unital) product data; the unit
        # slot is filled with zero and downstream unital tooling refuses
        alg = Algebra._from_normal(rg, labels, terms, P.zero())
        return InflatedAlgebra(alg, False, None, None)

    alg = Algebra._from_normal(rg, labels, terms, ginv).validate()
    sigma = LinMap._from_normal(rg, tuple(P.right_mult_matrix(ginv)))
    for p in range(P.dim):
        for q in range(P.dim):
            if alg.mul(sigma.column(p), sigma.column(q)) != sigma.apply(P.mul(basis[p], basis[q])):
                raise TheoremViolation(
                    "twist untwisting map failed to be multiplicative",
                    (p, q),
                )
    return InflatedAlgebra(alg, True, ginv, sigma)
