"""Constructors for the standard worked families: full matrix algebras
split into 2x2 blocks, (block) triangular algebras, and inflated algebras
with a twisted product."""

from collections import namedtuple

from . import linalg
from .algebra import Algebra
from .errors import BadShape, BadSplit, TheoremViolation
from .maps import LinMap
from .morita import Bimodule, MoritaContext, build_gma


def _block_of(dvec, r):
    acc = 0
    for b, d in enumerate(dvec):
        acc += d
        if r < acc:
            return b
    raise BadShape(f"row {r} outside shape {dvec}")


def block_triangular_matrix_algebra(ring, dvec, lower=False):
    """Matrices supported on the blocks on or above (below, if ``lower``)
    the diagonal of the given block shape."""
    return _matrix_units(ring, dvec, lower)[0]


def _matrix_units(ring, dvec, lower=False):
    """``block_triangular_matrix_algebra`` and the matrix position (r, c)
    of each of its basis elements."""
    dvec = tuple(int(d) for d in dvec)
    if not dvec or any(d < 1 for d in dvec):
        raise BadShape(f"block sizes must be positive: {dvec}")
    n = sum(dvec)
    positions = []
    for r in range(n):
        for c in range(n):
            br, bc = _block_of(dvec, r), _block_of(dvec, c)
            if (br >= bc) if lower else (br <= bc):
                positions.append((r, c))
    index = {pos: i for i, pos in enumerate(positions)}
    dim = len(positions)
    zero = (ring.zero,) * dim
    table = [[zero] * dim for _ in range(dim)]
    for i, (r, c) in enumerate(positions):
        for j, (r2, c2) in enumerate(positions):
            if c == r2:
                out = [ring.zero] * dim
                out[index[(r, c2)]] = ring.one
                table[i][j] = tuple(out)
    unit = [ring.zero] * dim
    for r in range(n):
        unit[index[(r, r)]] = ring.one
    labels = [f"E{r + 1}{c + 1}" for r, c in positions]
    return Algebra(ring, labels, table, unit).validate(), positions


def matrix_algebra(ring, n):
    """The full n x n matrix algebra on matrix units."""
    if n < 1:
        raise BadShape(f"matrix size must be positive, got {n}")
    return block_triangular_matrix_algebra(ring, (n,))


def triangular_matrix_algebra(ring, n, lower=False):
    if n < 1:
        raise BadShape(f"matrix size must be positive, got {n}")
    return block_triangular_matrix_algebra(ring, (1,) * n, lower=lower)


def _unit(ring, dim, i):
    return tuple(ring.one if t == i else ring.zero for t in range(dim))


def _rectangle(ring, lpos, rpos, rows, cols):
    """The rows x cols matrices as an (L, R)-bimodule under matrix
    products, for matrix-unit algebras L and R of sizes rows and cols with
    basis positions lpos and rpos (see ``_matrix_units``)."""
    cells = [(p, q) for p in range(rows) for q in range(cols)]
    zero = (ring.zero,) * len(cells)
    left = [
        [_unit(ring, len(cells), cells.index((a, q))) if b == p else zero
         for p, q in cells]
        for a, b in lpos
    ]
    right = [
        [_unit(ring, len(cells), cells.index((p, d))) if q == c else zero
         for c, d in rpos]
        for p, q in cells
    ]
    return Bimodule(ring, len(cells), left, right, len(lpos), len(rpos))


def _pairing(ring, lpos, rows, cols):
    """Products of rows x cols by cols x rows matrices, in the full matrix
    algebra with basis positions lpos."""
    return [
        [_unit(ring, len(lpos), lpos.index((p, s)) if q == r else -1)
         for r in range(cols) for s in range(rows)]
        for p in range(rows) for q in range(cols)
    ]


def _matrix_block_context(ring, top, bot, with_lower):
    """Context whose blocks are matrices: A and B the block upper
    triangular matrix algebras of shapes top and bot, M the rectangle
    between them, N the opposite rectangle (empty unless ``with_lower``).
    The N side is the M side with A and B exchanged."""
    (A, apos), (B, bpos) = _matrix_units(ring, top), _matrix_units(ring, bot)
    arows, brows = sum(top), sum(bot)
    M = _rectangle(ring, apos, bpos, arows, brows)
    if with_lower:
        N = _rectangle(ring, bpos, apos, brows, arows)
        phi = _pairing(ring, apos, arows, brows)
        psi = _pairing(ring, bpos, brows, arows)
    else:
        N = Bimodule(ring, 0, [[] for _ in range(B.dim)], [], B.dim, A.dim)
        phi = [[] for _ in range(M.dim)]
        psi = []
    return MoritaContext(A, B, M, N, phi, psi)


def full_matrix_gma(ring, n, split_j):
    """M_n(R) presented as a 2x2 generalized matrix algebra with an
    (split_j, n - split_j) partition."""
    if n < 2:
        raise BadShape(f"need n >= 2, got {n}")
    if not 1 <= split_j < n:
        raise BadSplit(f"split must satisfy 1 <= j < {n}, got {split_j}")
    ctx = _matrix_block_context(ring, (split_j,), (n - split_j,), True)
    return build_gma(ctx)


def full_matrix_basis_bijection(G, n, split_j):
    """Global basis index -> matrix position (r, c) in M_n under the block
    partition; inverts the construction of full_matrix_gma."""
    j = split_j
    out = {}
    for loc, i in enumerate(G.block_range("A")):
        out[i] = (loc // j, loc % j)
    for loc, i in enumerate(G.block_range("M")):
        out[i] = (loc // (n - j), j + loc % (n - j))
    for loc, i in enumerate(G.block_range("N")):
        out[i] = (j + loc // j, loc % j)
    for loc, i in enumerate(G.block_range("B")):
        out[i] = (j + loc // (n - j), j + loc % (n - j))
    return out


def verify_full_matrix_model(G, n, split_j):
    """Whether G's multiplication matches matrix-unit multiplication in
    M_n under the explicit basis bijection."""
    bij = full_matrix_basis_bijection(G, n, split_j)
    rg = G.ring
    for i1 in range(G.dim):
        r1, c1 = bij[i1]
        for i2 in range(G.dim):
            r2, c2 = bij[i2]
            prod = G.algebra.table[i1][i2]
            expect = [rg.zero] * G.dim
            if c1 == r2:
                target = next(
                    idx for idx, pos in bij.items() if pos == (r1, c2)
                )
                expect[target] = rg.one
            if prod != tuple(expect):
                return False
    return True


def triangular_gma(ring, n, split_k, variant="upper"):
    """T_n(R) as [T_k, rectangle; 0, T_{n-k}] (upper), or the mirrored
    lower-triangular presentation with the rectangle in the (2,1) block."""
    if n < 2:
        raise BadShape(f"need n >= 2, got {n}")
    if not 1 <= split_k < n:
        raise BadSplit(f"split must satisfy 1 <= k < {n}, got {split_k}")
    if variant not in ("upper", "lower"):
        raise BadShape(f"variant must be upper or lower, got {variant!r}")
    top, bot = (1,) * split_k, (1,) * (n - split_k)
    if variant == "upper":
        return build_gma(_matrix_block_context(ring, top, bot, False))
    # lower variant: M = 0, the rectangle sits in the N block and carries
    # (n-k) x k matrices: left B-action, right A-action
    A, apos = _matrix_units(ring, top, lower=True)
    B, bpos = _matrix_units(ring, bot, lower=True)
    N = _rectangle(ring, bpos, apos, n - split_k, split_k)
    M0 = Bimodule(ring, 0, [[] for _ in range(A.dim)], [], A.dim, B.dim)
    ctx = MoritaContext(A, B, M0, N, [], [[] for _ in range(N.dim)])
    return build_gma(ctx)


def block_triangular_gma(ring, dvec, split_j):
    """The block upper triangular algebra with shape dvec, split after the
    first split_j blocks."""
    dvec = tuple(int(d) for d in dvec)
    if not dvec or any(d < 1 for d in dvec):
        raise BadShape(f"block sizes must be positive: {dvec}")
    if not 1 <= split_j < len(dvec):
        raise BadSplit(
            f"split must satisfy 1 <= j < {len(dvec)}, got {split_j}"
        )
    ctx = _matrix_block_context(ring, dvec[:split_j], dvec[split_j:], False)
    return build_gma(ctx)


InflatedSpec = namedtuple("InflatedSpec", ["base", "n", "gamma"])

InflatedAlgebra = namedtuple(
    "InflatedAlgebra", ["algebra", "has_identity", "identity", "sigma"]
)


def _gamma_entries(spec):
    A = spec.base
    n = spec.n
    g = [[A.vec(spec.gamma[i][j]) for j in range(n)] for i in range(n)]
    if len(spec.gamma) != n:
        raise BadShape("twist matrix must be n x n")
    return g


def inflated_algebra(spec):
    """n x n matrices over the base algebra with the twisted product
    X o Y = X * Gamma * Y.  Unital exactly when Gamma is invertible; then
    the identity is Gamma^{-1} and X -> X * Gamma^{-1} is an isomorphism
    onto the untwisted matrix algebra (verified on basis pairs)."""
    A = spec.base
    rg = A.ring
    n = int(spec.n)
    if n < 1:
        raise BadShape(f"need n >= 1, got {n}")
    gamma = _gamma_entries(spec)
    dA = A.dim
    dim = n * n * dA

    def flat(i, j, t):
        return (i * n + j) * dA + t

    zero = (rg.zero,) * dim
    table = [[zero] * dim for _ in range(dim)]
    for i in range(n):
        for j in range(n):
            for t in range(dA):
                et = A.basis_vector(t)
                row_idx = flat(i, j, t)
                for k in range(n):
                    for l in range(n):
                        coeff = A.mul(et, gamma[j][k])
                        for s in range(dA):
                            prod = A.mul(coeff, A.basis_vector(s))
                            if A.is_zero(prod):
                                continue
                            out = list(table[row_idx][flat(k, l, s)])
                            for r, c in enumerate(prod):
                                out[flat(i, l, r)] = rg.add(
                                    out[flat(i, l, r)], c
                                )
                            table[row_idx][flat(k, l, s)] = tuple(out)
    labels = [
        f"X{i + 1}{j + 1}:{A.labels[t]}"
        for i in range(n)
        for j in range(n)
        for t in range(dA)
    ]

    ginv = _invert_over_base(A, gamma, n)
    if ginv is None:
        # no identity: return the raw (non-unital) product data; the unit
        # slot is filled with zero and downstream unital tooling refuses
        alg = Algebra(rg, labels, table, [rg.zero] * dim)
        return InflatedAlgebra(alg, False, None, None)

    unit = [rg.zero] * dim
    for i in range(n):
        for j in range(n):
            for t, c in enumerate(ginv[i][j]):
                unit[flat(i, j, t)] = c
    alg = Algebra(rg, labels, table, unit).validate()

    # sigma(X) = X * Gamma^{-1}, column per basis element
    cols = []
    for i in range(n):
        for j in range(n):
            for t in range(dA):
                col = [rg.zero] * dim
                for l in range(n):
                    prod = A.mul(A.basis_vector(t), ginv[j][l])
                    for r, c in enumerate(prod):
                        col[flat(i, l, r)] = rg.add(col[flat(i, l, r)], c)
                cols.append(tuple(col))
    sigma = LinMap.from_columns(rg, cols)

    plain = _plain_matrix_mul_over_base(A, n)
    for p in range(dim):
        for q in range(dim):
            lhs = alg.mul(sigma.column(p), sigma.column(q))
            rhs = sigma.apply(plain(p, q))
            if lhs != rhs:
                raise TheoremViolation(
                    "twist untwisting map failed to be multiplicative",
                    (p, q),
                )
    return InflatedAlgebra(alg, True, tuple(unit), sigma)


def _plain_matrix_mul_over_base(A, n):
    """Product of two basis elements under the ordinary (untwisted) matrix
    multiplication, as a flat vector."""
    rg = A.ring
    dA = A.dim
    dim = n * n * dA

    def flat(i, j, t):
        return (i * n + j) * dA + t

    def mul(p, q):
        i, j, t = p // (n * dA), (p // dA) % n, p % dA
        k, l, s = q // (n * dA), (q // dA) % n, q % dA
        out = [rg.zero] * dim
        if j == k:
            prod = A.mul(A.basis_vector(t), A.basis_vector(s))
            for r, c in enumerate(prod):
                out[flat(i, l, r)] = c
        return tuple(out)

    return mul


def _invert_over_base(A, gamma, n):
    """Solve Gamma * X = I over M_n(A) and confirm X * Gamma = I; None when
    Gamma is not invertible."""
    rg = A.ring
    dA = A.dim
    left = [
        [A.left_mult_matrix(gamma[i][k]) for k in range(n)] for i in range(n)
    ]
    X = [[None] * n for _ in range(n)]
    for col in range(n):
        rows = []
        rhs = []
        for i in range(n):
            for r in range(dA):
                row = []
                for k in range(n):
                    row.extend(left[i][k][r])
                rows.append(row)
                target = A.unit if i == col else A.zero()
                rhs.append(target[r])
        sol = linalg.solve_linear(rg, rows, rhs)
        if sol is None:
            return None
        for k in range(n):
            X[k][col] = tuple(sol.particular[k * dA : (k + 1) * dA])
    # confirm the two-sided inverse
    for i in range(n):
        for j in range(n):
            s = A.zero()
            for k in range(n):
                s = A.add(s, A.mul(X[i][k], gamma[k][j]))
            if s != (A.unit if i == j else A.zero()):
                return None
    return X
