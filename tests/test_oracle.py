import ast
import inspect
import itertools
import math
import random

import pytest

from gmalg import algebra, maps, oracle
from gmalg.algebra import Algebra, Submodule
from gmalg.errors import BudgetExceeded, DimensionMismatch, NotEnumerable
from gmalg.families import (
    block_triangular_gma,
    full_matrix_gma,
    matrix_algebra,
    triangular_gma,
    triangular_matrix_algebra,
)
from gmalg.maps import LinMap, commuting_space, is_k_commuting, properness_certificate
from gmalg.oracle import (
    _apply,
    _bilinear,
    _bracket_power,
    _columns,
    _commutators,
    _products,
    brute_center,
    brute_k_commuting,
    brute_properness,
    brute_zk,
    enumerate_elements,
    representatives,
)
from gmalg.rings import Rationals, Zmod

from conftest import (
    Q_FAMILIES,
    _in_random_basis,
    is_normal,
    is_zero,
    iterated_bracket,
    nullspace,
    proper_map,
    scale_map,
    span_elements,
    square_zero_algebra,
)


def test_enumeration_counts():
    A = triangular_matrix_algebra(Zmod(2), 2)
    assert len(list(enumerate_elements(A))) == 8
    B = matrix_algebra(Zmod(3), 2)
    assert len(set(enumerate_elements(B))) == 81


def test_enumeration_order_is_lexicographic():
    A = triangular_matrix_algebra(Zmod(2), 2)
    out = list(enumerate_elements(A))
    assert out[0] == (0, 0, 0)
    assert out[1] == (0, 0, 1)
    assert out[-1] == (1, 1, 1)


def test_enumeration_guards():
    big = matrix_algebra(Zmod(5), 3)  # 5^9 elements
    with pytest.raises(BudgetExceeded):
        next(enumerate_elements(big))
    with pytest.raises(NotEnumerable):
        next(enumerate_elements(matrix_algebra(Rationals(), 2)))


def test_brute_k_commuting_refuses_order_zero(m2_z3):
    """theta(x) is handed to the brackets unreduced, so there must be one;
    order 0 is refused as ``is_k_commuting`` refuses it."""
    theta = LinMap.identity(m2_z3.ring, m2_z3.dim)
    with pytest.raises(DimensionMismatch, match="commuting order must be >= 1"):
        brute_k_commuting(m2_z3, theta, 0)
    with pytest.raises(DimensionMismatch, match="commuting order must be >= 1"):
        is_k_commuting(m2_z3, theta, 0)


def test_brute_center_matches_optimized():
    for A in (matrix_algebra(Zmod(3), 2), triangular_matrix_algebra(Zmod(3), 2)):
        assert sorted(span_elements(A.center())) == brute_center(A)


@pytest.mark.parametrize("A", [matrix_algebra(Zmod(4), 2),
                               triangular_matrix_algebra(Zmod(6), 2)],
                         ids=["M2(Z/4)", "T2(Z/6)"])
def test_brute_center_matches_optimized_over_composite_rings(A):
    assert brute_center(A) == sorted(span_elements(A.center()))


def test_brute_k_commuting_agrees(m2_z3):
    sp = commuting_space(m2_z3, 2)
    rng = random.Random(2)
    for theta in list(sp.basis())[:3] + [sp.random_member(rng)]:
        assert brute_k_commuting(m2_z3, theta, 2) == (True, None)
    bad = LinMap.from_columns(
        m2_z3.ring,
        [m2_z3.algebra.mul(m2_z3.embed("M", (1,)), m2_z3.algebra.basis_vector(j))
         for j in range(m2_z3.dim)],
    )
    ours = is_k_commuting(m2_z3, bad, 1)
    theirs = brute_k_commuting(m2_z3, bad, 1)
    assert ours[0] is False and theirs[0] is False


def test_brute_properness_agrees(m2_z3):
    alg = m2_z3.algebra
    two_id = scale_map(LinMap.identity(alg.ring, alg.dim), 2)
    ok, lam = brute_properness(m2_z3, two_id)
    assert ok
    assert m2_z3.gma_center().contains(lam)
    e11 = m2_z3.embed("A", m2_z3.ctx.A.unit)
    improper = LinMap.from_columns(
        alg.ring, [alg.mul(e11, alg.basis_vector(j)) for j in range(alg.dim)]
    )
    assert brute_properness(m2_z3, improper) == (False, None)
    assert properness_certificate(m2_z3, improper) is None


def test_brute_and_certificate_agree_on_random_maps(t2_z3):
    sp = commuting_space(t2_z3, 1)
    rng = random.Random(9)
    for _ in range(5):
        theta = sp.random_member(rng)
        cert = properness_certificate(t2_z3, theta)
        ok, _ = brute_properness(t2_z3, theta)
        assert (cert is not None) == ok


FAMILIES = {
    "M2": lambda R: full_matrix_gma(R, 2, 1),
    "T2": lambda R: triangular_gma(R, 2, 1),
    "T3": lambda R: triangular_gma(R, 3, 1),
    "B(2,1)": lambda R: block_triangular_gma(R, (2, 1), 1),
}


# -- the commutator constants -------------------------------------------------

def _commutator_constants(A):
    """{(i, j): {r: c}}: the nonzero constants c of e_i e_j - e_j e_i at
    coordinate r, read off the dense table."""
    T, d, normal = A.table, A.dim, A.ring.normal
    out = {}
    for i in range(d):
        for j in range(d):
            cell = {r: c for r in range(d) if (c := normal(T[i][j][r] - T[j][i][r]))}
            if cell:
                out[i, j] = cell
    return out


def _as_constants(A, groups):
    """``groups``, [(i, [(j, ((r, c), ...)), ...]), ...], as {(i, j): {r: c}},
    after checking that no group or cell is empty or given twice and that
    every scalar is nonzero and in normal form."""
    out = {}
    for i, row in groups:
        assert row
        for j, terms in row:
            assert terms and (i, j) not in out
            assert all(is_normal(A.ring, c) and c for _, c in terms)
            out[i, j] = dict(terms)
            assert len(out[i, j]) == len(terms)
    return out


def _assert_commutators(A):
    """``Algebra.adjoint_terms`` gives the constants of e_i e_j - e_j e_i,
    and ``oracle._commutators`` those of the pairs i < j, on a copy of A
    with nothing cached."""
    want = _commutator_constants(A)
    fresh = Algebra(A.ring, A.labels, A.table, A.unit)
    ad = fresh.adjoint_terms()
    assert len(ad) == A.dim
    assert _as_constants(A, [(r, row) for r, row in enumerate(ad) if row]) == want
    assert _as_constants(A, oracle._commutators(fresh)) \
        == {(i, j): cell for (i, j), cell in want.items() if i < j}
    return want


# every family of conftest, over Q, Z/p and composite Z/n
COMMUTATOR_SOURCES = {
    **{name: name for name in ("m2_z3", "m2_z5", "t2_z3", "t2_z5", "t3_z3", "b21_z3",
                               "non_faithful_z3")},
    **{name: build for name, _, build in Q_FAMILIES},
    **{f"{family}(Z/{n})": (lambda build=build, n=n: build(Zmod(n)))
       for family, build in FAMILIES.items() for n in (4, 6, 9)},
}


@pytest.mark.parametrize("source", sorted(COMMUTATOR_SOURCES))
def test_commutator_constants_are_read_off_the_table(source, request):
    """On G, A and B, in the standard basis and in random ones."""
    make = COMMUTATOR_SOURCES[source]
    G = request.getfixturevalue(make) if isinstance(make, str) else make()
    for alg in (G.algebra, G.ctx.A, G.ctx.B):
        _assert_commutators(alg)
        if alg.dim > 1:         # a random basis needs two elements to mix
            for seed in (1, 2):
                _assert_commutators(_in_random_basis(alg, random.Random(seed))[0])


def _dual_numbers(R):
    """R[x]/(x^2) on the basis 1, x: commutative."""
    return Algebra(R, ["1", "x"], [[(1, 0), (0, 1)], [(0, 1), (0, 0)]], (1, 0))


@pytest.mark.parametrize("ring", [Rationals(), Zmod(3), Zmod(4), Zmod(6)], ids=repr)
@pytest.mark.parametrize("build", [_dual_numbers, square_zero_algebra],
                         ids=["R[x]/(x^2)", "R[x,y]/(x,y)^2"])
def test_a_commutative_algebra_has_no_commutator_constants(build, ring):
    """Every pair commutes, most of them with equal nonempty products."""
    A = build(ring)
    assert any(A.table[i][j] == A.table[j][i] and any(A.table[i][j])
               for i in range(A.dim) for j in range(i))
    assert _assert_commutators(A) == {}
    assert A.adjoint_terms() == ((),) * A.dim
    assert oracle._commutators(A) == []
    _assert_commutators(_in_random_basis(A, random.Random(1))[0])


def brute_commuting_space(A, k):
    """The maps theta with [theta(x), x]_k = 0 at every element x.  At one
    x the condition is linear in the entries of theta: theta[p][q] enters
    it with x_q [e_p, x]_k."""
    R, d = A.ring, A.dim
    comm = _commutators(A)
    basis = [tuple(R.one if j == p else R.zero for j in range(d)) for p in range(d)]
    rows = set()
    for x in enumerate_elements(A):
        brackets = [_bracket_power(A, comm, e, x, k) for e in basis]
        for r in range(d):
            row = {p * d + q: R.normal(x[q] * b[r]) for p, b in enumerate(brackets)
                   for q in range(d) if x[q] and b[r]}
            rows.add(tuple(sorted(row.items())))
    gens = nullspace(R, [dict(row) for row in sorted(rows)], d * d)
    return Submodule(R, d * d, gens)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("p, k", [(2, 1), (3, 2), (2, 2)])
def test_commuting_space_and_verdicts_equal_brute_force(family, p, k):
    """Over Z/p with p = k+1 the coefficients of [theta(x), x]_k decide it;
    with p < k+1 they do not, and the coefficients folded by x_i^p = x_i
    must be used."""
    alg = FAMILIES[family](Zmod(p)).algebra
    R, d = alg.ring, alg.dim
    space = commuting_space(alg, k)
    assert space.space.equals(brute_commuting_space(alg, k))
    rng = random.Random(f"{family}/{p}/{k}")
    maps = space.basis() + [space.random_member(rng) for _ in range(2)]
    for theta in list(maps):
        rows = [list(r) for r in theta.rows]
        rows[rng.randrange(d)][rng.randrange(d)] += 1
        maps.append(LinMap(R, rows))
    for theta in maps:
        assert is_k_commuting(alg, theta, k) == brute_k_commuting(alg, theta, k)


@pytest.mark.parametrize("family", ["M2", "T2", "T3"])
@pytest.mark.parametrize("p", [2, 3])
def test_folded_verdicts_and_witnesses_equal_brute_force_in_a_random_basis(family, p):
    """In a random basis (dense constants) over Z/p with p < k+1, where
    many monomials of [theta(x), x]_k fold together, the commuting space
    is the brute-force one, and on perturbed maps the verdict and the
    witness (found from the lead of the folded groups) are the oracle's."""
    base = FAMILIES[family](Zmod(p)).algebra
    refuted = 0
    for seed in (1, 2):
        alg = _in_random_basis(base, random.Random(seed))[0]
        R, d = alg.ring, alg.dim
        rng = random.Random(f"{family}/{p}/{seed}")
        for k in (2, 3, 4):
            space = commuting_space(alg, k)
            assert space.space.equals(brute_commuting_space(alg, k))
            maps = []
            for theta in space.basis()[:2] + [space.random_member(rng) for _ in range(2)]:
                rows = [list(r) for r in theta.rows]
                rows[rng.randrange(d)][rng.randrange(d)] += rng.randrange(1, p)
                maps.append(LinMap(R, rows))
            verdicts = [is_k_commuting(alg, theta, k) for theta in maps]
            assert verdicts == [brute_k_commuting(alg, theta, k) for theta in maps]
            refuted += sum(not ok for ok, _ in verdicts)
    assert refuted


def test_oracle_imports_nothing_from_gmalg_but_errors():
    tree = ast.parse(inspect.getsource(oracle))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "gmalg" for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                assert node.module == "errors", ast.dump(node)
            else:
                assert node.module.split(".")[0] != "gmalg" or node.module == "gmalg.errors"


def _raise(*args, **kwargs):
    raise AssertionError("the oracle called a fast path")


@pytest.mark.parametrize("name", ["M2", "T2"])
def test_oracle_runs_without_the_fast_paths(name, monkeypatch):
    """The oracle reads only the stored terms and the map's rows: with the
    fast products, brackets, coefficients and map application, and the
    dense view's expansion, disabled it still reaches the results the fast
    paths give."""
    G = FAMILIES[name](Zmod(3))
    A, R, d = G.algebra, G.ring, G.dim
    rng = random.Random(name)
    thetas = [scale_map(LinMap.identity(R, d), 2), commuting_space(A, 1).random_member(rng)]
    rows = [list(r) for r in thetas[1].rows]
    rows[0][d - 1] += 1
    thetas.append(LinMap(R, rows))
    expected = {
        "center": sorted(span_elements(A.center())),
        "z2": sorted(span_elements(A.engel_center(2))),
        "commuting": [[is_k_commuting(A, t, k) for k in (1, 2)] for t in thetas],
        "proper": [properness_certificate(G, t) is not None
                   for t in thetas if is_k_commuting(A, t, 1)[0]],
    }
    for owner, attr in [(maps.LinMap, "apply"), (Algebra, "mul"), (Algebra, "map_groups"),
                        (algebra, "_bilinear"), (algebra, "_expanded")]:
        monkeypatch.setattr(owner, attr, _raise)
    assert brute_center(A) == expected["center"]
    assert brute_zk(A, 2) == expected["z2"]
    assert [[brute_k_commuting(G, t, k) for k in (1, 2)] for t in thetas] \
        == expected["commuting"]
    proper = [brute_properness(G, t) for t in thetas if brute_k_commuting(G, t, 1)[0]]
    assert [ok for ok, _ in proper] == expected["proper"]
    assert all(lam in expected["center"] for ok, lam in proper if ok)


KERNEL_ALGEBRAS = [
    (f"{name}(Z/{n})", build(Zmod(n)), moved)
    for n in (4, 6, 9)
    for name, build in [("M2", lambda R: matrix_algebra(R, 2)),
                        ("T3", lambda R: triangular_matrix_algebra(R, 3))]
    for moved in (False, True)
]


@pytest.mark.parametrize("label, A, moved", KERNEL_ALGEBRAS,
                         ids=[f"{lab}{'-moved' if m else ''}" for lab, _, m in KERNEL_ALGEBRAS])
def test_oracle_kernels_match_the_algebra(label, A, moved):
    """The oracle's products, brackets and map application against the
    fast ones on random elements, over composite rings and, in a random
    basis, with dense structure constants."""
    rng = random.Random(label + str(moved))
    if moved:
        A = _in_random_basis(A, rng)[0]
    R, d, n = A.ring, A.dim, A.ring.n
    products, comm = _products(A), _commutators(A)
    theta = LinMap(R, [[rng.randrange(n) for _ in range(d)] for _ in range(d)])
    cols = _columns(A, theta)
    for _ in range(20):
        x, y = (tuple(rng.randrange(n) for _ in range(d)) for _ in range(2))
        assert _bilinear(A, products, x, y) == A.mul(x, y)
        for k in (1, 2, 3):
            assert _bracket_power(A, comm, y, x, k) == iterated_bracket(A, y, x, k)
        assert _apply(A, cols, x) == theta.apply(x)


def naive_k_commuting(A, theta, k):
    """The first x in lexicographic order with [theta(x), x]_k != 0."""
    for x in itertools.product(A.ring.scalars(), repeat=A.dim):
        if not is_zero(iterated_bracket(A, theta.apply(x), x, k)):
            return False, x
    return True, None


def burnside(n, d):
    """The number of unit orbits {u*x} on (Z/n)^d: the mean over the units
    u of the gcd(u - 1, n)^d elements that u fixes."""
    units = [u for u in range(n) if math.gcd(u, n) == 1]
    fixed = sum(math.gcd(u - 1, n) ** d for u in units)
    assert fixed % len(units) == 0
    return fixed // len(units)


ORBIT_ALGEBRAS = [
    (f"{name}(Z/{n})", build(Zmod(n)))
    for n in (2, 3, 4, 5, 6, 8, 9, 12)
    for name, build in [("T2", lambda R: triangular_matrix_algebra(R, 2)),
                        ("M2", lambda R: matrix_algebra(R, 2))]
    if n ** build(Zmod(n)).dim <= 5000
]


@pytest.mark.parametrize("label, A", ORBIT_ALGEBRAS,
                         ids=[label for label, _ in ORBIT_ALGEBRAS])
def test_representatives_are_the_first_of_their_unit_orbits(label, A):
    n, d = A.ring.n, A.dim
    units = [u for u in range(n) if math.gcd(u, n) == 1]
    reps = list(representatives(A))
    assert reps == [x for x in enumerate_elements(A)
                    if all(x <= tuple(u * c % n for c in x) for u in units)]
    assert len(reps) == burnside(n, d)


def test_representatives_keep_the_budget_refusal():
    big = matrix_algebra(Zmod(5), 3)
    with pytest.raises(BudgetExceeded, match="1953125 elements exceed the enumeration budget"):
        next(representatives(big))
    with pytest.raises(NotEnumerable):
        next(representatives(matrix_algebra(Rationals(), 2)))


# The reference tests each a against all n^dim elements until one fails,
# so every central a costs all of them: M2 is taken over Z/4 only and the
# commutative F[x,y]/(x,y)^2 over Z/4 and Z/6.
ZK_CASES = [
    (f"{name}(Z/{n})", build, n, moved)
    for name, build, moduli in [
        ("T2", lambda R: triangular_matrix_algebra(R, 2), (4, 6, 9)),
        ("M2", lambda R: matrix_algebra(R, 2), (4,)),
        ("F[x,y]/(x,y)^2", square_zero_algebra, (4, 6)),
    ]
    for n in moduli
    for moved in (False, True)
]


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("label, build, n, moved", ZK_CASES,
                         ids=[f"{lab}{'-moved' if m else ''}"
                              for lab, _, _, m in ZK_CASES])
def test_brute_zk_equals_every_a_against_every_x(label, build, n, moved, k):
    A = build(Zmod(n))
    if moved:
        A = _in_random_basis(A, random.Random(label))[0]
    assert brute_zk(A, k) == naive_zk(A, k)


WITNESS_RUNGS = {
    "M2(Z/3)": lambda: full_matrix_gma(Zmod(3), 2, 1),
    "T3(Z/3)": lambda: triangular_gma(Zmod(3), 3, 1),
    "M2(Z/4)": lambda: full_matrix_gma(Zmod(4), 2, 1),
}


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("rung", sorted(WITNESS_RUNGS))
def test_brute_witness_is_the_first_in_order(rung, k, monkeypatch):
    """Perturbed maps fail at the same first x as a naive scan; a proper
    map is tested at every unit-orbit representative, and a center search
    enumerates none of them."""
    G = WITNESS_RUNGS[rung]()
    A, R, d = G.algebra, G.ring, G.dim
    rng = random.Random(f"{rung}/{k}")
    space = commuting_space(A, k)
    for theta in space.basis()[:2] + [space.random_member(rng) for _ in range(2)]:
        rows = [list(r) for r in theta.rows]
        rows[rng.randrange(d)][rng.randrange(d)] += 1
        perturbed = LinMap(R, rows)
        assert brute_k_commuting(G, perturbed, k) == naive_k_commuting(A, perturbed, k)

    counted = []
    scan = oracle.representatives

    def counting(*args, **kwargs):
        for x in scan(*args, **kwargs):
            counted.append(x)
            yield x

    monkeypatch.setattr(oracle, "representatives", counting)
    proper = scale_map(LinMap.identity(R, d), 2)
    assert brute_k_commuting(G, proper, k) == (True, None)
    assert len(counted) == burnside(R.n, d)
    counted.clear()
    brute_center(A)
    assert counted == []


# -- the scan against a plain reference ---------------------------------------

def plain_k_commuting(A, theta, k):
    """((True, None) or (False, the first x in odometer order with
    [theta(x), x]_k != 0), the x passed on the way whose chain is nonzero
    after one bracket and 0 after k).  Read from the dense table and the
    map's rows alone: every element is checked, each of the k brackets is
    the full double sum sum_{i,j} y_i x_j (e_i e_j - e_j e_i) in plain
    ints, reduced once at the end and never stopped early."""
    n, d = A.ring.n, A.dim
    constants, rows = _commutator_constants(A), theta.rows
    late = []
    for x in itertools.product(range(n), repeat=d):
        y = [sum(row[j] * x[j] for j in range(d)) for row in rows]
        for level in range(k):
            out = [0] * d
            for (i, j), cell in constants.items():
                c = y[i] * x[j]
                for r, v in cell.items():
                    out[r] += c * v
            y = out
            if level == 0:
                first = any(v % n for v in y)
        if any(v % n for v in y):
            return (False, x), late
        if first:
            late.append(x)
    return (True, None), late


# the families of conftest over Z/3, Z/4, Z/5 and Z/9, up to 20000
# elements: each passing map costs the reference every one of them, so
# T3 over Z/9 and B(2,1) over Z/5 and Z/9 (78125 to 4782969 elements)
# are left out
SCAN_CASES = [
    (f"{name}(Z/{n})", build, n)
    for name, build in sorted(FAMILIES.items())
    for n in (3, 4, 5, 9)
    if n ** build(Zmod(n)).dim <= 20000
]
SCAN_IDS = [label for label, _, _ in SCAN_CASES]


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("label, build, n", SCAN_CASES, ids=SCAN_IDS)
def test_scan_equals_a_plain_reference(label, build, n, k):
    """A proper map, members of the commuting space and each of them
    perturbed: the same verdict and witness as the plain reference."""
    G = build(Zmod(n))
    A, R, d = G.algebra, G.ring, G.dim
    rng = random.Random(f"{label}/{k}")
    space = commuting_space(A, k)
    thetas = [proper_map(G, 2, [j % 3 for j in range(d)]),
              space.basis()[0], space.random_member(rng)]
    for theta in thetas[:3]:
        rows = [list(r) for r in theta.rows]
        rows[rng.randrange(d)][rng.randrange(d)] += rng.randrange(1, n)
        thetas.append(LinMap(R, rows))
    for theta in thetas:
        assert brute_k_commuting(G, theta, k) == plain_k_commuting(A, theta, k)[0]


@pytest.mark.parametrize("n", [3, 4, 5, 9])
def test_scan_passes_a_chain_that_becomes_zero_late(n):
    """On M2(Z/n), x -> x_12 E21 at k = 3 passes x = E12, where the chain
    is E21, E22 - E11, -2 E12 and only then 0, before the first failing
    x; the scan reaches the same witness as the reference."""
    G = full_matrix_gma(Zmod(n), 2, 1)
    A, R = G.algebra, G.ring
    e12, e21 = G.embed("M", (1,)), G.embed("N", (1,))
    theta = LinMap.from_columns(R, [e21 if e == e12 else A.zero() for e in A.basis()])
    want, late = plain_k_commuting(A, theta, 3)
    assert e12 in late and want[0] is False and want[1] > e12
    assert e12 in representatives(A)
    assert iterated_bracket(A, e21, e12, 2) != A.zero()
    assert brute_k_commuting(G, theta, 3) == want


@pytest.mark.parametrize("label, build, n", SCAN_CASES, ids=SCAN_IDS)
def test_brute_zk_matches_optimized(label, build, n):
    A = build(Zmod(n)).algebra
    for k in (1, 2):
        assert brute_zk(A, k) == sorted(span_elements(A.engel_center(k)))


def naive_zk(A, k):
    """Every a with [a, x]_k = 0 for every x, each a tested against all
    n^dim elements."""
    elements = list(itertools.product(A.ring.scalars(), repeat=A.dim))
    return [a for a in elements
            if all(is_zero(iterated_bracket(A, a, x, k)) for x in elements)]


def naive_center(A):
    return naive_zk(A, 1)


# The reference costs up to n^dim brackets per element; T3 over Z/6 and
# Z/9 and B(2,1) over Z/6 and Z/9 (46656 to 4782969 elements) are left out.
# Copies in a random basis (dense constants) are taken over Z/4, Z/6, Z/9.
REFERENCE_CAP = 20000
CENTER_CASES = [
    (f"{name}(Z/{n})", build, n, moved)
    for name, build in sorted(FAMILIES.items())
    for n in (2, 3, 4, 6, 9)
    for moved in (False, True)
    if n ** build(Zmod(n)).dim <= REFERENCE_CAP and (n >= 4 or not moved)
]


@pytest.mark.parametrize("label, build, n, moved", CENTER_CASES,
                         ids=[f"{lab}{'-moved' if m else ''}"
                              for lab, _, _, m in CENTER_CASES])
def test_brute_center_equals_every_a_against_every_x(label, build, n, moved):
    A = build(Zmod(n)).algebra
    if moved:
        A = _in_random_basis(A, random.Random(label))[0]
    assert brute_center(A) == naive_center(A)


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_brute_center_of_a_commutative_algebra_is_all_of_it(n):
    A = square_zero_algebra(Zmod(n))
    center = brute_center(A)
    assert len(center) == n ** 3
    assert center == naive_center(A)


COUNTED = {
    "M2(Z/4)": lambda: matrix_algebra(Zmod(4), 2),
    "T3(Z/3)": lambda: triangular_matrix_algebra(Zmod(3), 3),
    "F[x,y]/(x,y)^2 over Z/6": lambda: square_zero_algebra(Zmod(6)),
}


@pytest.mark.parametrize("label", sorted(COUNTED))
def test_center_search_computes_no_bracket(label, monkeypatch):
    """The center is read off the commutator constants: no bracket is
    computed, and every leaf the digit search reaches is central, so a
    commutative algebra reaches exactly its n^d elements."""
    A = COUNTED[label]()
    calls, leaves = [], []
    odometer = oracle._odometer

    def counting(*args):
        for x in odometer(*args):
            leaves.append(x)
            yield x

    monkeypatch.setattr(oracle, "_bracket_power", lambda *args: calls.append(args))
    monkeypatch.setattr(oracle, "_odometer", counting)
    center = brute_center(A)
    assert calls == []
    assert leaves == center
    if label.startswith("F[x,y]"):
        assert len(leaves) == A.ring.n ** A.dim


# Too large for the every-a-against-every-x reference: 46656 to 279936
# elements, each also in a random basis, where dense constants make every
# check involve the last digit, the worst case for dropping prefixes.
DIGIT_CASES = [
    (f"{name}(Z/{n})", build, n, moved)
    for name, build, moduli in [
        ("T3", lambda R: triangular_matrix_algebra(R, 3), (6,)),
        ("B(2,1)", lambda R: block_triangular_gma(R, (2, 1), 1).algebra, (4, 6)),
    ]
    for n in moduli
    for moved in (False, True)
]


@pytest.mark.parametrize("label, build, n, moved", DIGIT_CASES,
                         ids=[f"{lab}{'-moved' if m else ''}"
                              for lab, _, _, m in DIGIT_CASES])
def test_digit_search_center_equals_the_optimized_center(label, build, n, moved):
    A = build(Zmod(n))
    if moved:
        A = _in_random_basis(A, random.Random(label))[0]
    assert brute_center(A) == sorted(span_elements(A.center()))


def test_center_search_keeps_the_refusals():
    with pytest.raises(BudgetExceeded,
                       match="1953125 elements exceed the enumeration budget 1000000"):
        brute_center(matrix_algebra(Zmod(5), 3))
    with pytest.raises(NotEnumerable, match="cannot enumerate over an infinite ring"):
        brute_center(matrix_algebra(Rationals(), 2))


def test_center_of_a_commutative_algebra_over_z9_is_all_729_elements():
    A = square_zero_algebra(Zmod(9))
    assert brute_center(A) == list(itertools.product(range(9), repeat=3))


def test_brute_zk_at_order_one_is_the_center():
    for A in (triangular_matrix_algebra(Zmod(6), 3),
              _in_random_basis(matrix_algebra(Zmod(4), 2), random.Random(4))[0]):
        assert brute_zk(A, 1) == brute_center(A)
