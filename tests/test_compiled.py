"""The structure and step reports compiled to rows over vec(theta)
(``compiled.report_rows`` in modes structure and steps) decide every line as
the per-line reports do, and the proper form's guards compiled to rows
(``compiled.report_rows`` in mode proper) pass exactly where ``construct_proper_form``
raises nothing: on the conftest families, their transposes and a
context in a random basis of each corner, over Q and over prime and
composite Z/n, at k = 1..3.  The maps are the generators and seeded
members of the commuting space, and seeded arbitrary maps, which are
passed with ``verdict=(True, None)`` so that lines fail."""

import itertools
import random

import pytest

from conftest import _in_random_basis
from gmalg.algebra import Submodule
from gmalg.families import block_triangular_gma, full_matrix_gma, triangular_gma
from gmalg.compiled import REPORTS, _Forms, report_rows
from gmalg.errors import TheoremViolation
from gmalg.maps import (
    HypothesisWitness,
    LinMap,
    commuting_space,
    construct_proper_form,
    verify_proper_form_steps,
    verify_structure_conditions,
)
from gmalg.morita import _corner_context, build_gma, transpose
from gmalg.rings import Rationals, Zmod

SHAPES = {
    "M2": lambda R: full_matrix_gma(R, 2, 1),
    "T2": lambda R: triangular_gma(R, 2, 1),
    "T3": lambda R: triangular_gma(R, 3, 1),
    "B(2,1)": lambda R: block_triangular_gma(R, (2, 1), 1),
}
RINGS = [Rationals(), Zmod(3), Zmod(5), Zmod(4), Zmod(6), Zmod(9)]
VIEWS = ["plain", "transpose", "random basis"]
# the step report's hypotheses are not what is compared here, and over
# Z/4 and Z/6 they are refused
ASSUMED = HypothesisWitness(True, True, True, None, None)


def _view(G, view, rng):
    if view == "transpose":
        return build_gma(transpose(G.ctx))
    if view == "random basis":
        corner_of = [G.block_of_index(i)[0] for i in range(G.dim)]
        moved = _in_random_basis(G.algebra, rng, corner_of)[0]
        labels = [label.split(":", 1)[1] for label in G.algebra.labels]
        return build_gma(_corner_context(moved, corner_of, labels))
    return G


def _scalar(rng, ring):
    return rng.randrange(ring.n) if ring.enumerable else rng.randint(-3, 3)


def _maps(G, k, rng):
    """The generators, two seeded members, three arbitrary maps, and four
    members with one entry moved, which fail only some lines."""
    space = commuting_space(G, k)
    members = [space.random_member(rng) for _ in range(2)]
    d, rg = G.dim, G.ring
    arbitrary = [LinMap(rg, [[_scalar(rng, rg) for _ in range(d)] for _ in range(d)])
                 for _ in range(3)]
    moved = []
    for _ in range(4):
        rows = [list(r) for r in space.random_member(rng).rows]
        rows[rng.randrange(d)][rng.randrange(d)] += rg.one
        moved.append(LinMap(rg, rows))
    return space.basis() + members + arbitrary + moved


def _verdicts(G, mode, k):
    """theta -> (cond_id, passed) for each line of ``REPORTS[mode]`` compiled
    to rows, in report order: a line passes iff its rows all vanish on
    vec(D*theta) (``LinMap.integral``)."""
    lines, normal = REPORTS[mode][1](_Forms.pair(G), k), G.ring.normal

    def verdicts(theta):
        flat = theta.integral()[1].flatten()
        return [(cid, not any(normal(sum(c * flat[t] for t, c in row.items())) for row in rows))
                for cid, rows in lines]
    return verdicts


def _per_line(rep):
    return [(line.cond_id, line.passed) for line in rep.lines]


def _has_proper_form(G, theta, k):
    """Whether ``construct_proper_form`` raises nothing: its guards raise
    ``TheoremViolation``."""
    try:
        construct_proper_form(G, theta, k, hypotheses=ASSUMED, verdict=(True, None))
    except TheoremViolation:
        return False
    return True


@pytest.mark.parametrize("view", VIEWS)
@pytest.mark.parametrize("ring", RINGS, ids=repr)
@pytest.mark.parametrize("shape", SHAPES)
def test_compiled_lines_match_the_per_line_reports(shape, ring, view):
    rng = random.Random(f"compiled/{shape}/{ring!r}/{view}")
    G = _view(SHAPES[shape](ring), view, rng)
    guards = report_rows(G, "proper", None)
    for k in (1, 2, 3):
        srows, structure = report_rows(G, "structure", k), _verdicts(G, "structure", k)
        steps_of = _verdicts(G, "steps", k)
        for theta in _maps(G, k, rng):
            got = structure(theta)
            assert got == _per_line(verify_structure_conditions(
                G, theta, k, verdict=(True, None))), (k, theta.rows)
            assert srows.passes(theta) == all(ok for _, ok in got)
            steps = steps_of(theta)
            assert steps == _per_line(verify_proper_form_steps(
                G, theta, k, hypotheses=ASSUMED, verdict=(True, None))), (k, theta.rows)
            assert guards.passes(theta) == _has_proper_form(G, theta, k), (k, theta.rows)


@pytest.mark.parametrize("n", [4, 6, 9, 12, 5])
def test_annihilator_membership_is_submodule_membership(n):
    """v lies in S iff it is annihilated by the annihilator of S, also over
    composite Z/n (the double annihilator)."""
    R = Zmod(n)
    rng = random.Random(f"annihilator/{n}")
    for dim in (1, 2, 3):
        for _ in range(6):
            gens = [tuple(rng.randrange(n) * rng.choice([1, 2, 3]) % n
                          for _ in range(dim)) for _ in range(rng.randrange(3))]
            S = Submodule(R, dim, gens)
            ann = S.annihilator()
            for v in itertools.product(range(n), repeat=dim):
                killed = all(sum(a * b for a, b in zip(w, v)) % n == 0 for w in ann)
                assert killed == S.contains(v), (gens, v)
