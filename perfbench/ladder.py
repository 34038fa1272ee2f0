"""Seeded workloads: the rungs of the verdict ladder and the verdicts run on them.

A workload is a fixed list of verdicts (one pass).  Each verdict is one
``gmalg`` command line plus the outcome expected from how its inputs were
built.  The seed changes the maps (their scalars) and the sweep samples,
never which verdicts run or where a map is perturbed, so the work done per
pass does not depend on the seed.

Seeded maps are proper by construction, ``x -> c*x + f(x)*1``, or such a
map with one matrix entry perturbed.  A perturbation ``delta`` at entry
(i, j) adds ``x -> delta*x_j*e_i``; it is placed only where ``verdicts``
finds an element x with ``[e_i, x]_k != 0`` and ``x_j`` a unit, so the
perturbed map is provably not k-commuting whatever the seed.
"""

import json
import os
import random
from collections import namedtuple
from fractions import Fraction
from math import gcd

import verdicts

Rung = namedtuple("Rung", ["name", "ring", "family", "shape"])
Verdict = namedtuple("Verdict", ["label", "argv", "expect"])
Case = namedtuple("Case", ["rung", "algebra"])


def _rung(name, ring, family, *shape):
    return Rung(name, ring, family, shape)


# Prime-field rungs.  A pass must stay near 4 s so that a 30 s run repeats
# each verdict several times (see README.md), so proving verdicts and sweeps,
# which scan all n^dim elements, run on a few (rung, k) pairs: every rung is
# validated and refuted at k = 1..3, every k is proved on some rung, and
# every sweep mode runs on the cheapest rung.  Full scans of B(2,1)(Z/5) and
# T4(Z/3) take 2-20 s per verdict at the seed commit and get none.
ZP_RUNGS = [
    _rung("M2(Z/11)", "zmod:11", "full", 2, 1),
    _rung("T3(Z/5)", "zmod:5", "triangular", 3, 1),
    _rung("B(2,1)(Z/3)", "zmod:3", "block", (2, 1), 1),
    _rung("B(2,1)(Z/5)", "zmod:5", "block", (2, 1), 1),
    _rung("M3(Z/3)", "zmod:3", "full", 3, 1),
    _rung("T4(Z/3)", "zmod:3", "triangular", 4, 2),
]
ZP_PROVE = {  # rung -> orders k of the proving classify on a proper map
    "B(2,1)(Z/3)": (1, 2, 3),
    "M2(Z/11)": (1,),
    "T3(Z/5)": (2,),
    "M3(Z/3)": (3,),
}
ZP_SWEEPS = [  # (rung, mode, k)
    ("B(2,1)(Z/3)", "structure", 1),
    ("B(2,1)(Z/3)", "proper", 2),
    ("B(2,1)(Z/3)", "steps", 3),
    ("B(2,1)(Z/3)", "derivations", 1),
    ("B(2,1)(Z/3)", "derivations", 2),
    ("B(2,1)(Z/3)", "derivations", 3),
]

Q_RUNGS = [
    _rung("M2(Q)", "q", "full", 2, 1),
    _rung("T3(Q)", "q", "triangular", 3, 1),
    _rung("B(2,1)(Q)", "q", "block", (2, 1), 1),
    _rung("M3(Q)", "q", "full", 3, 1),
    _rung("T4(Q)", "q", "triangular", 4, 2),
    _rung("B(2,2)(Q)", "q", "block", (2, 2), 1),
    _rung("M4(Q)", "q", "full", 4, 2),
]
# The M4(Q) structure sweep alone takes about 6 s at the seed commit, more
# than a whole pass may, so M4(Q) gets no sweep.
Q_SWEEP_SKIP = {"M4(Q)"}

ZN_RUNGS = [
    _rung("M2(Z/3)", "zmod:3", "full", 2, 1),
    _rung("M2(Z/5)", "zmod:5", "full", 2, 1),
    _rung("T3(Z/3)", "zmod:3", "triangular", 3, 1),
    _rung("M2(Z/4)", "zmod:4", "full", 2, 1),
    _rung("M2(Z/6)", "zmod:6", "full", 2, 1),
    _rung("T2(Z/9)", "zmod:9", "triangular", 2, 1),
]

# Smith-form sweeps of M2(Z/6) take 2.3-2.7 s at k = 1, 2 at the seed commit;
# only k = 3 (0.5 s) fits the pass.
ZN_SWEEP_SKIP = {("M2(Z/6)", 1), ("M2(Z/6)", 2)}

SWEEP_SAMPLES = 2
WORKLOADS = ("zp-ladder", "q-exact", "zn-witness")


def build_rung(gm, rung):
    """The GMAlgebra of one rung, constructed through ``gmalg.families``."""
    ring = gm.rings.parse_ring_flag(rung.ring)
    fam = gm.families
    if rung.family == "full":
        return fam.full_matrix_gma(ring, *rung.shape)
    if rung.family == "triangular":
        return fam.triangular_gma(ring, *rung.shape)
    return fam.block_triangular_gma(ring, *rung.shape)


class _Inputs:
    """Writes seeded inputs for one workload and collects its verdicts."""

    def __init__(self, gm, seed, workdir):
        self.gm = gm
        self.seed = seed
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.verdicts = []
        self._nfiles = 0

    def _write(self, stem, text):
        self._nfiles += 1
        path = os.path.join(self.workdir, f"{self._nfiles:03d}-{stem}.json")
        with open(path, "w") as fh:
            fh.write(text)
        return path

    def rung(self, rung):
        G = build_rung(self.gm, rung)
        ring = G.ring
        modulus = ring.n if ring.kind == "Zmod" else None
        case = Case(rung, verdicts.SparseAlgebra(G.algebra, modulus))
        ctx_text = self.gm.jsonio.dumps(self.gm.jsonio.context_to_json(G.ctx))
        return case, self._write("context", ctx_text)

    # -- scalars ------------------------------------------------------------

    def _scalar(self, case, nonzero=False):
        n = case.algebra.modulus
        if n is None:
            num = self.rng.randint(-9, 9)
            while nonzero and num == 0:
                num = self.rng.randint(-9, 9)
            return Fraction(num, self.rng.randint(1, 3))
        if not nonzero:
            return self.rng.randrange(n)
        units = [u for u in range(1, n) if gcd(u, n) == 1]
        return self.rng.choice(units)

    def proper_map(self, case):
        """Matrix (rows) of x -> c*x + f(x)*1 with seeded c and f."""
        alg = case.algebra
        d = alg.dim
        c = self._scalar(case)
        f = [self._scalar(case) for _ in range(d)]
        return [
            [alg.reduce((c if r == j else 0) + f[j] * alg.unit[r]) for j in range(d)]
            for r in range(d)
        ]

    def write_map(self, case, rows):
        doc = {"schema": "map/1", "matrix": [[_scalar_json(x) for x in r] for r in rows]}
        return self._write("map", json.dumps(doc, sort_keys=True))

    # -- verdicts -----------------------------------------------------------

    def validate(self, case, ctx):
        self.verdicts.append(Verdict(
            f"validate {case.rung.name}", ["validate", ctx],
            {"kind": "validate", "exit": 0},
        ))

    def prove(self, case, ctx, k, extra=()):
        rows = self.proper_map(case)
        path = self.write_map(case, rows)
        n = case.algebra.modulus
        refused = "--mode" in extra and n is not None and n % 2 == 0
        expect = {"kind": "refused", "exit": 3} if refused else {
            "kind": "commuting", "exit": 0, "oracle": "--oracle" in extra,
            "proper_mode": "--mode" in extra,
        }
        self.verdicts.append(Verdict(
            " ".join(("classify", *extra, f"k={k}", "proper map", case.rung.name)),
            ["classify", ctx, path, "--k", str(k), *extra], expect,
        ))

    def refute(self, case, ctx, k, extra=()):
        for i, j in verdicts.refutable_positions(case.algebra, k, count=2):
            rows = self.proper_map(case)
            rows[i][j] = case.algebra.reduce(rows[i][j] + self._scalar(case, nonzero=True))
            path = self.write_map(case, rows)
            self.verdicts.append(Verdict(
                " ".join(("classify", *extra, f"k={k}", f"map perturbed at ({i},{j})",
                          case.rung.name)),
                ["classify", ctx, path, "--k", str(k), *extra],
                {"kind": "refute", "exit": 1, "k": k, "rows": rows,
                 "algebra": case.algebra, "oracle": "--oracle" in extra},
            ))

    def sweep(self, case, ctx, mode, k):
        self.verdicts.append(Verdict(
            f"sweep --mode {mode} k={k} {case.rung.name}",
            ["sweep", ctx, "--k", str(k), "--mode", mode,
             "--samples", str(SWEEP_SAMPLES), "--seed", str(self.seed)],
            {"kind": "sweep", "exit": 0, "mode": mode, "samples": SWEEP_SAMPLES,
             # these families have the scalars as center and only proper
             # k-commuting maps, so over a field the space {c*x + f(x)*1}
             # has rank 1 + dim
             "generators": case.algebra.dim + 1 if _is_field(case.algebra.modulus) else None},
        ))


def build(gm, workload, seed, workdir):
    """Write the seeded inputs of ``workload`` into ``workdir``; return its
    verdicts in pass order."""
    b = _Inputs(gm, seed, workdir)
    if workload == "zp-ladder":
        for rung in ZP_RUNGS:
            case, ctx = b.rung(rung)
            b.validate(case, ctx)
            for k in (1, 2, 3):
                b.refute(case, ctx, k)
            for k in ZP_PROVE.get(rung.name, ()):
                b.prove(case, ctx, k)
            for name, mode, k in ZP_SWEEPS:
                if name == rung.name:
                    b.sweep(case, ctx, mode, k)
    elif workload == "q-exact":
        for rung in Q_RUNGS:
            case, ctx = b.rung(rung)
            b.validate(case, ctx)
            b.prove(case, ctx, 1)
            b.refute(case, ctx, 1)
            if rung.name not in Q_SWEEP_SKIP:
                b.sweep(case, ctx, "structure", 1)
    elif workload == "zn-witness":
        extra = ("--oracle", "--mode", "proper")
        for rung in ZN_RUNGS:
            case, ctx = b.rung(rung)
            b.validate(case, ctx)
            for k in (1, 2, 3):
                b.prove(case, ctx, k, extra)
                b.refute(case, ctx, k, extra)
                if not _is_field(case.algebra.modulus) and (rung.name, k) not in ZN_SWEEP_SKIP:
                    b.sweep(case, ctx, "structure", k)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return b.verdicts


def _is_field(modulus):
    return modulus is None or all(modulus % p for p in range(2, modulus))


def _scalar_json(x):
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    return int(x)
