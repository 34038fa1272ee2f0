"""Verdict checker with its own arithmetic.

Expected outcomes come from how each input was built (see ``ladder``).  A
counterexample is never compared byte for byte: it is re-verified from the
definition ``[theta(x), x]_k != 0`` with the multiplication loops below, so
an engine that finds a different valid witness still passes.
"""

import json
from fractions import Fraction
from itertools import combinations


class SparseAlgebra:
    """Structure constants of a built algebra, kept as the nonzero entries
    of each basis product, with arithmetic mod ``modulus`` (None for Q)."""

    def __init__(self, algebra, modulus):
        self.dim = algebra.dim
        self.modulus = modulus
        self.unit = tuple(algebra.unit)
        self.table = [
            [[(r, c) for r, c in enumerate(cell) if c] for cell in row]
            for row in algebra.table
        ]

    def reduce(self, x):
        return x % self.modulus if self.modulus is not None else Fraction(x)

    def mul(self, x, y):
        out = [0] * self.dim
        for i, xi in enumerate(x):
            if not xi:
                continue
            row = self.table[i]
            for j, yj in enumerate(y):
                if yj:
                    for r, c in row[j]:
                        out[r] += xi * yj * c
        return [self.reduce(v) for v in out]

    def bracket_power(self, y, x, k):
        """[y, x]_k = [[y, x]_{k-1}, x]."""
        for _ in range(k):
            y = [self.reduce(a - b) for a, b in zip(self.mul(y, x), self.mul(x, y))]
        return y

    def apply(self, rows, x):
        return [self.reduce(sum(c * v for c, v in zip(row, x))) for row in rows]

    def basis(self, i):
        return [1 if r == i else 0 for r in range(self.dim)]


def refutation_witness(alg, i, j, k):
    """An x with x_j = 1 and [e_i, x]_k != 0, or None.  Such an x shows that
    every map plus a unit multiple of x -> x_j*e_i fails to be k-commuting,
    because the proper part contributes nothing to the bracket."""
    d = alg.dim
    others = [t for t in range(d) if t != j]
    for size in range(3):
        for extra in combinations(others, size):
            x = alg.basis(j)
            for t in extra:
                x[t] = 1
            if any(alg.bracket_power(alg.basis(i), x, k)):
                return x
    return None


def refutable_positions(alg, k, count):
    """The first ``count`` entries (i, j), in a fixed order that does not
    depend on the seed, at which a perturbation provably breaks
    k-commutation."""
    d = alg.dim
    preferred = [(1, d // 2), (d // 2, 1), (0, d - 1), (d - 1, 0)]
    rest = [(i, j) for i in range(d) for j in range(d)]
    out = []
    for pos in preferred + rest:
        if pos not in out and refutation_witness(alg, *pos, k) is not None:
            out.append(pos)
            if len(out) == count:
                return out
    raise ValueError(f"no refutable entry for k={k}")


def _scalar(text):
    return Fraction(text) if isinstance(text, str) else text


def check(verdict, rc, stdout, stderr, control=None):
    """None when the outcome matches the expectation, else a short reason.

    ``control`` injects a negative control: ``"wrong-verdict"`` flips the
    expected exit code, ``"bad-witness"`` zeroes every counterexample before
    it is re-verified.  Both must turn passing verdicts into failures."""
    exp = verdict.expect
    want_exit = exp["exit"]
    if control == "wrong-verdict":
        want_exit = 1 - want_exit if want_exit in (0, 1) else 0
    if rc != want_exit:
        return f"exit {rc}, expected {want_exit}"
    kind = exp["kind"]
    if kind == "refused":
        if stdout:
            return "refused input produced a document"
        if not stderr.startswith("TwoTorsion:"):
            return f"refused for another reason: {stderr.strip()[:80]!r}"
        return None
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        return "stdout is not one JSON document"

    def field(name, want):
        got = doc.get(name)
        return None if got == want else f"{name}={got!r}, expected {want!r}"

    checks = []
    if kind == "validate":
        checks = [field("clean", True), field("violations", [])]
    elif kind == "commuting":
        checks = [
            field("k_commuting", True),
            field("proper", True),
            None if doc.get("structure_conditions", {}).get("all_pass") is True
            else "structure conditions did not all pass",
        ]
        if exp["oracle"]:
            checks += [field("oracle_k_commuting", True), field("oracle_proper", True)]
        if exp["proper_mode"]:
            checks += [
                field("hypotheses", {"cond1": True, "cond2": True, "cond3": True}),
                None if doc.get("proper_form", {}).get("steps", {}).get("all_pass") is True
                else "proper-form steps did not all pass",
            ]
    elif kind == "refute":
        checks = [field("k_commuting", False)]
        if exp["oracle"]:
            checks.append(field("oracle_k_commuting", False))
        checks.append(_witness_problem(exp, doc.get("counterexample"), control))
    elif kind == "sweep":
        if exp["mode"] == "derivations":
            checks = [field("vanishing", True)]
        else:
            checks = [field("all_pass", True), field("failures", [])]
            gens = doc.get("space_generators")
            if exp["generators"] is not None:
                checks.append(field("space_generators", exp["generators"]))
            if isinstance(gens, int):
                checks.append(field("maps_checked", gens + exp["samples"]))
    problems = [c for c in checks if c]
    return problems[0] if problems else None


def _witness_problem(exp, witness, control):
    alg = exp["algebra"]
    if not isinstance(witness, list) or len(witness) != alg.dim:
        return "counterexample missing or of the wrong length"
    x = [alg.reduce(_scalar(c)) for c in witness]
    if control == "bad-witness":
        x = [alg.reduce(0)] * alg.dim
    if not any(alg.bracket_power(alg.apply(exp["rows"], x), x, exp["k"])):
        return "counterexample does not break k-commutation"
    return None
