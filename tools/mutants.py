"""Mutants that the tests must kill: each fast path's stated condition,
broken one at a time.

Usage: python tools/mutants.py

Each mutant names a file, an exact text in it, the text's replacement, the
tests that must fail on it and the condition it breaks.  For each mutant
the script copies ``src/``, ``tests/`` and ``pyproject.toml`` to a
temporary directory, replaces the text there and runs
``python -m pytest -x`` on the mutant's tests, with the copy's ``src/`` on
the path.  The mutant is killed when a test fails (pytest exit code 1).
The script exits 1 when any mutant survives, when its tests could not run
(another exit code: an error while collecting, or a test id that does not
exist), or when a text does not occur exactly once in its file, so that
the list must follow the code; otherwise it exits 0.  It assumes that the
tests pass on the unmutated tree, which the tier-1 tests check first.

A mutant that is equivalent to the code is not listed here; name it and its
argument in a comment instead.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COPIED = ("src", "tests", "pyproject.toml")

Mutant = namedtuple("Mutant", ["name", "path", "text", "replacement", "tests", "condition"])

MUTANTS = [
    Mutant(
        "witness-brackets-k-1", "src/gmalg/maps.py",
        "        for _ in range(k):\n            if not any(y):",
        "        for _ in range(k - 1):\n            if not any(y):",
        ["tests/test_oracle.py::test_commuting_space_and_verdicts_equal_brute_force"],
        "the witness search evaluates [theta(x), x]_k with k brackets"),
    Mutant(
        "lattice-rows-degree-1", "src/gmalg/compiled.py",
        "lattice_points(ring, self.ctx.M.dim, 2)",
        "lattice_points(ring, self.ctx.M.dim, 1)",
        ["tests/test_compiled.py::test_compiled_lines_match_the_per_line_reports"],
        "a degree-2 line is compiled from its values at every lattice point |beta| <= 2"),
    Mutant(
        "lead-guard-dropped", "src/gmalg/algebra.py",
        "        if c is None:\n            raise TheoremViolation(",
        "        if False:\n            raise TheoremViolation(",
        ["tests/test_stream.py::test_a_wrong_stream_is_a_theorem_violation"],
        "a lead at which f vanishes raises TheoremViolation"),
    Mutant(
        "bracket-unreduced", "src/gmalg/algebra.py",
        "            out[s] = self.ring.normal(v)",
        "            out[s] = v",
        ["tests/test_stream.py::test_the_bracket_is_the_difference_of_the_products"],
        "a bracket is brought to normal form"),
    Mutant(
        "unit-centrality-dropped", "src/gmalg/algebra.py",
        "if r0 is None or any(map(self.ring.normal, acc.values())):",
        "if r0 is None:",
        ["tests/test_stream.py::test_a_unit_that_is_not_central_gets_no_reduction"],
        "map_groups subtracts x -> c*x + g(x)*1 only when the unit is central"),
    Mutant(
        "membership-unreduced", "src/gmalg/linalg.py",
        "return not self._reduce(_sparse(v))",
        "return not _sparse(v)",
        ["tests/test_linalg.py::test_howell_form_matches_enumeration"],
        "a vector is a member of a span iff its reduction by the Howell rows leaves nothing"),
    Mutant(
        "howell-feedback-dropped", "src/gmalg/linalg.py",
        "            out.append({c: y for c, x in r.items() if (y := rg.normal(m * x))})",
        "            pass",
        ["tests/test_linalg.py::test_solve_matches_brute_force_composite"],
        "the multiple (n/lead)*row of a row whose lead is not a unit is fed back"),
    Mutant(
        "lower-bound-guard-off", "src/gmalg/linalg.py",
        "    if lower and any(ring.normal(",
        "    if False and any(ring.normal(",
        ["tests/test_linalg.py::test_a_lower_bound_outside_the_kernel_is_a_violation"],
        "a kernel's lower bound that fails its rows raises TheoremViolation"),
    Mutant(
        "newton-recurrence", "src/gmalg/algebra.py",
        "a * (prev[a] + prev[a - 1]) % n",
        "a * prev[a - 1] % n",
        ["tests/test_symbolic.py::test_generators_equal_point_evaluation"],
        "the Newton weights are a! S(g, a), by a!S(g, a) = a (a!S(g-1, a) + (a-1)!S(g-1, a-1))"),
    Mutant(
        "certificate-guard-dropped", "src/gmalg/cli.py",
        "            if cert is None:    # C and theta(e_j)",
        "            if False:    # C and theta(e_j)",
        ["tests/test_hypotheses.py::test_a_proper_form_without_a_certificate_is_a_violation"],
        "a proper form constructed where no certificate is found raises TheoremViolation"),
    Mutant(
        "projection-guard-dropped", "src/gmalg/maps.py",
        "    if not all(z.contains(g) for z, pi in",
        "    if False and not all(z.contains(g) for z, pi in",
        ["tests/test_hypotheses.py::"
         "test_a_projection_of_the_center_outside_the_order_k_center_is_a_violation"],
        "a projection of Z(G) outside the order-k center raises TheoremViolation"),
]


def misplaced(mutants):
    """The (mutant, count) of each mutant whose text does not occur exactly
    once in its file."""
    out = []
    for m in mutants:
        with open(os.path.join(ROOT, m.path)) as f:
            count = f.read().count(m.text)
        if count != 1:
            out.append((m, count))
    return out


def run(mutant):
    """pytest's exit code on the mutant's tests, in a mutated copy."""
    with tempfile.TemporaryDirectory(prefix="gmalg-mutant-") as tmp:
        for name in COPIED:
            src, dst = os.path.join(ROOT, name), os.path.join(tmp, name)
            if os.path.isdir(src):
                shutil.copytree(src, dst, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy(src, dst)
        path = os.path.join(tmp, mutant.path)
        with open(path) as f:
            text = f.read()
        with open(path, "w") as f:
            f.write(text.replace(mutant.text, mutant.replacement))
        env = dict(os.environ, PYTHONPATH=os.path.join(tmp, "src"), PYTHONDONTWRITEBYTECODE="1")
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests],
            cwd=tmp, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        ).returncode


def main():
    bad = misplaced(MUTANTS)
    for m, count in bad:
        print(f"{m.name}: its text occurs {count} times in {m.path}, not once")
    if bad:
        return 1
    failed = 0
    for m in MUTANTS:
        start = time.perf_counter()
        code = run(m)
        verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"not run (pytest exit code {code})")
        print(f"{m.name}: {verdict} in {time.perf_counter() - start:.1f} s  [{m.condition}]",
              flush=True)
        failed += code != 1
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
