"""Command-line surface.

Exit codes: 0 all checks pass; 1 a genuine mathematical finding (e.g. a
non-proper map outside the sufficient hypotheses); 2 a guaranteed check
failed (implementation bug or corrupted input); 3 malformed or rejected
input (usage errors too).  Output bytes are stable for fixed inputs and seed.
"""

import argparse
import contextlib
import functools
import os
import random
import sys

from . import compiled, derivations, jsonio, maps, oracle
from .errors import GmalgError, HypothesesNotMet, InputError, TheoremViolation
from .families import (InflatedSpec, block_triangular_gma, full_matrix_gma, inflated_from_normal,
                       triangular_gma)
from .algebra import Algebra
from .morita import build_gma, validate_context
from .rings import parse_ring_flag, parse_scalar_flag

EXIT_OK = 0
EXIT_FINDING = 1
EXIT_VIOLATION = 2
EXIT_INPUT = 3


def _emit(doc, path=None):
    """Write a document, or text such as help, to ``path`` or stdout."""
    text = doc if isinstance(doc, str) else jsonio.dumps(doc)
    try:
        if path:
            with open(path, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        if not path:
            _to_null(sys.stdout)
        raise InputError(f"cannot write {path or 'standard output'}: {exc}") from exc


def _to_null(stream):
    """Send ``stream``'s file to the null device, so that bytes left in its
    buffer do not fail again at exit (an in-process stream has no file)."""
    with contextlib.suppress(OSError):
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


class _Parser(argparse.ArgumentParser):
    """argparse, with help to stdout written, or refused, as a document is; usage errors exit 3."""

    def print_help(self, file=None):
        return super().print_help(file) if file else _emit(self.format_help())

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def cmd_validate(args):
    ctx = jsonio.context_from_json(jsonio.load_file(args.context))
    bad = validate_context(ctx)
    doc = {
        "command": "validate",
        "clean": not bad,
        "violations": [
            {"axiom": v.axiom, "witness": list(v.witness) if isinstance(v.witness, tuple) else v.witness}
            for v in bad
        ],
    }
    _emit(doc, args.emit)
    return EXIT_OK if not bad else EXIT_INPUT


def cmd_build(args):
    ctx = jsonio.context_from_json(jsonio.load_file(args.context))
    G = build_gma(ctx)
    _emit(jsonio.algebra_to_json(G.algebra), args.emit)
    return EXIT_OK


def _load_gma(path):
    ctx = jsonio.context_from_json(jsonio.load_file(path))
    return build_gma(ctx)


def _hypotheses(G, k, doc):
    """The sufficient hypotheses of the proper-form construction, recorded
    in ``doc``."""
    hyp = maps.check_properness_hypotheses(G, k)
    doc["hypotheses"] = {"cond1": hyp.cond1, "cond2": hyp.cond2, "cond3": hyp.cond3}
    return hyp


def cmd_classify(args):
    if args.budget < 1:
        raise InputError(f"--budget must be >= 1, got {args.budget}")
    G = _load_gma(args.context)
    theta = jsonio.map_from_json(jsonio.load_file(args.map), G.ring)
    k = args.k
    doc = {"command": "classify", "k": k}
    exit_code = EXIT_OK

    # decided once; the structure report and the proper form reuse it
    verdict = maps.is_k_commuting(G, theta, k)
    kc, witness = verdict
    doc["k_commuting"] = kc
    if kc and args.mode == "proper":
        # refused here, before the oracle and the reports it would discard
        maps.require_proper_setting(G)
    if args.oracle:
        # the oracle's commutator constants, built once for its searches
        comm = oracle._commutators(G.algebra)
        bkc, bwit = oracle.brute_k_commuting(G, theta, k, args.budget, comm)
        if bkc != kc:
            raise TheoremViolation("oracle disagrees on the commuting test")
        if bwit != witness:
            raise TheoremViolation("oracle disagrees on the counterexample")
        doc["oracle_k_commuting"] = bkc
    if not kc:
        doc["counterexample"] = jsonio._vec_json(G.ring, witness)
        _emit(doc, args.emit)
        return EXIT_FINDING

    rep = maps.verify_structure_conditions(G, theta, k, verdict=verdict)
    doc["structure_conditions"] = rep.to_json()
    if not rep.all_pass:
        raise TheoremViolation(
            "structure conditions failed for a commuting map", rep.failures()
        )

    cert = maps.properness_certificate(G, theta)
    doc["proper"] = cert is not None
    if cert is not None:
        doc["multiplier"] = jsonio._vec_json(G.ring, cert.multiplier)
        doc["offset"] = cert.offset.to_json()
    if args.oracle:
        bok, _ = oracle.brute_properness(G, theta, args.budget, comm)
        if bok != (cert is not None):
            raise TheoremViolation("oracle disagrees on properness")
        doc["oracle_proper"] = bok

    if args.mode == "proper":
        hyp = _hypotheses(G, k, doc)
        if maps._hyp_all(hyp):
            pf = maps.construct_proper_form(G, theta, k, hypotheses=hyp, verdict=verdict)
            steps = maps.verify_proper_form_steps(G, theta, k, hypotheses=hyp,
                                                  verdict=verdict)
            doc["proper_form"] = {
                "center_shift": jsonio._vec_json(G.ring, pf.center_shift),
                "steps": steps.to_json(),
            }
            if not steps.all_pass:
                raise TheoremViolation("step invariants failed", steps.failures())
        else:
            exit_code = EXIT_FINDING

    if cert is None:
        exit_code = EXIT_FINDING
    _emit(doc, args.emit)
    return exit_code


def cmd_sweep(args):
    if args.samples < 0:
        raise InputError(f"--samples must be >= 0, got {args.samples}")
    G = _load_gma(args.context)
    k = args.k
    doc = {"command": "sweep", "mode": args.mode, "k": k, "seed": args.seed}
    findings = []

    if args.mode == "derivations":
        ok = derivations.verify_commuting_derivations_vanish(G, k)
        doc["vanishing"] = ok
        _emit(doc, args.emit)
        return EXIT_OK

    hyp = None
    if args.mode in ("proper", "steps"):
        # checked, or refused, before the space is solved; an order below 1
        # is refused first
        maps.require_order(k)
        hyp = _hypotheses(G, k, doc)
    space = maps.commuting_space(G, k)
    doc["space_generators"] = len(space.space.gens)
    doc["maps_checked"] = len(space.space.gens) + args.samples
    if hyp is not None and not maps._hyp_all(hyp):
        doc["finding"] = "sufficient hypotheses not satisfied"
        _emit(doc, args.emit)
        return EXIT_FINDING
    rng = random.Random(args.seed)
    thetas = space.basis() + [space.random_member(rng) for _ in range(args.samples)]

    # [theta(x), x]_k is linear in theta: the generators, maps 0..g-1, decide all
    for idx, theta in enumerate(thetas[:doc["space_generators"]]):
        ok, bad = maps.is_k_commuting(G, theta, k)
        if not ok:
            raise TheoremViolation(f"space generator {idx} is not {k}-commuting (witness {bad})")
    # every line is linear in theta: compiled once for the whole sweep, and
    # only a map that fails a row is read as values, the source of witnesses.
    # The generators span the space, so no swept map needs its own verdict.
    rows = compiled.report_rows(G, args.mode, k)
    for idx, theta in enumerate(thetas):
        if rows.passes(theta):
            continue
        lines = maps.report_values(G, theta, args.mode, k).to_json()["lines"]
        wit = [line for line in lines if not line["passed"]]
        if not wit:
            raise TheoremViolation(
                f"{args.mode} sweep: map {idx} fails a compiled row but no line of its report")
        findings.append({"map_index": idx, "witness": wit})
    doc["failures"] = findings
    doc["all_pass"] = not findings
    _emit(doc, args.emit)
    if findings:
        raise TheoremViolation("sweep found failing guaranteed checks", findings)
    return EXIT_OK


def _parse_gamma(text, ring, n):
    """'1,0;0,2' -> n x n scalar matrix (as 1-dim base-algebra vectors)."""
    rows = [r for r in text.strip().split(";") if r]
    if len(rows) != n:
        raise InputError(f"twist matrix needs {n} rows, got {len(rows)}")
    out = []
    for r in rows:
        cells = r.split(",")
        if len(cells) != n:
            raise InputError(f"twist matrix needs {n} columns per row")
        out.append([(parse_scalar_flag(ring, c),) for c in cells])
    return out


def cmd_family(args):
    ring = parse_ring_flag(args.ring)
    if args.kind == "inflated":
        if not args.gamma:
            raise InputError("--gamma is required for inflated families")
        one = ((0, ring.one),)      # the terms of 1 * 1 = 1
        base = Algebra._from_normal(ring, ["1"], ((one,),), (ring.one,))
        gamma = _parse_gamma(args.gamma, ring, args.n)
        inf = inflated_from_normal(InflatedSpec(base, args.n, gamma))
        doc = {
            "has_identity": inf.has_identity,
            "algebra": jsonio.algebra_to_json(inf.algebra),
        }
        if inf.has_identity:
            doc["identity"] = jsonio._vec_json(ring, inf.identity)
            doc["sigma"] = inf.sigma.to_json()
    else:
        if args.kind == "full":
            G = full_matrix_gma(ring, args.n, args.split)
        elif args.kind == "triangular":
            G = triangular_gma(ring, args.n, args.split, args.variant)
        elif args.kind == "block":
            if not args.dims:
                raise InputError("--dims is required for block families")
            try:
                dvec = tuple(int(d) for d in args.dims.split(","))
            except ValueError:
                raise InputError(f"--dims must be comma-separated ints, got {args.dims!r}") from None
            G = block_triangular_gma(ring, dvec, args.split)
        else:
            raise InputError(f"unknown family kind {args.kind!r}")
        doc = jsonio.context_to_json(G.ctx)
    _emit(doc, args.emit)
    return EXIT_OK


def build_parser():
    p = _Parser(
        prog="gmalg",
        description="Exact verification toolkit for 2x2 generalized matrix algebras",
    )
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="check a context document against the axioms")
    v.add_argument("context")
    v.add_argument("--emit")
    v.set_defaults(func=cmd_validate)

    b = sub.add_parser("build", help="assemble the block algebra from a context")
    b.add_argument("context")
    b.add_argument("--emit")
    b.set_defaults(func=cmd_build)

    c = sub.add_parser("classify", help="analyze one linear map on a context")
    c.add_argument("context")
    c.add_argument("map")
    c.add_argument("--k", type=int, default=1)
    c.add_argument("--oracle", action="store_true")
    c.add_argument("--mode", choices=["basic", "proper"], default="basic")
    c.add_argument("--budget", type=int, default=oracle.DEFAULT_BUDGET)
    c.add_argument("--emit")
    c.set_defaults(func=cmd_classify)

    s = sub.add_parser("sweep", help="verify a whole solution space")
    s.add_argument("context")
    s.add_argument("--k", type=int, default=1)
    s.add_argument(
        "--mode",
        choices=["structure", "proper", "derivations", "steps"],
        default="structure",
    )
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--samples", type=int, default=20)
    s.add_argument("--emit")
    s.set_defaults(func=cmd_sweep)

    f = sub.add_parser("family", help="emit a standard example as JSON")
    f.add_argument("--kind", choices=["full", "triangular", "block", "inflated"], required=True)
    f.add_argument("--ring", required=True)
    f.add_argument("--n", type=int, default=2)
    f.add_argument("--split", type=int, default=1)
    f.add_argument("--dims")
    f.add_argument("--gamma")
    f.add_argument("--variant", choices=["upper", "lower"], default="upper")
    f.add_argument("--emit")
    f.set_defaults(func=cmd_family)
    # each subcommand's own parser, by name, for ``_parse``
    p.commands = {"validate": v, "build": b, "classify": c, "sweep": s, "family": f}
    return p


@functools.cache
def _parser():
    """The parser, built on first use and kept for the process: building
    it costs about as much as a short verdict, and parsing leaves it
    unchanged."""
    return build_parser()


def _parse(argv):
    """The namespace of the command line ``argv``.  The full parser hands
    everything after the subcommand to that subcommand's parser and copies
    its namespace; so when ``argv[0]`` names a subcommand, its parser alone
    parses the rest, once.  Only when ``argv[0]`` names none, or arguments
    are left over, does the full parser run, so every usage, help and
    error text and exit code is the full parser's."""
    parser = _parser()
    sub = parser.commands.get(argv[0]) if argv else None
    if sub is not None:
        args, extra = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not extra:
            return args
    return parser.parse_args(argv)


def main(argv=None):
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        return args.func(args)
    except TheoremViolation as exc:
        code, line = EXIT_VIOLATION, f"theorem violation: {exc}"
    except HypothesesNotMet as exc:
        code, line = EXIT_FINDING, f"finding: {exc}"
    except GmalgError as exc:
        code, line = EXIT_INPUT, f"{type(exc).__name__}: {exc}"
    try:    # a stderr that cannot take the line changes no exit code
        print(line, file=sys.stderr, flush=True)
    except OSError:
        _to_null(sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
