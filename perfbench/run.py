"""Verdict-ladder benchmark for gmalg.

    python3 perfbench/run.py --workload zp-ladder --seed 1 --seconds 30 --trace 0

Run from the root of a gmalg checkout; the program is imported from its
``src`` directory.  One client in one process runs a closed loop: each
verdict is one in-process call to ``gmalg.cli.main(argv)`` with stdout
captured, and the next starts when it returns.  The workload's verdict
list (a pass) is repeated until ``--seconds`` would be exceeded, and at
least until 100 verdicts have run.  Every verdict is checked (see
``verdicts.py``); an exception escaping ``cli.main`` is a failed verdict,
timed and recorded by type.

Times are scaled to a reference machine speed measured by a probe run
before every verdict (see ``Loop``); the unscaled figures are kept too.
The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics (from ``tracing.py``) with ``--trace 1``.  The line
before it records the environment, the unscaled times and the failure
details.  See README.md for what each metric means and which layer should
move it.
"""

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
from fractions import Fraction

import numpy

import ladder
import tracing
import verdicts

MIN_VERDICTS = 100   # so that at least ten verdicts lie beyond the p90
SETUP_REPEATS = 11
# speed_probe() time on the development VM (2-core Intel Xeon, Python 3.11.7,
# numpy 2.4.6) when the machine is quiet.  Timings are reported at this speed.
REFERENCE_PROBE_S = 0.0006
SCALE_WINDOW = 5     # verdicts on each side whose probes scale a verdict
HARD_STOP_S = 150    # stay well inside the 180 s a run may take
MODULES = ("rings", "errors", "report", "algebra", "linalg", "morita", "maps",
           "derivations", "oracle", "families", "jsonio", "cli")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=ladder.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_gmalg(src):
    """Fresh import of every gmalg module from ``src``; returns a namespace
    with one attribute per module."""
    for name in [m for m in sys.modules if m == "gmalg" or m.startswith("gmalg.")]:
        del sys.modules[name]
    if sys.path[0] != src:
        sys.path.insert(0, src)
    pkg = importlib.import_module("gmalg")
    if os.path.dirname(os.path.abspath(pkg.__file__)) != os.path.join(src, "gmalg"):
        raise ImportError(f"gmalg imported from {pkg.__file__}, not from {src}")
    gm = types.SimpleNamespace(gmalg=pkg)
    for name in MODULES:
        setattr(gm, name, importlib.import_module(f"gmalg.{name}"))
    return gm


# Imports every gmalg module in a fresh interpreter and prints the seconds
# it took, numpy's import included; the interpreter's own start is not timed.
COLD_IMPORT = """
import importlib, sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
for name in sys.argv[2:]:
    importlib.import_module("gmalg." + name)
print(time.perf_counter() - t0)
"""


def cold_import_s(src):
    """Seconds for a cold import of gmalg, numpy included.  The benchmark's
    own process has numpy loaded already, so this runs in a child."""
    out = subprocess.run([sys.executable, "-c", COLD_IMPORT, src, *MODULES],
                         capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout)


def setup(gm, src, workload, seed, workdir):
    """A cold import of gmalg, then context construction via gmalg.families
    and writing the seeded inputs with ``gm``; returns (import seconds,
    build seconds, verdict list)."""
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    imported = cold_import_s(src)
    t0 = time.perf_counter()
    plan = ladder.build(gm, workload, seed, workdir)
    return imported, time.perf_counter() - t0, plan


def speed_probe():
    """Seconds taken by a fixed ~1 ms mix of the work gmalg does: integer
    loops, small int64 matrix products, Fraction arithmetic, tuple-keyed
    dicts.  It shares no code with gmalg."""
    t0 = time.perf_counter()
    s = 0
    for i in range(3000):
        s += (i * 7) % 13
    a = numpy.arange(16, dtype=numpy.int64).reshape(4, 4)
    for _ in range(60):
        a = (a @ a) % 7
    f = Fraction(1, 3)
    for i in range(60):
        f = f * Fraction(i + 1, i + 2) + 1
    d = {}
    for i in range(300):
        d[(i, i % 7)] = tuple(range(i % 5))
    return time.perf_counter() - t0


def speed_scale(probes):
    """Factor that converts times measured alongside ``probes`` to the
    reference speed.  The mean, not the median: a measured time is a sum,
    so it pays for the slow spells in proportion to their length."""
    return REFERENCE_PROBE_S / statistics.fmean(probes)


def local_scales(probes, width=SCALE_WINDOW):
    """Per verdict, the speed scale from the probes within ``width`` verdicts
    of it; ``probes`` has one entry before each verdict and one after the
    last, so verdict i sits between probes i and i + 1."""
    return [speed_scale(probes[max(0, i - width):i + width + 2])
            for i in range(len(probes) - 1)]


def call(cli, argv):
    """One verdict: (exit code or None, stdout, stderr, exception type or
    None, s)."""
    out, err = io.StringIO(), io.StringIO()
    rc = exc = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as e:      # argparse rejected the command line
            exc = "SystemExit"
            rc = e.code
        except Exception as e:       # noqa: BLE001 - any escape is a failed verdict
            exc = type(e).__name__
        t1 = time.perf_counter()
    return rc, out.getvalue(), err.getvalue(), exc, t1 - t0


class Loop:
    """The closed loop over passes of one workload, with its bookkeeping.

    The shared machine's speed drifts by tens of percent within seconds, so
    a speed probe runs before every verdict (and after the last), and each
    verdict's time is scaled to the reference speed by the probes around
    it."""

    def __init__(self, gm, plan, control):
        self.gm = gm
        self.plan = plan
        self.control = control
        self.passes = []         # (traced, latency of each verdict, its scale)
        self.attempted = 0
        self.failures = {}       # reason -> count
        self.wrong = 0           # verdicts that returned a wrong outcome

    def one_pass(self, tracer=None):
        results, probes = [], []
        gc.collect()
        for i, v in enumerate(self.plan):
            probes.append(speed_probe())
            if tracer is not None:
                tracer.request = (len(self.passes), i)
            results.append(call(self.gm.cli, v.argv))
        probes.append(speed_probe())
        self.passes.append((tracer is not None, [r[4] for r in results], local_scales(probes)))
        for v, (rc, stdout, stderr, exc, _) in zip(self.plan, results):
            self.attempted += 1
            if exc is not None:
                reason = f"{exc} in {v.label}"
            else:
                problem = verdicts.check(v, rc, stdout, stderr, self.control)
                reason = problem and f"{problem} in {v.label}"
                self.wrong += bool(problem)
            if reason:
                self.failures[reason] = self.failures.get(reason, 0) + 1

    def walls(self, traced=False, scaled=True):
        """Per pass, the summed latency of its verdicts."""
        return [sum(dt * (sc if scaled else 1) for dt, sc in zip(lat, scales))
                for t, lat, scales in self.passes if t == traced]

    def latencies(self, scaled=True):
        return [dt * (sc if scaled else 1)
                for _, lat, scales in self.passes for dt, sc in zip(lat, scales)]

    def pass_scales(self, traced=False):
        """Per pass, the factor its scaled wall differs from the unscaled."""
        return [s / u for s, u in zip(self.walls(traced), self.walls(traced, scaled=False))]

    @property
    def failed(self):
        return sum(self.failures.values())


def run_loop(loop, seconds, tracer=None, min_verdicts=MIN_VERDICTS):
    """Passes until the next one would overrun ``seconds`` (and at least
    ``min_verdicts`` verdicts).  With a tracer, passes alternate untraced and
    traced, starting untraced."""
    start = time.perf_counter()
    last = 0.0
    while True:
        elapsed = time.perf_counter() - start
        n_traced = len(loop.walls(traced=True))
        need_more = loop.attempted < min_verdicts or (tracer is not None and not n_traced)
        if not need_more and elapsed + last > seconds or elapsed > HARD_STOP_S:
            break
        traced = tracer is not None and len(loop.walls()) > n_traced
        if traced:
            tracer.install(loop.gm)
        try:
            loop.one_pass(tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        last = time.perf_counter() - start - elapsed


def environment(root, args):
    cpu = None
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu or platform.processor(),
        "commit": commit, "seed": args.seed, "workload": args.workload,
        "seconds": args.seconds, "trace": args.trace,
    }


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "gmalg", "cli.py")):
        print(f"no gmalg sources under {src}; run from a gmalg checkout", file=sys.stderr)
        return 2
    os.environ["GMALG_WORKERS"] = "1"
    outdir = os.path.join(root, ".perfbench")
    workdir = os.path.join(outdir, f"inputs-{args.workload}-{os.getpid()}")
    try:
        gm = import_gmalg(src)
        # The cold import is mostly the loading of numpy's shared libraries,
        # which does not slow down with the probe, so only the build is scaled.
        setups = []
        for _ in range(SETUP_REPEATS):
            scale = speed_scale([speed_probe() for _ in range(5)])
            imported, built, plan = setup(gm, src, args.workload, args.seed, workdir)
            setups.append((imported, built, scale))
        setup_scale = statistics.median(sc for _, _, sc in setups)
        loop = Loop(gm, plan, None)
        detail = {"env": environment(root, args), "verdicts_per_pass": len(plan)}
        if args.trace:
            metrics = traced_run(loop, args, workdir, outdir, setup_scale, detail)
        else:
            run_loop(loop, args.seconds)
            deciles = statistics.quantiles(loop.latencies(), n=10)
            raw = statistics.quantiles(loop.latencies(scaled=False), n=10)
            metrics = {
                "setup_s": (statistics.median(i + b * sc for i, b, sc in setups), "s"),
                "wall_s": (statistics.median(loop.walls()), "s"),
                "verdict_p50_ms": (1e3 * deciles[4], "ms"),
                "verdict_p90_ms": (1e3 * deciles[8], "ms"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
            detail["unscaled"] = {
                "setup_s": statistics.median(i + b for i, b, _ in setups),
                "setup_import_s": statistics.median(i for i, _, _ in setups),
                "pass_walls_s": loop.walls(scaled=False),
                "verdict_p50_ms": 1e3 * raw[4],
                "verdict_p90_ms": 1e3 * raw[8],
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    detail.update({
        "speed_scales": {"setup": setup_scale, "passes": loop.pass_scales()},
        "samples": len(loop.latencies()), "attempted": loop.attempted, "failed": loop.failed,
        "fail_ratio": loop.failed / loop.attempted, "wrong_outcomes": loop.wrong,
        "failures": loop.failures,
    })
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": loop.wrong == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def traced_run(loop, args, workdir, outdir, setup_scale, detail):
    """Per-layer metrics: one traced set-up for ``families``, then untraced
    and traced passes alternating; values are per traced pass, at the
    reference speed."""
    tracer = tracing.Tracer()
    tracer.install(loop.gm)
    try:
        ladder.build(loop.gm, args.workload, args.seed, workdir)
    finally:
        tracer.uninstall()
    setup_layers = tracing.layer_metrics(tracer.spans, tracer.counts, lambda r: r is None)
    tracer.counts.clear()
    run_loop(loop, args.seconds, tracer)
    traced = loop.walls(traced=True)
    scale = statistics.median(loop.pass_scales(traced=True))
    per_pass = tracing.layer_metrics(tracer.spans, tracer.counts, lambda r: r is not None)
    metrics = {}
    for name, value in per_pass.items():
        if name.endswith("_s"):
            metrics[name] = (value * scale / len(traced), "s")
        else:
            metrics[name] = (value / len(traced), "bytes" if name == "jsonio.bytes" else "count")
    metrics["families.self_s"] = (setup_layers["families.self_s"] * setup_scale, "s")
    metrics["linalg.useful_row_ratio"] = (
        per_pass["linalg.rank_out"] / per_pass["linalg.rows_in"]
        if per_pass["linalg.rows_in"] else 0.0, "1")
    metrics["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(loop.walls()), "1")
    metrics["fail_ratio"] = (loop.failed / loop.attempted, "1")
    path = os.path.join(outdir, f"spans-{args.workload}-seed{args.seed}.jsonl")
    tracer.dump(path)
    untraced_raw, traced_raw = loop.walls(scaled=False), loop.walls(traced=True, scaled=False)
    detail.update({
        "spans": len(tracer.spans), "spans_file": os.path.relpath(path),
        "unscaled": {
            "trace_overhead_ratio": statistics.median(traced_raw) / statistics.median(untraced_raw),
            "pass_walls_s": {"untraced": untraced_raw, "traced": traced_raw},
        },
        "traced_pass_scales": loop.pass_scales(traced=True),
    })
    return metrics


if __name__ == "__main__":
    sys.exit(main())
