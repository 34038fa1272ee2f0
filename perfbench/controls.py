"""Negative controls for the verdict checker.

    python3 perfbench/controls.py [--workload zn-witness] [--seed 1]

Runs one pass of the workload three times: as is, with every expected exit
code flipped (a wrong expected verdict), and with every counterexample
zeroed before it is re-verified (a corrupted witness).  Exits 1 unless each
control raises the fail ratio above the clean pass and marks the run
incorrect.
"""

import argparse
import json
import os
import shutil
import sys

import ladder
import run


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=ladder.WORKLOADS, default="zn-witness")
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    root = os.getcwd()
    workdir = os.path.join(root, ".perfbench", f"controls-{os.getpid()}")
    try:
        src = os.path.join(root, "src")
        gm = run.import_gmalg(src)
        _, _, plan = run.setup(gm, src, args.workload, args.seed, workdir)
        results = {}
        for control in (None, "wrong-verdict", "bad-witness"):
            loop = run.Loop(gm, plan, control)
            run.run_loop(loop, seconds=0, min_verdicts=1)
            results[control or "none"] = {
                "attempted": loop.attempted, "failed": loop.failed,
                "fail_ratio": loop.failed / loop.attempted, "correct": loop.wrong == 0,
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    base = results["none"]["fail_ratio"]
    ok = all(
        results[c]["fail_ratio"] > base and not results[c]["correct"]
        for c in ("wrong-verdict", "bad-witness")
    )
    print(json.dumps({"controls_detected": ok, "results": results}, sort_keys=True))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
