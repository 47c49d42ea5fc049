#!/usr/bin/env python3
"""Regenerate perfbench/refs.json, the reference outputs the checker uses.

Run from the repository root, at the commit the references should pin:

    python3 perfbench/make_refs.py

It records the default 130-row `rnp sweep` CSV (every sweep row the
benchmark can draw), the `rnp plan` output of every plan-tail input (the
four preset plans and all 120 lattice points), and the verify check set
for every Monte-Carlo seed in workloads.VERIFY_SEEDS.  Takes a few minutes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import check  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    tmp_csv = os.path.join(HERE, "out", "make-refs.csv")
    os.makedirs(os.path.dirname(tmp_csv), exist_ok=True)

    from rnp.cli import main as rnp_main

    assert rnp_main(["sweep", "--out", tmp_csv]) == 0
    with open(tmp_csv) as fh:
        sweep_csv = fh.read()
    os.remove(tmp_csv)

    plans = {}
    argvs = list(workloads.PRESET_PLANS)
    argvs += [workloads.plan_argv(f, p) for f in workloads.PLAN_F for p in workloads.PLAN_P_L]
    for argv in argvs:
        rc, text = workloads.run_op(argv, tmp_csv)
        plans[" ".join(argv)] = {"rc": rc, "stdout": text}
        print(" ".join(argv), rc, file=sys.stderr)

    verify = {}
    for seed in workloads.VERIFY_SEEDS:
        text = workloads.run_op(("verify", seed), tmp_csv)[1]
        assert " pass=0 " not in text, f"seed {seed} fails a check"
        verify[str(seed)] = text
        print("verify", seed, file=sys.stderr)

    refs = {"commit": commit, "sweep_csv": sweep_csv, "plans": plans, "verify": verify}
    with open(check.REFS_PATH, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
