#!/usr/bin/env python3
"""Self-test of the benchmark itself.  Run from the repository root:

    python3 perfbench/selftest.py

Checks, in about two minutes:
  * a one-round run of every workload, traced and untraced, prints exactly
    the metrics BENCHMARK.json names, each with its unit, and no error;
  * a reference with one budget digit flipped is caught as a mismatch;
  * program output is byte-identical with and without tracing, the
    wrappers are restored afterwards, and pump_step runs 3,849 times in an
    ion-depolarizing plan and 125 times in an nv-dephasing plan;
  * self time subtracts the union of overlapping child spans;
  * in a directory holding only BENCHMARK.json and perfbench/, the
    benchmark exits nonzero without printing a result.
"""

from __future__ import annotations

import importlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import check  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ION = ("plan", "--preset", "ion-depolarizing", "--restart-mode", "full")
NV = ("plan", "--preset", "nv-dephasing", "--restart-mode", "full")
SWEEP = workloads.sweep_argv(workloads.SWEEP_P_L[-1], "0.98", "0.99")
TMP_CSV = os.path.join(HERE, "out", "selftest.csv")


def run_benchmark(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_one_round_runs() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for workload in (w["name"] for w in spec["workloads"]):
            proc = run_benchmark(ROOT, workload, trace)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (workload, trace, got)
            assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
            print(f"ok: {workload} --trace {trace}: {len(got)} metrics", flush=True)


def test_corrupted_reference_is_caught(refs: dict) -> None:
    rc, text = workloads.run_op(ION, TMP_CSV)
    assert check.check(ION, rc, text, refs) is True
    key = " ".join(ION)
    good = refs["plans"][key]["stdout"]
    budget = str(json.loads(good)["n_tot_budget"])
    flipped = budget[:-1] + str((int(budget[-1]) + 1) % 10)
    refs["plans"][key]["stdout"] = good.replace(f'"n_tot_budget": {budget},', f'"n_tot_budget": {flipped},')
    assert refs["plans"][key]["stdout"] != good
    try:
        check.check(ION, rc, text, refs)
    except check.Mismatch as exc:
        print(f"ok: flipped budget digit caught ({exc})")
    else:
        raise AssertionError("a corrupted reference budget was not caught")
    finally:
        refs["plans"][key]["stdout"] = good


def test_tracing_is_transparent() -> None:
    originals = [getattr(importlib.import_module(m), a) for m, a, _, _ in tracing.SITES]
    plain = [workloads.run_op(op, TMP_CSV) for op in (ION, NV, SWEEP)]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        per_op = []
        traced = []
        for op in (ION, NV, SWEEP):
            before = len(tracer.spans)
            with tracer.op(f"op.{op[0]}"):
                traced.append(workloads.run_op(op, TMP_CSV))
            per_op.append(tracing.summarize(tracer.spans[before:]))
    finally:
        tracer.restore()
    assert traced == plain, "tracing changed program output"
    restored = [getattr(importlib.import_module(m), a) for m, a, _, _ in tracing.SITES]
    assert all(a is b for a, b in zip(originals, restored)), "a wrapper was left installed"
    assert per_op[0]["pumping.pump_step"]["calls"] == 3849, per_op[0]["pumping.pump_step"]
    assert per_op[1]["pumping.pump_step"]["calls"] == 125, per_op[1]["pumping.pump_step"]
    assert per_op[2]["markov.plan"]["calls"] == 2
    print("ok: tracing leaves output byte-identical, restores wrappers, counts 3849 / 125 pump steps")


def test_self_time() -> None:
    spans = [
        tracing.Span(1, None, "root", 0, 0.0, 10.0),
        tracing.Span(2, 1, "a", 1, 1.0, 5.0),
        tracing.Span(3, 1, "b", 2, 3.0, 7.0),
        tracing.Span(4, 2, "c", 1, 2.0, 3.0),
    ]
    assert tracing.self_times(spans) == {1: 4.0, 2: 3.0, 3: 4.0, 4: 1.0}
    print("ok: self time")


def test_bare_directory_fails() -> None:
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run_benchmark(bare, "verify", 0)
        assert proc.returncode != 0, proc.stdout
        assert not proc.stdout.strip().startswith("{") and '"metrics"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare)
    print("ok: exits nonzero without sources")


def main() -> int:
    os.makedirs(os.path.dirname(TMP_CSV), exist_ok=True)
    refs = check.load_refs()
    test_self_time()
    test_corrupted_reference_is_caught(refs)
    test_tracing_is_transparent()
    test_bare_directory_fails()
    test_one_round_runs()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
