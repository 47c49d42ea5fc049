#!/usr/bin/env python3
"""Benchmark of the rnp planner: `sweep`, `plan-tail` and `verify` workloads.

Run from the repository root:

    python3 perfbench/run.py --workload plan-tail --seed 1 --seconds 30 --trace 0

It imports rnp from ./src, draws the workload's inputs from --seed, runs
as many rounds of operations as take about --seconds at the seed commit
(workloads.NOMINAL_ROUND_S), checks every output (see check.py) and
prints a summary followed, as the last line, by one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones, measured untraced; with --trace 1 they
are the per-layer ones from tracing.py, taken on the workload's first
round, which is run alternately untraced and traced.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 6  # extra set-ups in child processes; setup_s is the median of 1 + these

import check  # noqa: E402  (the benchmark's own modules; none imports rnp at load)
import tracing  # noqa: E402
import workloads  # noqa: E402

# Work units and user-facing names of the end-to-end metrics, per workload.
UNIT_NAMES = {
    "sweep": ("sweep_rows_per_s", "sweep_ms"),
    "plan-tail": ("plans_per_s", "plan_ms"),
    "verify": ("verify_checks_per_s", "verify_ms"),
}


def metric_units(kind: str) -> dict[str, str]:
    """Metric names and units of one kind, as BENCHMARK.json lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup(workload: str, seed: int):
    """Import rnp, build the inputs, load references and warm up; timed."""
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import numpy  # noqa: F401
    import rnp
    import rnp.cli  # noqa: F401

    if os.path.dirname(os.path.abspath(rnp.__file__)) != os.path.join(SRC, "rnp"):
        raise SystemExit(f"rnp was imported from {rnp.__file__}, not from {SRC}")
    refs = check.load_refs()
    stream = workloads.rounds(workload, seed, refs)
    first = next(stream)
    workloads.warm_up(workload)
    return refs, first, stream, time.perf_counter() - t0


class Tally:
    """Operations attempted and failed, latencies, work done, byte identity."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.latencies: list[float] = []
        self.units = 0
        self.referenced = 0
        self.identical = 0

    def fail(self, op, why: str) -> None:
        self.failed += 1
        print(f"FAILED {' '.join(map(str, op))}: {why}", file=sys.stderr)


def run_round(ops, refs, tally: Tally, tmp_csv: str, tracer=None) -> tuple[list, float]:
    """Run one round in a closed loop; return its outputs and summed op time."""
    outputs = []
    busy = 0.0
    for op in ops:
        tally.attempted += 1
        t0 = time.perf_counter()
        try:
            if tracer is None:
                rc, text = workloads.run_op(op, tmp_csv)
            else:
                with tracer.op(f"op.{op[0]}"):
                    rc, text = workloads.run_op(op, tmp_csv)
        except Exception:
            tally.fail(op, traceback.format_exc())
            outputs.append(None)
            continue
        dt = time.perf_counter() - t0
        busy += dt
        outputs.append((rc, text))
        try:
            identical = check.check(op, rc, text, refs)
        except check.Mismatch as exc:
            tally.fail(op, str(exc))
            continue
        tally.latencies.append(dt)
        tally.units += workloads.work_units(op)
        if identical is not None:
            tally.referenced += 1
            tally.identical += identical
    return outputs, busy


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its value.

    With ten samples or fewer no such percentile exists; the maximum
    (percentile 100) is reported instead.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return 100.0, xs[-1]
    return 100.0 * (n - 10) / n, xs[n - 11]


def setup_probes(args) -> list[float]:
    """Set-up time of fresh processes, each timed from inside itself."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return samples


def environment() -> str:
    import importlib.util

    import numpy

    try:
        from rnp.backend import NAME as backend_name
    except ImportError:
        backend_name = "none"
    nproc = os.cpu_count() or 1
    compiled = "yes" if importlib.util.find_spec("rnp._kernels") else "no"
    return (
        f"env: nproc={nproc} python={sys.version.split()[0]} numpy={numpy.__version__} "
        f"backend={backend_name} rnp._kernels={compiled} sweep_threads={min(4, nproc)}"
    )


def measure_end_to_end(args, refs, first, stream, setup_s: float, tmp_csv: str):
    tally = Tally()
    busy = 0.0
    rounds = workloads.round_count(args.workload, args.seconds)
    for i in range(rounds):
        busy += run_round(first if i == 0 else next(stream), refs, tally, tmp_csv)[1]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    samples = [setup_s, *setup_probes(args)]
    if not tally.latencies:
        return tally, {}, f"no operation completed in {rounds} rounds"
    pct, tail_s = tail(tally.latencies)
    values = {
        "setup_s": statistics.median(samples),
        "throughput_per_s": tally.units / busy,
        "latency_ms_p50": statistics.median(tally.latencies) * 1e3,
        "latency_ms_tail": tail_s * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    rate_name, ms_name = UNIT_NAMES[args.workload]
    summary = (
        f"{rate_name}={values['throughput_per_s']:.6g} {ms_name}_p50={values['latency_ms_p50']:.6g} "
        f"{ms_name}_tail={values['latency_ms_tail']:.6g} (p{pct:.1f} of {len(tally.latencies)}) "
        f"setup_s={values['setup_s']:.4g} (median of {len(samples)}) "
        f"peak_rss_mb={peak_rss_mb:.5g} rounds={rounds}"
    )
    return tally, values, summary


def derive(s: dict) -> dict:
    """Per-layer metrics of one traced round from its span summary."""

    def get(name, key="calls"):
        return s.get(name, {}).get(key, 0)

    plans = get("markov.plan")
    budget_sum = get("markov.solve_budget", "budget")
    mc_ms = get("oracle.monte_carlo_pumping", "ms")
    sweeps = get("op.sweep")
    row_ms = get("markov.plan", "ms") + get("measurement.optimal_m", "ms") if sweeps else 0.0
    return {
        "markov.optimize_schedule.ms": get("markov.optimize_schedule", "ms"),
        "pumping.run_two_level.calls": get("pumping.run_two_level"),
        "pumping.pump_step.calls": get("pumping.pump_step"),
        "pumping.pump_step.ms": get("pumping.pump_step", "ms"),
        "pumping.pump_step.calls_per_plan": get("pumping.pump_step") / plans if plans else 0.0,
        "markov.solve_budget.ms": get("markov.solve_budget", "ms"),
        "markov.solve_budget.budget_sum": budget_sum,
        "markov.failure_probability.ms": get("markov.failure_probability", "ms"),
        "backend.chain_scan.ms": get("backend.chain_scan", "ms"),
        "backend.chain_scan.steps": get("backend.chain_scan", "steps"),
        "backend.chain_evolve.ms": get("backend.chain_evolve", "ms"),
        "backend.chain_evolve.steps": get("backend.chain_evolve", "steps"),
        "markov.chain_steps_per_budget": (
            (get("backend.chain_scan", "steps") + get("backend.chain_evolve", "steps")) / budget_sum
            if budget_sum else 0.0
        ),
        "markov.build_chain.ms": get("markov.build_chain", "ms"),
        "markov.build_chain.states": get("markov.build_chain", "states"),
        "markov.build_chain.transitions": get("markov.build_chain", "transitions"),
        "markov.expected_pairs.ms": get("markov.expected_pairs", "ms"),
        "oracle.monte_carlo_pumping.ms": mc_ms,
        "oracle.monte_carlo_pumping.trials": get("backend.mc_consumed_pairs", "trials"),
        "oracle.monte_carlo_pumping.raw_pairs": get("backend.mc_consumed_pairs", "raw_pairs"),
        "oracle.monte_carlo_pumping.trials_per_s": (
            get("backend.mc_consumed_pairs", "trials") / (mc_ms / 1e3) if mc_ms else 0.0
        ),
        "backend.mc_consumed_pairs.ms": get("backend.mc_consumed_pairs", "ms"),
        "oracle.simulate_pump_step.calls": get("oracle.simulate_pump_step"),
        "oracle.simulate_pump_step.ms": get("oracle.simulate_pump_step", "ms"),
        "cli.sweep.rows": plans if sweeps else 0,
        "cli.sweep.row_ms_sum": row_ms,
        "cli.sweep.concurrency": row_ms / get("op.sweep", "ms") if sweeps else 0.0,
        "measurement.optimal_m.calls": get("measurement.optimal_m"),
        "measurement.optimal_m.ms": get("measurement.optimal_m", "ms"),
    }


def self_time_table(s: dict) -> str:
    lines = [f"{'span':<28} {'calls':>8} {'incl_ms':>11} {'self_ms':>11}"]
    for name, row in sorted(s.items(), key=lambda kv: -kv[1]["self_ms"]):
        lines.append(f"{name:<28} {int(row['calls']):>8} {row['ms']:>11.2f} {row['self_ms']:>11.2f}")
    return "\n".join(lines)


def measure_per_layer(args, refs, first, tmp_csv: str):
    tally = Tally()
    plain_walls, traced_walls, per_round = [], [], []
    for _ in range(workloads.round_count(args.workload, args.seconds / 2)):
        plain, wall = run_round(first, refs, tally, tmp_csv)
        plain_walls.append(wall)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced, wall = run_round(first, refs, tally, tmp_csv, tracer)
        finally:
            tracer.restore()
        traced_walls.append(wall)
        for op, a, b in zip(first, plain, traced):
            if a is not None and b is not None and a != b:
                tally.fail(op, "output differs with tracing on")
        summary = tracing.summarize(tracer.spans)
        per_round.append(derive(summary))
    os.makedirs(OUT, exist_ok=True)
    tracing.write_spans(os.path.join(OUT, f"spans-{args.workload}.tsv"), tracer.spans)
    print(self_time_table(summary), file=sys.stderr)
    count_keys = (".calls", ".steps", ".states", ".transitions", ".trials", ".raw_pairs", ".rows", ".budget_sum")
    counts = [{k: v for k, v in r.items() if k.endswith(count_keys)} for r in per_round]
    if any(c != counts[0] for c in counts):
        print("warning: work counts differ between identical traced rounds", file=sys.stderr)
    values = {name: statistics.median(r[name] for r in per_round) for name in per_round[0]}
    values["trace.overhead_frac"] = statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0
    values["check.byte_identical_frac"] = tally.identical / tally.referenced if tally.referenced else 0.0
    summary_line = f"traced rounds={len(per_round)} overhead_frac={values['trace.overhead_frac']:.4f}"
    return tally, values, summary_line


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "rnp", "__init__.py")):
        print(f"no rnp sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    refs, first, stream, setup_s = setup(args.workload, args.seed)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    os.makedirs(OUT, exist_ok=True)
    tmp_csv = os.path.join(OUT, f"sweep-{os.getpid()}.csv")
    print(environment())
    if args.trace:
        tally, values, summary = measure_per_layer(args, refs, first, tmp_csv)
        units = metric_units("per_layer")
    else:
        tally, values, summary = measure_end_to_end(args, refs, first, stream, setup_s, tmp_csv)
        units = metric_units("end_to_end")
    print(f"workload={args.workload} seed={args.seed} {summary}")
    print(
        f"error_rate={tally.failed / max(tally.attempted, 1):.6g} ({tally.failed}/{tally.attempted}) "
        f"byte_identical={tally.identical}/{tally.referenced}"
    )
    if not values:
        return 1
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
