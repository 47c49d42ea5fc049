"""Seeded inputs and operations of the three benchmark workloads.

Every workload is a closed loop with one caller: each operation starts
when the previous one has returned, all in one process.  Inputs come in
rounds; every round has the same shape (same number of operations drawn
from the same strata), so a run's cost does not depend on which seed drew
it.  Operations return their output as text, so the checker can compare
bytes with the references.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random

# The default `rnp sweep` box: 13 log-spaced p_L values and 10 F values,
# written exactly as the sweep CSV writes them (repr of the float).
SWEEP_P_L = (
    "1e-06", "1.7782794100389227e-06", "3.162277660168379e-06",
    "5.623413251903491e-06", "9.999999999999999e-06", "1.778279410038923e-05",
    "3.1622776601683795e-05", "5.623413251903491e-05", "0.0001",
    "0.00017782794100389227", "0.00031622776601683794", "0.0005623413251903491",
    "0.001",
)
SWEEP_F = ("0.9", "0.91", "0.92", "0.93", "0.9400000000000001", "0.95", "0.96", "0.97", "0.98", "0.99")

# plan-tail draws F uniform in [0.90, 0.92] and p_L log-uniform in
# [3e-7, 3e-6], on a 10 x 12 lattice of cell midpoints.  Plan time grows
# with the budget, which spans 7.6e3 to 3.5e5 here, so the draws are
# stratified by it: the 120 points sorted by reference budget form 15
# strata of 8, and a round takes one point from each.  Every point stays
# equally likely, and every round costs about the same.
PLAN_F = tuple(f"{0.901 + 0.002 * i:.3f}" for i in range(10))
PLAN_P_L = tuple(f"{3e-7 * 10 ** ((j + 0.5) / 12):.3g}" for j in range(12))
PLAN_STRATA = 15
PRESET_PLANS = tuple(
    ("plan", "--preset", preset, "--restart-mode", mode)
    for preset in ("ion-depolarizing", "nv-dephasing")
    for mode in ("full", "level")
)

VERIFY_TRIALS = 100_000
#: Monte-Carlo seeds with references.  Seeds 0-39 were checked at the seed
#: commit; seed 15 is left out because its sample sits 3.1 standard errors
#: from the chain on the (0,4) checks, a draw a 3-sigma test flags about
#: 2.5% of the time (1 of these 40 seeds), not a defect of the program.
VERIFY_SEEDS = tuple(s for s in range(40) if s != 15)

WORKLOADS = ("sweep", "plan-tail", "verify")

#: Seconds one round takes at the seed commit on the reference host (2 vCPUs).
#: A run is a fixed number of rounds sized from --seconds with these, so
#: every run of a seed does the same work and takes the same number of
#: samples, however fast the program or the host is at the time.
NOMINAL_ROUND_S = {"sweep": 5.0, "plan-tail": 16.0, "verify": 3.3}


def round_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_ROUND_S[workload]))


def plan_argv(f: str, p_l: str) -> tuple[str, ...]:
    return ("plan", "--f", f, "--p-l", p_l)


def sweep_argv(p_l: str, f_lo: str, f_hi: str) -> tuple[str, ...]:
    """A two-row sweep: one p_L, two F values; both pool threads get a row."""
    return (
        "sweep", "--p-l-min", p_l, "--p-l-max", p_l, "--p-l-points", "1",
        "--f-min", f_lo, "--f-max", f_hi, "--f-points", "2",
    )


def plan_strata(refs: dict) -> list[list[tuple[str, ...]]]:
    """The plan-tail lattice in PLAN_STRATA equal groups of reference budget."""
    points = [plan_argv(f, p) for f in PLAN_F for p in PLAN_P_L]
    points.sort(key=lambda argv: json.loads(refs["plans"][" ".join(argv)]["stdout"])["n_tot_budget"])
    size = len(points) // PLAN_STRATA
    return [points[i * size:(i + 1) * size] for i in range(PLAN_STRATA)]


def rounds(workload: str, seed: int, refs: dict):
    """Endless stream of rounds; a round is a list of operation inputs."""
    rng = random.Random(f"{workload}:{seed}")
    strata = plan_strata(refs) if workload == "plan-tail" else None
    while True:
        if workload == "sweep":
            # The four corners of the default box (with its heaviest row,
            # F=0.90 and p_L=1e-6) and four seeded rows from inside it.
            ops = [sweep_argv(p_l, SWEEP_F[0], SWEEP_F[-1]) for p_l in (SWEEP_P_L[0], SWEEP_P_L[-1])]
            for _ in range(2):
                k, m = sorted(rng.sample(range(len(SWEEP_F)), 2))
                ops.append(sweep_argv(rng.choice(SWEEP_P_L), SWEEP_F[k], SWEEP_F[m]))
            yield ops
        elif workload == "plan-tail":
            ops = list(PRESET_PLANS)
            ops += [rng.choice(stratum) for stratum in strata]
            rng.shuffle(ops)
            yield ops
        elif workload == "verify":
            yield [("verify", VERIFY_SEEDS[seed % len(VERIFY_SEEDS)])]
        else:
            raise ValueError(f"unknown workload {workload!r}")


def work_units(op) -> int:
    """Rows for a sweep, one plan for a plan, the checks of a verify pass."""
    return {"sweep": 2, "plan": 1, "verify": len(VERIFY_CHECKS)}[op[0]]


def run_op(op, tmp_csv: str) -> tuple[int, str]:
    """Run one operation; return (exit code, output text)."""
    if op[0] == "verify":
        return 0, "".join(verify_check(spec, op[1]) for spec in VERIFY_CHECKS)
    from rnp.cli import main

    out = io.StringIO()
    err = io.StringIO()
    if op[0] == "sweep":
        with contextlib.redirect_stderr(err):
            rc = main([*op, "--out", tmp_csv])
        with open(tmp_csv) as fh:
            text = fh.read()
        os.remove(tmp_csv)
        return rc, text
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(op))
    return rc, out.getvalue()


# The `rnp verify` check set: 24 step-map vs density-matrix comparisons
# and 6 chain vs Monte-Carlo comparisons.  The benchmark runs it through
# rnp's public functions, so checks added to `rnp verify` later do not
# change this work.
VERIFY_CHECKS = tuple(
    ("oracle", f, p_l, eps_m, kind)
    for f in (0.8, 0.9, 0.95)
    for p_l in (0.0, 1e-3)
    for eps_m in (0.0, 1e-2)
    for kind in ("bit", "phase")
) + tuple(("markov-vs-mc", n_b, n_p, mode) for n_b, n_p in ((2, 2), (4, 5), (0, 4)) for mode in ("full", "level"))


def verify_check(spec, mc_seed: int) -> str:
    """One check with the tolerance `rnp verify` uses: name, verdict, numbers."""
    from rnp import markov, oracle, pumping
    from rnp.model import ErrorParams, PumpSchedule, RestartMode, StepKind

    if spec[0] == "oracle":
        _, f, p_l, eps_m, kind = spec
        params = ErrorParams(p_local=p_l, p_init=0.05, p_meas=0.05, fidelity=f)
        state = pumping.raw_pair(params)
        rec = pumping.pump_step(state, state, StepKind(kind), p_l, eps_m)
        succ, out = oracle.simulate_pump_step(state, state, StepKind(kind), p_l, eps_m)
        after = rec.state_after_success.as_tuple()
        dev = max(abs(succ - rec.success_prob), *(abs(a - b) for a, b in zip(out.as_tuple(), after)))
        return (
            f"oracle F={f} p_L={p_l} eps_M={eps_m} kind={kind}"
            f" pass={int(dev <= 1e-10)} success={rec.success_prob!r} fidelity={after[0]!r}\n"
        )
    _, n_b, n_p, mode = spec
    params = ErrorParams(p_local=1e-6, p_init=0.05, p_meas=0.05, fidelity=0.95)
    trace = pumping.run_two_level(PumpSchedule(n_b=n_b, n_p=n_p), params, 1.2e-5)
    restart = RestartMode.FULL if mode == "full" else RestartMode.LEVEL
    chain = markov.build_chain(trace, restart)
    expect = markov.expected_pairs(chain)
    budget = max(chain.min_pairs, int(round(expect)))
    predicted = markov.failure_probability(chain, budget)
    mc = oracle.monte_carlo_pumping(trace, restart, budget, VERIFY_TRIALS, mc_seed)
    ok = abs(predicted - mc.fail_fraction) <= 3.0 * max(mc.fail_std_err, 1e-12) and abs(
        expect - mc.mean_pairs
    ) <= 3.0 * max(mc.pairs_std_err, 1e-12)
    return (
        f"markov-vs-mc ({n_b},{n_p}) {mode} seed={mc_seed} pass={int(ok)} budget={budget}"
        f" eps_fail={predicted!r} mc_fail={mc.fail_fraction!r} pairs={expect!r} mc_pairs={mc.mean_pairs!r}\n"
    )


def warm_up(workload: str) -> None:
    """First NumPy calls and the oracle's operator caches, outside timed ops."""
    from rnp import markov, oracle, pumping
    from rnp.measurement import optimal_m
    from rnp.model import ErrorParams, PumpSchedule, RestartMode, StepKind

    params = ErrorParams(p_local=1e-6, p_init=0.05, p_meas=0.05, fidelity=0.95)
    optimal_m(params)
    trace = pumping.run_two_level(PumpSchedule(n_b=1, n_p=1), params, 1e-5)
    chain = markov.build_chain(trace, RestartMode.FULL)
    markov.expected_pairs(chain)
    markov.failure_probability(chain, markov.solve_budget(chain, 1e-3))
    if workload == "verify":
        state = pumping.raw_pair(params)
        for kind in (StepKind.BIT, StepKind.PHASE):
            oracle.simulate_pump_step(state, state, kind, 1e-3, 1e-2)
        oracle.monte_carlo_pumping(trace, RestartMode.FULL, 4, 16, 0)
