"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here, none deferred.  Criteria are asserted
exactly as stated; where a pinned band provably does not hold for the
exact dynamics the test stays faithful and fails (see the test-status
section of the README for the mechanisms).
"""

import itertools
import json
import time

from rnp import (
    ErrorParams,
    NoiseKind,
    PumpSchedule,
    RestartMode,
    StepKind,
    build_chain,
    closed_form_infidelity,
    expected_pairs,
    failure_probability,
    measurement_error,
    monte_carlo_pumping,
    optimal_m,
    plan,
    pump_step,
    raw_pair,
    run_standard,
    run_two_level,
    simulate_pump_step,
)
from rnp import cli
from rnp.timing import PhysicalTimings

ION_TIMINGS = PhysicalTimings(p_meas=0.05, eta=0.2, tau=10e-9, purcell_c=10.0, t_local=0.1e-6)


def params(f=0.95, p_l=1e-6, noise=NoiseKind.DEPOLARIZING):
    return ErrorParams(p_local=p_l, p_init=0.05, p_meas=0.05, fidelity=f, noise=noise)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_robust_measurement_regression():
    t0 = time.perf_counter()
    eps6 = measurement_error(6, params(p_l=1e-4))
    plan10 = optimal_m(params(p_l=1e-6), m_max=25)
    elapsed = time.perf_counter() - t0
    ok = (
        7.8e-4 <= eps6 <= 8.6e-4
        and plan10.m == 10
        and 1.1e-5 <= plan10.error_prob <= 1.5e-5
        and elapsed < 1.0
    )
    report(
        1,
        ok,
        f"eps_M(6)={eps6:.4g} in [7.8e-4, 8.6e-4]; m*={plan10.m} (want 10), "
        f"eps_M={plan10.error_prob:.4g} in [1.1e-5, 1.5e-5]; {elapsed:.2f}s < 1s",
    )


def test_criterion_2_oracle_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for f, p_l, eps_m, kind in itertools.product(
        (0.8, 0.9, 0.95), (0.0, 1e-3), (0.0, 1e-2), (StepKind.BIT, StepKind.PHASE)
    ):
        state = raw_pair(params(f, p_l))
        rec = pump_step(state, state, kind, p_l, eps_m)
        succ, out = simulate_pump_step(state, state, kind, p_l, eps_m)
        worst = max(worst, abs(succ - rec.success_prob))
        worst = max(
            worst,
            max(abs(a - b) for a, b in zip(out.as_tuple(), rec.state_after_success.as_tuple())),
        )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 10.0
    report(2, ok, f"24-cell grid, worst |recurrence - oracle| = {worst:.3e} <= 1e-10; {elapsed:.1f}s < 10s")


def test_criterion_3_closed_form_agreement():
    checked = failed = 0
    worst = (1.0, None)
    for n_b, n_p, f, p_l, eps_m in itertools.product(
        range(5), range(5), (0.9, 0.95, 0.99), (0.0, 1e-6, 1e-5, 1e-4), (0.0, 1.2e-5, 1e-3)
    ):
        p = params(f, p_l)
        sched = PumpSchedule(n_b, n_p)
        exact = run_two_level(sched, p, eps_m).infidelity
        if exact <= 1e-8:
            continue
        estimate = closed_form_infidelity(sched, p, eps_m)
        checked += 1
        ratio = exact / estimate
        if not (0.75 <= ratio <= 1.25):
            failed += 1
            if abs(ratio - 1.0) > abs(worst[0] - 1.0):
                worst = (ratio, (n_b, n_p, f, p_l, eps_m))
    ok = failed == 0
    report(
        3,
        ok,
        f"{checked - failed}/{checked} grid cells within 25%; worst ratio "
        f"{worst[0]:.3g} at (n_b, n_p, F, p_L, eps_M)={worst[1]}",
    )


def test_criterion_4_standard_scheme_floor():
    ok = True
    details = []
    for f in (0.90, 0.95, 0.99):
        floor = (1.0 - f) ** 2 / 9.0
        standard_best = min(
            run_standard(steps, params(f, 0.0), 0.0).infidelity for steps in range(31)
        )
        two_level_best = min(
            run_two_level(PumpSchedule(n_b, n_p), params(f, 0.0), 0.0).infidelity
            for n_b in range(16)
            for n_p in range(16)
        )
        ok &= standard_best >= floor and two_level_best < floor
        details.append(
            f"F={f}: standard>={standard_best:.3g} vs floor {floor:.3g}, two-level {two_level_best:.3g}"
        )
    report(4, ok, "; ".join(details))


def test_criterion_5_perfect_operation_limit():
    best = min(
        run_two_level(PumpSchedule(n_b, n_p), params(0.95, 0.0), 0.0).infidelity
        for n_b in range(16)
        for n_p in range(16)
    )
    report(5, best < 1e-10, f"best noiseless infidelity over n_b,n_p<=15: {best:.3e} < 1e-10")


def test_criterion_6_markov_vs_monte_carlo():
    t0 = time.perf_counter()
    ok = True
    details = []
    for (n_b, n_p), mode in itertools.product(
        ((2, 2), (4, 5)), (RestartMode.FULL, RestartMode.LEVEL)
    ):
        trace = run_two_level(PumpSchedule(n_b, n_p), params(), 1.2e-5)
        chain = build_chain(trace, mode)
        expect = expected_pairs(chain)
        budget = max(chain.min_pairs, int(round(expect)))
        mc = monte_carlo_pumping(trace, mode, budget, trials=100000, seed=20260811)
        predicted = failure_probability(chain, budget)
        ok_cell = (
            abs(predicted - mc.fail_fraction) <= 3.0 * max(mc.fail_std_err, 1e-12)
            and abs(expect - mc.mean_pairs) <= 3.0 * max(mc.pairs_std_err, 1e-12)
        )
        ok &= ok_cell
        details.append(
            f"({n_b},{n_p}) {mode.value}: |{predicted:.4f}-{mc.fail_fraction:.4f}|, "
            f"|{expect:.1f}-{mc.mean_pairs:.1f}|"
        )
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    report(6, ok, f"3-sigma agreement at 1e5 trials ({elapsed:.1f}s < 60s): " + "; ".join(details))


def _headline_variants(noise: NoiseKind):
    """(t_C expectation-variant, t_C budget-variant, gamma) per restart mode."""
    p = params(noise=noise)
    meas = optimal_m(p, timings=ION_TIMINGS)
    out = {}
    for mode in (RestartMode.FULL, RestartMode.LEVEL):
        r = plan(p, ION_TIMINGS, meas, restart_mode=mode)
        per_raw = ION_TIMINGS.t_ent + ION_TIMINGS.t_local + meas.duration_s
        t_c_budget = r.n_tot_budget * per_raw + 2 * ION_TIMINGS.t_local + meas.duration_s
        out[mode] = (r.t_C, t_c_budget, r.gamma)
    return out


def test_criterion_7_headline_scenarios():
    t0 = time.perf_counter()
    bands = {
        NoiseKind.DEPOLARIZING: ((700e-6, 1300e-6), (3e-5, 6e-5)),
        NoiseKind.DEPHASING: ((100e-6, 200e-6), (2.5e-5, 4.5e-5)),
    }
    ok = True
    details = []
    for noise, ((t_lo, t_hi), (g_lo, g_hi)) in bands.items():
        variants = _headline_variants(noise)
        preset_ok = any(
            t_lo <= t_exp <= t_hi and t_lo <= t_bud <= t_hi and g_lo <= gamma <= g_hi
            for t_exp, t_bud, gamma in variants.values()
        )
        ok &= preset_ok
        summary = ", ".join(
            f"{mode.value}: t_C(exp)={v[0] * 1e6:.0f}us t_C(budget)={v[1] * 1e6:.0f}us gamma={v[2]:.3g}"
            for mode, v in variants.items()
        )
        details.append(f"{noise.value} [{t_lo * 1e6:.0f},{t_hi * 1e6:.0f}]us: {summary}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    report(7, ok, f"({elapsed:.0f}s < 60s) " + " | ".join(details))


def test_criterion_8_sweep_properties(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--out", str(out)]) == 0
    elapsed = time.perf_counter() - t0

    import csv

    rows = list(csv.DictReader(open(out)))
    ratio_bad = [
        (r["p_L"], r["F"])
        for r in rows
        if float(r["F"]) >= 0.95
        and 1e-6 <= float(r["p_L"]) <= 1e-4
        and not (3.0 <= float(r["eps_E"]) / float(r["p_L"]) <= 30.0)
    ]
    budget_bad = [
        (r["p_L"], r["F"], r["n_tot_budget"]) for r in rows if int(r["n_tot_budget"]) > 1000
    ]
    ok = len(rows) == 130 and not ratio_bad and not budget_bad and elapsed < 300.0
    report(
        8,
        ok,
        f"130 rows in {elapsed:.0f}s < 300s; eps_E/p_L violations: {len(ratio_bad)}; "
        f"budget>1e3 rows: {len(budget_bad)} (all at F<=0.94 under full restart)"
        + (f", e.g. {budget_bad[0]}" if budget_bad else ""),
    )


def test_criterion_9_determinism(tmp_path, capsys):
    argv = [
        "sweep",
        "--p-l-points", "3",
        "--f-points", "2",
        "--f-min", "0.94",
        "--f-max", "0.97",
    ]
    paths = [tmp_path / f"{i}.csv" for i in range(3)]
    assert cli.main(argv + ["--out", str(paths[0])]) == 0
    assert cli.main(argv + ["--out", str(paths[1])]) == 0
    assert cli.main(argv + ["--out", str(paths[2])]) == 0
    csv_ok = paths[0].read_bytes() == paths[1].read_bytes() == paths[2].read_bytes()

    assert cli.main(["plan", "--preset", "ion-depolarizing"]) == 0
    first = capsys.readouterr().out
    assert cli.main(["plan", "--preset", "ion-depolarizing"]) == 0
    second = capsys.readouterr().out
    json_ok = first == second and json.loads(first)

    mc_a = monte_carlo_pumping(
        run_two_level(PumpSchedule(2, 2), params(), 1.2e-5), RestartMode.FULL, 20, 20000, seed=5
    )
    mc_b = monte_carlo_pumping(
        run_two_level(PumpSchedule(2, 2), params(), 1.2e-5), RestartMode.FULL, 20, 20000, seed=5
    )
    ok = csv_ok and bool(json_ok) and mc_a == mc_b
    report(9, ok, f"CSV identical across runs: {csv_ok}; plan JSON stable: {bool(json_ok)}; seeded MC stable: {mc_a == mc_b}")
