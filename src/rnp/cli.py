"""Command-line surface: measure, pump, plan, sweep, verify.

Exit codes: 0 ok, 1 verification failure, 2 flag error, 3 domain error,
4 I/O error.  All numeric output uses repr floats (shortest round-trip,
no locale), so identical flags give byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys

import numpy as np

from . import timing
from .markov import build_chain, compose_plan, expected_pairs, failure_probability, plan
from .measurement import optimal_m
from .model import (
    MAX_M,
    MAX_STEPS,
    POSITIVE,
    BudgetCapError,
    ErrorParams,
    NoiseKind,
    PumpSchedule,
    RestartMode,
    UnpurifiableError,
    UselessLinkError,
    ValidationError,
    _check_int,
    _check_real,
)
from .oracle import MAX_SEED, MAX_TRIALS, monte_carlo_pumping, simulate_pump_step
from .pumping import MAX_STANDARD_STEPS, StepKind, pump_step, raw_pair, run_standard, run_two_level, search_schedule
from .timing import PhysicalTimings, memory_check

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_FLAGS = 2
EXIT_DOMAIN = 3
EXIT_IO = 4

#: Headline hardware scenarios: each sets the noise model and the default
#: memory time.  The other flags' defaults are the headline point: (t_local,
#: tau, eta, purcell_c) and (1-F, p_init, p_meas, p_local) = (5%, 5%, 5%, 1e-6).
PRESETS = {
    "ion-depolarizing": {"noise": NoiseKind.DEPOLARIZING, "t_mem": 10.0},
    "nv-dephasing": {"noise": NoiseKind.DEPHASING, "t_mem": 1.0},
}


def _parse(check, bounds: tuple, flag: str, text: str):
    """A numeric flag's value: its text as a number, checked by the library's
    ``check`` under the flag's name, so a flag error is the library's message."""
    try:
        value = int(text) if check is _check_int else float(text)
    except ValueError:
        value = text  # each check rejects text as not a number
    try:
        return check(flag, value, *bounds)
    except ValidationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _flag(check, *bounds):
    """Flag-type factory: ``factory(flag)`` parses the flag with ``_parse``."""
    return lambda flag: functools.partial(_parse, check, bounds, flag)


_prob = _flag(_check_real)
_positive = _flag(_check_real, *POSITIVE)
_count = _flag(_check_int)
_m_max = _flag(_check_int, 0, MAX_M)
_bound = _flag(_check_int, 0, MAX_STEPS)
_standard_steps = _flag(_check_int, 0, MAX_STANDARD_STEPS)
_trials = _flag(_check_int, 1, MAX_TRIALS)
_seed = _flag(_check_int, 0, MAX_SEED)


def _add_error_flags(p: argparse.ArgumentParser, readout: bool = True, gate: bool = True) -> None:
    if readout:
        p.add_argument("--p-i", type=_prob("--p-i"), default=0.05, help="initialization error")
        p.add_argument("--p-m", type=_prob("--p-m"), default=0.05, help="raw readout error")
    if gate:
        p.add_argument("--p-l", type=_prob("--p-l"), default=1e-6, help="local gate error")


def _add_timing_flags(p: argparse.ArgumentParser, memory: bool = False) -> None:
    def add(flag: str, name: str, default: float | None, text: str) -> None:  # name's range in timing.RANGES
        p.add_argument(flag, type=_flag(_check_real, *timing.RANGES[name])(flag), default=default, help=text)

    add("--tau", "tau", 10e-9, "radiative lifetime [s]")
    add("--eta", "eta", 0.2, "collection/detection efficiency")
    add("--cavity-c", "purcell_c", 10.0, "Purcell factor")
    add("--t-local", "t_local", 0.1e-6, "local gate time [s]")
    if memory:
        add("--t-mem", "t_mem", None, "storage memory time [s]")


def _noise_kind(text: str) -> NoiseKind:
    try:
        return NoiseKind(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--noise must be 'depolarizing' or 'dephasing', got {text!r}"
        )


def _restart_mode(text: str) -> RestartMode:
    modes = {"full": RestartMode.FULL, "level": RestartMode.LEVEL}
    if text not in modes:
        raise argparse.ArgumentTypeError(f"--restart-mode must be 'full' or 'level', got {text!r}")
    return modes[text]


def _cmd_measure(args) -> int:
    params = ErrorParams(p_local=args.p_l, p_init=args.p_i, p_meas=args.p_m, fidelity=0.95)
    timings = PhysicalTimings(args.p_m, args.eta, args.tau, args.cavity_c, args.t_local) if args.p_m > 0 and args.p_m < 1 else None
    meas = optimal_m(params, m_max=args.m_max, timings=timings)
    payload = {
        "m": meas.m,
        "eps_m": meas.error_prob,
        "t_robust_meas_s": meas.duration_s,
    }
    if args.json:
        print(json.dumps(payload))
    else:
        print(f"m* = {meas.m}")
        print(f"eps_M = {meas.error_prob!r}")
        print(f"t_robust_meas = {meas.duration_s!r} s")
    return EXIT_OK


def _cmd_pump(args) -> int:
    # The raw pair and the step maps read neither p_init nor p_meas.
    params = ErrorParams(p_local=args.p_l, p_init=0.0, p_meas=0.0, fidelity=args.f, noise=args.noise)
    if args.standard_steps is not None:
        given = [flag for flag, v in (("--n-b", args.n_b), ("--n-p", args.n_p)) if v is not None]
        if given:
            print(
                "rnp pump: error: --standard-steps runs the alternating scheme, which has no "
                f"(n_b, n_p) schedule, and takes no {' or '.join(given)}",
                file=sys.stderr,
            )
            return EXIT_FLAGS
        trace = run_standard(args.standard_steps, params, args.eps_m)
    else:
        schedule = PumpSchedule(n_b=2 if args.n_b is None else args.n_b, n_p=2 if args.n_p is None else args.n_p)
        trace = run_two_level(schedule, params, args.eps_m)
    if args.json:
        for i, step in enumerate(trace.steps):
            print(
                json.dumps(
                    {
                        "step": i + 1,
                        "kind": step.kind.value,
                        "success_prob": step.success_prob,
                        "state_after": list(step.state_after_success.as_tuple()),
                    }
                )
            )
        print(
            json.dumps(
                {
                    "final_state": list(trace.final_state.as_tuple()),
                    "infidelity": trace.infidelity,
                }
            )
        )
    else:
        print(f"{'step':>4}  {'kind':<5}  {'success':>10}  {'fidelity':>10}")
        for i, step in enumerate(trace.steps):
            print(
                f"{i + 1:>4}  {step.kind.value:<5}  {step.success_prob:>10.6f}"
                f"  {step.state_after_success.fidelity:>10.8f}"
            )
        print(f"final infidelity = {trace.infidelity!r}")
    return EXIT_OK


def _cmd_plan(args) -> int:
    if args.preset:
        # A preset picks the noise model and the memory time; flags keep the rest.
        preset = PRESETS[args.preset]
        if args.noise not in (None, preset["noise"]):
            print(
                f"rnp plan: error: --noise {args.noise.value} contradicts --preset {args.preset}, "
                f"which sets --noise {preset['noise'].value}",
                file=sys.stderr,
            )
            return EXIT_FLAGS
        args.noise = preset["noise"]
        if args.t_mem is None:
            args.t_mem = preset["t_mem"]
    elif args.noise is None:
        args.noise = NoiseKind.DEPOLARIZING
    params = ErrorParams(
        p_local=args.p_l, p_init=args.p_i, p_meas=args.p_m, fidelity=args.f, noise=args.noise
    )
    timings = PhysicalTimings(args.p_m, args.eta, args.tau, args.cavity_c, args.t_local, args.t_mem)
    meas = optimal_m(params, timings=timings)
    result = plan(params, timings, meas, bound=args.bound, restart_mode=args.restart_mode)
    # stdout carries exactly the PlanResult JSON; advisory output goes to stderr
    if timings.t_mem is not None:
        check = memory_check(result.t_C, timings.t_mem)
        if check.warning:
            print(
                f"warning: t_C/t_mem = {check.ratio:.3g} exceeds {timing.DEFAULT_MEMORY_RATIO!r}; "
                "the clock cycle is not far below the storage memory time",
                file=sys.stderr,
            )
    print(json.dumps(result.to_dict()))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    p_l_grid = np.geomspace(args.p_l_min, args.p_l_max, args.p_l_points)
    f_grid = np.linspace(args.f_min, args.f_max, args.f_points)
    timings = PhysicalTimings(args.p_m, args.eta, args.tau, args.cavity_c, args.t_local)

    # Points p_L-major up to the first invalid one, one schedule search, then
    # rows composed in row order.  No valid point makes the search raise, so
    # the first row compose_plan rejects fails first, and the invalid point last.
    points, invalid = [], None
    for p_l, f in itertools.product(p_l_grid, f_grid):
        try:
            points.append(
                ErrorParams(p_local=float(p_l), p_init=args.p_i, p_meas=args.p_m, fidelity=float(f), noise=args.noise)
            )
        except ValidationError as exc:
            invalid = exc
            break
    # The readout plan depends on p_init, p_meas and p_local, not on F.
    meas = {p_l: optimal_m(p, timings=timings) for p_l, p in {p.p_local: p for p in points}.items()}
    flips = [meas[p.p_local].error_prob for p in points]
    rows = []
    for params, trace in zip(points, search_schedule(points, flips, args.bound)):
        r = compose_plan(params, timings, meas[params.p_local], trace, args.restart_mode)
        rows.append(
            f"{params.p_local!r},{params.fidelity!r},{args.noise.value},{r.schedule.n_b},{r.schedule.n_p},"
            f"{r.delta_min!r},{r.eps_fail!r},{r.eps_E!r},{r.n_tot_budget},"
            f"{r.expected_pairs!r},{r.t_C!r},{r.gamma!r}"
        )
    if invalid is not None:
        raise invalid

    header = "p_L,F,noise,n_b,n_p,delta_min,eps_fail,eps_E,n_tot_budget,expected_pairs,t_C_s,gamma"
    text = "\n".join([header, *rows]) + "\n"
    if args.out in (None, "-"):
        sys.stdout.write(text)
    else:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"cannot write {args.out}: {exc}", file=sys.stderr)
            return EXIT_IO
    return EXIT_OK


def _verify_oracle_grid(report) -> bool:
    ok = True
    for f in (0.8, 0.9, 0.95):
        for p_l in (0.0, 1e-3):
            for eps_m in (0.0, 1e-2):
                for kind in (StepKind.BIT, StepKind.PHASE):
                    params = ErrorParams(p_local=p_l, p_init=0.05, p_meas=0.05, fidelity=f)
                    state = raw_pair(params)
                    rec = pump_step(state, state, kind, p_l, eps_m)
                    succ, out = simulate_pump_step(state, state, kind, p_l, eps_m)
                    dev = abs(succ - rec.success_prob)
                    dev = max(
                        dev,
                        max(
                            abs(a - b)
                            for a, b in zip(out.as_tuple(), rec.state_after_success.as_tuple())
                        ),
                    )
                    passed = dev <= 1e-10
                    ok &= passed
                    report(
                        f"oracle-equivalence F={f} p_L={p_l} eps_M={eps_m} kind={kind.value}",
                        passed,
                        f"max deviation {dev:.3e}",
                    )
    return ok


def _verify_markov_grid(report, trials: int, seed: int) -> bool:
    ok = True
    params = ErrorParams(p_local=1e-6, p_init=0.05, p_meas=0.05, fidelity=0.95)
    for n_b, n_p in ((2, 2), (4, 5), (0, 4)):
        trace = run_two_level(PumpSchedule(n_b=n_b, n_p=n_p), params, 1.2e-5)
        for mode in (RestartMode.FULL, RestartMode.LEVEL):
            chain = build_chain(trace, mode)
            expect = expected_pairs(chain)
            budget = max(chain.min_pairs, int(round(expect)))
            predicted = failure_probability(chain, budget)
            mc = monte_carlo_pumping(trace, mode, budget, trials, seed)
            tol_fail = 3.0 * max(mc.fail_std_err, 1e-12)
            tol_pairs = 3.0 * max(mc.pairs_std_err, 1e-12)
            ok_fail = abs(predicted - mc.fail_fraction) <= tol_fail
            ok_pairs = abs(expect - mc.mean_pairs) <= tol_pairs
            ok &= ok_fail and ok_pairs
            report(
                f"markov-vs-mc ({n_b},{n_p}) {mode.value} budget={budget}",
                ok_fail and ok_pairs,
                f"eps_fail {predicted:.5f} vs {mc.fail_fraction:.5f} (3se {tol_fail:.5f}); "
                f"pairs {expect:.2f} vs {mc.mean_pairs:.2f} (3se {tol_pairs:.2f})",
            )
    return ok


def _cmd_verify(args) -> int:
    lines = []

    def report(name: str, passed: bool, detail: str) -> None:
        lines.append((name, passed, detail))
        print(f"[{'pass' if passed else 'FAIL'}] {name}: {detail}")

    ok = _verify_oracle_grid(report)
    ok &= _verify_markov_grid(report, args.trials, args.seed)
    n_fail = sum(1 for _, passed, _ in lines if not passed)
    print(f"{len(lines) - n_fail}/{len(lines)} checks passed (seed={args.seed}, trials={args.trials})")
    if n_fail:
        first = next(name for name, passed, _ in lines if not passed)
        print(f"verification failed: {first}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `rnp` parser, built on first use and shared for the process.

    Every `main` call parses with this one object; each parse returns a
    fresh namespace, so nothing a command sets on its `args` reaches the
    next call.  `set_defaults(func=...)` binds the `_cmd_*` functions once
    per process: a `_cmd_*` replaced after the first build is not called.
    """
    parser = argparse.ArgumentParser(
        prog="rnp",
        allow_abbrev=False,
        description="Planner for robust entanglement generation between few-qubit registers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_measure = sub.add_parser("measure", allow_abbrev=False, help="optimal majority-vote readout")
    _add_error_flags(p_measure)
    p_measure.add_argument("--m-max", type=_m_max("--m-max"), default=25)
    _add_timing_flags(p_measure)
    p_measure.add_argument("--json", action="store_true")
    p_measure.set_defaults(func=_cmd_measure)

    p_pump = sub.add_parser("pump", allow_abbrev=False, help="deterministic pumping trace")
    _add_error_flags(p_pump, readout=False)
    p_pump.add_argument("--f", type=_prob("--f"), default=0.95, help="raw pair fidelity")
    p_pump.add_argument("--noise", type=_noise_kind, default=NoiseKind.DEPOLARIZING)
    p_pump.add_argument("--n-b", type=_bound("--n-b"), default=None, help="bit steps (default 2)")
    p_pump.add_argument("--n-p", type=_bound("--n-p"), default=None, help="phase steps (default 2)")
    p_pump.add_argument("--eps-m", type=_prob("--eps-m"), default=0.0, help="voted readout error")
    p_pump.add_argument(
        "--standard-steps",
        type=_standard_steps("--standard-steps"),
        default=None,
        help="run the alternating raw-fed scheme for this many steps instead",
    )
    p_pump.add_argument("--json", action="store_true", help="emit JSON lines")
    p_pump.set_defaults(func=_cmd_pump)

    p_plan = sub.add_parser("plan", allow_abbrev=False, help="full plan for one parameter point (JSON)")
    p_plan.add_argument("--preset", choices=sorted(PRESETS), default=None)
    _add_error_flags(p_plan)
    p_plan.add_argument("--f", type=_prob("--f"), default=0.95)
    p_plan.add_argument(
        "--noise", type=_noise_kind, default=None, help="raw pair noise (default: the preset's, else depolarizing)"
    )
    _add_timing_flags(p_plan, memory=True)
    p_plan.add_argument("--bound", type=_bound("--bound"), default=15)
    p_plan.add_argument("--restart-mode", type=_restart_mode, default=RestartMode.FULL)
    p_plan.set_defaults(func=_cmd_plan)

    p_sweep = sub.add_parser("sweep", allow_abbrev=False, help="parameter sweep to CSV")
    _add_error_flags(p_sweep, gate=False)
    p_sweep.add_argument("--noise", type=_noise_kind, default=NoiseKind.DEPOLARIZING)
    _add_timing_flags(p_sweep)
    p_sweep.add_argument("--p-l-min", type=_positive("--p-l-min"), default=1e-6)
    p_sweep.add_argument("--p-l-max", type=_positive("--p-l-max"), default=1e-3)
    p_sweep.add_argument("--p-l-points", type=_count("--p-l-points"), default=13)
    p_sweep.add_argument("--f-min", type=_prob("--f-min"), default=0.90)
    p_sweep.add_argument("--f-max", type=_prob("--f-max"), default=0.99)
    p_sweep.add_argument("--f-points", type=_count("--f-points"), default=10)
    p_sweep.add_argument("--bound", type=_bound("--bound"), default=15)
    p_sweep.add_argument("--restart-mode", type=_restart_mode, default=RestartMode.FULL)
    p_sweep.add_argument("--out", default="-", help="output CSV path ('-' for stdout)")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_verify = sub.add_parser("verify", allow_abbrev=False, help="run the oracle cross-check grids")
    p_verify.add_argument("--trials", type=_trials("--trials"), default=100000)
    p_verify.add_argument("--seed", type=_seed("--seed"), default=7)
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UnpurifiableError as exc:
        print(f"unpurifiable fidelity: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except BudgetCapError as exc:
        print(f"budget search failed: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except UselessLinkError as exc:
        print(f"no useful link: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ValidationError as exc:
        print(f"invalid parameter: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
