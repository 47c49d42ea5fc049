"""Every integer, real and enum input of the library goes through one check.

Each integer input takes Python and NumPy integers in its range and rejects
``bool``, ``float``, ``str`` and one value past each finite end with a
``ValidationError`` naming it and its range.  Each real input takes Python
and NumPy reals in its range, as a ``float``, and rejects ``bool``, ``str``,
NaN and one value past each end (an open end itself) the same way.  Each
enum input takes members of its enum only, not their value strings.
"""

import dataclasses
import math
import re

import numpy as np
import pytest

from rnp import (
    ErrorParams,
    StepRecord,
    MeasurementPlan,
    PhysicalTimings,
    PumpSchedule,
    RestartMode,
    StepKind,
    ValidationError,
    build_chain,
    closed_form_infidelity,
    exact_vote_error,
    failure_probability,
    measurement_error,
    measurement_time,
    memory_check,
    monte_carlo_pumping,
    optimal_m,
    plan,
    pump_step,
    raw_pair,
    run_standard,
    run_two_level,
    search_schedule,
    simulate_pump_step,
    solve_budget,
)
from rnp.model import MAX_M, MAX_STEPS, NoiseKind
from rnp.oracle import philox_uniforms
from rnp.pumping import MAX_STANDARD_STEPS

P = ErrorParams(p_local=1e-6, p_init=0.05, p_meas=0.05, fidelity=0.95)
TIMINGS = PhysicalTimings(p_meas=0.05, eta=0.2, tau=10e-9, purcell_c=10.0, t_local=0.1e-6)
TRACE = run_two_level(PumpSchedule(2, 2), P, 1.2e-5)
CHAIN = build_chain(TRACE, RestartMode.FULL)
IDS = np.arange(4, dtype=np.uint32)
PLAN = plan(P, TIMINGS)
STATE = raw_pair(ErrorParams(p_local=1e-3, p_init=0.05, p_meas=0.05, fidelity=0.9))

# input: (parameter name in messages, call taking the value, lo, hi, a value in range)
INTEGER_INPUTS = {
    "PumpSchedule.n_b": ("n_b", lambda v: PumpSchedule(v, 1), 0, MAX_STEPS, 2),
    "PumpSchedule.n_p": ("n_p", lambda v: PumpSchedule(1, v), 0, MAX_STEPS, 2),
    "MeasurementPlan.m": ("m", lambda v: MeasurementPlan(m=v, error_prob=1e-5), 0, MAX_M, 2),
    "measurement_error.m": ("m", lambda v: measurement_error(v, P), 0, MAX_M, 3),
    "exact_vote_error.m": ("m", lambda v: exact_vote_error(v, P), 0, MAX_M, 3),
    "measurement_time.m": ("m", lambda v: measurement_time(v, TIMINGS), 0, MAX_M, 3),
    "optimal_m.m_max": ("m_max", lambda v: optimal_m(P, m_max=v), 0, MAX_M, 3),
    "search_schedule.bound": ("bound", lambda v: search_schedule([P], 1.2e-5, v), 0, MAX_STEPS, 2),
    "run_standard.total_steps": ("total_steps", lambda v: run_standard(v, P, 1.2e-5), 0, MAX_STANDARD_STEPS, 3),
    "failure_probability.budget": ("budget", lambda v: failure_probability(CHAIN, v), 0, math.inf, 20),
    "solve_budget.cap": ("cap", lambda v: solve_budget(CHAIN, 0.5, cap=v), 0, math.inf, 9),
    "monte_carlo_pumping.budget": (
        "budget", lambda v: monte_carlo_pumping(TRACE, RestartMode.FULL, v, 10, 7), 0, math.inf, 20
    ),
    "monte_carlo_pumping.trials": (
        "trials", lambda v: monte_carlo_pumping(TRACE, RestartMode.FULL, 20, v, 7), 1, 2**32, 10
    ),
    "monte_carlo_pumping.seed": (
        "seed", lambda v: monte_carlo_pumping(TRACE, RestartMode.FULL, 20, 10, v), 0, 2**64 - 1, 7
    ),
    "philox_uniforms.draw": ("draw", lambda v: philox_uniforms(7, IDS, v), 0, 2**32 - 1, 3),
    "philox_uniforms.seed": ("seed", lambda v: philox_uniforms(v, IDS, 0), 0, 2**64 - 1, 1),
}


def _bad_values():
    for key, (_, _, lo, hi, _) in INTEGER_INPUTS.items():
        for bad in (True, False, 1.5, 7.9, "1", lo - 1) + ((hi + 1,) if hi != math.inf else ()):
            yield pytest.param(key, bad, id=f"{key}-{bad!r}")


@pytest.mark.parametrize("key,bad", _bad_values())
def test_integer_input_rejects(key, bad):
    name, call, lo, hi, _ = INTEGER_INPUTS[key]
    message = f"{name} must be an integer in [{lo}, {hi}], got {bad!r}"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call(bad)


@pytest.mark.parametrize("key", INTEGER_INPUTS)
@pytest.mark.parametrize("as_numpy", [np.int64, np.uint32])
def test_numpy_integer_is_its_int(key, as_numpy):
    _, call, _, _, value = INTEGER_INPUTS[key]
    got, want = call(as_numpy(value)), call(value)
    assert type(got) is type(want)
    if isinstance(want, np.ndarray):
        assert np.array_equal(got, want)
    else:
        assert got == want


def test_numpy_integers_are_stored_as_ints():
    assert type(MeasurementPlan(m=np.int64(2), error_prob=1e-5).m) is int
    res = monte_carlo_pumping(TRACE, RestartMode.FULL, np.int64(20), np.int64(10), np.uint64(7))
    assert (type(res.budget), type(res.trials), type(res.seed)) == (int, int, int)


def test_largest_m():
    # 1029/2 copy gates at p_L = 1e-6; the vote's tail underflows to 0.
    assert measurement_error(MAX_M, P) == pytest.approx(5.145e-4, rel=1e-12)
    assert MeasurementPlan(m=MAX_M, error_prob=0.5).m == MAX_M


def _params(**field):
    return ErrorParams(**{"p_local": 1e-6, "p_init": 0.05, "p_meas": 0.05, "fidelity": 0.95, **field})


def _timings(**field):
    return PhysicalTimings(**{"p_meas": 0.05, "eta": 0.2, "tau": 10e-9, "purcell_c": 10.0, "t_local": 0.1e-6, **field})


# input: (parameter name in messages, call taking the value and returning what
# it stores or computes, range, a float in range, an int in range or None)
REAL_INPUTS = {
    "ErrorParams.p_local": ("p_local", lambda v: _params(p_local=v).p_local, "[0, 1]", 1e-6, 0),
    "ErrorParams.p_init": ("p_init", lambda v: _params(p_init=v).p_init, "[0, 1]", 0.05, 0),
    "ErrorParams.p_meas": ("p_meas", lambda v: _params(p_meas=v).p_meas, "[0, 1]", 0.05, 0),
    "ErrorParams.fidelity": ("fidelity", lambda v: _params(fidelity=v).fidelity, "[0, 1]", 0.95, 1),
    "PhysicalTimings.p_meas": ("p_meas", lambda v: _timings(p_meas=v).p_meas, "(0, 1)", 0.05, None),
    "PhysicalTimings.eta": ("eta", lambda v: _timings(eta=v).eta, "(0, 1)", 0.2, None),
    "PhysicalTimings.tau": ("tau", lambda v: _timings(tau=v).tau, "(0, inf)", 10e-9, 1),
    "PhysicalTimings.purcell_c": ("purcell_c", lambda v: _timings(purcell_c=v).purcell_c, "[1, inf)", 10.0, 1),
    "PhysicalTimings.t_local": ("t_local", lambda v: _timings(t_local=v).t_local, "(0, inf)", 0.1e-6, 1),
    "PhysicalTimings.t_mem": ("t_mem", lambda v: _timings(t_mem=v).t_mem, "(0, inf)", 10.0, 10),
    "MeasurementPlan.error_prob": ("error_prob", lambda v: MeasurementPlan(2, v).error_prob, "[0, 1]", 1e-5, 0),
    "MeasurementPlan.duration_s": (
        "duration_s", lambda v: MeasurementPlan(2, 1e-5, v).duration_s, "(0, inf)", 2.7e-6, 1
    ),
    "PlanResult.delta_min": ("delta_min", lambda v: dataclasses.replace(PLAN, delta_min=v).delta_min, "[0, 1]", 1e-5, 1),
    "PlanResult.eps_fail": ("eps_fail", lambda v: dataclasses.replace(PLAN, eps_fail=v).eps_fail, "[0, 1]", 1e-5, 0),
    "PlanResult.eps_E": ("eps_E", lambda v: dataclasses.replace(PLAN, eps_E=v).eps_E, "[0, 1]", 9e-6, 0),
    "PlanResult.gamma": ("gamma", lambda v: dataclasses.replace(PLAN, gamma=v).gamma, "[0, 1]", 1e-4, 1),
    "StepRecord.success_prob": (
        "success_prob", lambda v: StepRecord(StepKind.BIT, STATE, v, STATE).success_prob, "(0, 1]", 0.6, 1
    ),
    "pump_step.p_local": ("p_local", lambda v: pump_step(STATE, STATE, StepKind.BIT, v, 1e-2), "[0, 1]", 1e-3, 0),
    "pump_step.meas_flip": ("meas_flip", lambda v: pump_step(STATE, STATE, StepKind.BIT, 1e-3, v), "[0, 1]", 1e-2, 0),
    "simulate_pump_step.p_local": (
        "p_local", lambda v: simulate_pump_step(STATE, STATE, StepKind.BIT, v, 1e-2), "[0, 1]", 1e-3, 0
    ),
    "simulate_pump_step.meas_flip": (
        "meas_flip", lambda v: simulate_pump_step(STATE, STATE, StepKind.BIT, 1e-3, v), "[0, 1]", 1e-2, 0
    ),
    "run_two_level.meas_flip": ("meas_flip", lambda v: run_two_level(PumpSchedule(2, 2), P, v), "[0, 1]", 1.2e-5, 0),
    "run_standard.meas_flip": ("meas_flip", lambda v: run_standard(3, P, v), "[0, 1]", 1.2e-5, 0),
    "search_schedule.meas_flip": ("meas_flip", lambda v: search_schedule([P], v, 2), "[0, 1]", 1.2e-5, 0),
    "closed_form_infidelity.meas_flip": (
        "meas_flip", lambda v: closed_form_infidelity(PumpSchedule(2, 2), P, v), "[0, 1]", 1.2e-5, 0
    ),
    "solve_budget.delta_min": ("delta_min", lambda v: solve_budget(CHAIN, v), "[0, 1)", 1e-3, 0),
    "memory_check.t_c": ("t_c", lambda v: memory_check(v, 10.0), "(0, inf)", 2.4e-4, 1),
    "memory_check.t_mem": ("t_mem", lambda v: memory_check(2.4e-4, v), "(0, inf)", 10.0, 10),
}

#: Inputs for which None means "not given".
OPTIONAL = {"PhysicalTimings.t_mem", "MeasurementPlan.duration_s"}


def _ends(range_text):
    lo, hi = (float(end) for end in range_text[1:-1].split(", "))
    return lo, hi, range_text[0], range_text[-1]


def _bad_reals():
    for key, (name, _, range_text, _, _) in REAL_INPUTS.items():
        lo, hi, left, right = _ends(range_text)
        outside = [lo if left == "(" else lo - 0.5, hi if right == ")" else hi + 0.5, math.nan]
        outside += [] if key in OPTIONAL else [None]  # not a real, so in no range
        cases = [(v, f"{name} must lie in {range_text}, got {v!r}") for v in outside]
        cases += [(v, f"{name} must be a number, got {v!r}") for v in (True, False, "0.5")]
        for bad, message in cases:
            yield pytest.param(key, bad, message, id=f"{key}-{bad!r}")


@pytest.mark.parametrize("key,bad,message", _bad_reals())
def test_real_input_rejects(key, bad, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        REAL_INPUTS[key][1](bad)


@pytest.mark.parametrize("key", ["ErrorParams.p_local", "PhysicalTimings.tau", "memory_check.t_c"])
def test_int_past_the_float_range_is_out_of_range(key):
    # float() raises OverflowError for it.
    name, call, range_text, _, _ = REAL_INPUTS[key]
    with pytest.raises(ValidationError, match=f"^{re.escape(f'{name} must lie in {range_text}, got 1')}0{{400}}$"):
        call(10**400)


def _same(got, want):
    assert type(got) is type(want)
    assert got == want


@pytest.mark.parametrize("key", REAL_INPUTS)
def test_numpy_real_and_int_are_their_float(key):
    _, call, _, value, integer = REAL_INPUTS[key]
    _same(call(np.float32(value)), call(float(np.float32(value))))
    _same(call(np.float64(value)), call(value))
    if integer is not None:
        _same(call(integer), call(float(integer)))
        _same(call(np.int64(integer)), call(float(integer)))


def test_stored_reals_are_floats():
    # The dataclass inputs store the checked float, not the caller's type.
    for key, (_, call, _, value, _) in REAL_INPUTS.items():
        if key[0].isupper():
            assert type(call(np.float32(value))) is float, key


# input: (parameter name in messages, enum, call taking the value)
ENUM_INPUTS = {
    "ErrorParams.noise": (
        "noise", NoiseKind, lambda v: ErrorParams(p_local=0.0, p_init=0.0, p_meas=0.0, fidelity=0.9, noise=v)
    ),
    "pump_step.kind": ("kind", StepKind, lambda v: pump_step(raw_pair(P), raw_pair(P), v, 1e-3, 1e-2)),
    "simulate_pump_step.kind": (
        "kind", StepKind, lambda v: simulate_pump_step(raw_pair(P), raw_pair(P), v, 1e-3, 1e-2)
    ),
    "build_chain.restart_mode": ("restart_mode", RestartMode, lambda v: build_chain(TRACE, v)),
    "monte_carlo_pumping.restart_mode": (
        "restart_mode", RestartMode, lambda v: monte_carlo_pumping(TRACE, v, 20, 10, 7)
    ),
}


def _bad_members():
    # Each member's value string and lower-case name, then None.
    for key, (_, kind, _) in ENUM_INPUTS.items():
        for bad in dict.fromkeys([*(m.value for m in kind), *(m.name.lower() for m in kind), None]):
            yield pytest.param(key, bad, id=f"{key}-{bad}")


@pytest.mark.parametrize("key,bad", _bad_members())
def test_enum_input_rejects(key, bad):
    name, kind, call = ENUM_INPUTS[key]
    message = f"{name} must be a {kind.__name__}, got {bad!r}"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call(bad)


@pytest.mark.parametrize("key", ENUM_INPUTS)
def test_enum_input_takes_every_member(key):
    _, kind, call = ENUM_INPUTS[key]
    for member in kind:
        call(member)


def test_string_restart_mode_does_not_run_another_walk():
    # "full" once ran the LEVEL walk: mean 10.2495 pairs on this trace,
    # against 12.353 under RestartMode.FULL.
    full = monte_carlo_pumping(TRACE, RestartMode.FULL, 20, 2000, 7)
    assert full.mean_pairs == pytest.approx(12.353, abs=5e-4)
    with pytest.raises(ValidationError, match="^restart_mode must be a RestartMode, got 'full'$"):
        monte_carlo_pumping(TRACE, "full", 20, 2000, 7)
