"""Absorbing-chain analysis of the pumping process and the plan composer.

One chain transition consumes exactly one raw pair.  A state (b, r) means:
build b is in progress (b = 0 is the keeper build, b = k >= 1 the fresh
pair for phase step k) and r raw pairs are already sunk into it.  The raw
consumed in a state either starts the build (its base pair), attempts the
next bit-pumping step, or - when it completes a fresh build - additionally
attempts the phase comparison.  Failures throw work away according to the
restart mode; DONE is the single absorbing state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import pumping
from .measurement import optimal_m
from .model import (
    BellDiagonalState,
    BudgetCapError,
    ErrorParams,
    MeasurementPlan,
    NoiseKind,
    PhysicalTimings,
    PlanResult,
    PumpSchedule,
    RestartMode,
    UselessLinkError,
    ValidationError,
)
from .pumping import PumpTrace, StepKind, StepRecord

__all__ = [
    "MarkovChain",
    "build_chain",
    "failure_probability",
    "expected_pairs",
    "optimize_schedule",
    "solve_budget",
    "plan",
    "BUDGET_CAP",
]

#: Hard cap on the raw-pair budget search.
BUDGET_CAP = 10**6


@dataclass(frozen=True, eq=False)
class MarkovChain:
    """Absorbing chain over raw-pair consumption.

    Transient state b*(n_b+1) + r is build b with r raws sunk into it, and
    the last state is DONE.  ``step_success`` is each transient state's
    probability of advancing on its next raw pair (products where a build
    completion and a phase comparison ride on the same raw).
    """

    step_success: tuple[float, ...]
    restart_mode: RestartMode
    n_b: int
    n_p: int
    trans_src: np.ndarray
    trans_dst: np.ndarray
    trans_p: np.ndarray

    @property
    def n_states(self) -> int:
        return self.min_pairs + 1

    @property
    def start(self) -> int:
        return 0

    @property
    def done(self) -> int:
        return self.min_pairs

    @property
    def min_pairs(self) -> int:
        """Raw pairs on the all-success path."""
        return (self.n_b + 1) * (self.n_p + 1)

    def transition_matrix(self) -> np.ndarray:
        t = np.zeros((self.n_states, self.n_states))
        np.add.at(t, (self.trans_src, self.trans_dst), self.trans_p)
        return t

    @cached_property
    def _transient_block(self) -> np.ndarray:
        """Q: the transition probabilities among the transient states, built
        once per chain and shared by the budget solve and ``expected_pairs``."""
        q = self.transition_matrix()[: self.done, : self.done]
        q.flags.writeable = False
        return q


def build_chain(trace: PumpTrace, restart_mode: RestartMode) -> MarkovChain:
    """Assemble the absorbing chain from a deterministic pump trace.

    The raw consumed in state (b, r) succeeds with probability
    bit[r] * cmp[b] when it completes the build (r = n_b) and bit[r]
    otherwise, where bit[0] = cmp[0] = 1 (a base raw, the keeper build) and
    bit[r], cmp[b] are the trace's r-th bit and b-th phase step.  Success
    moves to the next state in layout order, which is the next build's base
    raw or DONE after a completed build; failure restarts at (0, 0) or at
    (b, 0).  Zero-probability transitions are left out.
    """
    if not isinstance(restart_mode, RestartMode):
        raise ValidationError(f"restart_mode must be a RestartMode, got {restart_mode!r}")
    n_b = trace.schedule.n_b
    n_p = trace.schedule.n_p
    bit_succ = [s.success_prob for s in trace.steps if s.kind is StepKind.BIT]
    phase_succ = [s.success_prob for s in trace.steps if s.kind is StepKind.PHASE]
    if len(bit_succ) != n_b or len(phase_succ) != n_p:
        raise ValidationError("trace steps do not match its schedule")

    width = n_b + 1
    n = (n_p + 1) * width  # transient states; DONE is state n
    b, r = np.divmod(np.arange(n), width)
    bit = np.array([1.0] + bit_succ)
    cmp = np.array([1.0] + phase_succ)
    p = bit[r] * cmp[np.where(r == n_b, b, 0)]
    on_success = np.arange(1, n + 1)
    on_failure = np.zeros_like(b) if restart_mode is RestartMode.FULL else b * width
    # One (success, failure) pair per state, in state order, then DONE's loop.
    src = np.arange(2 * n + 1) // 2
    dst = np.append(np.column_stack((on_success, on_failure)), n)
    prob = np.append(np.column_stack((p, 1.0 - p)), 1.0)
    keep = prob > 0.0

    return MarkovChain(
        step_success=tuple(p.tolist()),
        restart_mode=restart_mode,
        n_b=n_b,
        n_p=n_p,
        trans_src=src[keep].astype(np.int64),
        trans_dst=dst[keep].astype(np.int64),
        trans_p=prob[keep],
    )


def _clamp_probability(eps: float) -> float:
    return float(min(max(eps, 0.0), 1.0))


def _mass(powers: list[np.ndarray], start: np.ndarray, n: int) -> float:
    """Failure mass after n steps: the transient mass of e_start Q^n.

    Q^n is applied as the powers Q^(2^k) of n's set bits, highest bit first.
    This one evaluation order gives every failure mass the program reports.
    """
    v = start
    for k in reversed(range(n.bit_length())):
        if n >> k & 1:
            v = v @ powers[k]
    return float(v.sum())


def _scan(chain: MarkovChain, target: float, cap: int) -> tuple[int, float]:
    """Smallest step count n <= cap whose failure mass is at most ``target``
    (which must be below 1), and that mass.

    Returns (-1, mass after ``cap`` steps) when no such n exists.  The failure
    mass is the transient mass, never 1 - P(DONE), so it carries no
    cancellation.  Q is squared until the mass at 2^k reaches the target or
    2^(k+1) passes the cap; a binary descent over those powers then finds the
    largest n whose mass is above the target, and n + 1 is the answer.
    """
    start = np.zeros(chain.done)
    start[chain.start] = 1.0
    powers = [chain._transient_block]
    while powers[-1][chain.start].sum() > target and 2 << (len(powers) - 1) <= cap:
        powers.append(powers[-1] @ powers[-1])
    n, v = 0, start
    for k in reversed(range(len(powers))):
        if n + (1 << k) <= cap:
            w = v @ powers[k]
            if w.sum() > target:
                n, v = n + (1 << k), w
    if n == cap:
        return -1, _mass(powers, start, cap)
    return n + 1, _mass(powers, start, n + 1)


def failure_probability(chain: MarkovChain, budget: int) -> float:
    """Probability that ``budget`` raw pairs do not finish the schedule."""
    if budget < 0:
        raise ValidationError(f"budget must be >= 0, got {budget!r}")
    # No mass is at most -1, so the scan evaluates the mass at ``budget``.
    _, eps = _scan(chain, -1.0, int(budget))
    return _clamp_probability(eps)


def expected_pairs(chain: MarkovChain) -> float:
    """Expected raw pairs until absorption (fundamental-matrix solve)."""
    if min(chain.step_success) <= 0.0:
        raise ValidationError("a step has zero success probability; the chain cannot absorb")
    q = chain._transient_block
    t = np.linalg.solve(np.eye(len(q)) - q, np.ones(len(q)))
    return float(t[chain.start])


def _scan_budget(chain: MarkovChain, delta_min: float, cap: int) -> tuple[int, float]:
    """Smallest budget with failure probability at most ``delta_min``, and that
    budget's unclamped failure mass, from one scan of the chain."""
    if not (0.0 <= delta_min < 1.0) or not math.isfinite(delta_min):
        raise ValidationError(f"delta_min must lie in [0, 1), got {delta_min!r}")
    budget, eps = _scan(chain, float(delta_min), int(cap))
    if budget < 0:
        raise BudgetCapError(
            f"no budget up to {cap} reaches failure probability {delta_min!r}"
        )
    return int(budget), eps


def solve_budget(chain: MarkovChain, delta_min: float, cap: int = BUDGET_CAP) -> int:
    """Smallest budget whose failure probability is at most ``delta_min``."""
    return _scan_budget(chain, delta_min, cap)[0]


def _search_schedule(params: ErrorParams, meas_flip: float, bound: int) -> PumpTrace:
    """Trace of the schedule ``optimize_schedule`` picks."""
    if not isinstance(bound, int) or bound < 0:
        raise ValidationError(f"bound must be a nonnegative integer, got {bound!r}")
    # Schedule (n_b, n_p) is (n_b, n_p - 1) plus one phase step, and the
    # bit-purified pair of n_b is that of n_b - 1 plus one bit step.  So the
    # search makes ``bound`` bit steps on one row, then ``bound`` phase steps
    # on the rows of every n_b at once.  Rows hold the populations a
    # BellDiagonalState stores, so they are run_two_level's trace bit for bit.
    base = pumping.raw_pair(params)
    rates = (params.p_local, meas_flip)
    bit_steps = []  # (success, accepted keeper) of each step, one row
    purified = [np.array([base.as_tuple()])]
    for _ in range(0 if params.noise is NoiseKind.DEPHASING else bound):
        bit_steps.append(pumping._step_rows(purified[-1], purified[0], StepKind.BIT, *rates))
        purified.append(pumping._stored_rows(bit_steps[-1][1]))
    keepers = [np.concatenate(purified)]  # row n_b holds schedule (n_b, n_p)
    phase_steps = []
    for _ in range(bound):
        phase_steps.append(pumping._step_rows(keepers[-1], keepers[0], StepKind.PHASE, *rates))
        keepers.append(pumping._stored_rows(phase_steps[-1][1]))

    # Least infidelity; ties go to fewer total steps, then fewer phase steps.
    pops = np.array(keepers)
    errors = (pops[..., 1] + pops[..., 2]) + pops[..., 3]  # [n_p, n_b], as infidelity sums
    n_p, n_b = min(zip(*np.nonzero(errors == errors.min())), key=lambda c: (c[0] + c[1], c[0]))
    path = [(StepKind.BIT, s[0], k[0]) for s, k in bit_steps[:n_b]]
    path += [(StepKind.PHASE, s[n_b], k[n_b]) for s, k in phase_steps[:n_p]]
    steps: list[StepRecord] = []
    state = base
    for kind, success, accepted in path:
        after = BellDiagonalState.from_vector(accepted)
        steps.append(StepRecord(kind, state, min(float(success), 1.0), after))
        state = after
    return PumpTrace(PumpSchedule(int(n_b), int(n_p)), tuple(steps), state, state.infidelity)


def optimize_schedule(
    params: ErrorParams,
    meas_flip: float,
    bound: int = 15,
) -> tuple[PumpSchedule, float]:
    """Exhaustively minimize the pumped infidelity over (n_b, n_p).

    Ties break toward fewer total steps, then fewer phase steps.  Dephased
    raw pairs carry no bit errors, so their search is restricted to the
    one-level (n_b = 0) row.
    """
    trace = _search_schedule(params, meas_flip, bound)
    return trace.schedule, trace.infidelity


def plan(
    params: ErrorParams,
    timings: PhysicalTimings,
    meas: MeasurementPlan | None = None,
    bound: int = 15,
    restart_mode: RestartMode = RestartMode.FULL,
) -> PlanResult:
    """Compose the full plan for one parameter point.

    Picks the infidelity-optimal schedule, sizes the raw-pair budget so the
    failure probability matches the reachable infidelity, and assembles
    the clock cycle and effective gate error.  When ``meas`` is omitted the
    repetition count is optimized from ``params`` and ``timings``.
    """
    if meas is None:
        meas = optimal_m(params, timings=timings)
    if meas.duration_s is None:
        raise ValidationError("plan requires a MeasurementPlan with a duration")

    trace = _search_schedule(params, meas.error_prob, bound)
    schedule, delta_min = trace.schedule, trace.infidelity
    chain = build_chain(trace, restart_mode)
    budget, eps = _scan_budget(chain, delta_min, BUDGET_CAP)
    eps_fail = _clamp_probability(eps)
    expected = expected_pairs(chain)

    eps_e = eps_fail + delta_min
    t_meas = meas.duration_s
    t_robust_ent = expected * (timings.t_ent + timings.t_local + t_meas)
    t_c = t_robust_ent + 2.0 * timings.t_local + t_meas
    gamma = eps_e + 2.0 * params.p_local + 2.0 * meas.error_prob
    if gamma > 1.0:
        raise UselessLinkError(f"the effective gate error exceeds 1 at these inputs: {gamma!r}")
    p_cnot_raw = (1.0 - params.fidelity) + 2.0 * params.p_local + 2.0 * params.p_meas

    return PlanResult(
        schedule=schedule,
        delta_min=delta_min,
        n_tot_budget=budget,
        expected_pairs=expected,
        eps_fail=eps_fail,
        eps_E=eps_e,
        t_robust_ent=t_robust_ent,
        t_C=t_c,
        gamma=gamma,
        p_cnot_raw=min(p_cnot_raw, 1.0),
        restart_mode=restart_mode,
    )
