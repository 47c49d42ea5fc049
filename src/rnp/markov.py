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

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .measurement import optimal_m
from .model import (
    BudgetCapError,
    ErrorParams,
    MeasurementPlan,
    PlanResult,
    RestartMode,
    UselessLinkError,
    ValidationError,
    _check_enum,
    _check_int,
    _check_real,
)
from .pumping import PumpTrace, StepKind, search_schedule
from .timing import PhysicalTimings

__all__ = [
    "MarkovChain",
    "build_chain",
    "failure_probability",
    "expected_pairs",
    "solve_budget",
    "compose_plan",
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
    def _powers(self) -> list[np.ndarray]:
        """[Q, Q^2, Q^4, ...]: Q is the transition block among the transient
        states.  Built once per chain; ``_power`` grows it in place, and the
        budget solve, the failure mass and ``expected_pairs`` share it.  So
        threads must not grow one chain's powers concurrently."""
        q = self.transition_matrix()[: self.done, : self.done]
        q.flags.writeable = False
        return [q]

    def _power(self, k: int) -> np.ndarray:
        """Q^(2^k), squaring the largest cached power until it exists."""
        powers = self._powers
        while len(powers) <= k:
            powers.append(powers[-1] @ powers[-1])
            powers[-1].flags.writeable = False
        return powers[k]


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
    _check_enum("restart_mode", restart_mode, RestartMode)
    n_b = trace.schedule.n_b
    n_p = trace.schedule.n_p
    bit_succ = [s.success_prob for s in trace.steps if s.kind is StepKind.BIT]
    phase_succ = [s.success_prob for s in trace.steps if s.kind is StepKind.PHASE]

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


def _start_row(chain: MarkovChain) -> np.ndarray:
    row = np.zeros(chain.done)
    row[chain.start] = 1.0
    return row


def _mass(chain: MarkovChain, n: int) -> float:
    """Failure mass after n steps: the transient mass of e_start Q^n.

    Q^n is applied as the powers Q^(2^k) of n's set bits, highest bit first.
    This one evaluation order gives every failure mass the program reports.
    The mass is the transient mass, never 1 - P(DONE), so it carries no
    cancellation.
    """
    v = _start_row(chain)
    for k in reversed(range(n.bit_length())):
        if n >> k & 1:
            v = v @ chain._power(k)
    return float(v.sum())


def failure_probability(chain: MarkovChain, budget: int) -> float:
    """Probability that ``budget`` raw pairs do not finish the schedule."""
    return min(max(_mass(chain, _check_int("budget", budget)), 0.0), 1.0)


def expected_pairs(chain: MarkovChain) -> float:
    """Expected raw pairs until absorption (fundamental-matrix solve)."""
    if min(chain.step_success) <= 0.0:
        raise ValidationError("a step has zero success probability; the chain cannot absorb")
    q = chain._power(0)
    t = np.linalg.solve(np.eye(len(q)) - q, np.ones(len(q)))
    return float(t[chain.start])


def solve_budget(chain: MarkovChain, delta_min: float, cap: int = BUDGET_CAP) -> int:
    """Smallest budget whose failure probability is at most ``delta_min``.

    Q is squared until the mass at 2^k reaches ``delta_min`` or 2^(k+1)
    passes the cap; a binary descent over those powers then finds the
    largest n whose mass is above ``delta_min``, and n + 1 is the answer.
    ``failure_probability`` at that budget reuses the same powers.
    """
    target, limit = _check_real("delta_min", delta_min, 0.0, 1.0, "[)"), _check_int("cap", cap)
    top = 0
    while chain._power(top)[chain.start].sum() > target and 2 << top <= limit:
        top += 1
    n, v = 0, _start_row(chain)
    for k in reversed(range(top + 1)):
        if n + (1 << k) <= limit:
            w = v @ chain._power(k)
            if w.sum() > target:
                n, v = n + (1 << k), w
    if n == limit:
        raise BudgetCapError(f"no budget up to {cap} reaches failure probability {delta_min!r}")
    return n + 1


def compose_plan(
    params: ErrorParams,
    timings: PhysicalTimings,
    meas: MeasurementPlan,
    trace: PumpTrace,
    restart_mode: RestartMode = RestartMode.FULL,
) -> PlanResult:
    """The plan for one parameter point from its searched schedule trace.

    Sizes the raw-pair budget so the failure probability matches the
    reachable infidelity, and assembles the clock cycle and effective gate
    error.  ``meas`` is the readout plan the trace was searched with.
    """
    if meas.duration_s is None:
        raise ValidationError("plan requires a MeasurementPlan with a duration")
    delta_min = trace.infidelity
    chain = build_chain(trace, restart_mode)
    budget = solve_budget(chain, delta_min)
    eps_fail = failure_probability(chain, budget)
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
        schedule=trace.schedule,
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


def plan(
    params: ErrorParams,
    timings: PhysicalTimings,
    meas: MeasurementPlan | None = None,
    bound: int = 15,
    restart_mode: RestartMode = RestartMode.FULL,
) -> PlanResult:
    """Compose the full plan for one parameter point.

    Picks the infidelity-optimal schedule (a search of one row) and hands
    its trace to ``compose_plan``.  When ``meas`` is omitted the repetition
    count is optimized from ``params`` and ``timings``.
    """
    if meas is None:
        meas = optimal_m(params, timings=timings)
    (trace,) = search_schedule([params], meas.error_prob, bound)
    return compose_plan(params, timings, meas, trace, restart_mode)
