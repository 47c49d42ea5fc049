import math
import tracemalloc
from itertools import groupby

import exact
import numpy as np
import pytest
from exact import relative_error
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from rnp import (
    BellDiagonalState,
    BudgetCapError,
    ErrorParams,
    MeasurementPlan,
    NoiseKind,
    PumpSchedule,
    RestartMode,
    build_chain,
    compose_plan,
    expected_pairs,
    failure_probability,
    plan,
    run_two_level,
    search_schedule,
    solve_budget,
)
from rnp import ValidationError, cli, markov, pumping
from rnp.markov import MarkovChain
from rnp.model import MAX_STEPS
from rnp.measurement import optimal_m
from rnp.pumping import PumpTrace, StepKind, StepRecord
from rnp.timing import PhysicalTimings


def params(f=0.95, p_l=1e-6):
    return ErrorParams(p_local=p_l, p_init=0.05, p_meas=0.05, fidelity=f)


def chain_for(n_b, n_p, mode=RestartMode.FULL, f=0.95, eps_m=1.2e-5):
    trace = run_two_level(PumpSchedule(n_b, n_p), params(f), eps_m)
    return build_chain(trace, mode)


def all_success_chain(n_b, n_p, mode=RestartMode.FULL):
    trace = run_two_level(PumpSchedule(n_b, n_p), params(1.0, p_l=0.0), 0.0)
    assert all(s.success_prob == 1.0 for s in trace.steps)
    return build_chain(trace, mode)


def reference_build_chain(trace, restart_mode):
    """The per-state loop build_chain used to run, kept as its reference.

    Returns (trans_src, trans_dst, trans_p, step_success).
    """
    n_b = trace.schedule.n_b
    n_p = trace.schedule.n_p
    bit_succ = [s.success_prob for s in trace.steps if s.kind is StepKind.BIT]
    phase_succ = [s.success_prob for s in trace.steps if s.kind is StepKind.PHASE]

    width = n_b + 1

    def idx(b: int, r: int) -> int:
        return b * width + r

    n_transient = (n_p + 1) * width
    done = n_transient
    step_success = []
    src: list[int] = []
    dst: list[int] = []
    prob: list[float] = []

    def add(s: int, d: int, p: float) -> None:
        if p > 0.0:
            src.append(s)
            dst.append(d)
            prob.append(p)

    for b in range(n_p + 1):
        advance_to = done if b == n_p else idx(b + 1, 0)
        restart_to = idx(0, 0) if restart_mode is RestartMode.FULL else idx(b, 0)
        for r in range(width):
            s = idx(b, r)
            if n_b == 0:
                # The single raw is the whole build.
                if b == 0:
                    add(s, advance_to, 1.0)
                    step_success.append(1.0)
                else:
                    p = phase_succ[b - 1]
                    add(s, advance_to, p)
                    add(s, restart_to, 1.0 - p)
                    step_success.append(p)
            elif r == 0:
                add(s, idx(b, 1), 1.0)
                step_success.append(1.0)
            elif r < n_b:
                p = bit_succ[r - 1]
                add(s, idx(b, r + 1), p)
                add(s, restart_to, 1.0 - p)
                step_success.append(p)
            else:
                p_bit = bit_succ[n_b - 1]
                if b == 0:
                    add(s, advance_to, p_bit)
                    add(s, restart_to, 1.0 - p_bit)
                    step_success.append(p_bit)
                else:
                    p_cmp = phase_succ[b - 1]
                    add(s, advance_to, p_bit * p_cmp)
                    add(s, restart_to, 1.0 - p_bit * p_cmp)
                    step_success.append(p_bit * p_cmp)
    add(done, done, 1.0)

    return (
        np.asarray(src, dtype=np.int64),
        np.asarray(dst, dtype=np.int64),
        np.asarray(prob, dtype=np.float64),
        tuple(step_success),
    )


def trace_from_probs(bit_succ, phase_succ):
    """A trace with the given step success probabilities (states are placeholders)."""
    state = pumping.raw_pair(params())
    steps = [StepRecord(StepKind.BIT, state, p, state) for p in bit_succ]
    steps += [StepRecord(StepKind.PHASE, state, p, state) for p in phase_succ]
    return PumpTrace(
        schedule=PumpSchedule(len(bit_succ), len(phase_succ)),
        steps=tuple(steps),
        final_state=state,
        infidelity=state.infidelity,
    )


def counting_maps(calls):
    """pumping._pump, appending the row count of each map application to ``calls``."""
    real = pumping._pump

    def counting(start, op, steps):
        calls.extend([start[0].size] * steps)
        return real(start, op, steps)

    return counting


step_probs = st.lists(
    st.one_of(st.just(1.0), st.floats(min_value=0.0, max_value=1.0, exclude_min=True)),
    max_size=6,
)


class TestBuildChain:
    @settings(max_examples=200, deadline=None)
    @given(bit_succ=step_probs, phase_succ=step_probs, mode=st.sampled_from(list(RestartMode)))
    def test_matches_reference_loop(self, bit_succ, phase_succ, mode):
        trace = trace_from_probs(bit_succ, phase_succ)
        chain = build_chain(trace, mode)
        src, dst, prob, step_success = reference_build_chain(trace, mode)
        assert np.array_equal(chain.trans_src, src)
        assert np.array_equal(chain.trans_dst, dst)
        assert np.array_equal(chain.trans_p, prob)
        assert chain.step_success == step_success

    def test_trivial_schedule_two_states(self):
        chain = chain_for(0, 0)
        assert chain.n_states == 2
        assert failure_probability(chain, 1) == 0.0

    def test_state_count(self):
        chain = chain_for(3, 2)
        assert chain.n_states == (3 + 1) * (2 + 1) + 1

    def test_rows_sum_to_one(self):
        for mode in RestartMode:
            chain = chain_for(2, 3, mode)
            rows = chain.transition_matrix().sum(axis=1)
            assert np.max(np.abs(rows - 1.0)) <= 1e-12

    def test_done_is_absorbing(self):
        chain = chain_for(1, 1)
        t = chain.transition_matrix()
        assert t[chain.done, chain.done] == 1.0

    def test_minimal_absorption_time(self):
        for n_b, n_p in [(0, 0), (2, 1), (4, 5)]:
            chain = all_success_chain(n_b, n_p)
            min_pairs = (n_b + 1) * (n_p + 1)
            assert chain.min_pairs == min_pairs
            assert failure_probability(chain, min_pairs) == 0.0
            if min_pairs > 0:
                assert failure_probability(chain, min_pairs - 1) == 1.0


#: (n_b, n_p, mode, F, budget, failure probability) pinned bit for bit.
PINNED = [
    (2, 2, RestartMode.FULL, 0.90, 57, 0.009865131980434205),
    (2, 2, RestartMode.LEVEL, 0.95, 20, 0.0014009572976879212),
    (4, 5, RestartMode.FULL, 0.95, 300, 0.006465558487531522),
    (4, 5, RestartMode.LEVEL, 0.90, 57, 0.10836701591526267),
    (0, 4, RestartMode.FULL, 0.90, 57, 2.28383057631781e-09),
    # The exact value is ~3e-352, below the smallest subnormal.
    (0, 4, RestartMode.LEVEL, 0.95, 300, 0.0),
]


class TestFailureProbability:
    def test_zero_budget(self):
        assert failure_probability(chain_for(2, 2), 0) == 1.0

    @pytest.mark.parametrize("n_b,n_p,mode,f,budget,eps", PINNED)
    def test_pinned_values(self, n_b, n_p, mode, f, budget, eps):
        assert failure_probability(chain_for(n_b, n_p, mode, f=f), budget) == eps

    @pytest.mark.parametrize("n_b,n_p,mode,f,budget,eps", PINNED)
    def test_pinned_values_near_exact(self, n_b, n_p, mode, f, budget, eps):
        # Within 1e-15 of the exact mass of the same chain, or its rounding.
        want = exact.failure_mass(chain_for(n_b, n_p, mode, f=f), budget)
        assert eps == float(want) or relative_error(eps, want) <= 1e-15

    def test_vanishes_for_large_budget(self):
        chain = chain_for(2, 2)
        assert failure_probability(chain, 2000) < 1e-12

    def test_nonincreasing_in_budget(self):
        chain = chain_for(2, 2)
        values = [failure_probability(chain, n) for n in range(0, 120, 5)]
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))


class TestExpectedPairs:
    def test_all_success_exact(self):
        assert expected_pairs(all_success_chain(1, 0)) == pytest.approx(2.0, abs=1e-10)
        assert expected_pairs(all_success_chain(3, 2)) == pytest.approx(12.0, abs=1e-10)

    def test_single_bernoulli_stage_geometric(self):
        # hand-built chain: one transient state, success p, restart to itself
        p = 0.37
        chain = MarkovChain(
            step_success=(p,),
            restart_mode=RestartMode.FULL,
            n_b=0,
            n_p=0,
            trans_src=np.array([0, 0, 1], dtype=np.int64),
            trans_dst=np.array([1, 0, 1], dtype=np.int64),
            trans_p=np.array([p, 1.0 - p, 1.0]),
        )
        assert expected_pairs(chain) == pytest.approx(1.0 / p, abs=1e-10)

    def test_lower_bound(self):
        for mode in RestartMode:
            chain = chain_for(4, 5, mode)
            assert expected_pairs(chain) >= chain.min_pairs

    def test_tail_sum_identity(self):
        # E[T] equals the sum over budgets of the failure probability.
        for mode in RestartMode:
            chain = chain_for(2, 2, mode)
            expect = expected_pairs(chain)
            total, budget = 0.0, 0
            while True:
                eps = failure_probability(chain, budget)
                total += eps
                budget += 1
                if eps < 1e-13 or budget > 5000:
                    break
            assert total == pytest.approx(expect, abs=1e-6)


def reference_scan(chain, target, cap):
    """The step-by-step scan the budget solve used to run, kept as its reference.

    Smallest step count with failure mass 1 - dist[done] <= target, and that
    mass; (-1, last mass) when the cap is reached first.
    """
    n_states, done = chain.n_states, chain.done
    dist = np.zeros(n_states, dtype=np.float64)
    dist[chain.start] = 1.0
    eps = 1.0 - dist[done]
    if eps <= target:
        return 0, eps
    src, dst, p = chain.trans_src, chain.trans_dst, chain.trans_p
    for step in range(1, cap + 1):
        dist = np.bincount(dst, weights=p * dist[src], minlength=n_states)
        eps = 1.0 - dist[done]
        if eps <= target:
            return step, eps
    return -1, eps


class TestSolveBudget:
    def test_all_success(self):
        chain = all_success_chain(2, 3)
        assert solve_budget(chain, 0.0) == chain.min_pairs

    def test_threshold_properties(self):
        chain = chain_for(2, 2)
        budget = solve_budget(chain, 1e-4)
        assert failure_probability(chain, budget) <= 1e-4
        assert failure_probability(chain, budget - 1) > 1e-4

    def test_monotone_in_delta(self):
        chain = chain_for(2, 2)
        budgets = [solve_budget(chain, d) for d in (1e-6, 1e-4, 1e-2, 0.5)]
        assert all(a >= b for a, b in zip(budgets, budgets[1:]))

    def test_cap_error(self):
        chain = chain_for(2, 2)
        with pytest.raises(BudgetCapError, match=r"^no budget up to 10 reaches failure probability 1e-09$"):
            solve_budget(chain, 1e-9, cap=10)

    @pytest.mark.parametrize("mode", list(RestartMode))
    def test_budget_at_the_cap(self, mode):
        chain = chain_for(4, 5, mode)
        budget = solve_budget(chain, 1e-6)
        assert solve_budget(chain, 1e-6, cap=budget) == budget
        with pytest.raises(BudgetCapError):
            solve_budget(chain, 1e-6, cap=budget - 1)

    @pytest.mark.parametrize("mode", list(RestartMode))
    @pytest.mark.parametrize("n_b,n_p,target", [(4, 5, 1e-6), (2, 2, 1e-9)])
    def test_power_of_two_cap(self, n_b, n_p, target, mode):
        # A power-of-two cap is the last rung the squaring may climb to.
        # Stopping a rung short would return the cap itself: 64 and 128 on
        # (2,2) full restart, whose budget is 131, with masses 6.2e-5 and
        # 1.6e-9 still above the target.
        chain = chain_for(n_b, n_p, mode)
        budget = solve_budget(chain, target)
        below = 1 << ((budget - 1).bit_length() - 1)
        for cap in (below >> 1, below):
            with pytest.raises(BudgetCapError):
                solve_budget(chain, target, cap=cap)
        for cap in (below << 1, below << 2):
            assert solve_budget(chain, target, cap=cap) == budget

    @settings(max_examples=100, deadline=None)
    @given(
        bit_succ=st.lists(st.floats(min_value=0.6, max_value=1.0), max_size=4),
        phase_succ=st.lists(st.floats(min_value=0.6, max_value=1.0), max_size=4),
        mode=st.sampled_from(list(RestartMode)),
        log_target=st.floats(min_value=-6.0, max_value=-0.5),
    )
    def test_matches_reference_scan(self, bit_succ, phase_succ, mode, log_target):
        chain = build_chain(trace_from_probs(bit_succ, phase_succ), mode)
        assume(expected_pairs(chain) <= 100)
        target = 10.0**log_target
        budget = solve_budget(chain, target, cap=10**5)
        eps = failure_probability(chain, budget)
        ref_budget, ref_eps = reference_scan(chain, target, 10**5)
        if budget != ref_budget:
            # Only a reference mass within its rounding of the target may flip.
            boundary = reference_scan(chain, -1.0, min(budget, ref_budget))[1]
            assert abs(boundary - target) <= 1e-9 * target
            ref_eps = reference_scan(chain, -1.0, budget)[1]
        assert eps <= target
        # The reference's 1 - P(DONE) carries up to ~1 ulp of 1.0 per step.
        assert abs(eps - ref_eps) <= 1e-7 * ref_eps + budget * np.finfo(float).eps
        # The mass at the budget does not depend on which powers are cached.
        fresh = build_chain(trace_from_probs(bit_succ, phase_succ), mode)
        assert eps == failure_probability(fresh, budget)


def per_schedule_search(p, meas_flip, bound):
    """Reference search: one full two-level trace per schedule."""
    n_b_range = [0] if p.noise is NoiseKind.DEPHASING else range(bound + 1)
    best = None
    for n_b in n_b_range:
        for n_p in range(bound + 1):
            sched = PumpSchedule(n_b=n_b, n_p=n_p)
            key = (run_two_level(sched, p, meas_flip).infidelity, n_b + n_p, n_p)
            if best is None or key < best[0]:
                best = (key, sched)
    return best[1], best[0][0]


def prefix_sharing_search(params, meas_flip, bound):
    """The per-step search the batched one replaced, kept as its reference.

    It extends one bit-purified pair per n_b and one keeper per n_p with a
    pump_step each, keeping the first schedule with the least key.
    """
    n_b_range = [0] if params.noise is NoiseKind.DEPHASING else range(bound + 1)
    base = pumping.raw_pair(params)
    bit_steps = []
    bit_purified = base
    best_key = best = None
    for n_b in n_b_range:
        if n_b > 0:
            rec = pumping.pump_step(bit_purified, base, StepKind.BIT, params.p_local, meas_flip)
            bit_steps.append(rec)
            bit_purified = rec.state_after_success
        phase_steps = []
        keeper = bit_purified
        for n_p in range(bound + 1):
            if n_p > 0:
                rec = pumping.pump_step(keeper, bit_purified, StepKind.PHASE, params.p_local, meas_flip)
                phase_steps.append(rec)
                keeper = rec.state_after_success
            key = (keeper.infidelity, n_b + n_p, n_p)
            if best_key is None or key < best_key:
                best_key = key
                best = PumpTrace(
                    schedule=PumpSchedule(n_b=n_b, n_p=n_p),
                    steps=tuple(bit_steps + phase_steps),
                    final_state=keeper,
                    infidelity=keeper.infidelity,
                )
    return best


def step_route_gamma(bound):
    """Relative rounding bound on every infidelity the search ranks, up to
    ``bound`` steps of each kind (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., 2002, section 3.5).

    A value "carries k" when it is exact times (1 + theta), |theta| <= gamma_k
    = k*u / (1 - k*u), u = 2^-53.  Every operand is nonnegative, so a product
    or quotient of values carrying j and k carries j + k + 1, and a sum of n
    terms carrying at most k carries k + n - 1 in any order.  Counts are up
    to a common positive scale per keeper, which an infidelity (a ratio of
    sums of one keeper's components) cancels.  The exact reference rounds
    nothing: it starts from the same float F, p_local and meas_flip.

    - Raw pair: (1 - F)/3 rounds once (1 - F is exact for F >= 1/2), and
      BellDiagonalState's division once: it carries 2.
    - Map entry (``pumping._operators``) from a fresh pair carrying f: the
      readout weights carry 3 (2*eps*(1-eps) twice, 1 - that once, which
      at most doubles an error as it is at least 1/2); the a^2 w fresh term
      carries 7 + f (a*a, *w, *fresh, and a sum of its two nonzero terms);
      the c*(1+a) w sum(fresh) term 17 + f (c 1, 1 + a 4 as 1 + a >= 14/15,
      their product 1, sum(fresh) 3 + f, sum(w) 6, two products); their sum
      one more.  a = 1 - 16w/15 cancels near w = 15/16, but its error
      u*(16w/15 + |a|) moves a^2 by at most 4.2u of a^2 + c*(1+a), which
      bounds the entry: 5 more.  So an entry carries at most 24 + f.
    - Step (``pumping._pump``): keeper @ T adds 4 (a product, a 4-term sum),
      the division by the success 1 (a common scale, so only its rounding
      counts), BellDiagonalState's division 1: 30 + f on top of the keeper.
    - Bit level b carries K_b = 2 + 32 b; phase level p over bit level b
      carries K(b, p) = K_b + p (30 + K_b).  An infidelity (s1 + s2) + s3
      of a stored keeper carries 2 K + 6: K + 2 in the sum, K for the
      keeper's own scale, and 4 for its components' sum, which is 1 only
      up to its two roundings per component and a 3-addition sum.

    If every ranked value E lies within gamma of its exact x, the winner w
    and the exact least s0 satisfy (1 - gamma) x(w) <= E(w) <= E(s0) <=
    (1 + gamma) x(s0).
    """
    k_bit = 2 + 32 * bound
    m = 2 * (k_bit + bound * (30 + k_bit)) + 6
    return m * 2.0**-53 / (1 - m * 2.0**-53)


#: Absolute slack below the normal range, where rounding stops being
#: relative: each of a step's ~40 products may lose up to 2^-1075, and a step
#: divides by a success of at least ~1/4, so 16 steps lose far less than
#: 2^-1022 (~2^-1036).
UNDERFLOW = 2.0**-1022


def searched(p, meas_flip, bound=15):
    """(schedule, infidelity) that search_schedule picks."""
    trace = search_schedule([p], meas_flip, bound)[0]
    return trace.schedule, trace.infidelity


def column(fs, p_l=1e-6, noise=NoiseKind.DEPOLARIZING):
    return [ErrorParams(p_local=p_l, p_init=0.05, p_meas=0.05, fidelity=f, noise=noise) for f in fs]


class TestOptimizeSchedule:
    # Tests of the schedule optimization, search_schedule.
    def test_perfect_inputs_need_no_pumping(self):
        sched, delta = searched(params(1.0, p_l=0.0), 0.0, bound=6)
        assert (sched.n_b, sched.n_p) == (0, 0)
        assert delta == 0.0

    def test_headline_depolarizing_point(self):
        sched, delta = searched(params(0.95, p_l=1e-6), 1.2e-5)
        assert (sched.n_b, sched.n_p) == (4, 5)
        # limited by the gate error with an order-ten overhead
        assert 1.5e-6 <= delta <= 1.5e-5

    def test_gate_error_limited_regime(self):
        _, delta = searched(params(0.95, p_l=1e-4), 8e-4)
        assert 1.5 <= delta / 1e-4 <= 15.0

    def test_dephasing_restricted_to_one_level(self):
        p = ErrorParams(p_local=1e-6, p_init=0.05, p_meas=0.05, fidelity=0.95, noise=NoiseKind.DEPHASING)
        sched, delta = searched(p, 1.2e-5)
        assert sched.n_b == 0
        assert delta < 1e-5

    @settings(max_examples=200, deadline=None)
    @given(
        f=st.floats(min_value=0.5, max_value=1.0, exclude_min=True),
        p_l=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.05)),
        eps_m=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.05)),
        noise=st.sampled_from(list(NoiseKind)),
        bound=st.integers(min_value=0, max_value=8),
    )
    def test_matches_per_schedule_search(self, f, p_l, eps_m, noise, bound):
        p = ErrorParams(p_local=p_l, p_init=0.05, p_meas=0.05, fidelity=f, noise=noise)
        assert searched(p, eps_m, bound) == per_schedule_search(p, eps_m, bound)
        assert search_schedule([p], eps_m, bound)[0] == prefix_sharing_search(p, eps_m, bound)

    def test_matches_per_schedule_search_at_default_bound(self):
        p = params(0.95, p_l=1e-6)
        assert searched(p, 1.2e-5, 15) == per_schedule_search(p, 1.2e-5, 15)
        assert search_schedule([p], 1.2e-5, 15)[0] == prefix_sharing_search(p, 1.2e-5, 15)

    def test_ties_at_underflow_match_reference(self):
        # Deep schedules at F = 1 - 1e-13 underflow to infidelity 0.0; the
        # tie goes to the fewest total steps.
        p = ErrorParams(p_local=0.0, p_init=0.05, p_meas=0.05, fidelity=1 - 1e-13)
        trace = search_schedule([p], 0.0, 26)[0]
        assert (trace.schedule, trace.infidelity) == (PumpSchedule(24, 26), 0.0)
        assert trace == prefix_sharing_search(p, 0.0, 26)

    @pytest.mark.parametrize("noise", list(NoiseKind))
    @pytest.mark.parametrize("n_f", [1, 2, 10, pumping.SEARCH_SLICE])
    def test_one_map_application_per_step(self, monkeypatch, noise, n_f):
        # Every schedule of the grid, batched: 15 bit steps on the column's
        # raw pairs, then 15 phase steps on every (n_b, F) row at once.
        # Dephased pairs keep n_b = 0.  The maps are applied through
        # rnp.pumping.
        batches = []
        monkeypatch.setattr(pumping, "_pump", counting_maps(batches))
        traces = search_schedule(column(np.linspace(0.9, 0.99, n_f), noise=noise), 1.2e-5, bound=15)
        n_b = 0 if noise is NoiseKind.DEPHASING else 15
        assert traces[0].schedule == (PumpSchedule(0, 6) if n_b == 0 else PumpSchedule(5, 9))
        assert batches == [n_f] * n_b + [(n_b + 1) * n_f] * 15

    def test_long_column_is_searched_in_slices(self, monkeypatch):
        # 64 + 64 + 3 rows; each slice steps its own grid.
        batches = []
        monkeypatch.setattr(pumping, "_pump", counting_maps(batches))
        n_f = 2 * pumping.SEARCH_SLICE + 3
        search_schedule(column(np.linspace(0.9, 0.99, n_f)), 1.2e-5, bound=15)
        assert batches == ([64] * 15 + [1024] * 15) * 2 + [3] * 15 + [48] * 15

    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.one_of(
                    st.sampled_from([1.0, 1 - 1e-16, 1 - 1e-13, 0.5 + 1e-15]),
                    st.floats(min_value=0.5, max_value=1.0, exclude_min=True),
                ),
                st.sampled_from([0.0, 1e-300, 1e-6, 1e-4, 0.05, 0.95, 1.0]),
                st.sampled_from([0.0, 1.2e-5, 1e-2, 0.5, 1.0]),
            ),
            min_size=1,
            max_size=6,
        ),
        noise=st.sampled_from(list(NoiseKind)),
        bound=st.integers(min_value=0, max_value=8),
    )
    def test_edge_rows_match_prefix_sharing_search(self, rows, noise, bound):
        # Every rate at its edges, p_local above 15/16 (a < 0) included: each
        # row of a mixed search is the per-step search of its own point.
        points = [column([f], p_l, noise)[0] for f, p_l, _ in rows]
        flips = [flip for *_, flip in rows]
        traces = search_schedule(points, flips, bound)
        assert traces == [prefix_sharing_search(p, flip, bound) for p, flip in zip(points, flips)]

    @settings(max_examples=50, deadline=None)
    @given(
        f=st.one_of(
            st.sampled_from([1 - 1e-13, 0.5 + 1e-15]), st.floats(min_value=0.5, max_value=1.0, exclude_min=True)
        ),
        # Drawn rates stay above 1e-9: a tinier float's exact value has a
        # ~1,000-bit denominator, which the exact levels compound step by step.
        p_l=st.one_of(st.sampled_from([0.0, 1e-300, 15 / 16, 1.0]), st.floats(min_value=1e-9, max_value=1.0)),
        eps_m=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(min_value=1e-9, max_value=1.0)),
        noise=st.sampled_from(list(NoiseKind)),
        bound=st.integers(min_value=0, max_value=8),
    )
    def test_winner_is_the_exact_minimum(self, f, p_l, eps_m, noise, bound):
        # The winner's exact infidelity is the least of the grid, or within
        # what rounding allows (``step_route_gamma``).
        p = column([f], p_l, noise)[0]
        (trace,) = search_schedule([p], eps_m, bound)
        exact_grid = {}
        for n_b in range(0 if noise is NoiseKind.DEPHASING else bound, -1, -1):
            steps = exact.run_two_level(PumpSchedule(n_b, bound), p, eps_m)
            levels = [exact.raw_pair(f, noise)] + [populations for *_, populations in steps]
            exact_grid.update({(n_b, n_p): exact.infidelity(levels[n_b + n_p]) for n_p in range(bound + 1)})
        least = min(exact_grid.values())
        got = exact_grid[trace.schedule.n_b, trace.schedule.n_p]
        g = step_route_gamma(bound)
        assert got == least or got <= least * (1 + g) / (1 - g) + UNDERFLOW

    def test_empty_column(self, monkeypatch):
        batches = []
        monkeypatch.setattr(pumping, "_pump", counting_maps(batches))
        assert search_schedule([], 1.2e-5) == []
        assert batches == []

    def test_rows_must_share_noise(self):
        # Rows of several p_local are one search; rows of two noise kinds are not.
        rows = column([0.9]) + column([0.95], p_l=1e-5)
        assert search_schedule(rows, 1.2e-5) == [prefix_sharing_search(p, 1.2e-5, 15) for p in rows]
        with pytest.raises(ValidationError, match="search rows must share the noise model"):
            search_schedule(column([0.9]) + column([0.95], noise=NoiseKind.DEPHASING), 1.2e-5)

    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.floats(min_value=0.5, max_value=1.0, exclude_min=True),
                st.sampled_from([0.0, 1e-6, 1e-4, 0.05]),
                st.sampled_from([0.0, 1.2e-5, 1e-2]),
            ),
            min_size=1,
            max_size=12,
        ),
        noise=st.sampled_from(list(NoiseKind)),
        bound=st.integers(min_value=0, max_value=8),
    )
    def test_mixed_rows_match_prefix_sharing_search(self, rows, noise, bound):
        # Few distinct p_local and meas_flip values, so adjacent rows often
        # share a map application and often do not.
        points = [column([f], p_l, noise)[0] for f, p_l, _ in rows]
        flips = [flip for _, _, flip in rows]
        traces = search_schedule(points, flips, bound)
        assert len(traces) == len(points)
        for p, flip, trace in zip(points, flips, traces, strict=True):
            assert trace == prefix_sharing_search(p, flip, bound)
        mixed = points + column([0.9], noise=next(k for k in NoiseKind if k is not noise))
        with pytest.raises(ValidationError, match="search rows must share the noise model"):
            search_schedule(mixed, flips + [1.2e-5], bound)

    def test_mixed_rates_share_one_slice(self, monkeypatch):
        # Rows of three p_local and two meas_flip values, in no order, share
        # each map application of their slice: one grid of 15 + 15 steps.
        batches = []
        monkeypatch.setattr(pumping, "_pump", counting_maps(batches))
        rows = column([0.9, 0.95]) + column([0.9], p_l=1e-4) + column([0.92, 0.93], p_l=1e-5) + column([0.94])
        flips = [1e-5, 2e-5, 1e-5, 2e-5, 1e-5, 2e-5]
        traces = search_schedule(rows, flips, bound=15)
        assert batches == [6] * 15 + [96] * 15
        assert traces == [prefix_sharing_search(p, flip, 15) for p, flip in zip(rows, flips)]

    @pytest.mark.parametrize("meas_flip", [-1e-9, 1.5, 7.0, float("nan"), float("inf")])
    def test_meas_flip_out_of_range(self, meas_flip):
        # Checked before any step runs: at bound 0 no map is applied.
        for rows in ([], column([0.9])):
            for bound in (0, 15):
                with pytest.raises(ValidationError, match="meas_flip"):
                    search_schedule(rows, meas_flip, bound)
        with pytest.raises(ValidationError, match="meas_flip"):
            search_schedule(column([0.9, 0.95, 0.99]), [1e-5, meas_flip, 1e-5], 0)

    @pytest.mark.parametrize("meas_flip", ["1e-5", True, ["1e-5", "1e-5"], [1e-5, False], np.array(["1e-5"] * 2)])
    def test_meas_flip_must_be_numbers(self, meas_flip):
        # Each flip is checked as given: NumPy would turn "1e-5" and True
        # into floats.
        for rows in ([], column([0.9, 0.95])):
            if np.shape(meas_flip) in ((), (len(rows),)):
                with pytest.raises(ValidationError, match="^meas_flip must be a number, got "):
                    search_schedule(rows, meas_flip, 0)

    @pytest.mark.parametrize("meas_flip", [[], [1e-5], [1e-5] * 3, [[1e-5, 1e-5]], np.full((2, 1), 1e-5)])
    def test_meas_flip_needs_one_value_per_row(self, meas_flip):
        with pytest.raises(ValidationError, match="meas_flip needs one value or 2, one per row"):
            search_schedule(column([0.9, 0.95]), meas_flip)

    def test_per_row_meas_flip_equals_one_value(self):
        rows = column([0.9, 0.95])
        assert search_schedule(rows, [1.2e-5, 1.2e-5]) == search_schedule(rows, 1.2e-5)
        assert search_schedule(rows, np.array([1.2e-5, 1.2e-5])) == search_schedule(rows, 1.2e-5)
        assert search_schedule([], []) == []

    @settings(max_examples=100, deadline=None)
    @given(
        fs=st.lists(st.floats(min_value=0.5, max_value=1.0, exclude_min=True), min_size=1, max_size=12),
        p_l=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.05)),
        eps_m=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.05)),
        noise=st.sampled_from(list(NoiseKind)),
        bound=st.integers(min_value=0, max_value=8),
    )
    def test_column_matches_prefix_sharing_search(self, fs, p_l, eps_m, noise, bound):
        rows = column(fs, p_l, noise)
        traces = search_schedule(rows, eps_m, bound)
        assert len(traces) == len(rows)
        for p, trace in zip(rows, traces, strict=True):
            assert trace == prefix_sharing_search(p, eps_m, bound)

    @settings(max_examples=100, deadline=None)
    @given(
        fs=st.lists(
            st.one_of(st.just(0.5 + 1e-15), st.just(1.0), st.floats(min_value=0.5, max_value=1.0, exclude_min=True)),
            min_size=1,
            max_size=8,
        ),
        p_l=st.one_of(st.sampled_from([0.0, 1e-12, 0.3, 0.9, 1.0]), st.floats(min_value=0.0, max_value=1.0)),
        meas_flip=st.one_of(
            st.sampled_from([0.0, 1e-9, 0.25, 0.5, 0.75, 1.0]), st.floats(min_value=0.0, max_value=1.0)
        ),
        noise=st.sampled_from(list(NoiseKind)),
    )
    def test_search_never_raises_on_a_valid_column(self, fs, p_l, meas_flip, noise):
        # The sweep searches all its points before it composes any row; its
        # rows fail in row order only because this search cannot fail.
        rows = column(fs, p_l, noise)
        assert len(search_schedule(rows, meas_flip)) == len(rows)

    @pytest.mark.parametrize("noise", list(NoiseKind))
    def test_column_longer_than_a_slice_matches_prefix_sharing_search(self, noise):
        rows = column(np.linspace(0.9, 0.999, pumping.SEARCH_SLICE + 5), 1e-5, noise)
        traces = search_schedule(rows, 1.2e-5)
        assert traces == [prefix_sharing_search(p, 1.2e-5, 15) for p in rows]

    def test_memory_is_bounded_by_the_slice(self):
        # The arrays of a search peak at ~40 KB per raw pair (its pre-pass),
        # so a long run of rows is searched slice by slice.  Past its returned traces (a few
        # KB per row, which any caller of many rows keeps), a 1,000-row
        # search peaks as high as a one-slice search does.
        def peak_and_kept(n):
            rows = column(np.linspace(0.9, 0.99, n))
            tracemalloc.start()
            try:
                traces = search_schedule(rows, 1.2e-5)
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(traces) == n
            return peak, kept

        search_schedule(column([0.9]), 1.2e-5)  # NumPy's first-call allocations
        one_slice, _ = peak_and_kept(pumping.SEARCH_SLICE)
        peak, kept = peak_and_kept(1000)
        assert peak - kept <= 2 * one_slice

    @settings(max_examples=100, deadline=None)
    @given(
        f=st.floats(min_value=0.5, max_value=1.0, exclude_min=True),
        p_l=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.05)),
        eps_m=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.05)),
        noise=st.sampled_from(list(NoiseKind)),
        bound=st.integers(min_value=0, max_value=8),
    )
    def test_search_trace_is_two_level_trace(self, f, p_l, eps_m, noise, bound):
        # The search keeps the records of the winning schedule; they must be
        # exactly the trace a separate run of that schedule produces.
        p = ErrorParams(p_local=p_l, p_init=0.05, p_meas=0.05, fidelity=f, noise=noise)
        trace = search_schedule([p], eps_m, bound)[0]
        assert trace.infidelity == trace.final_state.infidelity
        assert trace == run_two_level(trace.schedule, p, eps_m)

    def test_search_trace_at_default_bound(self):
        p = params(0.95, p_l=1e-6)
        trace = search_schedule([p], 1.2e-5, 15)[0]
        expect = run_two_level(PumpSchedule(4, 5), p, 1.2e-5)
        assert trace.schedule == expect.schedule
        for got, want in zip(trace.steps, expect.steps, strict=True):
            assert got == want
        assert trace == expect


class TestLibraryGuards:
    # Inputs the CLI never passes, rejected by the library functions.
    def test_restart_mode_must_be_an_enum(self):
        with pytest.raises(ValidationError, match="restart_mode must be a RestartMode"):
            build_chain(trace_from_probs([0.5], [0.5]), "full_restart")

    def test_negative_budget(self):
        with pytest.raises(ValidationError, match=r"budget must be an integer in \[0, inf\], got -1"):
            failure_probability(build_chain(trace_from_probs([0.5], [0.5]), RestartMode.FULL), -1)

    @pytest.mark.parametrize("budget", [2.7, 2.0, True, "3"])
    def test_budget_must_be_an_integer(self, budget):
        # 2.7 used to give the mass at 2.
        with pytest.raises(ValidationError, match=r"^budget must be an integer in \[0, inf\], got "):
            failure_probability(build_chain(trace_from_probs([0.5], [0.5]), RestartMode.FULL), budget)

    def test_chain_that_cannot_absorb(self):
        # Each step succeeds with 1e-200; the raw completing the fresh build
        # carries their product, which underflows to 0.
        chain = build_chain(trace_from_probs([1e-200], [1e-200]), RestartMode.FULL)
        assert min(chain.step_success) == 0.0
        with pytest.raises(ValidationError, match="cannot absorb"):
            expected_pairs(chain)

    @pytest.mark.parametrize("delta_min", [-1e-3, 1.0, float("nan")])
    def test_delta_min_out_of_range(self, delta_min):
        chain = build_chain(trace_from_probs([0.5], [0.5]), RestartMode.FULL)
        with pytest.raises(ValidationError, match="delta_min must lie in"):
            solve_budget(chain, delta_min)

    @pytest.mark.parametrize("bound", [-1, 1.5, True, MAX_STEPS + 1, 100_000])
    def test_bad_bound(self, bound):
        # 64 steps of either kind is the PumpSchedule cap; a larger bound
        # would only cost O(bound^2) memory.  Checked before any step.
        with pytest.raises(ValidationError, match=r"bound must be an integer in \[0, 64\]"):
            search_schedule(column([0.9]), 1.2e-5, bound)
        with pytest.raises(ValidationError, match=r"bound must be an integer in \[0, 64\]"):
            plan(params(0.9), TIMINGS, bound=bound)

    def test_numpy_bound(self):
        assert search_schedule(column([0.9]), 1.2e-5, np.int64(3)) == search_schedule(column([0.9]), 1.2e-5, 3)

    def test_plan_needs_a_readout_duration(self):
        p = params(0.95)
        (trace,) = search_schedule([p], 1.2e-5)
        with pytest.raises(ValidationError, match="requires a MeasurementPlan with a duration"):
            compose_plan(p, TIMINGS, MeasurementPlan(m=3, error_prob=1.2e-5), trace)


TIMINGS = PhysicalTimings(p_meas=0.05, eta=0.2, tau=10e-9, purcell_c=10.0, t_local=0.1e-6)


@pytest.fixture(scope="module")
def ion_plan():
    p = params(0.95, p_l=1e-6)
    return plan(p, TIMINGS, optimal_m(p, timings=TIMINGS))


class TestPlan:
    TIMINGS = TIMINGS

    def test_self_consistency(self, ion_plan):
        r = ion_plan
        assert r.eps_E <= 2.0 * r.delta_min + 1e-12
        assert r.eps_fail <= r.delta_min
        assert r.t_C >= r.t_robust_ent
        assert r.gamma >= r.eps_E
        assert r.gamma > 2.0 * 1e-6 + 2.0 * 1.1e-5

    def test_budget_in_paper_range(self, ion_plan):
        assert 30 <= ion_plan.expected_pairs <= 1000
        assert ion_plan.n_tot_budget >= ion_plan.expected_pairs

    def test_p_cnot_raw_order_of_magnitude(self, ion_plan):
        # (1-F) + 2 p_L + 2 p_M = 0.05 + 2e-6 + 0.1 ~ 0.15
        assert ion_plan.p_cnot_raw == pytest.approx(0.15, rel=0.01)

    def test_readout_plan_defaults_to_optimal_m(self):
        p = params(0.95, p_l=1e-6)
        explicit = plan(p, self.TIMINGS, optimal_m(p, timings=self.TIMINGS))
        assert plan(p, self.TIMINGS) == explicit

    def test_restart_mode_changes_resources(self):
        p = params(0.95, p_l=1e-6)
        meas = optimal_m(p, timings=self.TIMINGS)
        full = plan(p, self.TIMINGS, meas, restart_mode=RestartMode.FULL)
        level = plan(p, self.TIMINGS, meas, restart_mode=RestartMode.LEVEL)
        assert level.expected_pairs < full.expected_pairs
        assert level.n_tot_budget < full.n_tot_budget
        assert level.delta_min == full.delta_min

    @pytest.mark.parametrize("mode", list(RestartMode))
    def test_chain_figures_match_plan(self, mode):
        p = params(0.95, p_l=1e-6)
        meas = optimal_m(p, timings=self.TIMINGS)
        r = plan(p, self.TIMINGS, meas, restart_mode=mode)
        chain = build_chain(run_two_level(r.schedule, p, meas.error_prob), mode)
        assert r.eps_fail == failure_probability(chain, r.n_tot_budget)
        assert r.expected_pairs == expected_pairs(chain)

    @pytest.mark.parametrize(
        "preset,calls", [("ion-depolarizing", [1] * 15 + [16] * 15), ("nv-dephasing", [1] * 15)]
    )
    def test_plan_reuses_search_trace(self, monkeypatch, capsys, preset, calls):
        # Only the search's map applications, one per step of the bound-15
        # grid: the chosen schedule is not traced again.
        batches = []
        monkeypatch.setattr(pumping, "_pump", counting_maps(batches))
        assert cli.main(["plan", "--preset", preset]) == 0
        capsys.readouterr()
        assert batches == calls

    @pytest.mark.parametrize("mode", list(RestartMode))
    def test_plan_builds_transient_block_once(self, monkeypatch, mode):
        # The budget solve and expected_pairs share one Q.
        builds = []
        real = MarkovChain.transition_matrix

        def counting(chain):
            builds.append(chain)
            return real(chain)

        monkeypatch.setattr(MarkovChain, "transition_matrix", counting)
        p = params(0.95, p_l=1e-6)
        plan(p, self.TIMINGS, optimal_m(p, timings=self.TIMINGS), restart_mode=mode)
        assert len(builds) == 1

    def test_noiseless_gates(self):
        # 1 - p_phi_plus used to round this delta_min to 0, an unreachable target.
        p = params(0.99, p_l=0.0)
        meas = optimal_m(p, timings=self.TIMINGS)
        r = plan(p, self.TIMINGS, meas)
        assert (r.schedule.n_b, r.schedule.n_p) == (10, 15)
        assert r.n_tot_budget == 19200
        steps = exact.run_two_level(r.schedule, p, meas.error_prob)
        assert relative_error(r.delta_min, exact.infidelity(steps[-1][2])) <= 1e-12
        assert 0.0 < r.eps_fail <= r.delta_min < 1e-16

    def test_heavy_plan_shares_powers(self, monkeypatch):
        # The largest budget of the default sweep grid.  Q is squared up to
        # Q^(2^16), the first power whose mass is below delta_min; the mass
        # at the budget, 62,682 < 2^16, then needs no further product.
        p = params(0.90, p_l=1e-6)
        meas = optimal_m(p, timings=self.TIMINGS)
        chains = []
        real = markov.build_chain

        def keeping(*args):
            chains.append(real(*args))
            return chains[-1]

        monkeypatch.setattr(markov, "build_chain", keeping)
        r = plan(p, self.TIMINGS, meas, restart_mode=RestartMode.FULL)
        (chain,) = chains
        assert r.n_tot_budget == 62682
        assert len(chain._powers) == 17  # Q and 16 squarings
        assert r.eps_fail == failure_probability(chain, r.n_tot_budget)
        assert len(chain._powers) == 17
        fresh = build_chain(run_two_level(r.schedule, p, meas.error_prob), RestartMode.FULL)
        assert r.eps_fail == failure_probability(fresh, r.n_tot_budget)


plan_points = dict(
    f=st.floats(min_value=0.8, max_value=1.0),
    p_l=st.one_of(st.just(0.0), st.floats(min_value=-7.0, max_value=-2.0).map(lambda e: 10.0**e)),
    noise=st.sampled_from(list(NoiseKind)),
)


class TestPlanProperties:
    # Properties of plan over drawn points; a point that exits 3 (the budget
    # cap under full restart) says nothing here and is rejected.  eps_E,
    # gamma and expected_pairs are not monotone in F, so no test claims it.
    @settings(max_examples=40, deadline=None)
    @given(mode=st.sampled_from(list(RestartMode)), **plan_points)
    def test_budget_is_the_least_that_meets_delta_min(self, f, p_l, noise, mode):
        p = ErrorParams(p_local=p_l, p_init=0.05, p_meas=0.05, fidelity=f, noise=noise)
        meas = optimal_m(p, timings=TIMINGS)
        try:
            r = plan(p, TIMINGS, meas, restart_mode=mode)
        except BudgetCapError:
            reject()
        chain = build_chain(search_schedule([p], meas.error_prob)[0], mode)
        n = r.n_tot_budget
        assert failure_probability(chain, n) == r.eps_fail <= r.delta_min
        assert r.delta_min < failure_probability(chain, n - 1)

    @settings(max_examples=40, deadline=None)
    @given(**plan_points)
    def test_level_restart_needs_no_more_pairs(self, f, p_l, noise):
        p = ErrorParams(p_local=p_l, p_init=0.05, p_meas=0.05, fidelity=f, noise=noise)
        meas = optimal_m(p, timings=TIMINGS)
        try:
            full = plan(p, TIMINGS, meas, restart_mode=RestartMode.FULL)
        except BudgetCapError:
            reject()
        level = plan(p, TIMINGS, meas, restart_mode=RestartMode.LEVEL)
        assert level.schedule == full.schedule
        assert level.expected_pairs <= full.expected_pairs

    @settings(max_examples=40, deadline=None)
    @given(mode=st.sampled_from(list(RestartMode)), data=st.data(), **plan_points)
    def test_eps_fail_does_not_increase_with_the_budget(self, f, p_l, noise, mode, data):
        p = ErrorParams(p_local=p_l, p_init=0.05, p_meas=0.05, fidelity=f, noise=noise)
        meas = optimal_m(p, timings=TIMINGS)
        chain = build_chain(search_schedule([p], meas.error_prob)[0], mode)
        budget = st.integers(min_value=0, max_value=64 * chain.min_pairs)
        budgets = sorted(data.draw(st.lists(budget, min_size=2, max_size=8)) + [chain.min_pairs])
        masses = [failure_probability(chain, n) for n in budgets]
        # Up to rounding: Q^n and Q^(n+1) are different products of powers,
        # so two budgets with the same exact mass can differ by a few ulps
        # (2 at most in 600 scratch points).
        assert all(later <= earlier + 8 * math.ulp(earlier) for earlier, later in zip(masses, masses[1:]))

    @settings(max_examples=40, deadline=None)
    @given(mode=st.sampled_from(list(RestartMode)), **plan_points)
    def test_expected_pairs_and_gamma_bound_their_parts(self, f, p_l, noise, mode):
        p = ErrorParams(p_local=p_l, p_init=0.05, p_meas=0.05, fidelity=f, noise=noise)
        meas = optimal_m(p, timings=TIMINGS)
        try:
            r = plan(p, TIMINGS, meas, restart_mode=mode)
        except BudgetCapError:
            reject()
        chain = build_chain(search_schedule([p], meas.error_prob)[0], mode)
        assert r.expected_pairs >= chain.min_pairs
        assert r.gamma >= r.eps_E

    @settings(max_examples=40, deadline=None)
    @given(
        fs=st.lists(st.floats(min_value=0.8, max_value=1.0), min_size=2, max_size=12),
        p_l=plan_points["p_l"],
        noise=plan_points["noise"],
    )
    def test_delta_min_does_not_increase_with_f(self, fs, p_l, noise):
        # One sorted column gives every F of a p_L at once; the readout
        # depends on p_L only, so the rows share it.
        rows = column(sorted(fs), p_l=p_l, noise=noise)
        meas = optimal_m(rows[0], timings=TIMINGS)
        deltas = [t.infidelity for t in search_schedule(rows, meas.error_prob)]
        assert all(later <= earlier for earlier, later in zip(deltas, deltas[1:]))
