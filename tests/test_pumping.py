
import exact
import numpy as np
import pytest
from exact import relative_error
from hypothesis import given, settings
from hypothesis import strategies as st

from rnp import (
    BellDiagonalState,
    ErrorParams,
    NoiseKind,
    PumpSchedule,
    PumpTrace,
    StepKind,
    UnpurifiableError,
    ValidationError,
    closed_form_infidelity,
    pump_step,
    raw_pair,
    run_standard,
    run_two_level,
)
from rnp.pumping import _depolarize_twice, _step_rows, _stored_rows


def params(f=0.95, p_l=0.0, noise=NoiseKind.DEPOLARIZING):
    return ErrorParams(p_local=p_l, p_init=0.05, p_meas=0.05, fidelity=f, noise=noise)


PERFECT = BellDiagonalState(1.0, 0.0, 0.0, 0.0)


class TestRawPair:
    def test_depolarizing_werner_form(self):
        s = raw_pair(params(0.95))
        assert s.as_tuple() == pytest.approx((0.95, 0.05 / 3, 0.05 / 3, 0.05 / 3))

    def test_perfect_pair(self):
        assert raw_pair(params(1.0)).as_tuple() == (1.0, 0.0, 0.0, 0.0)

    def test_dephasing_populates_only_phase_flip(self):
        s = raw_pair(params(0.95, noise=NoiseKind.DEPHASING))
        assert s.as_tuple() == pytest.approx((0.95, 0.05, 0.0, 0.0))

    def test_unpurifiable(self):
        with pytest.raises(UnpurifiableError):
            ErrorParams(p_local=0.0, p_init=0.0, p_meas=0.0, fidelity=0.45)


def loop_noise_matrix(weight):
    """Reference: sum each Pauli pattern's weight into its flag-flip cell."""
    mat = np.zeros((16, 16))
    for j in range(16):
        for d in range(16):
            mat[j ^ d, j] += 1.0 - weight if d == 0 else weight / 15.0
    return mat


class TestNoiseMatrix:
    @pytest.mark.parametrize("weight", [0.0, 1e-300, 1e-6, 0.3, 1.0])
    def test_closed_form_matches_loop_reference(self, weight):
        # Two hits of the closed form against the loop-built matrix applied
        # twice, on 2,000 random flag distributions with some zero entries.
        rng = np.random.default_rng(11)
        v = rng.random((2000, 16)) * (rng.random((2000, 16)) < 0.8)
        mat = loop_noise_matrix(weight)
        want = (mat @ mat @ v.T).T
        got = _depolarize_twice(v, weight)
        nonzero = want != 0.0
        assert np.array_equal(got[~nonzero], want[~nonzero])
        assert np.max(np.abs(got[nonzero] - want[nonzero]) / want[nonzero]) <= 4e-15


class TestPumpStep:
    def test_noiseless_bit_step_closed_form(self):
        # Independent first-principles check: accept on equal Z-parities,
        # keeper keeps x, gains the fresh pair's z.  For Werner inputs with
        # e = (1-F)/3: success = (F+e)^2 + (2e)^2, new Phi+ = (F^2+e^2)/P.
        f, e = 0.95, 0.05 / 3
        w = raw_pair(params(0.95))
        rec = pump_step(w, w, StepKind.BIT, 0.0, 0.0)
        p_expect = (f + e) ** 2 + (2 * e) ** 2
        assert rec.success_prob == pytest.approx(p_expect, abs=1e-14)
        expect = (
            (f * f + e * e) / p_expect,
            2 * f * e / p_expect,
            2 * e * e / p_expect,
            2 * e * e / p_expect,
        )
        assert rec.state_after_success.as_tuple() == pytest.approx(expect, abs=1e-14)

    def test_perfect_inputs_are_fixed_points(self):
        for kind in (StepKind.BIT, StepKind.PHASE):
            rec = pump_step(PERFECT, PERFECT, kind, 0.0, 0.0)
            assert rec.success_prob == 1.0
            assert rec.state_after_success.as_tuple() == pytest.approx((1, 0, 0, 0), abs=1e-15)

    def test_phase_step_suppresses_phase_flip(self):
        for a in (0.6, 0.8, 0.95):
            s = BellDiagonalState(a, 1.0 - a, 0.0, 0.0)
            rec = pump_step(s, s, StepKind.PHASE, 0.0, 0.0)
            assert rec.state_after_success.p_phi_minus < 1.0 - a
            # first-principles value: (1-a)^2 / (a^2 + (1-a)^2)
            assert rec.state_after_success.p_phi_minus == pytest.approx(
                (1 - a) ** 2 / (a**2 + (1 - a) ** 2), abs=1e-14
            )

    def test_rejects_bad_kind(self):
        with pytest.raises(ValidationError):
            pump_step(PERFECT, PERFECT, "bit", 0.0, 0.0)  # type: ignore[arg-type]

    @given(
        st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=4, max_size=4),
        st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=4, max_size=4),
        st.sampled_from([StepKind.BIT, StepKind.PHASE]),
        st.floats(min_value=0.0, max_value=0.05),
        st.floats(min_value=0.0, max_value=0.05),
    )
    def test_output_normalized(self, q_raw, r_raw, kind, p_l, eps_m):
        q = BellDiagonalState.from_vector([x / sum(q_raw) for x in q_raw])
        r = BellDiagonalState.from_vector([x / sum(r_raw) for x in r_raw])
        rec = pump_step(q, r, kind, p_l, eps_m)
        assert abs(sum(rec.state_after_success.as_tuple()) - 1.0) <= 1e-12
        assert 0.0 < rec.success_prob <= 1.0


class TestRunTwoLevel:
    def test_no_pumping_returns_raw_infidelity(self):
        trace = run_two_level(PumpSchedule(0, 0), params(0.93), 0.0)
        assert trace.steps == ()
        assert trace.infidelity == pytest.approx(0.07)

    def test_step_count_and_order(self):
        trace = run_two_level(PumpSchedule(3, 2), params(), 1e-4)
        assert len(trace.steps) == 5
        kinds = [s.kind for s in trace.steps]
        assert kinds == [StepKind.BIT] * 3 + [StepKind.PHASE] * 2

    def test_bit_suppression_monotone(self):
        masses = []
        for n_b in range(7):
            trace = run_two_level(PumpSchedule(n_b, 0), params(0.9), 0.0)
            masses.append(trace.final_state.bit_error_mass)
        assert all(a > b for a, b in zip(masses, masses[1:]))

    def test_perfect_operations_reach_tiny_infidelity(self):
        best = min(
            run_two_level(PumpSchedule(n_b, n_p), params(0.95), 0.0).infidelity
            for n_b in range(16)
            for n_p in range(16)
        )
        assert best < 1e-10

    def test_normalization_preserved_along_trace(self):
        trace = run_two_level(PumpSchedule(4, 4), params(0.9, p_l=1e-3), 1e-3)
        for step in trace.steps:
            assert abs(sum(step.state_after_success.as_tuple()) - 1.0) <= 1e-12


#: Relative tolerance of a float population against its exact value.
EXACT_TOL = 1e-12
#: Below this an exact value may have underflowed; it is compared absolutely.
TINY = 1e-280


def assert_near_exact(got, want):
    if want < TINY:
        assert abs(got - want) <= TINY
    else:
        assert relative_error(got, want) <= EXACT_TOL


def assert_step_near_exact(rec, success, populations):
    assert_near_exact(rec.success_prob, success)
    for k in (1, 2, 3):  # the error populations
        assert_near_exact(rec.state_after_success.as_tuple()[k], populations[k])


bell_states = (
    st.lists(st.one_of(st.just(0.0), st.floats(min_value=1e-12, max_value=1.0)), min_size=4, max_size=4)
    .filter(lambda v: sum(v) > 0.0)
    .map(lambda v: BellDiagonalState.from_vector([x / sum(v) for x in v]))
)
small_probs = st.one_of(st.just(0.0), st.floats(min_value=1e-15, max_value=0.05))


class TestExactReference:
    @settings(max_examples=100, deadline=None)
    @given(
        keeper=bell_states,
        fresh=bell_states,
        kind=st.sampled_from(list(StepKind)),
        p_l=small_probs,
        eps_m=small_probs,
    )
    def test_pump_step(self, keeper, fresh, kind, p_l, eps_m):
        # Independent keeper and fresh inputs, zero populations (dephased
        # pairs) and noiseless gates included.
        try:
            success, populations = exact.pump_step(keeper.as_tuple(), fresh.as_tuple(), kind, p_l, eps_m)
        except ZeroDivisionError:
            with pytest.raises(ValidationError):
                pump_step(keeper, fresh, kind, p_l, eps_m)
            return
        assert_step_near_exact(pump_step(keeper, fresh, kind, p_l, eps_m), success, populations)

    @settings(max_examples=60, deadline=None)
    @given(
        f=st.one_of(st.just(1.0), st.floats(min_value=0.5, max_value=1.0, exclude_min=True)),
        p_l=small_probs,
        eps_m=small_probs,
        noise=st.sampled_from(list(NoiseKind)),
        n_b=st.integers(min_value=0, max_value=8),
        n_p=st.integers(min_value=0, max_value=8),
    )
    def test_run_two_level(self, f, p_l, eps_m, noise, n_b, n_p):
        p = params(f, p_l, noise)
        trace = run_two_level(PumpSchedule(n_b, n_p), p, eps_m)
        steps = exact.run_two_level(trace.schedule, p, eps_m)
        for rec, (kind, success, populations) in zip(trace.steps, steps, strict=True):
            assert rec.kind is kind
            assert_step_near_exact(rec, success, populations)
        final = steps[-1][2] if steps else exact.raw_pair(f, noise)
        assert_near_exact(trace.infidelity, exact.infidelity(final))

    def test_infidelity_below_1e_16(self):
        # 1 - p_phi_plus rounds an infidelity this small to 0.
        p = params(0.99)
        trace = run_two_level(PumpSchedule(10, 15), p, 0.0)
        want = exact.infidelity(exact.run_two_level(trace.schedule, p, 0.0)[-1][2])
        assert TINY < want < 1e-16
        assert relative_error(trace.infidelity, want) <= EXACT_TOL


class TestRatesAreChecked:
    # Each public entry checks its rates itself, also where no step runs;
    # the step kernel trusts them.
    @pytest.mark.parametrize("meas_flip", [-1.0, -1e-300, 1.0 + 2**-52, 5.0, float("nan"), float("inf")])
    def test_meas_flip_out_of_range(self, meas_flip):
        for call in (
            lambda: run_two_level(PumpSchedule(0, 0), params(), meas_flip),
            lambda: run_two_level(PumpSchedule(2, 3), params(), meas_flip),
            lambda: run_standard(0, params(), meas_flip),
            lambda: run_standard(4, params(), meas_flip),
            lambda: pump_step(PERFECT, PERFECT, StepKind.BIT, 0.0, meas_flip),
            lambda: closed_form_infidelity(PumpSchedule(0, 0), params(), meas_flip),
        ):
            with pytest.raises(ValidationError, match="meas_flip"):
                call()

    @pytest.mark.parametrize("p_local", [-1e-3, 1.5, float("nan")])
    def test_pump_step_p_local_out_of_range(self, p_local):
        # The other entries read p_local from ErrorParams, which checks it.
        with pytest.raises(ValidationError, match="p_local"):
            pump_step(PERFECT, PERFECT, StepKind.PHASE, p_local, 0.0)

    @pytest.mark.parametrize("rate", [0.0, 1.0])
    def test_edges_are_accepted(self, rate):
        state = raw_pair(params(0.9))
        assert pump_step(state, state, StepKind.BIT, rate, 0.5).success_prob == pytest.approx(0.5)
        assert run_two_level(PumpSchedule(1, 1), params(0.9), rate).schedule == PumpSchedule(1, 1)
        assert run_standard(2, params(0.9), rate).schedule == PumpSchedule(1, 1)


class TestStepKernel:
    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.lists(st.tuples(bell_states, bell_states), min_size=1, max_size=17),
        kind=st.sampled_from(list(StepKind)),
        p_l=st.one_of(small_probs, st.floats(min_value=0.0, max_value=1.0)),
        eps_m=small_probs,
    )
    def test_each_row_is_pump_step(self, rows, kind, p_l, eps_m):
        # Bitwise, whatever the batch around the row.
        keepers, fresh = (np.array([s.as_tuple() for s in col]) for col in zip(*rows))
        try:
            recs = [pump_step(k, f, kind, p_l, eps_m) for k, f in rows]
        except ValidationError:
            with pytest.raises(ValidationError):
                _step_rows(keepers, fresh, kind, p_l, eps_m)
            return
        success, after = _step_rows(keepers, fresh, kind, p_l, eps_m)
        assert np.array_equal(np.minimum(success, 1.0), [r.success_prob for r in recs])
        assert np.array_equal(_stored_rows(after), [r.state_after_success.as_tuple() for r in recs])

    def test_one_zero_acceptance_row_raises(self):
        # A bit-flipped keeper against a perfect fresh pair always reads odd
        # parity; the first row alone is an ordinary step.
        good = raw_pair(params(0.9)).as_tuple()
        keepers = np.array([good, (0.0, 0.0, 1.0, 0.0)])
        fresh = np.array([good, PERFECT.as_tuple()])
        _step_rows(keepers[:1], fresh[:1], StepKind.BIT, 0.0, 0.0)
        with pytest.raises(ValidationError, match="zero acceptance"):
            _step_rows(keepers, fresh, StepKind.BIT, 0.0, 0.0)


def loop_two_level(schedule, params, meas_flip):
    """The per-step two-level loop the row engine replaced, kept as its
    reference: n_b bit steps on a raw keeper with raw fresh pairs, then n_p
    phase steps with the bit-purified pair as keeper and fresh input."""
    base = raw_pair(params)
    steps = []
    keeper = base
    for _ in range(schedule.n_b):
        rec = pump_step(keeper, base, StepKind.BIT, params.p_local, meas_flip)
        steps.append(rec)
        keeper = rec.state_after_success
    bit_purified = keeper
    for _ in range(schedule.n_p):
        rec = pump_step(keeper, bit_purified, StepKind.PHASE, params.p_local, meas_flip)
        steps.append(rec)
        keeper = rec.state_after_success
    return PumpTrace(schedule, tuple(steps), keeper, keeper.infidelity)


def loop_standard(total_steps, params, meas_flip):
    """The per-step raw-fed loop the row kernel replaced, kept as its
    reference: alternating bit and phase steps, each with a raw fresh pair."""
    base = raw_pair(params)
    keeper = base
    steps = []
    for i in range(total_steps):
        kind = StepKind.BIT if i % 2 == 0 else StepKind.PHASE
        rec = pump_step(keeper, base, kind, params.p_local, meas_flip)
        steps.append(rec)
        keeper = rec.state_after_success
    n_p = total_steps // 2
    return PumpTrace(PumpSchedule(total_steps - n_p, n_p), tuple(steps), keeper, keeper.infidelity)


class TestStepLoopReferences:
    @settings(max_examples=100, deadline=None)
    @given(
        f=st.floats(min_value=0.5, max_value=1.0, exclude_min=True),
        p_l=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.05)),
        eps_m=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.05)),
        noise=st.sampled_from(list(NoiseKind)),
        n_b=st.integers(min_value=0, max_value=8),
        n_p=st.integers(min_value=0, max_value=8),
    )
    def test_run_two_level_is_the_step_loop(self, f, p_l, eps_m, noise, n_b, n_p):
        p = params(f, p_l, noise)
        assert run_two_level(PumpSchedule(n_b, n_p), p, eps_m) == loop_two_level(PumpSchedule(n_b, n_p), p, eps_m)

    @settings(max_examples=100, deadline=None)
    @given(
        f=st.floats(min_value=0.5, max_value=1.0, exclude_min=True),
        p_l=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.05)),
        eps_m=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.05)),
        noise=st.sampled_from(list(NoiseKind)),
        total_steps=st.integers(min_value=0, max_value=16),
    )
    def test_run_standard_is_the_step_loop(self, f, p_l, eps_m, noise, total_steps):
        p = params(f, p_l, noise)
        assert run_standard(total_steps, p, eps_m) == loop_standard(total_steps, p, eps_m)


class TestTraceSchedule:
    def test_steps_must_match_the_schedule(self):
        rec = pump_step(PERFECT, PERFECT, StepKind.BIT, 0.0, 0.0)
        PumpTrace(PumpSchedule(1, 0), (rec,), PERFECT, 0.0)
        for schedule in (PumpSchedule(0, 0), PumpSchedule(0, 1), PumpSchedule(2, 0)):
            with pytest.raises(ValidationError, match="trace steps do not match its schedule"):
                PumpTrace(schedule, (rec,), PERFECT, 0.0)


class TestRunStandard:
    def test_zero_steps(self):
        trace = run_standard(0, params(0.95), 0.0)
        assert trace.infidelity == pytest.approx(0.05)

    @pytest.mark.parametrize("f", [0.90, 0.95, 0.99])
    def test_floor_never_beaten(self, f):
        floor = (1.0 - f) ** 2 / 9.0
        for steps in range(31):
            trace = run_standard(steps, params(f), 0.0)
            assert trace.infidelity >= floor

    def test_two_level_beats_the_floor(self):
        f = 0.95
        floor = (1.0 - f) ** 2 / 9.0
        best = min(
            run_two_level(PumpSchedule(n_b, n_p), params(f), 0.0).infidelity
            for n_b in range(16)
            for n_p in range(16)
        )
        assert best < floor

    def test_alternation_bookkeeping(self):
        trace = run_standard(5, params(), 0.0)
        assert trace.schedule.n_b == 3
        assert trace.schedule.n_p == 2

    def test_runs_up_to_64_steps_of_each_kind(self):
        # The trace's schedule counts each kind, and a PumpSchedule holds 64 of each.
        assert run_standard(128, params(), 0.0).schedule == PumpSchedule(64, 64)

    @pytest.mark.parametrize("total_steps", [129, -1, 2.0])
    def test_rejects_a_run_past_the_cap(self, total_steps):
        with pytest.raises(ValidationError, match=r"^total_steps must be an integer in \[0, 128\], got "):
            run_standard(total_steps, params(), 0.0)


class TestClosedForm:
    def test_no_pumping_value(self):
        # (2(1-F)/3) + ((1-F)/3) = 1 - F at zero steps and zero noise.
        v = closed_form_infidelity(PumpSchedule(0, 0), params(0.95), 0.0)
        assert v == pytest.approx(0.05, rel=1e-12)

    def test_perfect_fidelity_vanishes(self):
        assert closed_form_infidelity(PumpSchedule(3, 3), params(1.0), 0.0) == 0.0

    def test_reference_cell_value(self):
        # direct evaluation at (4, 5), F = 0.95, p_L = 1e-6, eps_M = 1.2e-5
        v = closed_form_infidelity(PumpSchedule(4, 5), params(0.95, p_l=1e-6), 1.2e-5)
        gate = (3 + 2 * 5) / 4 * 1e-6
        meas = (4 + 2 * 9) / 3 * 0.05 * 1.2e-5
        bit = 6 * (0.1 / 3) ** 5
        phase = (5 * 0.05 / 3) ** 6
        assert v == pytest.approx(gate + meas + bit + phase, rel=1e-12)
        assert v == pytest.approx(8.23e-6, rel=0.01)

    def test_rejects_dephasing(self):
        with pytest.raises(ValidationError):
            closed_form_infidelity(PumpSchedule(0, 3), params(noise=NoiseKind.DEPHASING), 0.0)
