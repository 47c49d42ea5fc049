import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rnp import (
    ErrorParams,
    MonteCarloResult,
    PumpSchedule,
    RestartMode,
    build_chain,
    expected_pairs,
    failure_probability,
    monte_carlo_pumping,
    run_two_level,
)
from rnp import ValidationError, oracle
from rnp.model import BellDiagonalState, StepKind
from rnp.pumping import PumpTrace, StepRecord

# Random123 known-answer vector: philox4x32-10 with all-zero counter and key
# produces (0x6627e8d5, 0xe169c58d, ...); our uniform is built from the
# first two output words.
KAT_ZERO_UNIFORM = (((0xE169C58D << 32) | 0x6627E8D5) >> 11) * 2.0**-53


def philox_reference(ctr, key, rounds=10):
    """Scalar Philox4x32 reference, independent of the NumPy kernel."""
    m0, m1 = 0xD2511F53, 0xCD9E8D57
    c0, c1, c2, c3 = ctr
    k0, k1 = key
    for _ in range(rounds):
        p0 = m0 * c0
        p1 = m1 * c2
        c0, c1, c2, c3 = (p1 >> 32) ^ c1 ^ k0, p1 & 0xFFFFFFFF, (p0 >> 32) ^ c3 ^ k1, p0 & 0xFFFFFFFF
        k0 = (k0 + 0x9E3779B9) & 0xFFFFFFFF
        k1 = (k1 + 0xBB67AE85) & 0xFFFFFFFF
    return c0, c1, c2, c3


# Reference kernel: the package's earlier plain NumPy Philox and its
# Monte-Carlo walk, which draws a bit uniform and a comparison uniform for
# every live trial at every step, kept unchanged.  The package kernel must
# match it bit for bit.
_M0 = np.uint64(0xD2511F53)
_M1 = np.uint64(0xCD9E8D57)
_BUMP0 = 0x9E3779B9
_BUMP1 = 0xBB67AE85
_MASK32 = 0xFFFFFFFF
_SHIFT32 = np.uint64(32)
_LOW32 = np.uint64(0xFFFFFFFF)
_INV53 = 1.0 / 9007199254740992.0  # 2**-53
REFERENCE_HARD_CAP = 10_000_000


def _round_keys(seed: int) -> list[tuple[np.uint32, np.uint32]]:
    k0 = seed & _MASK32
    k1 = (seed >> 32) & _MASK32
    keys = []
    for _ in range(10):
        keys.append((np.uint32(k0), np.uint32(k1)))
        k0 = (k0 + _BUMP0) & _MASK32
        k1 = (k1 + _BUMP1) & _MASK32
    return keys


def reference_philox_uniforms(seed: int, trial_ids: np.ndarray, draw_ids: np.ndarray) -> np.ndarray:
    c0 = np.asarray(draw_ids, dtype=np.uint32)
    c1 = np.asarray(trial_ids, dtype=np.uint32)
    c2 = np.zeros_like(c0)
    c3 = np.zeros_like(c0)
    for k0, k1 in _round_keys(seed):
        p0 = c0.astype(np.uint64) * _M0
        p1 = c2.astype(np.uint64) * _M1
        hi0 = (p0 >> _SHIFT32).astype(np.uint32)
        lo0 = (p0 & _LOW32).astype(np.uint32)
        hi1 = (p1 >> _SHIFT32).astype(np.uint32)
        lo1 = (p1 & _LOW32).astype(np.uint32)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    word = (c1.astype(np.uint64) << _SHIFT32) | c0.astype(np.uint64)
    return (word >> np.uint64(11)).astype(np.float64) * _INV53


def reference_mc_consumed_pairs(
    bit_succ: np.ndarray,
    phase_succ: np.ndarray,
    full_restart: bool,
    trials: int,
    seed: int,
) -> np.ndarray:
    bit_succ = np.asarray(bit_succ, dtype=np.float64)
    phase_succ = np.asarray(phase_succ, dtype=np.float64)
    n_b = len(bit_succ)
    n_p = len(phase_succ)

    consumed = np.zeros(trials, dtype=np.int64)
    live = np.arange(trials, dtype=np.int64)
    ids = live.astype(np.uint32)
    b = np.zeros(trials, dtype=np.int64)
    r = np.zeros(trials, dtype=np.int64)
    draws = np.zeros(trials, dtype=np.uint32)
    steps = 0

    while live.size:
        steps += 1
        if steps > REFERENCE_HARD_CAP:
            raise RuntimeError("Monte-Carlo per-trial raw-pair cap exceeded")

        n = live.size
        if n_b == 0:
            build_done = np.ones(n, dtype=bool)
            bit_fail = np.zeros(n, dtype=bool)
        else:
            is_base = r == 0
            is_bit = ~is_base
            u1 = reference_philox_uniforms(seed, ids, draws)
            idx = np.clip(r - 1, 0, n_b - 1)
            bit_ok = is_bit & (u1 < bit_succ[idx])
            bit_fail = is_bit & ~bit_ok
            draws = draws + is_bit.astype(np.uint32)
            build_done = bit_ok & (r == n_b)
            r = np.where(is_base, 1, np.where(bit_ok & (r < n_b), r + 1, r))

        need_comp = build_done & (b >= 1)
        if n_p:
            u2 = reference_philox_uniforms(seed, ids, draws)
            pidx = np.clip(b - 1, 0, n_p - 1)
            comp_ok = need_comp & (u2 < phase_succ[pidx])
        else:
            comp_ok = np.zeros(n, dtype=bool)
        comp_fail = need_comp & ~comp_ok
        draws = draws + need_comp.astype(np.uint32)

        advance = (build_done & (b == 0)) | comp_ok
        fail = bit_fail | comp_fail

        b = np.where(advance, b + 1, b)
        r = np.where(advance | fail, 0, r)
        if full_restart:
            b = np.where(fail, 0, b)

        finished = advance & (b > n_p)
        if finished.any():
            consumed[live[finished]] = steps
            keep = ~finished
            live, ids, b, r, draws = live[keep], ids[keep], b[keep], r[keep], draws[keep]
    return consumed


# The package's previous walk, kept unchanged as a second reference: one
# loop iteration per raw pair, with per-state tables in the chain's layout
# b*(n_b+1) + r and a comparison uniform drawn speculatively for every
# trial whose state would compare on success.
def _step_tables(bit_succ, phase_succ, full_restart):
    n_b = len(bit_succ)
    n_p = len(phase_succ)
    width = n_b + 1
    n_states = (n_p + 1) * width + 1
    drawing = np.zeros(n_states, dtype=bool)
    threshold = np.zeros(n_states)
    compares = np.zeros(n_states, dtype=bool)
    comp_threshold = np.zeros(n_states)
    on_success = np.full(n_states, n_states - 1, dtype=np.intp)
    on_failure = np.full(n_states, n_states - 1, dtype=np.intp)
    for b in range(n_p + 1):
        advance = (b + 1) * width if b < n_p else n_states - 1
        restart = 0 if full_restart else b * width
        for r in range(width):
            s = b * width + r
            on_failure[s] = restart
            if n_b == 0:
                # The single raw is the whole build; a fresh build is
                # compared at once.
                on_success[s] = advance
                if b >= 1:
                    drawing[s] = True
                    threshold[s] = phase_succ[b - 1]
            elif r == 0:
                on_success[s] = s + 1
            else:
                drawing[s] = True
                threshold[s] = bit_succ[r - 1]
                on_success[s] = s + 1 if r < n_b else advance
                if r == n_b and b >= 1:
                    compares[s] = True
                    comp_threshold[s] = phase_succ[b - 1]
    return drawing, threshold, compares, comp_threshold, on_success, on_failure


def raw_step_mc_consumed_pairs(bit_succ, phase_succ, full_restart, trials, seed):
    bit_succ = np.asarray(bit_succ, dtype=np.float64)
    phase_succ = np.asarray(phase_succ, dtype=np.float64)
    drawing_tab, thr_tab, comp_tab, comp_thr_tab, succ_tab, fail_tab = _step_tables(
        bit_succ, phase_succ, full_restart
    )
    finished_state = len(succ_tab) - 1

    consumed = np.zeros(trials, dtype=np.int64)
    live = np.arange(trials, dtype=np.int64)
    ids = live.astype(np.uint32)
    state = np.zeros(trials, dtype=np.intp)
    draws = np.zeros(trials, dtype=np.uint32)
    steps = 0

    while live.size:
        steps += 1
        if steps > REFERENCE_HARD_CAP:
            raise RuntimeError("Monte-Carlo per-trial raw-pair cap exceeded")

        first = np.flatnonzero(drawing_tab[state])
        comp = np.flatnonzero(comp_tab[state])
        n_first = first.size
        u = vector_philox_uniforms(
            seed,
            np.concatenate((ids[first], ids[comp])),
            np.concatenate((draws[first], draws[comp] + np.uint32(1))),
        )
        ok = np.ones(live.size, dtype=bool)
        ok[first] = u[:n_first] < thr_tab[state[first]]
        # The comparison is drawn only after a successful bit step.
        bit_ok = ok[comp]
        ok[comp] = bit_ok & (u[n_first:] < comp_thr_tab[state[comp]])
        draws[first] += np.uint32(1)
        draws[comp] += bit_ok
        state = np.where(ok, succ_tab[state], fail_tab[state])

        finished = state == finished_state
        if finished.any():
            consumed[live[finished]] = steps
            keep = ~finished
            live, ids, state, draws = live[keep], ids[keep], state[keep], draws[keep]
    return consumed


# The package's previous Philox, kept unchanged as a reference: it takes
# one draw id per element and runs all ten rounds on both lanes.  Only its
# module constants are renamed here.
_VECTOR_MULT = np.array([[0xD2511F53], [0xCD9E8D57]], dtype=np.uint64)
_VECTOR_BUMP = (0x9E3779B9, 0xBB67AE85)
_VECTOR_SHIFT32 = np.array([32], dtype=np.uint64)
_VECTOR_LOW32 = np.array([0xFFFFFFFF], dtype=np.uint64)
_VECTOR_SHIFT11 = np.array([11], dtype=np.uint64)
_VECTOR_CHUNK = 8192


def _vector_round_keys(seed: int) -> np.ndarray:
    """The ten round keys (k0, k1), each as a (2, 1) column."""
    key = (seed & _MASK32, (seed >> 32) & _MASK32)
    return np.array(
        [[[(k + i * bump) & _MASK32] for k, bump in zip(key, _VECTOR_BUMP)] for i in range(10)],
        dtype=np.uint64,
    )


def vector_philox_uniforms(seed: int, trial_ids: np.ndarray, draw_ids: np.ndarray) -> np.ndarray:
    """Philox4x32-10 uniforms in [0, 1), one per (trial, draw) pair.

    Counter layout: (draw, trial, 0, 0); key: the 64-bit seed split into
    two 32-bit words.  The first two output words form the 64-bit value
    whose top 53 bits make the double.

    The counter words are held as 32-bit values in ``uint64`` lanes, so a
    round's 32x32-bit products are exact: ``mul`` = (c0, c2) is multiplied
    by the round multipliers, and ``mix`` = (c1, c3) is XORed into the
    swapped high halves.  Every round runs in place on fixed-size chunks.
    """
    draw_ids, trial_ids = np.broadcast_arrays(
        np.asarray(draw_ids, dtype=np.uint32), np.asarray(trial_ids, dtype=np.uint32)
    )
    out = np.empty(draw_ids.shape, dtype=np.float64)
    n = out.size
    if n == 0:
        return out
    draws = draw_ids.reshape(-1)
    trials = trial_ids.reshape(-1)
    flat = out.reshape(-1)
    keys = _vector_round_keys(seed)
    width = min(n, _VECTOR_CHUNK)
    buffers = [np.empty((2, width), dtype=np.uint64) for _ in range(3)]
    for lo in range(0, n, _VECTOR_CHUNK):
        m = min(n - lo, _VECTOR_CHUNK)
        mul, mix, prod = (buf[:, :m] for buf in buffers)
        mul[0] = draws[lo : lo + m]
        mix[0] = trials[lo : lo + m]
        mul[1] = 0
        mix[1] = 0
        swapped = prod[::-1]
        for key in keys:
            np.multiply(mul, _VECTOR_MULT, out=prod)
            np.right_shift(swapped, _VECTOR_SHIFT32, out=mul)
            np.bitwise_xor(mul, mix, out=mul)
            np.bitwise_xor(mul, key, out=mul)
            np.bitwise_and(swapped, _VECTOR_LOW32, out=mix)
        word = mix[0]
        np.left_shift(word, _VECTOR_SHIFT32, out=word)
        np.bitwise_or(word, mul[0], out=word)
        np.right_shift(word, _VECTOR_SHIFT11, out=word)
        np.multiply(word, _INV53, out=flat[lo : lo + m])
    return out


# The package's previous event walk, kept unchanged as a reference (its
# Philox is the vector one above): separate success and failure gathers, a
# boolean-mask compaction, and the cap checked at every iteration.
def event_walk_mc_consumed_pairs(
    bit_succ: np.ndarray,
    phase_succ: np.ndarray,
    full_restart: bool,
    trials: int,
    seed: int,
) -> np.ndarray:
    """Raw pairs consumed by each trial of the pumping process.

    Each trial walks the draw events of ``_event_tables``: every loop
    iteration makes one draw for every unfinished trial, moves it to the
    event's success or failure successor (failures restart according to
    ``full_restart``) and adds the raw pairs spent to enter that state to
    the trial's count.  Every trial spends two raw pairs before its first
    draw (schedule (0, 0) draws nothing and spends one).

    Draw k of a trial is always the Philox uniform (seed, trial, k), and at
    iteration k every unfinished trial has made exactly k draws, so one
    call with the shared draw id k generates just the draws a step uses.
    """
    threshold, on_success, on_failure, cost, start = oracle._event_tables(
        np.asarray(bit_succ, dtype=np.float64),
        np.asarray(phase_succ, dtype=np.float64),
        full_restart,
    )
    finished = len(cost) - 1
    consumed = np.full(trials, 2 if start < finished else 1, dtype=np.int64)
    # Per-trial state, compacted to the still-running trials each iteration.
    ids = np.arange(trials if start < finished else 0, dtype=np.uint32)
    state = np.full(ids.size, start, dtype=np.intp)
    pairs = consumed[ids]
    draw = 0

    while ids.size:
        # Entering the finished state costs nothing, so a trial's count
        # before its last draw is already its total.  Every count grows at
        # least every second draw, so this also bounds the loop.
        if pairs.max() > REFERENCE_HARD_CAP:
            raise RuntimeError("Monte-Carlo per-trial raw-pair cap exceeded")
        u = vector_philox_uniforms(seed, ids, draw)
        draw += 1
        state = np.where(u < threshold[state], on_success[state], on_failure[state])
        pairs += cost[state]

        done = state == finished
        if done.any():
            consumed[ids[done]] = pairs[done]
            keep = ~done
            ids, state, pairs = ids[keep], state[keep], pairs[keep]
    return consumed


# The package's previous shared-draw Philox, kept unchanged as a reference:
# it forms the double itself, from all of rounds 8 and 9.  Only its module
# constants are renamed here.
_SHARED_M0, _SHARED_M1 = 0xD2511F53, 0xCD9E8D57
_SHARED_MULT = np.array([[_SHARED_M1], [_SHARED_M0]], dtype=np.uint64)
_SHARED_CHUNK = 8192


def shared_draw_philox_uniforms(seed: int, trial_ids: np.ndarray, draw: int) -> np.ndarray:
    """Philox4x32-10 uniforms in [0, 1), one per trial id, all at one draw id.

    Counter layout: (draw, trial, 0, 0); key: the 64-bit seed split into
    two 32-bit words.  The first two output words form the 64-bit value
    whose top 53 bits make the double.

    Counter words are 32-bit values in ``uint64`` lanes, so products are
    exact: ``mul`` = (c0, c2) is multiplied by the round multipliers and
    ``mix`` = (c1, c3) XORed into the high halves, in place on fixed-size
    chunks.  With ``draw`` shared, trial-free words are ints until round 3.
    """
    if not (isinstance(draw, (int, np.integer)) and 0 <= draw <= _MASK32):
        raise ValidationError(f"draw must be one integer in [0, 2**32), got {draw!r}")
    trials = np.asarray(trial_ids, dtype=np.uint32).reshape(-1)
    n = trials.size
    out = np.empty(n, dtype=np.float64)
    keys = _vector_round_keys(seed)
    (k0, k1), (k0_2, k1_2), (k0_3, k1_3) = keys[:3, :, 0].tolist()
    # Round r's key is (k0_r, k1_r).  Round 1 leaves c0 = trial ^ k0, c1 = 0 and
    # scalar c2, c3 (from p0); round 2's c2*M1 (p1) and round 3's c0*M0 (q0) too.
    p0 = _SHARED_M0 * int(draw)
    p1 = _SHARED_M1 * ((p0 >> 32) ^ k1)
    q0 = _SHARED_M0 * ((p1 >> 32) ^ k0_2)
    width = min(n, _SHARED_CHUNK)
    buffers = [np.empty((2, width), dtype=np.uint64) for _ in range(3)]
    for lo in range(0, n, _SHARED_CHUNK):
        m = min(n - lo, _SHARED_CHUNK)
        mul, mix, prod = (buf[:, :m] for buf in buffers)
        # Round 2, per trial: (trial ^ k0) * M0 gives c2 and c3.
        np.bitwise_xor(trials[lo : lo + m], k0, out=prod[0])
        np.multiply(prod[0], _SHARED_MULT[1], out=prod[0])
        np.right_shift(prod[0], _VECTOR_SHIFT32, out=mul[1])
        np.bitwise_xor(mul[1], (p0 & _MASK32) ^ k1_2, out=mul[1])
        np.bitwise_and(prod[0], _VECTOR_LOW32, out=mix[1])
        # Round 3, per trial: c2 * M1 gives c0 and c1; q0 gives c2 and c3.
        np.multiply(mul[1], _SHARED_MULT[0], out=prod[1])
        np.right_shift(prod[1], _VECTOR_SHIFT32, out=mul[0])
        np.bitwise_xor(mul[0], (p1 & _MASK32) ^ k0_3, out=mul[0])
        np.bitwise_and(prod[1], _VECTOR_LOW32, out=mix[0])
        np.bitwise_xor(mix[1], (q0 >> 32) ^ k1_3, out=mul[1])
        mix[1] = q0 & _MASK32
        swapped = mul[::-1]
        for key in keys[3:9]:
            np.multiply(swapped, _SHARED_MULT, out=prod)
            np.right_shift(prod, _VECTOR_SHIFT32, out=mul)
            np.bitwise_xor(mul, mix, out=mul)
            np.bitwise_xor(mul, key, out=mul)
            np.bitwise_and(prod, _VECTOR_LOW32, out=mix)
        # Round 10, words 0 and 1 only: p1 = c2*M1 gives (p1 << 32) | (p1 >> 32 ^ c1 ^ k0).
        np.multiply(mul[1], _SHARED_MULT[0], out=prod[1])
        np.right_shift(prod[1], _VECTOR_SHIFT32, out=mul[0])
        np.bitwise_xor(mul[0], mix[0], out=mul[0])
        np.bitwise_xor(mul[0], keys[9, 0], out=mul[0])
        np.left_shift(prod[1], _VECTOR_SHIFT32, out=prod[1])
        np.bitwise_or(prod[1], mul[0], out=prod[1])
        np.right_shift(prod[1], _VECTOR_SHIFT11, out=prod[1])
        np.multiply(prod[1], _INV53, out=out[lo : lo + m])
    return out


# The package's previous walk, kept unchanged as a reference (its Philox is
# the shared-draw one above): it compares uniforms with the thresholds and
# compacts its arrays at every draw that finishes a trial.
def eager_compaction_mc_consumed_pairs(
    bit_succ: np.ndarray,
    phase_succ: np.ndarray,
    full_restart: bool,
    trials: int,
    seed: int,
) -> np.ndarray:
    """Raw pairs consumed by each trial of the pumping process.

    Each trial walks the draw events of ``_event_tables``: every loop
    iteration makes one draw for every unfinished trial, moves it to the
    event's success or failure successor (failures restart according to
    ``full_restart``) and adds the raw pairs spent to enter that state to
    the trial's count.  Every trial spends two raw pairs before its first
    draw (schedule (0, 0) draws nothing and spends one).

    Draw k of a trial is always the Philox uniform (seed, trial, k), and at
    iteration k every unfinished trial has made exactly k draws, so one
    call with the shared draw id k generates just the draws a step uses.
    """
    threshold, on_success, on_failure, cost, start = oracle._event_tables(
        np.asarray(bit_succ, dtype=np.float64),
        np.asarray(phase_succ, dtype=np.float64),
        full_restart,
    )
    finished = len(cost) - 1
    # States are held doubled, so state + failed indexes the successor table.
    successor = 2 * np.stack((on_success, on_failure), axis=1).reshape(-1)
    threshold, cost = np.repeat(threshold, 2), np.repeat(cost, 2)
    consumed = np.full(trials, 2 if start < finished else 1, dtype=np.int64)
    # Per-trial state, compacted to the still-running trials each iteration.
    ids = np.arange(trials if start < finished else 0, dtype=np.uint32)
    state = np.full(ids.size, 2 * start, dtype=np.intp)
    pairs = consumed[ids]
    draw = 0

    while ids.size:
        # Entering the finished state costs nothing, so a trial's count
        # before its last draw is already its total.  Counts start at 2 and
        # grow by at most 2 a draw, so none passes the cap before 2 + 2*draw
        # does; each grows at least every second draw, bounding the loop.
        if 2 + 2 * draw > REFERENCE_HARD_CAP and pairs.max() > REFERENCE_HARD_CAP:
            raise RuntimeError("Monte-Carlo per-trial raw-pair cap exceeded")
        u = shared_draw_philox_uniforms(seed, ids, draw)
        draw += 1
        state = successor.take(state + (u >= threshold.take(state)))
        pairs += cost.take(state)

        keep = np.flatnonzero(state != 2 * finished)
        if keep.size < ids.size:
            consumed[ids] = pairs
            ids, state, pairs = ids.take(keep), state.take(keep), pairs.take(keep)
    return consumed


def scalar_uniform(seed, trial, draw):
    x = philox_reference((draw, trial, 0, 0), (seed & 0xFFFFFFFF, seed >> 32))
    return (((x[1] << 32) | x[0]) >> 11) * 2.0**-53


def chain_for_probs(bit_succ, phase_succ, mode):
    """Absorbing chain of a schedule with the given step success probabilities."""
    s = BellDiagonalState(1.0, 0.0, 0.0, 0.0)
    steps = [StepRecord(StepKind.BIT, s, p, s) for p in bit_succ]
    steps += [StepRecord(StepKind.PHASE, s, p, s) for p in phase_succ]
    sched = PumpSchedule(len(bit_succ), len(phase_succ))
    return build_chain(PumpTrace(sched, tuple(steps), s, 0.0), mode)


def trace_for(n_b, n_p, f=0.95, eps_m=1.2e-5):
    p = ErrorParams(p_local=1e-6, p_init=0.05, p_meas=0.05, fidelity=f)
    return run_two_level(PumpSchedule(n_b, n_p), p, eps_m)


class TestPhilox:
    def test_known_answer_vectors(self):
        assert philox_reference((0, 0, 0, 0), (0, 0)) == (
            0x6627E8D5,
            0xE169C58D,
            0xBC57AC4C,
            0x9B00DBD8,
        )
        assert philox_reference((0xFFFFFFFF,) * 4, (0xFFFFFFFF,) * 2) == (
            0x408F276D,
            0x41C83B0E,
            0xA20BC7C6,
            0x6D5451FD,
        )
        assert philox_reference(
            (0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344), (0xA4093822, 0x299F31D0)
        ) == (0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1)

    def test_backends_match_reference(self):
        u = oracle.philox_uniforms(0, np.array([0], dtype=np.uint32), 0)
        assert u[0] == KAT_ZERO_UNIFORM
        # a couple of nonzero streams against the scalar reference
        for seed, trial, draw in [(7, 3, 11), (2**40 + 5, 1000, 0)]:
            x = philox_reference((draw, trial, 0, 0), (seed & 0xFFFFFFFF, seed >> 32))
            expect = (((x[1] << 32) | x[0]) >> 11) * 2.0**-53
            got = oracle.philox_uniforms(seed, np.array([trial], dtype=np.uint32), draw)[0]
            assert got == expect

    def test_uniforms_in_unit_interval(self):
        t = np.arange(2000, dtype=np.uint32)
        u = np.concatenate([oracle.philox_uniforms(123, t, draw) for draw in range(20)])
        assert (u >= 0.0).all() and (u < 1.0).all()
        assert 0.45 < u.mean() < 0.55

    @pytest.mark.parametrize(
        "draw", [np.array([3], dtype=np.uint32), np.arange(2, dtype=np.uint32), [3], 3.0, "3", None]
    )
    def test_draw_must_be_one_integer(self, draw):
        # A 1-element array is not a shared draw id: it would broadcast
        # into the per-trial lanes and give the wrong uniforms.
        with pytest.raises(ValidationError, match=r"^draw must be an integer in \[0, 4294967295\], got "):
            oracle.philox_uniforms(7, np.arange(4, dtype=np.uint32), draw)

    @pytest.mark.parametrize("draw", [-1, 2**32, 2**64])
    def test_draw_must_be_a_counter_word(self, draw):
        with pytest.raises(ValidationError, match=r"^draw must be an integer in \[0, 4294967295\], got "):
            oracle.philox_uniforms(7, np.arange(4, dtype=np.uint32), draw)

    @pytest.mark.parametrize("seed", [-1, -(2**64), 2**64, 2**64 + 5, np.int64(-1), 5.0])
    def test_seed_must_be_a_key(self, seed):
        # Masking would replay another stream: -1 that of 2**64 - 1, 2**64 + 5 that of 5.
        with pytest.raises(ValidationError, match=r"^seed must be an integer in \[0, 18446744073709551615\], got "):
            oracle.philox_uniforms(seed, np.arange(4, dtype=np.uint32), 0)

    @pytest.mark.parametrize(
        "trial_ids", [np.array([2**32 + 3]), np.array([0, -1]), [2**32], np.array([2**63], dtype=np.uint64), [3.0]]
    )
    def test_trial_ids_must_be_counter_words(self, trial_ids):
        # A uint32 cast would wrap: trial 2**32 + 3 would read trial 3.
        with pytest.raises(ValidationError, match=r"^trial ids must be integers in \[0, 4294967295\]$"):
            oracle.philox_uniforms(7, trial_ids, 0)

    def test_keys_and_ids_at_their_edges(self):
        ids = [0, 3, 2**32 - 1]
        want = oracle.philox_uniforms(2**64 - 1, np.array(ids, dtype=np.uint32), 9)
        assert want.tolist() == [scalar_uniform(2**64 - 1, t, 9) for t in ids]
        for same in (ids, np.array(ids, dtype=np.int64), np.array(ids, dtype=np.uint64)):
            assert np.array_equal(oracle.philox_uniforms(np.uint64(2**64 - 1), same, 9), want)
        assert oracle.philox_uniforms(0, [], 0).shape == (0,)

    @pytest.mark.parametrize("draw", [np.uint32(2**32 - 1), np.int64(5), np.uint64(0)])
    def test_numpy_integer_draw(self, draw):
        trials = np.arange(3, dtype=np.uint32)
        want = [scalar_uniform(9, t, int(draw)) for t in range(3)]
        assert oracle.philox_uniforms(9, trials, draw).tolist() == want


class TestMonteCarlo:
    def test_all_success_deterministic_consumption(self):
        p = ErrorParams(p_local=0.0, p_init=0.0, p_meas=0.0, fidelity=1.0)
        trace = run_two_level(PumpSchedule(2, 1), p, 0.0)
        res = monte_carlo_pumping(trace, RestartMode.FULL, budget=6, trials=500, seed=1)
        assert res.fail_fraction == 0.0
        assert res.mean_pairs == 6.0  # (n_b+1)(n_p+1)

    def test_fixed_seed_reproducible(self):
        trace = trace_for(2, 2)
        a = monte_carlo_pumping(trace, RestartMode.FULL, 20, 5000, seed=42)
        b = monte_carlo_pumping(trace, RestartMode.FULL, 20, 5000, seed=42)
        assert a == b
        c = monte_carlo_pumping(trace, RestartMode.FULL, 20, 5000, seed=43)
        assert c.mean_pairs != a.mean_pairs

    @pytest.mark.parametrize(
        "n_b,n_p,mode,fail_fraction,mean_pairs,fail_std_err,pairs_std_err",
        [
            (2, 2, RestartMode.FULL, 0.084, 12.1525, 0.0062025801083097675, 0.12294990937413314),
            (2, 2, RestartMode.LEVEL, 0.0005, 10.248, 0.0004998749843710925, 0.04391141202527),
            (0, 4, RestartMode.FULL, 0.0005, 5.6135, 0.0004998749843710925, 0.036355463617831),
            (0, 4, RestartMode.LEVEL, 0.0, 5.181, 0.0, 0.009780967930978683),
        ],
    )
    def test_pinned_philox_streams(
        self, n_b, n_p, mode, fail_fraction, mean_pairs, fail_std_err, pairs_std_err
    ):
        # Exact values of the seeded Philox streams; any change to the draw
        # order or the counter layout moves them.
        res = monte_carlo_pumping(trace_for(n_b, n_p), mode, budget=20, trials=2000, seed=5)
        assert res == MonteCarloResult(
            fail_fraction=fail_fraction,
            mean_pairs=mean_pairs,
            fail_std_err=fail_std_err,
            pairs_std_err=pairs_std_err,
            trials=2000,
            seed=5,
            budget=20,
        )

    @pytest.mark.parametrize("seed", [-1, -(2**64), 2**64, 2**64 + 5])
    def test_seed_outside_the_key_is_rejected(self, seed):
        # Masking would alias: 2**64 would replay seed 0, and -1 seed 2**64 - 1.
        with pytest.raises(ValidationError, match=r"^seed must be an integer in \[0, 18446744073709551615\], got "):
            monte_carlo_pumping(trace_for(2, 2), RestartMode.FULL, 20, 10, seed)

    def test_seed_reaches_the_kernel_unmasked(self, monkeypatch):
        seen = []
        real = oracle.mc_consumed_pairs

        def recording(bit, phase, full, trials, seed):
            seen.append(seed)
            return real(bit, phase, full, trials, seed)

        monkeypatch.setattr(oracle, "mc_consumed_pairs", recording)
        for seed in (0, 2**32, 2**64 - 1):
            monte_carlo_pumping(trace_for(2, 2), RestartMode.FULL, 20, 10, seed)
        assert seen == [0, 2**32, 2**64 - 1]

    @pytest.mark.parametrize("trials", [0, -1, 2**32 + 1, 2**40, 100.5, True, "100"])
    def test_trials_outside_the_counter_word_are_rejected(self, monkeypatch, trials):
        # A trial id is one 32-bit counter word.  The check comes first, so
        # no per-trial array is allocated and the kernel never runs.  100.5
        # used to run 100 trials but report 100.5 and divide the standard
        # errors by it; True used to report trials=True.
        def unreachable(*args):
            raise AssertionError("the kernel ran")

        monkeypatch.setattr(oracle, "mc_consumed_pairs", unreachable)
        with pytest.raises(ValidationError, match=r"trials must be an integer in \[1, 4294967296\]"):
            monte_carlo_pumping(trace_for(2, 2), RestartMode.FULL, 20, trials, 7)

    def test_numpy_trials_report_a_python_int(self):
        res = monte_carlo_pumping(trace_for(2, 2), RestartMode.FULL, 20, np.int64(10), 7)
        assert res == monte_carlo_pumping(trace_for(2, 2), RestartMode.FULL, 20, 10, 7)
        assert type(res.trials) is int

    @pytest.mark.parametrize("mode", list(RestartMode))
    @pytest.mark.parametrize("n_b,n_p", [(2, 2), (0, 4)])
    def test_against_chain_predictions(self, mode, n_b, n_p):
        trace = trace_for(n_b, n_p)
        chain = build_chain(trace, mode)
        expect = expected_pairs(chain)
        budget = max(chain.min_pairs, int(round(expect)))
        res = monte_carlo_pumping(trace, mode, budget, trials=40000, seed=11)
        predicted = failure_probability(chain, budget)
        assert abs(res.fail_fraction - predicted) <= 3.0 * res.fail_std_err
        assert abs(res.mean_pairs - expect) <= 3.0 * res.pairs_std_err


CHUNK = oracle._CHUNK


def success_probs(trace):
    bit = np.array([s.success_prob for s in trace.steps if s.kind is StepKind.BIT])
    phase = np.array([s.success_prob for s in trace.steps if s.kind is StepKind.PHASE])
    return bit, phase


#: Step success probabilities, with exactly 1.0 drawn often.
SUCCESS = st.one_of(st.just(1.0), st.floats(min_value=0.6, max_value=1.0))
#: Seeds on both sides of 2**32, so both key words vary.
SEED = st.one_of(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=2**32, max_value=2**64 - 1),
)


class TestKernelMatchesReference:
    @settings(max_examples=60, deadline=None)
    @given(
        bit_succ=st.lists(SUCCESS, max_size=4),
        phase_succ=st.lists(SUCCESS, max_size=4),
        mode=st.sampled_from(list(RestartMode)),
        trials=st.integers(min_value=1, max_value=200),
        seed=SEED,
    )
    def test_hypothesis_cases(self, bit_succ, phase_succ, mode, trials, seed):
        # Keep each walk short: full restart at p = 0.6 can need ~1e6 pairs.
        assume(expected_pairs(chain_for_probs(bit_succ, phase_succ, mode)) <= 40.0)
        full = mode is RestartMode.FULL
        got = oracle.mc_consumed_pairs(bit_succ, phase_succ, full, trials, seed)
        want = reference_mc_consumed_pairs(bit_succ, phase_succ, full, trials, seed)
        assert np.array_equal(got, want)
        assert np.array_equal(got, raw_step_mc_consumed_pairs(bit_succ, phase_succ, full, trials, seed))
        assert np.array_equal(got, event_walk_mc_consumed_pairs(bit_succ, phase_succ, full, trials, seed))
        assert np.array_equal(got, eager_compaction_mc_consumed_pairs(bit_succ, phase_succ, full, trials, seed))

    @pytest.mark.parametrize("seed", [0, 2**32 + 3, 2**64 - 1])
    @pytest.mark.parametrize("mode", list(RestartMode))
    @pytest.mark.parametrize("n_b,n_p", [(0, 0), (1, 0), (0, 1), (2, 1)])
    def test_edge_schedules_all_success(self, n_b, n_p, mode, seed):
        # Every step succeeds, so every trial spends (n_b + 1)(n_p + 1) pairs.
        bit, phase = np.ones(n_b), np.ones(n_p)
        full = mode is RestartMode.FULL
        got = oracle.mc_consumed_pairs(bit, phase, full, 50, seed)
        assert np.array_equal(got, np.full(50, (n_b + 1) * (n_p + 1)))
        assert np.array_equal(got, reference_mc_consumed_pairs(bit, phase, full, 50, seed))
        assert np.array_equal(got, raw_step_mc_consumed_pairs(bit, phase, full, 50, seed))
        assert np.array_equal(got, event_walk_mc_consumed_pairs(bit, phase, full, 50, seed))
        assert np.array_equal(got, eager_compaction_mc_consumed_pairs(bit, phase, full, 50, seed))

    @pytest.mark.parametrize("mode", list(RestartMode))
    @pytest.mark.parametrize("n_b,n_p", [(2, 2), (4, 5), (0, 4)])
    def test_verify_schedules(self, n_b, n_p, mode):
        bit, phase = success_probs(trace_for(n_b, n_p))
        full = mode is RestartMode.FULL
        got = oracle.mc_consumed_pairs(bit, phase, full, 20000, 7)
        assert np.array_equal(got, reference_mc_consumed_pairs(bit, phase, full, 20000, 7))
        assert np.array_equal(got, raw_step_mc_consumed_pairs(bit, phase, full, 20000, 7))
        assert np.array_equal(got, event_walk_mc_consumed_pairs(bit, phase, full, 20000, 7))
        assert np.array_equal(got, eager_compaction_mc_consumed_pairs(bit, phase, full, 20000, 7))

    @pytest.mark.parametrize(
        "n", [0, 1, _SHARED_CHUNK + 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 17]
    )
    def test_philox_chunk_edges(self, n):
        rng = np.random.default_rng(n)
        for seed in (0, 2**63 + 5):
            trials = rng.integers(0, 2**32, n, dtype=np.uint64).astype(np.uint32)
            for draw in (0, 1, 2**32 - 1, int(rng.integers(0, 2**32))):
                got = oracle.philox_uniforms(seed, trials, draw)
                assert got.dtype == np.float64 and got.shape == (n,)
                words = oracle._philox_words(seed, trials, draw, np.empty(n, dtype=np.uint64))
                assert np.array_equal(got, (words >> np.uint64(11)) * 2.0**-53)
                assert np.array_equal(got, shared_draw_philox_uniforms(seed, trials, draw))
                draws = np.full(n, draw, dtype=np.uint32)
                assert np.array_equal(got, vector_philox_uniforms(seed, trials, draws))
                assert np.array_equal(got, reference_philox_uniforms(seed, trials, draws))
                for i in {0, n // 2, n - 1} if n else ():
                    assert got[i] == scalar_uniform(seed, int(trials[i]), draw)
                    x = philox_reference((draw, int(trials[i]), 0, 0), (seed & _MASK32, seed >> 32))
                    assert words[i] == (x[1] << 32) | x[0]


#: Thresholds on the 53-bit grid of the uniforms, k * 2**-53 for k >= 1.
ON_GRID = st.integers(min_value=1, max_value=2**53).map(lambda k: k * 2.0**-53)
#: Thresholds in (0, 1] at the gate's edges: on the grid and its neighbours
#: either side, 1.0, subnormal values, and anything between.
THRESHOLD = st.one_of(
    ON_GRID,
    ON_GRID.map(lambda t: float(np.nextafter(t, 0.0))),
    ON_GRID.map(lambda t: float(np.nextafter(t, 2.0))).filter(lambda t: t <= 1.0),
    st.just(1.0),
    st.floats(min_value=5e-324, max_value=2.0**-1022, exclude_max=True),
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
)


class TestGate:
    @settings(max_examples=300, deadline=None)
    @given(t=THRESHOLD, word=st.integers(min_value=0, max_value=2**64 - 1), step=st.integers(-2, 2))
    def test_word_gate_is_the_uniform_comparison(self, t, word, step):
        (gate,) = oracle._gates(np.array([t])).tolist()
        for w in (word, gate + step):
            if 0 <= w < 2**64:
                assert ((w >> 11) * 2.0**-53 >= t) == (w > gate)

    def test_one_never_fails_and_zero_nearly_always(self):
        # No word exceeds 2**64 - 1.  t = 0 would need a gate of -1, so its
        # gate 0 misses only w = 0.
        assert oracle._gates(np.array([1.0, 0.0])).tolist() == [2**64 - 1, 0]

    @pytest.mark.parametrize("mode", list(RestartMode))
    @pytest.mark.parametrize("n_b,n_p", [(0, 1), (1, 0), (2, 2), (0, 4), (4, 5)])
    def test_only_the_finished_state_has_threshold_zero(self, n_b, n_p, mode):
        # So the gate of t = 0 decides nothing: both successors of the
        # finished state are the finished state, and entering it costs 0.
        threshold, on_success, on_failure, cost, start = oracle._event_tables(
            np.full(n_b, 0.5), np.full(n_p, 0.5), mode is RestartMode.FULL
        )
        finished = len(cost) - 1
        reached, todo = {start}, [start]
        while todo:
            state = todo.pop()
            for nxt in (int(on_success[state]), int(on_failure[state])):
                if nxt not in reached:
                    reached.add(nxt)
                    todo.append(nxt)
        assert [state for state in sorted(reached) if threshold[state] == 0.0] == [finished]
        assert cost[finished] == 0
        assert on_success[finished] == on_failure[finished] == finished


def draws_used(bit_succ, phase_succ, full_restart, trials, seed):
    """Uniforms per call of the eager-compaction reference, which draws only for unfinished trials."""
    sizes = []
    real = shared_draw_philox_uniforms

    def counting(seed_, trial_ids, draw):
        sizes.append(len(trial_ids))
        return real(seed_, trial_ids, draw)

    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(globals(), "shared_draw_philox_uniforms", counting)
        eager_compaction_mc_consumed_pairs(bit_succ, phase_succ, full_restart, trials, seed)
    return sizes


def assert_few_wasted_words(calls, used):
    # Finished trials stay tracked only while they are under an eighth of
    # those tracked, so each call makes fewer than 8/7 of the draws it uses.
    assert len(calls) == len(used)
    assert all(u <= c and 8 * (c - u) < c for c, u in zip(calls, used))
    assert 7 * sum(calls) <= 8 * sum(used)


class TestKernelWork:
    def test_one_philox_call_per_draw_and_few_wasted_words(self, monkeypatch):
        calls = []
        real = oracle._philox_words

        def counting(seed, trial_ids, draw, out):
            calls.append(len(trial_ids))
            return real(seed, trial_ids, draw, out)

        monkeypatch.setattr(oracle, "_philox_words", counting)
        bit, phase = success_probs(trace_for(4, 5))
        consumed = oracle.mc_consumed_pairs(bit, phase, True, 20000, 7)
        assert calls and len(calls) <= consumed.max()
        assert_few_wasted_words(calls, draws_used(bit, phase, True, 20000, 7))

    @settings(max_examples=25, deadline=None)
    @given(
        bit_succ=st.lists(SUCCESS, max_size=4),
        phase_succ=st.lists(SUCCESS, max_size=4),
        mode=st.sampled_from(list(RestartMode)),
        trials=st.integers(min_value=1, max_value=100),
        seed=SEED,
    )
    def test_one_shared_draw_id_per_call_and_no_repeated_draw(
        self, bit_succ, phase_succ, mode, trials, seed
    ):
        assume(expected_pairs(chain_for_probs(bit_succ, phase_succ, mode)) <= 40.0)
        full = mode is RestartMode.FULL
        calls = []
        real = oracle._philox_words

        def recording(seed_, trial_ids, draw, out):
            assert seed_ == seed and isinstance(draw, int)
            calls.append((np.array(trial_ids, dtype=np.int64), draw))
            return real(seed_, trial_ids, draw, out)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "_philox_words", recording)
            oracle.mc_consumed_pairs(bit_succ, phase_succ, full, trials, seed)
        # Only schedule (0, 0) has no draw to make.
        assert bool(calls) == bool(bit_succ or phase_succ)
        per_trial = [[] for _ in range(trials)]
        for k, (trial_ids, draw) in enumerate(calls):
            # Call k draws word k of each trial it names, once each.
            assert draw == k
            assert len(set(trial_ids.tolist())) == trial_ids.size
            for t in trial_ids:
                per_trial[t].append(k)
        counts = [len(draws) for draws in per_trial]
        assert all(draws == list(range(d)) for draws, d in zip(per_trial, counts))
        assert len(calls) == max(counts)
        used = draws_used(bit_succ, phase_succ, full, trials, seed)
        assert_few_wasted_words([ids.size for ids, _ in calls], used)

    def test_walk_memory_per_trial(self):
        # Buffers are reused and compaction is lazy: the walk's tracemalloc
        # peak stays within 60 bytes a trial (53.3 here), the peak of the
        # eager-compaction walk (60.04).
        bit, phase = success_probs(trace_for(4, 5))
        oracle.mc_consumed_pairs(bit, phase, True, 100, 7)  # NumPy's first-call allocations
        tracemalloc.start()
        try:
            oracle.mc_consumed_pairs(bit, phase, True, 100_000, 7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 60 * 100_000

    @settings(max_examples=40, deadline=None)
    @given(
        n_b=st.integers(min_value=0, max_value=8),
        n_p=st.integers(min_value=0, max_value=8),
        mode=st.sampled_from(list(RestartMode)),
    )
    def test_no_draw_costs_more_than_two_pairs(self, n_b, n_p, mode):
        # The walk skips its cap check while 2 + 2*draw <= HARD_CAP.  That is
        # exact only if a trial spends at most 2 raw pairs before its first
        # draw and at most 2 per draw.
        full = mode is RestartMode.FULL
        _, on_success, on_failure, cost, start = oracle._event_tables(
            np.full(n_b, 0.5), np.full(n_p, 0.5), full
        )
        assert 0 <= cost.min() and cost.max() <= 2
        # Before the first draw: the all-success total less the costs of
        # the states the all-success path enters.
        finished = len(cost) - 1
        path, state = 0, start
        while state != finished:
            state = on_success[state]
            path += int(cost[state])
        (total,) = oracle.mc_consumed_pairs(np.ones(n_b), np.ones(n_p), full, 1, 0)
        assert total == (n_b + 1) * (n_p + 1)
        assert 1 <= total - path <= 2

    @pytest.mark.parametrize(
        "bit,phase,mode",
        [([0.3], [], RestartMode.FULL), ([0.3], [], RestartMode.LEVEL), ([], [0.3], RestartMode.FULL)],
        ids=["1-0-full", "1-0-level", "0-1-full"],
    )
    def test_cap_is_exact_when_every_draw_costs_two(self, monkeypatch, bit, phase, mode):
        # Each failure here costs 2 raw pairs, so a trial holds exactly
        # 2 + 2*draw pairs before each draw: the gate on the cap check has
        # no slack to hide an off-by-one.
        full = mode is RestartMode.FULL
        consumed = oracle.mc_consumed_pairs(bit, phase, full, 200, 7)
        top = int(consumed.max())
        assert top > 6
        monkeypatch.setattr(oracle, "HARD_CAP", top)
        assert np.array_equal(oracle.mc_consumed_pairs(bit, phase, full, 200, 7), consumed)
        monkeypatch.setattr(oracle, "HARD_CAP", top - 1)
        with pytest.raises(RuntimeError, match="Monte-Carlo per-trial raw-pair cap exceeded"):
            oracle.mc_consumed_pairs(bit, phase, full, 200, 7)

    @pytest.mark.parametrize("mode", list(RestartMode))
    @pytest.mark.parametrize("n_b,n_p", [(2, 2), (0, 4)])
    def test_hard_cap_is_exact(self, monkeypatch, n_b, n_p, mode):
        # The walk raises iff some trial needs more than HARD_CAP pairs.
        bit, phase = success_probs(trace_for(n_b, n_p))
        full = mode is RestartMode.FULL
        consumed = oracle.mc_consumed_pairs(bit, phase, full, 100, 7)
        monkeypatch.setattr(oracle, "HARD_CAP", int(consumed.max()))
        assert np.array_equal(oracle.mc_consumed_pairs(bit, phase, full, 100, 7), consumed)
        monkeypatch.setattr(oracle, "HARD_CAP", int(consumed.max()) - 1)
        with pytest.raises(RuntimeError, match="Monte-Carlo per-trial raw-pair cap exceeded"):
            oracle.mc_consumed_pairs(bit, phase, full, 100, 7)

    def test_hard_cap(self, monkeypatch):
        monkeypatch.setattr(oracle, "HARD_CAP", 3)
        bit, phase = success_probs(trace_for(2, 2))
        with pytest.raises(RuntimeError, match="Monte-Carlo per-trial raw-pair cap exceeded"):
            oracle.mc_consumed_pairs(bit, phase, True, 100, 7)
