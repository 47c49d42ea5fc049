"""NumPy kernels for the hot loops.

Three primitives: counter-based uniforms, Monte-Carlo pumping trials and
the absorbing-chain scan.  The uniforms are Philox4x32-10 streams keyed
by (seed, trial, draw), so Monte-Carlo results do not depend on the order
in which trials are processed.  Because a uniform depends only on its key
and counter, the Monte-Carlo kernel generates just the draws each step can
use, in one in-place Philox pass per step.
"""

from __future__ import annotations

import numpy as np

NAME = "python"

#: Round multipliers of counter words 0 and 2, as a column for (2, n) lanes.
_MULT = np.array([[0xD2511F53], [0xCD9E8D57]], dtype=np.uint64)
_BUMP = (0x9E3779B9, 0xBB67AE85)
_MASK32 = 0xFFFFFFFF
# Array operands: NumPy takes these faster than uint64 scalars.
_SHIFT32 = np.array([32], dtype=np.uint64)
_LOW32 = np.array([0xFFFFFFFF], dtype=np.uint64)
_SHIFT11 = np.array([11], dtype=np.uint64)
_INV53 = 1.0 / 9007199254740992.0  # 2**-53

#: Elements per Philox pass; the round buffers stay cache-resident.
_CHUNK = 8192

#: Per-trial safety cap on consumed raw pairs.
HARD_CAP = 10_000_000


def _round_keys(seed: int) -> np.ndarray:
    """The ten round keys (k0, k1), each as a (2, 1) column."""
    key = (seed & _MASK32, (seed >> 32) & _MASK32)
    return np.array(
        [[[(k + i * bump) & _MASK32] for k, bump in zip(key, _BUMP)] for i in range(10)],
        dtype=np.uint64,
    )


def philox_uniforms(seed: int, trial_ids: np.ndarray, draw_ids: np.ndarray) -> np.ndarray:
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
    keys = _round_keys(seed)
    width = min(n, _CHUNK)
    buffers = [np.empty((2, width), dtype=np.uint64) for _ in range(3)]
    for lo in range(0, n, _CHUNK):
        m = min(n - lo, _CHUNK)
        mul, mix, prod = (buf[:, :m] for buf in buffers)
        mul[0] = draws[lo : lo + m]
        mix[0] = trials[lo : lo + m]
        mul[1] = 0
        mix[1] = 0
        swapped = prod[::-1]
        for key in keys:
            np.multiply(mul, _MULT, out=prod)
            np.right_shift(swapped, _SHIFT32, out=mul)
            np.bitwise_xor(mul, mix, out=mul)
            np.bitwise_xor(mul, key, out=mul)
            np.bitwise_and(swapped, _LOW32, out=mix)
        word = mix[0]
        np.left_shift(word, _SHIFT32, out=word)
        np.bitwise_or(word, mul[0], out=word)
        np.right_shift(word, _SHIFT11, out=word)
        np.multiply(word, _INV53, out=flat[lo : lo + m])
    return out


def _step_tables(
    bit_succ: np.ndarray, phase_succ: np.ndarray, full_restart: bool
) -> tuple[np.ndarray, ...]:
    """Per-state lookup tables of the Monte-Carlo walk.

    States use the chain's layout b*(n_b+1) + r, plus a final finished
    state.  Returns, per state: whether its raw pair draws a uniform, that
    draw's success threshold, whether a successful draw is followed by the
    phase comparison (drawn next), the comparison threshold, and the next
    state on success and on failure.
    """
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


def mc_consumed_pairs(
    bit_succ: np.ndarray,
    phase_succ: np.ndarray,
    full_restart: bool,
    trials: int,
    seed: int,
) -> np.ndarray:
    """Raw pairs consumed by each trial of the pumping process.

    State per trial: build index b (0 = keeper, k = fresh pair for phase
    step k) and r = raws already sunk into the current build, held as the
    chain's state index b*(n_b+1) + r.  Each loop iteration consumes one
    raw pair for every unfinished trial.  A base raw draws nothing, a bit
    step draws one uniform, and a build-completing raw that passes its bit
    step draws a second one for the phase comparison.  Failed draws
    restart according to ``full_restart``.

    Draw k of a trial is always the Philox uniform (seed, trial, k), so
    only the uniforms a step can use are generated, in one call per step:
    the first draw of every drawing trial and, speculatively, the
    comparison draw of every trial whose state would compare on success.
    """
    bit_succ = np.asarray(bit_succ, dtype=np.float64)
    phase_succ = np.asarray(phase_succ, dtype=np.float64)
    drawing_tab, thr_tab, comp_tab, comp_thr_tab, succ_tab, fail_tab = _step_tables(
        bit_succ, phase_succ, full_restart
    )
    finished_state = len(succ_tab) - 1

    consumed = np.zeros(trials, dtype=np.int64)
    # Per-trial state, compacted to the still-running trials each sweep.
    # Every live trial consumes exactly one raw pair per sweep, so a single
    # step counter serves them all.
    live = np.arange(trials, dtype=np.int64)
    ids = live.astype(np.uint32)
    state = np.zeros(trials, dtype=np.intp)
    draws = np.zeros(trials, dtype=np.uint32)
    steps = 0

    while live.size:
        steps += 1
        if steps > HARD_CAP:
            raise RuntimeError("Monte-Carlo per-trial raw-pair cap exceeded")

        first = np.flatnonzero(drawing_tab[state])
        comp = np.flatnonzero(comp_tab[state])
        n_first = first.size
        u = philox_uniforms(
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


def chain_scan(
    trans_src: np.ndarray,
    trans_dst: np.ndarray,
    trans_p: np.ndarray,
    n_states: int,
    start: int,
    done: int,
    target: float,
    cap: int,
) -> tuple[int, float]:
    """Smallest step count with failure mass 1 - dist[done] <= target.

    Returns (-1, last_eps) when the cap is reached first.
    """
    dist = np.zeros(n_states, dtype=np.float64)
    dist[start] = 1.0
    eps = 1.0 - dist[done]
    if eps <= target:
        return 0, eps
    for step in range(1, cap + 1):
        dist = np.bincount(trans_dst, weights=trans_p * dist[trans_src], minlength=n_states)
        eps = 1.0 - dist[done]
        if eps <= target:
            return step, eps
    return -1, eps
