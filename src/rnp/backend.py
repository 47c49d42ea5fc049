"""NumPy kernels for the hot loops.

Three primitives: counter-based uniforms, Monte-Carlo pumping trials and
the absorbing-chain scan.  The uniforms are Philox4x32-10 streams keyed
by (seed, trial, draw), so Monte-Carlo results do not depend on the order
in which trials are processed.
"""

from __future__ import annotations

import numpy as np

NAME = "python"

_M0 = np.uint64(0xD2511F53)
_M1 = np.uint64(0xCD9E8D57)
_BUMP0 = 0x9E3779B9
_BUMP1 = 0xBB67AE85
_MASK32 = 0xFFFFFFFF
_SHIFT32 = np.uint64(32)
_LOW32 = np.uint64(0xFFFFFFFF)
_INV53 = 1.0 / 9007199254740992.0  # 2**-53

#: Per-trial safety cap on consumed raw pairs.
HARD_CAP = 10_000_000


def _round_keys(seed: int) -> list[tuple[np.uint32, np.uint32]]:
    k0 = seed & _MASK32
    k1 = (seed >> 32) & _MASK32
    keys = []
    for _ in range(10):
        keys.append((np.uint32(k0), np.uint32(k1)))
        k0 = (k0 + _BUMP0) & _MASK32
        k1 = (k1 + _BUMP1) & _MASK32
    return keys


def philox_uniforms(seed: int, trial_ids: np.ndarray, draw_ids: np.ndarray) -> np.ndarray:
    """Philox4x32-10 uniforms in [0, 1), one per (trial, draw) pair.

    Counter layout: (draw, trial, 0, 0); key: the 64-bit seed split into
    two 32-bit words.  The first two output words form the 64-bit value
    whose top 53 bits make the double.
    """
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


def mc_consumed_pairs(
    bit_succ: np.ndarray,
    phase_succ: np.ndarray,
    full_restart: bool,
    trials: int,
    seed: int,
) -> np.ndarray:
    """Raw pairs consumed by each trial of the pumping process.

    State per trial: build index b (0 = keeper, k = fresh pair for phase
    step k) and r = raws already sunk into the current build.  Each loop
    iteration consumes one raw pair for every unfinished trial; a bit step
    draws one uniform, a build-completing raw draws a second one for the
    phase comparison.  Failed draws restart according to ``full_restart``.
    """
    bit_succ = np.asarray(bit_succ, dtype=np.float64)
    phase_succ = np.asarray(phase_succ, dtype=np.float64)
    n_b = len(bit_succ)
    n_p = len(phase_succ)

    consumed = np.zeros(trials, dtype=np.int64)
    # Per-trial state, compacted to the still-running trials each sweep.
    # Every live trial consumes exactly one raw pair per sweep, so a single
    # step counter serves them all.
    live = np.arange(trials, dtype=np.int64)
    ids = live.astype(np.uint32)
    b = np.zeros(trials, dtype=np.int64)
    r = np.zeros(trials, dtype=np.int64)
    draws = np.zeros(trials, dtype=np.uint32)
    steps = 0

    while live.size:
        steps += 1
        if steps > HARD_CAP:
            raise RuntimeError("Monte-Carlo per-trial raw-pair cap exceeded")

        n = live.size
        if n_b == 0:
            build_done = np.ones(n, dtype=bool)
            bit_fail = np.zeros(n, dtype=bool)
        else:
            is_base = r == 0
            is_bit = ~is_base
            u1 = philox_uniforms(seed, ids, draws)
            idx = np.clip(r - 1, 0, n_b - 1)
            bit_ok = is_bit & (u1 < bit_succ[idx])
            bit_fail = is_bit & ~bit_ok
            draws = draws + is_bit.astype(np.uint32)
            build_done = bit_ok & (r == n_b)
            r = np.where(is_base, 1, np.where(bit_ok & (r < n_b), r + 1, r))

        need_comp = build_done & (b >= 1)
        if n_p:
            u2 = philox_uniforms(seed, ids, draws)
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
