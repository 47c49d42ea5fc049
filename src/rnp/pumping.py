"""Entanglement-pumping engine: per-step Bell-diagonal maps and schedules.

Every pure Bell-product state is labelled by four flag bits
(x1, z1, x2, z2): pair 1 is the kept ("keeper") pair, pair 2 the fresh pair
consumed by the step; x marks a bit flip (Psi components), z a phase flip.
CNOTs are Clifford and the noise is Pauli, so a whole pumping step is an
exact stochastic map on the 16 flag configurations:

  bit step    keeper controls fresh, fresh measured in Z;
              flags map (x1, z1, x2, z2) -> (x1, z1^z2, x2^x1, z2),
              accept when the measured parity x2^x1 reads 0.
  phase step  fresh controls keeper, fresh measured in X;
              flags map (x1, z1, x2, z2) -> (x1^x2, z1, x2, z2^z1),
              accept when the measured parity z2^z1 reads 0.

Gate noise: with probability p_local each register's CNOT is followed by
a uniformly random non-identity two-qubit Pauli on its qubit pair.  That
mixture is invariant under Clifford conjugation, so noise before or after
the gate gives the same map; in flag space it is a 16-point XOR
convolution per register.  A voted-readout error flips each of the two
compared outcomes independently,
so the comparison itself flips with probability 2*eps*(1-eps).  The maps
here are the closed-form transcription of exactly what the density-matrix
oracle computes; the oracle is the arbiter (they agree to 1e-10).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import groupby
from typing import NamedTuple

import numpy as np

from .model import (
    BellDiagonalState,
    ErrorParams,
    NoiseKind,
    PumpSchedule,
    StepKind,
    ValidationError,
    _check_prob,
)

__all__ = [
    "StepRecord",
    "PumpTrace",
    "raw_pair",
    "pump_step",
    "run_two_level",
    "search_schedule",
    "SEARCH_SLICE",
    "MAX_BOUND",
    "run_standard",
    "closed_form_infidelity",
]

#: Raw pairs a schedule search steps at once.  At bound 15 its pre-pass
#: holds ~8 KB per raw pair (~40 KB at its peak) and its stepped box at most
#: ~24 KB, so a longer run of rows is searched slice by slice.
SEARCH_SLICE = 64

#: Largest search bound: a PumpSchedule holds at most 64 steps of each kind.
MAX_BOUND = 64

#: Relative margin of the search's pre-pass: a schedule is stepped when its
#: linear estimate lies within this of its row's least estimate.  It exceeds
#: 4*gamma_m at bound 64 (see ``_schedule_box``), so no winner falls outside.
BOX_MARGIN = 1e-9

# Smallest nonzero value the pre-pass's error bound admits: a product of five
# such values is still a normal float, so no value of either route underflows.
_TINY = 2.0**-200


def _cnot_gather(kind: StepKind) -> np.ndarray:
    """Old flag index of each new one: the CNOT's flag map, its own inverse."""
    x1, z1, x2, z2 = (np.arange(16) >> shift & 1 for shift in (3, 2, 1, 0))
    if kind is StepKind.BIT:
        return 8 * x1 + 4 * (z1 ^ z2) + 2 * (x2 ^ x1) + z2
    return 8 * (x1 ^ x2) + 4 * z1 + 2 * x2 + (z2 ^ z1)


_GATHER = {kind: _cnot_gather(kind) for kind in StepKind}

# Keeper and fresh Bell index of the old joint flag index (4*keeper + fresh)
# that each new index gathers.
_KEEPER_OF = {kind: _GATHER[kind] >> 2 for kind in StepKind}
_FRESH_OF = {kind: _GATHER[kind] & 3 for kind in StepKind}

# Measured parity bit per joint flag index: x2 for bit steps, z2 for phase.
_PARITY = {StepKind.BIT: np.arange(16) >> 1 & 1, StepKind.PHASE: np.arange(16) & 1}

# [i, i', j']: whether new index 4*i' + j' gathers keeper index i.
_KEEPER_HOT = {kind: _KEEPER_OF[kind].reshape(4, 4) == np.arange(4)[:, None, None] for kind in StepKind}


def _hit(weight: float) -> tuple[float, float]:
    """(a, c) of one depolarizing hit of weight ``weight``.

    The 16 two-qubit Pauli patterns map one-to-one onto flag-flip masks;
    identity keeps 1-weight, the 15 others move weight/15 each.  So one hit
    is (Mv)_j = a*v_j + c*sum(v) with a = 1 - 16*weight/15, c = weight/15.
    """
    return 1.0 - 16.0 * weight / 15.0, weight / 15.0


def _acceptance_weights(kind: StepKind, meas_flip: float) -> np.ndarray:
    """Weight of each new flag index: each compared readout flips with
    probability meas_flip, so the comparison flips with 2*eps*(1-eps)."""
    comp_flip = 2.0 * meas_flip * (1.0 - meas_flip)
    return np.where(_PARITY[kind] == 0, 1.0 - comp_flip, comp_flip)


def _depolarize_twice(dist: np.ndarray, weight: float) -> np.ndarray:
    """Both registers' depolarizing hits on rows of 16 flag probabilities,
    in place.  M keeps sum(v), so two hits (``_hit``) are
    M^2 v = a*(a*v + c*sum(v)) + c*sum(v).
    """
    a, c = _hit(weight)
    c_sum = c * np.add.reduce(dist, axis=1, keepdims=True)
    dist *= a
    dist += c_sum
    dist *= a
    dist += c_sum
    return dist


class _Fresh(NamedTuple):
    """What every step of one kind on the same fresh rows shares: the keeper
    index each new flag index gathers, the fresh rows gathered to the new
    flag order, and each new flag index's acceptance weight."""

    keeper_of: np.ndarray
    rows: np.ndarray
    weights: np.ndarray


def _fresh(rows: np.ndarray, kind: StepKind, meas_flip: float) -> _Fresh:
    if not isinstance(kind, StepKind):
        raise ValidationError(f"kind must be a StepKind, got {kind!r}")
    return _Fresh(_KEEPER_OF[kind], rows.take(_FRESH_OF[kind], axis=1), _acceptance_weights(kind, meas_flip))


def _check_acceptance(success: np.ndarray) -> None:
    if (success <= 0.0).any():
        raise ValidationError("pump step has zero acceptance probability")


def _step_rows(
    keepers: np.ndarray,
    fresh: np.ndarray | _Fresh,
    kind: StepKind,
    p_local: float,
    meas_flip: float,
    out: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """``pump_step``'s map on each row: keeper ``keepers[i]``, fresh ``fresh[i]``.

    Returns each row's success probability and accepted keeper populations,
    before ``BellDiagonalState`` renormalises them (``_stored_rows``), written
    to ``out`` when given.  Rows reduce in one fixed order without BLAS, so a
    row's bits do not depend on its batch.  ``fresh`` is the fresh rows, or
    their ``_fresh`` form, which a loop of steps builds once.  Given the rows,
    raises ValidationError if any row never succeeds; a loop that passes the
    ``_fresh`` form checks its successes itself (``_check_acceptance``).
    """
    prepared = isinstance(fresh, _Fresh)
    if not prepared:
        fresh = _fresh(fresh, kind, meas_flip)
    n = len(keepers)
    success, accepted = (np.empty(n), np.empty((n, 4))) if out is None else out
    # take() keeps the rows contiguous, so every row sums in the same order.
    dist = keepers.take(fresh.keeper_of, axis=1)
    dist *= fresh.rows
    dist = _depolarize_twice(dist, p_local)
    dist *= fresh.weights
    np.add.reduce(dist, axis=1, out=success)
    if not prepared:
        _check_acceptance(success)
    np.add.reduce(dist.reshape(n, 4, 4), axis=2, out=accepted)
    accepted /= success[:, None]
    return success, accepted


def _stored_rows(rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """What ``BellDiagonalState`` stores for each row of ``_step_rows``: the row
    over its left-to-right sum.  M^2 v >= 0, so its clamp to 0 never applies."""
    return np.divide(rows, (((rows[:, 0] + rows[:, 1]) + rows[:, 2]) + rows[:, 3])[:, None], out=out)


@dataclass(frozen=True, slots=True)
class StepRecord:
    """One accepted pumping step along the deterministic trace."""

    kind: StepKind
    state_before: BellDiagonalState
    success_prob: float
    state_after_success: BellDiagonalState

    def __post_init__(self) -> None:
        if not (0.0 < self.success_prob <= 1.0):
            raise ValidationError(f"success_prob must be in (0, 1], got {self.success_prob!r}")


@dataclass(frozen=True, slots=True)
class PumpTrace:
    """Deterministic all-success trace: n_b bit and n_p phase steps of its schedule."""

    schedule: PumpSchedule
    steps: tuple[StepRecord, ...]
    final_state: BellDiagonalState
    infidelity: float

    def __post_init__(self) -> None:
        kinds = [s.kind for s in self.steps]
        if (kinds.count(StepKind.BIT), kinds.count(StepKind.PHASE)) != (self.schedule.n_b, self.schedule.n_p):
            raise ValidationError("trace steps do not match its schedule")


def _trace(state: BellDiagonalState, path) -> PumpTrace:
    """Trace from keeper ``state`` along (kind, success, accepted row) results
    of ``_step_rows``; its schedule counts the path's bit and phase steps."""
    steps: list[StepRecord] = []
    for kind, success, accepted in path:
        after = BellDiagonalState.from_vector(accepted)
        steps.append(StepRecord(kind, state, min(float(success), 1.0), after))
        state = after
    n_p = sum(s.kind is StepKind.PHASE for s in steps)
    return PumpTrace(PumpSchedule(len(steps) - n_p, n_p), tuple(steps), state, state.infidelity)


def _two_level_rows(bases: np.ndarray, n_b: int, n_p: int, p_local: float, meas_flip: float):
    """n_b bit steps on the raw rows ``bases``, then n_p phase steps on every
    bit level at once (keeper row j*len(bases) + i is raw row i after j bit
    steps, and its own fresh input).

    Returns the bit and the phase steps' ``_step_rows`` results, each a
    (success, accepted) pair of arrays indexed by step first, and the keeper
    rows after each number of phase steps, ``keepers[j]``.  Rows hold what a
    BellDiagonalState stores, so they are the step-by-step trace bit for bit.
    """
    n = len(bases)
    keepers = np.empty((n_p + 1, (n_b + 1) * n, 4))
    levels = keepers[0].reshape(n_b + 1, n, 4)
    levels[0] = bases
    bit_steps = np.empty((n_b, n)), np.empty((n_b, n, 4))
    fresh = _fresh(bases, StepKind.BIT, meas_flip)
    for j in range(n_b):
        _step_rows(levels[j], fresh, StepKind.BIT, p_local, meas_flip, (bit_steps[0][j], bit_steps[1][j]))
        _stored_rows(bit_steps[1][j], out=levels[j + 1])
    phase_steps = np.empty((n_p, (n_b + 1) * n)), np.empty((n_p, (n_b + 1) * n, 4))
    fresh = _fresh(keepers[0], StepKind.PHASE, meas_flip)
    for j in range(n_p):
        _step_rows(keepers[j], fresh, StepKind.PHASE, p_local, meas_flip, (phase_steps[0][j], phase_steps[1][j]))
        _stored_rows(phase_steps[1][j], out=keepers[j + 1])
    _check_acceptance(bit_steps[0])
    _check_acceptance(phase_steps[0])
    return bit_steps, phase_steps, keepers


def raw_pair(params: ErrorParams) -> BellDiagonalState:
    """Bell-diagonal form of one freshly generated pair.

    Depolarizing generation spreads the infidelity evenly over the three
    error components (Werner form); dephasing puts it all on Phi-.
    ``ErrorParams`` has already rejected F <= 0.5 (UnpurifiableError).
    """
    f = params.fidelity
    if params.noise is NoiseKind.DEPOLARIZING:
        e = (1.0 - f) / 3.0
        return BellDiagonalState(f, e, e, e)
    return BellDiagonalState(f, 1.0 - f, 0.0, 0.0)


def pump_step(
    target: BellDiagonalState,
    fresh: BellDiagonalState,
    kind: StepKind,
    p_local: float,
    meas_flip: float,
) -> StepRecord:
    """Post-selected map of one pumping step.

    ``meas_flip`` is the voted-readout error of each of the two compared
    measurements (one per register); ``p_local`` the depolarizing weight of
    each register's CNOT.
    """
    rates = _check_prob("p_local", p_local), _check_prob("meas_flip", meas_flip)
    success, keeper = _step_rows(np.array([target.as_tuple()]), np.array([fresh.as_tuple()]), kind, *rates)
    return _trace(target, [(kind, success[0], keeper[0])]).steps[0]


def run_two_level(
    schedule: PumpSchedule,
    params: ErrorParams,
    meas_flip: float,
) -> PumpTrace:
    """Deterministic trace of two-level pumping.

    Level one filters bit errors: a raw keeper is pumped n_b times with raw
    fresh pairs.  Level two filters phase errors: the bit-purified pair is
    the keeper and also the fresh input of each of the n_p phase steps.
    It is the search's engine on one raw pair, read at its last bit level.
    """
    base = raw_pair(params)
    rates = params.p_local, _check_prob("meas_flip", meas_flip)
    bit_steps, phase_steps, _ = _two_level_rows(np.array([base.as_tuple()]), schedule.n_b, schedule.n_p, *rates)
    path = [(StepKind.BIT, s[0], k[0]) for s, k in zip(*bit_steps)]
    path += [(StepKind.PHASE, s[-1], k[-1]) for s, k in zip(*phase_steps)]
    return _trace(base, path)


def _operators(fresh: np.ndarray, kind: StepKind, p_local: float, meas_flip: float) -> np.ndarray:
    """Each fresh pair's step as a 4x4 map T: ``_step_rows``' accepted keeper
    before its division by success is keeper @ T.

    With new flag index J = 4*i' + j', the kernel's accepted weight of i' is
    sum_j' w[J] (a^2 dist[J] + (a*c + c) sum(dist)), and dist[J] is keeper[i]
    times fresh[j] for the (i, j) that J gathers.  So T[i, i'] sums
    w[J] a^2 fresh[j] over the J that gather keeper index i, plus
    (a*c + c) sum(fresh) sum_j' w[J].  It uses the kernel's own rounded a, c
    and weights, and every entry is a sum of products of nonnegative numbers
    when a >= 0.  Component axes lead: ``fresh`` is [j, ...], T [i, i', ...].
    """
    a, c = _hit(p_local)
    weights = _acceptance_weights(kind, meas_flip).reshape(4, 4)
    trail = (1,) * (fresh.ndim - 1)
    gathered = fresh.take(_FRESH_OF[kind].reshape(4, 4), axis=0) * (a * a * weights).reshape(4, 4, *trail)
    direct = np.add.reduce(_KEEPER_HOT[kind].reshape(4, 4, 4, *trail) * gathered, axis=2)
    return direct + ((a * c + c) * np.add.reduce(fresh, axis=0)) * weights.sum(axis=1).reshape(4, *trail)


def _orbit(start: np.ndarray, op: np.ndarray, count: int, seen: list) -> np.ndarray:
    """Rows start @ op^k for k < count, as [component, k, ...], by doubling:
    the rows so far times op^(2^i), then op squared.  Sums its own products
    (no BLAS call).  Appends each power of ``op`` it multiplies by to
    ``seen``."""
    rows = np.empty((4, count, *start.shape[1:]))
    rows[:, 0] = start
    done = 1
    while done < count:
        seen.append(op)
        more = min(done, count - done)
        np.add.reduce(rows[:, None, :more] * op[:, :, None], axis=0, out=rows[:, done : done + more])
        done += more
        if done < count:
            op = np.add.reduce(op[:, :, None] * op[None], axis=1)
    return rows


def _schedule_estimates(bases: np.ndarray, n_b_max: int, bound: int, p_local: float, meas_flip: float):
    """Infidelity of every schedule of every raw row by its linear form,
    indexed [n_p, n_b, row], or None where ``_schedule_box``'s error bound
    does not hold.

    Bit level n_b is u B^n_b (u the raw row, B its bit-step map), phase
    level n_p of it is v M^n_p with v that level over its sum and M the
    phase-step map whose fresh pair is v.  Normalising only rescales a row,
    so schedule (n_b, n_p) has infidelity (v1 + v2 + v3) / sum(v).
    """
    a, c = _hit(p_local)
    if a < 0.0:
        return None
    seen = [np.array([a, c]), _acceptance_weights(StepKind.BIT, meas_flip)]
    raw = bases.T
    levels = raw[:, None]
    if n_b_max:
        levels = _orbit(raw, _operators(raw, StepKind.BIT, p_local, meas_flip), n_b_max + 1, seen)
    fresh = levels / np.add.reduce(levels, axis=0)
    grid = _orbit(fresh, _operators(fresh, StepKind.PHASE, p_local, meas_flip), bound + 1, seen)
    values = np.concatenate(seen + [levels, grid], axis=None)
    if not (np.isfinite(values).all() and values.min(where=values > 0.0, initial=1.0) >= _TINY):
        return None
    errors = (grid[1] + grid[2]) + grid[3]
    return errors / (errors + grid[0])


def _schedule_box(bases: np.ndarray, n_b_max: int, bound: int, p_local: float, meas_flip: float) -> tuple[int, int]:
    """Least (n_b, n_p) box that holds, for every raw row, every schedule
    the search engine would rank first: the bounding box of the schedules
    whose ``_schedule_estimates`` value lies within ``BOX_MARGIN`` of their
    row's least, or the full (n_b_max, bound) box where the bound fails.

    Why the box holds the winner.  Both routes apply +, * and / to
    nonnegative numbers only (a >= 0; weights, c and the rows are
    nonnegative), with the same rounded a, c and weights, so both
    approximate the same exact infidelity x.  Without underflow each
    rounded operation is exact times (1 + d), |d| <= u = 2^-53.  Write
    (1 + theta_m) for a factor with |theta_m| <= gamma_m = m*u / (1 - m*u)
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002,
    section 3.5): a sum of n nonnegative terms that carry (1 + theta_k),
    added in any order, carries (1 + theta_{k+n-1}), and a product or
    quotient of values that carry (1 + theta_j) and (1 + theta_k) carries
    (1 + theta_{j+k+1}).  Both maps are linear in the keeper and in the
    fresh pair, so a common positive scale (a division by success or by a
    row sum) cancels and only the per-component factors add up.  A kernel
    step adds at most 26 to its keeper's and fresh pair's (keeper * fresh
    1; the 16-term sum and c 16; +c_sum, *a, +c_sum 3; the weights 1; the
    4-term sum 3; the two divisions 2), so engine level
    (n_b, n_p) carries K_e <= 26 (n_b + n_p + n_b n_p).  The pre-pass builds
    each map within 13 of its fresh pair and a doubling product adds 4, so
    K_p <= 17 (n_b + n_p + n_b n_p) + 1.  An infidelity is a ratio of two
    sums of a level's components, so both the engine's value E and the
    estimate e lie within gamma_m of x, relatively, with m = 52 (2 b + b^2)
    + 8 at bound b: gamma_m < 2.5e-11 at b = 64.  For the engine's winner s
    and the least estimate e0 at s0,
    e(s) <= (1+g) x(s) <= (1+g)/(1-g) E(s) <= (1+g)/(1-g) E(s0)
         <= ((1+g)/(1-g))^2 e0,
    within 4 g / (1 - g)^2 < 1e-10 < BOX_MARGIN of e0; so every schedule
    the engine ties at its least value is in the box, and the box's own
    tie-break picks the full search's schedule.  x = 0 exactly where either
    route computes 0.

    Fallbacks (the full box): a < 0 (p_local > 15/16), where the maps take
    signs; a non-finite value; or a nonzero value below 2^-200 among the
    rates and weights, the pre-pass's maps and powers, and the levels of
    every schedule (a stored row is no smaller: a level sums to at most 1).
    Above that a product of five such values, the most either route forms
    before a sum, is at least 2^-1000, a normal float, so neither route
    underflows and the bound above holds.
    """
    estimates = _schedule_estimates(bases, n_b_max, bound, p_local, meas_flip)
    if estimates is None:
        return n_b_max, bound
    # ~(e > limit), not e <= limit: an infinite margin over e0 = 0 is nan.
    near = ~(estimates > estimates.min(axis=(0, 1)) * (1.0 + BOX_MARGIN))
    n_p, n_b = np.nonzero(near.any(axis=2))
    return int(n_b.max()), int(n_p.max())


def search_schedule(rows: Sequence[ErrorParams], meas_flip: float | Sequence[float], bound: int = 15) -> list[PumpTrace]:
    """Trace of the schedule (n_b, n_p <= bound) of least pumped infidelity,
    one per row of ``rows``.

    The rows must share ``noise``; ``meas_flip`` is one readout error for
    every row or a sequence of one per row; ``bound`` is an integer in
    [0, MAX_BOUND].  Ties break toward fewer total steps, then fewer phase
    steps.  Dephased raw pairs carry no bit errors, so their search is
    restricted to the one-level (n_b = 0) row.

    Schedule (n_b, n_p) is (n_b, n_p - 1) plus one phase step, and the
    bit-purified pair of n_b is that of n_b - 1 plus one bit step, so one
    ``_two_level_rows`` call steps every schedule of a box for up to
    ``SEARCH_SLICE`` adjacent rows that share ``p_local`` and ``meas_flip``
    (a sweep's F values at one p_L).  A linear pre-pass (``_schedule_box``)
    first ranks every schedule of those rows and picks the least box that
    provably holds each row's winner, so the engine makes n_b + n_p kernel
    calls for that box, not 2 * bound, and returns what the full box would.
    """
    if not isinstance(bound, int) or isinstance(bound, bool) or not 0 <= bound <= MAX_BOUND:
        raise ValidationError(f"bound must be an integer in [0, {MAX_BOUND}], got {bound!r}")
    rows = list(rows)
    flips = np.asarray(meas_flip, dtype=np.float64)
    if flips.shape not in ((), (len(rows),)):
        raise ValidationError(f"meas_flip needs one value or {len(rows)}, one per row; got shape {flips.shape}")
    for flip in flips.flat:
        _check_prob("meas_flip", flip)
    if any(p.noise is not rows[0].noise for p in rows):
        raise ValidationError("search rows must share the noise model")
    n_b_max = 0 if rows and rows[0].noise is NoiseKind.DEPHASING else bound
    traces: list[PumpTrace] = []
    flips = np.broadcast_to(flips, len(rows)).tolist()
    for rates, run in groupby(zip(rows, flips), key=lambda row: (row[0].p_local, row[1])):
        run = [p for p, _ in run]
        for lo in range(0, len(run), SEARCH_SLICE):
            bases = [raw_pair(p) for p in run[lo : lo + SEARCH_SLICE]]
            n = len(bases)
            base_rows = np.array([b.as_tuple() for b in bases])
            box_b, box_p = _schedule_box(base_rows, n_b_max, bound, *rates)
            (bit_success, bit_kept), (phase_success, phase_kept), keepers = _two_level_rows(
                base_rows, box_b, box_p, *rates
            )

            # Least infidelity; ties go to fewer total steps, then fewer phase steps.
            # keepers[n_p, n_b*n + i] is schedule (n_b, n_p) of row i.
            errors = ((keepers[..., 1] + keepers[..., 2]) + keepers[..., 3]).reshape(box_p + 1, box_b + 1, n)
            p_steps, b_steps = np.indices(errors.shape[:2])
            rank = ((p_steps + b_steps) * (box_p + 1) + p_steps)[..., None]  # unique per schedule
            rank = np.where(errors == errors.min(axis=(0, 1)), rank, rank.max() + 1)
            winners = np.unravel_index(rank.reshape(-1, n).argmin(axis=0), errors.shape[:2])

            for i, (base, n_p, n_b) in enumerate(zip(bases, *winners)):
                path = [(StepKind.BIT, bit_success[j, i], bit_kept[j, i]) for j in range(n_b)]
                row = n_b * n + i
                path += [(StepKind.PHASE, phase_success[j, row], phase_kept[j, row]) for j in range(n_p)]
                traces.append(_trace(base, path))
    return traces


#: Longest alternating run: its trace's schedule counts the bit and the phase
#: steps, and a PumpSchedule holds at most 64 of each.
MAX_STANDARD_STEPS = 128


def run_standard(
    total_steps: int,
    params: ErrorParams,
    meas_flip: float,
) -> PumpTrace:
    """Alternating bit/phase pumping fed with raw pairs throughout.

    This is the conventional scheme two-level pumping is compared against;
    raw fresh pairs keep re-injecting both error species, which floors the
    reachable infidelity.
    """
    if not isinstance(total_steps, int) or not 0 <= total_steps <= MAX_STANDARD_STEPS:
        raise ValidationError(f"total_steps must be an integer in [0, {MAX_STANDARD_STEPS}], got {total_steps!r}")
    meas_flip = _check_prob("meas_flip", meas_flip)
    base = raw_pair(params)
    fresh = keeper = np.array([base.as_tuple()])
    path = []
    for i in range(total_steps):
        kind = StepKind.BIT if i % 2 == 0 else StepKind.PHASE
        success, accepted = _step_rows(keeper, fresh, kind, params.p_local, meas_flip)
        path.append((kind, success[0], accepted[0]))
        keeper = _stored_rows(accepted)
    return _trace(base, path)


def closed_form_infidelity(
    schedule: PumpSchedule,
    params: ErrorParams,
    meas_flip: float,
) -> float:
    """Leading-order infidelity estimate of two-level pumping (depolarizing).

    Sum of the linear gate-noise cost, the measurement-error cross term,
    and the two exponentially suppressed residuals (bit errors surviving
    level one, phase errors surviving level two).
    """
    if params.noise is not NoiseKind.DEPOLARIZING:
        raise ValidationError("closed-form estimate is defined for depolarizing noise only")
    n_b, n_p = schedule.n_b, schedule.n_p
    one_minus_f = 1.0 - params.fidelity
    gate_term = (3.0 + 2.0 * n_p) / 4.0 * params.p_local
    meas_term = (4.0 + 2.0 * (n_b + n_p)) / 3.0 * one_minus_f * _check_prob("meas_flip", meas_flip)
    bit_residual = (n_p + 1) * (2.0 * one_minus_f / 3.0) ** (n_b + 1)
    phase_residual = ((n_b + 1) * one_minus_f / 3.0) ** (n_p + 1)
    return gate_term + meas_term + bit_residual + phase_residual
