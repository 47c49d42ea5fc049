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
    "run_standard",
    "closed_form_infidelity",
]

#: Raw pairs a schedule search steps at once.  Its arrays take ~32 KB per
#: raw pair at bound 15, so a longer run of rows is searched slice by slice.
SEARCH_SLICE = 64


def _cnot_gather(kind: StepKind) -> np.ndarray:
    """Old flag index of each new one: the CNOT's flag map, its own inverse."""
    x1, z1, x2, z2 = (np.arange(16) >> shift & 1 for shift in (3, 2, 1, 0))
    if kind is StepKind.BIT:
        return 8 * x1 + 4 * (z1 ^ z2) + 2 * (x2 ^ x1) + z2
    return 8 * (x1 ^ x2) + 4 * z1 + 2 * x2 + (z2 ^ z1)


_GATHER = {kind: _cnot_gather(kind) for kind in StepKind}

# Measured parity bit per joint flag index: x2 for bit steps, z2 for phase.
_PARITY = {StepKind.BIT: np.arange(16) >> 1 & 1, StepKind.PHASE: np.arange(16) & 1}


def _depolarize_twice(dist: np.ndarray, weight: float) -> np.ndarray:
    """Both registers' depolarizing hits on rows of 16 flag probabilities.

    The 16 two-qubit Pauli patterns map one-to-one onto flag-flip masks;
    identity keeps 1-weight, the 15 others move weight/15 each.  So one hit
    is (Mv)_j = a*v_j + c*sum(v) with a = 1 - 16*weight/15, c = weight/15.
    M keeps sum(v), so two hits are M^2 v = a*(a*v + c*sum(v)) + c*sum(v).
    """
    a = 1.0 - 16.0 * weight / 15.0
    c_sum = (weight / 15.0) * dist.sum(axis=1, keepdims=True)
    return a * (a * dist + c_sum) + c_sum


def _step_rows(
    keepers: np.ndarray, fresh: np.ndarray, kind: StepKind, p_local: float, meas_flip: float
) -> tuple[np.ndarray, np.ndarray]:
    """``pump_step``'s map on each row: keeper ``keepers[i]``, fresh ``fresh[i]``.

    Returns each row's success probability and accepted keeper populations,
    before ``BellDiagonalState`` renormalises them (``_stored_rows``).  Rows
    reduce in one fixed order without BLAS, so a row's bits do not depend on
    its batch.  Raises ValidationError if any row never succeeds.
    """
    if not isinstance(kind, StepKind):
        raise ValidationError(f"kind must be a StepKind, got {kind!r}")

    n = len(keepers)
    dist = (keepers[:, :, None] * fresh[:, None, :]).reshape(n, 16)  # J = 4*f1 + f2
    # take() keeps the rows contiguous, so every row sums in the same order.
    dist = _depolarize_twice(dist.take(_GATHER[kind], axis=1), p_local)

    comp_flip = 2.0 * meas_flip * (1.0 - meas_flip)
    weighted = np.where(_PARITY[kind] == 0, 1.0 - comp_flip, comp_flip) * dist
    success = weighted.sum(axis=1)
    if (success <= 0.0).any():
        raise ValidationError("pump step has zero acceptance probability")
    return success, weighted.reshape(n, 4, 4).sum(axis=2) / success[:, None]


def _stored_rows(rows: np.ndarray) -> np.ndarray:
    """What ``BellDiagonalState`` stores for each row of ``_step_rows``: the row
    over its left-to-right sum.  M^2 v >= 0, so its clamp to 0 never applies."""
    return rows / (((rows[:, 0] + rows[:, 1]) + rows[:, 2]) + rows[:, 3])[:, None]


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
    steps, and its own fresh input).  Returns the bit and phase steps'
    ``_step_rows`` results and the keeper rows before and after each phase
    step.  Rows hold what a BellDiagonalState stores, so they are the
    step-by-step trace bit for bit."""
    bit_steps = []
    purified = [bases]
    for _ in range(n_b):
        bit_steps.append(_step_rows(purified[-1], bases, StepKind.BIT, p_local, meas_flip))
        purified.append(_stored_rows(bit_steps[-1][1]))
    keepers = [np.concatenate(purified)]
    phase_steps = []
    for _ in range(n_p):
        phase_steps.append(_step_rows(keepers[-1], keepers[0], StepKind.PHASE, p_local, meas_flip))
        keepers.append(_stored_rows(phase_steps[-1][1]))
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
    path = [(StepKind.BIT, s[0], k[0]) for s, k in bit_steps]
    path += [(StepKind.PHASE, s[-1], k[-1]) for s, k in phase_steps]
    return _trace(base, path)


def search_schedule(rows: Sequence[ErrorParams], meas_flip: float | Sequence[float], bound: int = 15) -> list[PumpTrace]:
    """Trace of the schedule (n_b, n_p <= bound) of least pumped infidelity,
    one per row of ``rows``.

    The rows must share ``noise``; ``meas_flip`` is one readout error for
    every row or a sequence of one per row.  Ties break toward fewer total
    steps, then fewer phase steps.  Dephased raw pairs carry no bit errors,
    so their search is restricted to the one-level (n_b = 0) row.

    Schedule (n_b, n_p) is (n_b, n_p - 1) plus one phase step, and the
    bit-purified pair of n_b is that of n_b - 1 plus one bit step, so one
    ``_two_level_rows`` call of ``bound`` steps per level steps every
    schedule of up to ``SEARCH_SLICE`` adjacent rows that share ``p_local``
    and ``meas_flip`` (a sweep's F values at one p_L).
    """
    if not isinstance(bound, int) or bound < 0:
        raise ValidationError(f"bound must be a nonnegative integer, got {bound!r}")
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
            bit_steps, phase_steps, keepers = _two_level_rows(
                np.array([b.as_tuple() for b in bases]), n_b_max, bound, *rates
            )

            # Least infidelity; ties go to fewer total steps, then fewer phase steps.
            pops = np.array(keepers)  # [n_p, n_b*n + i]: schedule (n_b, n_p) of row i
            errors = ((pops[..., 1] + pops[..., 2]) + pops[..., 3]).reshape(bound + 1, n_b_max + 1, n)
            p_steps, b_steps = np.indices(errors.shape[:2])
            rank = ((p_steps + b_steps) * (bound + 1) + p_steps)[..., None]  # unique per schedule
            rank = np.where(errors == errors.min(axis=(0, 1)), rank, rank.max() + 1)
            winners = np.unravel_index(rank.reshape(-1, n).argmin(axis=0), errors.shape[:2])

            for i, (base, n_p, n_b) in enumerate(zip(bases, *winners)):
                path = [(StepKind.BIT, s[i], k[i]) for s, k in bit_steps[:n_b]]
                path += [(StepKind.PHASE, s[n_b * n + i], k[n_b * n + i]) for s, k in phase_steps[:n_p]]
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
