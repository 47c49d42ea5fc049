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

With the fresh pair fixed, a step is linear in the keeper's populations:
a 4x4 nonnegative map (``_operators``; Duer & Briegel, Rep. Prog. Phys.
70, 1381 (2007), write pumping this way).  Every trace here, of
``pump_step``, ``run_two_level``, ``run_standard`` and ``search_schedule``,
applies one such map per step (``_pump``), built from the step's own fresh
pair, so the search ranks exactly the numbers its traces print.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .model import (
    MAX_STEPS,
    BellDiagonalState,
    ErrorParams,
    NoiseKind,
    PumpSchedule,
    StepKind,
    ValidationError,
    _check_enum,
    _check_int,
    _check_real,
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

#: Raw pairs a schedule search steps at once, whatever their rates.  Its
#: arrays (every schedule's keeper and every phase step's accepted keeper)
#: peak at ~24 KB per raw pair at bound 15 and ~410 KB at bound 64, so more
#: rows are searched slice by slice.
SEARCH_SLICE = 64


def _cnot_gather(kind: StepKind) -> np.ndarray:
    """Old flag index of each new one: the CNOT's flag map, its own inverse."""
    x1, z1, x2, z2 = (np.arange(16) >> shift & 1 for shift in (3, 2, 1, 0))
    if kind is StepKind.BIT:
        return 8 * x1 + 4 * (z1 ^ z2) + 2 * (x2 ^ x1) + z2
    return 8 * (x1 ^ x2) + 4 * z1 + 2 * x2 + (z2 ^ z1)


_GATHER = {kind: _cnot_gather(kind) for kind in StepKind}

# Fresh Bell index of the old joint flag index (4*keeper + fresh) that each
# new index gathers, as [i', j'] for new index 4*i' + j'.
_FRESH_OF = {kind: (_GATHER[kind] & 3).reshape(4, 4) for kind in StepKind}

# Measured parity bit per joint flag index: x2 for bit steps, z2 for phase.
_PARITY = {StepKind.BIT: np.arange(16) >> 1 & 1, StepKind.PHASE: np.arange(16) & 1}

# [i, i', j']: whether new index 4*i' + j' gathers keeper index i.
_KEEPER_HOT = {kind: (_GATHER[kind] >> 2).reshape(4, 4) == np.arange(4)[:, None, None] for kind in StepKind}


def _left_sum(x: np.ndarray) -> np.ndarray:
    """x[0] + x[1] + x[2] + x[3] over the leading axis, left to right, as
    BellDiagonalState sums its components."""
    return ((x[0] + x[1]) + x[2]) + x[3]


def _operators(fresh: np.ndarray, kind: StepKind, p_local, meas_flip) -> np.ndarray:
    """Each fresh pair's step as a 4x4 map T: the accepted keeper weights,
    before their division by the success, are keeper @ T.

    Each compared readout flips with probability meas_flip, so the
    comparison flips with 2*eps*(1-eps), and new flag index J weighs w[J]:
    1 - that when its measured parity is 0, else that.  The 16 two-qubit
    Pauli patterns map one-to-one onto flag-flip masks; identity keeps
    1-p_local, the 15 others move p_local/15 each.  So one
    register's hit is (Hv)_J = a*v_J + c*sum(v) with a = 1 - 16*p_local/15
    and c = p_local/15, and H keeps sum(v), so both registers' hits are
    H^2 v = a^2 v + c*(1+a)*sum(v).  The step gathers keeper[i] * fresh[j]
    into new flag index J = 4*i' + j', hits it twice and weighs it by w[J],
    so T[i, i'] = sum over the J that gather keeper index i of
    a^2 w[J] fresh[j], plus c*(1+a) sum(fresh) sum_j' w[J].  Both terms are
    products of nonnegative numbers for every p_local in [0, 1]
    (a >= -1/15), and each T[i, i'] gathers two terms or none, so its sum
    has one rounding whatever the order.  Component axes lead: ``fresh`` is
    [j, ...], T [i, i', ...].  The rates are scalars or arrays that
    broadcast on fresh's trailing axes; a row's map has its scalar call's bits.
    """
    a, c = 1.0 - 16.0 * p_local / 15.0, p_local / 15.0
    comp_flip = 2.0 * meas_flip * (1.0 - meas_flip)
    trail = (1,) * (fresh.ndim - 1)
    weights = np.where(_PARITY[kind].reshape(4, 4, *trail) == 0, 1.0 - comp_flip, comp_flip)  # [i', j', ...]
    gathered = fresh.take(_FRESH_OF[kind], axis=0) * (a * a * weights)
    direct = np.add.reduce(_KEEPER_HOT[kind].reshape(4, 4, 4, *trail) * gathered, axis=2)
    return direct + (c * (1.0 + a)) * _left_sum(fresh) * _left_sum(weights.swapaxes(0, 1))


def _pump(start: np.ndarray, op: np.ndarray, steps: int):
    """``steps`` pump steps by the map ``op`` (``_operators``) from the keepers
    ``start``, as [component, ...].

    Each step's level is keeper @ op, its success the level's left-to-right
    sum, its accepted keeper the level over the success, and its stored
    keeper what BellDiagonalState keeps of that: the accepted keeper over its
    own left-to-right sum.  Returns the successes [step, ...], the accepted
    keepers [step, component, ...] and the keeper after each number of steps
    [steps + 1, component, ...].  Every sum has one fixed order and no BLAS
    call, so a row's bits do not depend on its batch.  Raises
    ValidationError if any step never succeeds.
    """
    success = np.empty((steps, *start.shape[1:]))
    accepted = np.empty((steps, *start.shape))
    stored = np.empty((steps + 1, *start.shape))
    stored[0] = start
    with np.errstate(divide="ignore", invalid="ignore"):  # checked below
        for k, (keeper, kept, after) in enumerate(zip(stored, accepted, stored[1:])):
            level = _left_sum(keeper[:, None] * op)
            success[k] = total = _left_sum(level)
            np.divide(level, total, out=kept)
            np.divide(kept, _left_sum(kept), out=after)
    if (success <= 0.0).any():
        raise ValidationError("pump step has zero acceptance probability")
    return success, accepted, stored


@dataclass(frozen=True, slots=True)
class StepRecord:
    """One accepted pumping step along the deterministic trace."""

    kind: StepKind
    state_before: BellDiagonalState
    success_prob: float
    state_after_success: BellDiagonalState

    def __post_init__(self) -> None:
        object.__setattr__(self, "success_prob", _check_real("success_prob", self.success_prob, 0.0, 1.0, "(]"))


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
    """Trace from keeper ``state`` along (kind, success, accepted keeper)
    results of ``_pump``; its schedule counts the path's bit and phase steps."""
    steps: list[StepRecord] = []
    for kind, success, accepted in path:
        after = BellDiagonalState.from_vector(accepted)
        steps.append(StepRecord(kind, state, min(float(success), 1.0), after))
        state = after
    n_p = sum(s.kind is StepKind.PHASE for s in steps)
    return PumpTrace(PumpSchedule(len(steps) - n_p, n_p), tuple(steps), state, state.infidelity)


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
    rates = _check_real("p_local", p_local), _check_real("meas_flip", meas_flip)
    _check_enum("kind", kind, StepKind)
    success, accepted, _ = _pump(np.array(target.as_tuple()), _operators(np.array(fresh.as_tuple()), kind, *rates), 1)
    return _trace(target, [(kind, success[0], accepted[0])]).steps[0]


def _two_level(bases: list[BellDiagonalState], p_local, meas_flip, n_b: int, n_p: int):
    """Every schedule up to (n_b, n_p) of the raw pairs ``bases``, whose
    rates are scalars or one per pair (``_operators``).

    Schedule (n_b, n_p) is (n_b, n_p - 1) plus one phase step, and the
    bit-purified pair of n_b is that of n_b - 1 plus one bit step.  So n_b
    bit steps on the raw pairs, then n_p phase steps on every bit level at
    once, each level its own fresh pair, step the whole grid: n_b + n_p map
    applications.  Returns the keepers, [n_p, component, n_b, row], and
    ``trace(row, n_b, n_p)``, the PumpTrace of one schedule of one row.
    """
    raw = np.array([b.as_tuple() for b in bases]).T
    bit_success, bit_kept, bit_levels = _pump(raw, _operators(raw, StepKind.BIT, p_local, meas_flip), n_b)
    purified = np.moveaxis(bit_levels, 0, 1)  # [component, bit level, row]
    phase_success, phase_kept, keepers = _pump(purified, _operators(purified, StepKind.PHASE, p_local, meas_flip), n_p)

    def trace(row: int, n_b: int, n_p: int) -> PumpTrace:
        path = [(StepKind.BIT, bit_success[j, row], bit_kept[j, :, row]) for j in range(n_b)]
        path += [(StepKind.PHASE, phase_success[k, n_b, row], phase_kept[k, :, n_b, row]) for k in range(n_p)]
        return _trace(bases[row], path)

    return keepers, trace


def run_two_level(schedule: PumpSchedule, params: ErrorParams, meas_flip: float) -> PumpTrace:
    """Deterministic trace of two-level pumping.

    Level one filters bit errors: a raw keeper is pumped n_b times with raw
    fresh pairs.  Level two filters phase errors: the bit-purified pair is
    the keeper and also the fresh input of each of the n_p phase steps.
    This is the search's own pass on one raw pair, read at (n_b, n_p), so
    the search's winners are these traces by construction.
    """
    meas_flip = _check_real("meas_flip", meas_flip)
    _, trace = _two_level([raw_pair(params)], params.p_local, meas_flip, schedule.n_b, schedule.n_p)
    return trace(0, schedule.n_b, schedule.n_p)


def search_schedule(rows: Sequence[ErrorParams], meas_flip: float | Sequence[float], bound: int = 15) -> list[PumpTrace]:
    """Trace of the schedule (n_b, n_p <= bound) of least pumped infidelity,
    one per row of ``rows``.

    The rows must share ``noise``; ``meas_flip`` is one readout error for
    every row or a sequence of one per row; ``bound`` is an integer in
    [0, MAX_STEPS].  Ties break toward fewer total steps, then fewer phase
    steps.  Dephased raw pairs carry no bit errors, so their search is
    restricted to the one-level (n_b = 0) row.

    Each ``SEARCH_SLICE`` rows, whatever their p_local and meas_flip, are
    one two-level pass (``_two_level``), so the search ranks exactly the
    infidelities its traces print.
    """
    bound = _check_int("bound", bound, 0, MAX_STEPS)
    rows = list(rows)
    shape = np.shape(meas_flip)
    if shape not in ((), (len(rows),)):
        raise ValidationError(f"meas_flip needs one value or {len(rows)}, one per row; got shape {shape}")
    flips = np.broadcast_to([_check_real("meas_flip", flip) for flip in (meas_flip if shape else [meas_flip])], len(rows))
    if any(p.noise is not rows[0].noise for p in rows):
        raise ValidationError("search rows must share the noise model")
    n_b_max = 0 if rows and rows[0].noise is NoiseKind.DEPHASING else bound
    traces: list[PumpTrace] = []
    for lo in range(0, len(rows), SEARCH_SLICE):
        part = rows[lo : lo + SEARCH_SLICE]
        rates = np.array([p.p_local for p in part]), flips[lo : lo + SEARCH_SLICE]
        keepers, trace = _two_level([raw_pair(p) for p in part], *rates, n_b_max, bound)
        # Least infidelity; ties go to fewer total steps, then fewer phase steps.
        errors = (keepers[:, 1] + keepers[:, 2]) + keepers[:, 3]  # [n_p, n_b, row]
        p_steps, b_steps = np.indices(errors.shape[:2])
        rank = ((p_steps + b_steps) * (bound + 1) + p_steps)[..., None]  # unique per schedule
        rank = np.where(errors == errors.min(axis=(0, 1)), rank, rank.max() + 1)
        winners = np.unravel_index(rank.reshape(-1, len(part)).argmin(axis=0), errors.shape[:2])
        traces += [trace(row, n_b, n_p) for row, (n_p, n_b) in enumerate(zip(*winners))]
    return traces


#: Longest alternating run: its trace's schedule counts the bit and the phase
#: steps, and a PumpSchedule holds at most MAX_STEPS of each.
MAX_STANDARD_STEPS = 2 * MAX_STEPS


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
    total_steps = _check_int("total_steps", total_steps, 0, MAX_STANDARD_STEPS)
    meas_flip = _check_real("meas_flip", meas_flip)
    base = raw_pair(params)
    keeper = np.array(base.as_tuple())
    ops = {kind: _operators(keeper, kind, params.p_local, meas_flip) for kind in StepKind}
    path = []
    for i in range(total_steps):
        kind = StepKind.BIT if i % 2 == 0 else StepKind.PHASE
        success, accepted, stored = _pump(keeper, ops[kind], 1)
        path.append((kind, success[0], accepted[0]))
        keeper = stored[1]
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
    meas_term = (4.0 + 2.0 * (n_b + n_p)) / 3.0 * one_minus_f * _check_real("meas_flip", meas_flip)
    bit_residual = (n_p + 1) * (2.0 * one_minus_f / 3.0) ** (n_b + 1)
    phase_residual = ((n_b + 1) * one_minus_f / 3.0) ** (n_p + 1)
    return gate_term + meas_term + bit_residual + phase_residual
