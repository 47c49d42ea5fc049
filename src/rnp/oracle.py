"""Independent verification engines.

Two deliberately separate routes to the same physics:

* a dense 16-dimensional density-matrix simulation of the two-pair
  purification circuits (exact unitaries, Kraus channels, projective
  comparison), used to pin down the Bell-diagonal step maps; and
* a seeded Monte-Carlo trial simulator of the stochastic pumping process,
  used to cross-check the absorbing-chain planner.

The density-matrix route never touches the flag-space algebra in
pumping.py; agreement to 1e-10 is asserted by the verification suite.

The Monte-Carlo walk draws counter-based Philox4x32-10 uniforms keyed by
(seed, trial, draw), so its results do not depend on the order in which
trials are processed.  It steps from draw to draw rather than from raw
pair to raw pair, so each step is one draw index shared by every
tracked trial, and under an eighth of its draws go to finished trials.  Its
per-event tables (``_event_tables``) transcribe the pumping process on
their own rather than reading ``markov.build_chain``'s transitions: that
way Monte-Carlo checks the chain instead of repeating it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import BellDiagonalState, RestartMode, StepKind, ValidationError, _check_enum, _check_int, _check_real
from .pumping import PumpTrace

__all__ = [
    "DensityMatrix",
    "simulate_pump_step",
    "MonteCarloResult",
    "monte_carlo_pumping",
]

_EPS_HERMITIAN = 1e-12
_EPS_TRACE = 1e-12
_EPS_PSD = -1e-10
_EPS_OFFDIAG = 1e-10

_PAULIS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

_CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)

# Bell basis on one pair, ordered (Phi+, Phi-, Psi+, Psi-) to match
# BellDiagonalState.
_SQ2 = 1.0 / np.sqrt(2.0)
_BELL = np.array(
    [
        [_SQ2, 0.0, 0.0, _SQ2],
        [_SQ2, 0.0, 0.0, -_SQ2],
        [0.0, _SQ2, _SQ2, 0.0],
        [0.0, _SQ2, -_SQ2, 0.0],
    ],
    dtype=complex,
)


@dataclass(frozen=True)
class DensityMatrix:
    """Dense density matrix with construction-time sanity checks."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        rho = np.asarray(self.entries, dtype=complex)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1] or rho.shape[0] not in (4, 16):
            raise ValidationError(f"density matrix must be 4x4 or 16x16, got {rho.shape}")
        if np.max(np.abs(rho - rho.conj().T)) > _EPS_HERMITIAN:
            raise ValidationError("density matrix is not Hermitian")
        if abs(np.trace(rho).real - 1.0) > _EPS_TRACE or abs(np.trace(rho).imag) > _EPS_TRACE:
            raise ValidationError("density matrix trace differs from 1")
        if np.min(np.linalg.eigvalsh(rho)) < _EPS_PSD:
            raise ValidationError("density matrix has a significantly negative eigenvalue")
        object.__setattr__(self, "entries", rho)


def _embed(op: np.ndarray, qubits: tuple[int, ...], n: int = 4) -> np.ndarray:
    """Lift an operator on the given qubits to the full n-qubit space."""
    k = len(qubits)
    rest = [q for q in range(n) if q not in qubits]
    full = np.kron(op, np.eye(2 ** (n - k), dtype=complex))
    order = list(qubits) + rest
    axes = np.argsort(order)
    t = full.reshape((2,) * (2 * n))
    t = t.transpose(tuple(axes) + tuple(a + n for a in axes))
    return t.reshape(2**n, 2**n)


@functools.lru_cache(maxsize=None)
def _cnot_op(control: int, target: int) -> np.ndarray:
    return _embed(_CNOT, (control, target))


@functools.lru_cache(maxsize=None)
def _depolarizing_terms(qubit_a: int, qubit_b: int) -> tuple[np.ndarray, ...]:
    """The 15 non-identity two-qubit Pauli conjugators on the given qubits."""
    ops = []
    for pa in "IXYZ":
        for pb in "IXYZ":
            if pa == pb == "I":
                continue
            ops.append(_embed(np.kron(_PAULIS[pa], _PAULIS[pb]), (qubit_a, qubit_b)))
    return tuple(ops)


def _apply_depolarizing(rho: np.ndarray, qubits: tuple[int, int], weight: float) -> np.ndarray:
    if weight == 0.0:
        return rho
    out = (1.0 - weight) * rho
    share = weight / 15.0
    for op in _depolarizing_terms(*qubits):
        out += share * (op @ rho @ op.conj().T)
    return out


@functools.lru_cache(maxsize=None)
def _comparison_projectors(kind: StepKind) -> tuple[tuple[np.ndarray, int], ...]:
    """Projectors on the measured pair (qubits 2, 3) with their parity.

    Z basis for bit steps, X basis for phase steps; parity is the XOR of
    the two outcomes, which is what the registers compare.
    """
    if kind is StepKind.BIT:
        basis = [np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)]
    else:
        basis = [
            np.array([_SQ2, _SQ2], dtype=complex),
            np.array([_SQ2, -_SQ2], dtype=complex),
        ]
    out = []
    for a in (0, 1):
        for b in (0, 1):
            ket = np.kron(basis[a], basis[b])
            proj = _embed(np.outer(ket, ket.conj()), (2, 3))
            out.append((proj, a ^ b))
    return tuple(out)


def _pair_density(state: BellDiagonalState) -> np.ndarray:
    probs = np.array(state.as_tuple())
    return (_BELL.T.conj() * probs) @ _BELL  # sum_i p_i |bell_i><bell_i|


def _trace_out_measured(rho: np.ndarray) -> np.ndarray:
    t = rho.reshape((2,) * 8)
    return np.einsum("abcdefcd->abef", t).reshape(4, 4)


def simulate_pump_step(
    target: BellDiagonalState,
    fresh: BellDiagonalState,
    kind: StepKind,
    p_local: float,
    meas_flip: float,
) -> tuple[float, BellDiagonalState]:
    """Full density-matrix simulation of one pumping step.

    Qubit layout: 0 and 1 hold the keeper pair (registers A and B), 2 and 3
    the fresh pair.  Register A performs CNOT on (0, 2), register B on
    (1, 3); bit steps have the keeper controlling, phase steps the fresh
    pair.  Each CNOT is followed by two-qubit depolarizing noise of weight
    ``p_local``, and the compared outcomes each flip with probability
    ``meas_flip``.

    Raises if the post-selected keeper is not Bell-diagonal, which would
    signal a circuit-convention bug.
    """
    p_local, meas_flip = _check_real("p_local", p_local), _check_real("meas_flip", meas_flip)
    _check_enum("kind", kind, StepKind)
    rho = np.kron(_pair_density(target), _pair_density(fresh))
    DensityMatrix(rho)

    if kind is StepKind.BIT:
        gates = [((0, 2), _cnot_op(0, 2)), ((1, 3), _cnot_op(1, 3))]
    else:
        gates = [((0, 2), _cnot_op(2, 0)), ((1, 3), _cnot_op(3, 1))]

    for qubits, gate in gates:
        rho = gate @ rho @ gate.conj().T
        rho = _apply_depolarizing(rho, qubits, p_local)
    DensityMatrix(rho)

    comp_flip = 2.0 * meas_flip * (1.0 - meas_flip)
    kept = np.zeros((4, 4), dtype=complex)
    success = 0.0
    for proj, parity in _comparison_projectors(kind):
        w = comp_flip if parity else 1.0 - comp_flip
        if w == 0.0:
            continue
        branch = proj @ rho @ proj
        mass = np.trace(branch).real
        if mass <= 0.0:
            continue
        success += w * mass
        kept += w * _trace_out_measured(branch)
    if success <= 0.0:
        raise ValidationError("pump step has zero acceptance probability")
    kept /= success

    in_bell = _BELL @ kept @ _BELL.conj().T
    off_diag = in_bell - np.diag(np.diag(in_bell))
    if np.max(np.abs(off_diag)) > _EPS_OFFDIAG:
        raise ValidationError(
            "post-selected keeper is not Bell-diagonal; circuit conventions are inconsistent"
        )
    probs = np.real(np.diag(in_bell))
    return float(min(success, 1.0)), BellDiagonalState.from_vector(probs)


_M0, _M1 = 0xD2511F53, 0xCD9E8D57
#: Round multipliers of counter words 2 and 0, a column for ``mul[::-1]``.
_MULT = np.array([[_M1], [_M0]], dtype=np.uint64)
_BUMP = (0x9E3779B9, 0xBB67AE85)
_MASK32 = 0xFFFFFFFF
#: Most Monte-Carlo trials and largest seed: a trial id is one 32-bit counter
#: word, and a seed the two key words.
MAX_TRIALS, MAX_SEED = 2**32, 2**64 - 1
# Array operands: NumPy takes these faster than uint64 scalars.
_SHIFT32 = np.array([32], dtype=np.uint64)
_LOW32 = np.array([0xFFFFFFFF], dtype=np.uint64)
_SHIFT11 = np.array([11], dtype=np.uint64)
_INV53 = 1.0 / 9007199254740992.0  # 2**-53

#: Elements per Philox pass; the round buffers stay cache-resident.
_CHUNK = 16384

#: Per-trial safety cap on consumed raw pairs.
HARD_CAP = 10_000_000


@functools.lru_cache(maxsize=64)
def _round_keys(seed: int) -> np.ndarray:
    """The ten round keys (k0, k1), each as a (2, 1) column; cached, so read-only."""
    key = (seed & _MASK32, (seed >> 32) & _MASK32)
    keys = np.array(
        [[[(k + i * bump) & _MASK32] for k, bump in zip(key, _BUMP)] for i in range(10)],
        dtype=np.uint64,
    )
    keys.flags.writeable = False
    return keys


def _philox_words(seed: int, trials: np.ndarray, draw: int, out: np.ndarray) -> np.ndarray:
    """Philox4x32-10 words ``(word1 << 32) | word0`` at counters (draw, trial, 0, 0), into ``out``.

    The key is the 64-bit seed's two 32-bit halves.  Counter words are 32-bit
    values in ``uint64`` lanes, so products are exact; rounds run in place on
    fixed-size chunks, on both lanes where they can.
    """
    n = trials.size
    keys = _round_keys(seed)
    (k0, k1), (k0_2, k1_2), (k0_3, k1_3) = keys[:3, :, 0].tolist()
    # Round r's key is (k0_r, k1_r).  Round 1 leaves c0 = trial ^ k0, c1 = 0 and
    # scalar c2, c3 (from p0); round 2's c2*M1 (p1) and round 3's c0*M0 (q0) too.
    p0 = _M0 * draw
    p1 = _M1 * ((p0 >> 32) ^ k1)
    q0 = _M0 * ((p1 >> 32) ^ k0_2)
    key4 = keys[3] ^ np.array([[0], [q0 & _MASK32]], dtype=np.uint64)
    width = min(n, _CHUNK)
    buffers = [np.empty((2, width), dtype=np.uint64) for _ in range(3)]
    for lo in range(0, n, _CHUNK):
        m = min(n - lo, _CHUNK)
        mul, mix, prod = (buf[:, :m] for buf in buffers)
        (c0, c2), (c1, c3), (m1c2, m0c0) = mul, mix, prod
        swapped = mul[::-1]
        # Round 2, per trial: (trial ^ k0) * M0 gives c2 and c3.
        np.bitwise_xor(trials[lo : lo + m], k0, out=m0c0)
        np.multiply(m0c0, _MULT[1], out=m0c0)
        np.right_shift(m0c0, _SHIFT32, out=c2)
        np.bitwise_xor(c2, (p0 & _MASK32) ^ k1_2, out=c2)
        np.bitwise_and(m0c0, _LOW32, out=c3)
        # Round 3, per trial: c2 * M1 gives c0 and c1; q0 gives c2.
        np.multiply(c2, _MULT[0], out=m1c2)
        np.right_shift(m1c2, _SHIFT32, out=c0)
        np.bitwise_xor(c0, (p1 & _MASK32) ^ k0_3, out=c0)
        np.bitwise_and(m1c2, _LOW32, out=c1)
        np.bitwise_xor(c3, (q0 >> 32) ^ k1_3, out=c2)
        for r, key in enumerate((key4, *keys[4:8]), start=4):
            np.multiply(swapped, _MULT, out=prod)
            np.right_shift(prod, _SHIFT32, out=mul)
            if r == 4:  # round 3's c3, lo(q0), is in key4
                np.bitwise_xor(c0, c1, out=c0)
            else:
                np.bitwise_xor(mul, mix, out=mul)
            np.bitwise_xor(mul, key, out=mul)
            if r == 8:  # round 9 never reads round 8's c1
                np.bitwise_and(m0c0, _LOW32, out=c3)
            else:
                np.bitwise_and(prod, _LOW32, out=mix)
        # Round 9, c1 and c2 only: all that round 10 reads.
        np.multiply(swapped, _MULT, out=prod)
        np.right_shift(m0c0, _SHIFT32, out=c2)
        np.bitwise_xor(c2, c3, out=c2)
        np.bitwise_xor(c2, keys[8, 1], out=c2)
        np.bitwise_and(m1c2, _LOW32, out=c1)
        # Round 10, words 0 and 1: c2*M1 gives (c2*M1 << 32) | (c2*M1 >> 32 ^ c1 ^ k0).
        word = out[lo : lo + m]
        np.multiply(c2, _MULT[0], out=m1c2)
        np.right_shift(m1c2, _SHIFT32, out=c0)
        np.bitwise_xor(c0, c1, out=c0)
        np.bitwise_xor(c0, keys[9, 0], out=c0)
        np.left_shift(m1c2, _SHIFT32, out=word)
        np.bitwise_or(word, c0, out=word)
    return out


def philox_uniforms(seed: int, trial_ids: np.ndarray, draw: int) -> np.ndarray:
    """Philox4x32-10 uniforms in [0, 1), one per trial id at one draw id: the words' top 53 bits."""
    draw = _check_int("draw", draw, 0, _MASK32)
    seed = _check_int("seed", seed, 0, MAX_SEED)
    trials = np.asarray(trial_ids).reshape(-1)
    if trials.size and not (trials.dtype.kind in "iu" and 0 <= trials.min() and trials.max() <= _MASK32):
        raise ValidationError(f"trial ids must be integers in [0, {_MASK32}]")
    words = _philox_words(seed, trials.astype(np.uint32, copy=False), draw, np.empty(trials.size, dtype=np.uint64))
    return np.right_shift(words, _SHIFT11, out=words) * _INV53


def _gates(threshold: np.ndarray) -> np.ndarray:
    """Gates on the word w: (w >> 11) * 2**-53 >= t iff w > gate, for t in (0, 1]; t = 0 gets 0."""
    return np.array([max((math.ceil(t * 2.0**53) << 11) - 1, 0) for t in threshold.tolist()], dtype=np.uint64)


def _event_tables(
    bit_succ: np.ndarray, phase_succ: np.ndarray, full_restart: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Per-state lookup tables of the Monte-Carlo walk.

    States are draw events: state b*(n_b+1) + j is bit draw j+1 of build b
    for j < n_b, and the phase comparison of build b >= 1 for j == n_b; the
    last state is the finished one.  Returns, per state: the draw's success
    threshold, the next state on success and on failure, and the raw pairs
    spent to enter the state; then the first draw's state, which is also
    where a full restart returns.  A build's first bit draw costs its base
    raw and its own, a later one its own raw, and a comparison nothing,
    since it reads a second uniform on the build's last raw.  With n_b = 0
    a comparison costs its build's single raw, plus the keeper's raw when
    a full restart re-enters build 1.
    """
    n_b = len(bit_succ)
    n_p = len(phase_succ)
    width = n_b + 1
    finished = (n_p + 1) * width
    start = 0 if n_b else 1
    threshold = np.zeros(finished + 1)
    on_success = np.full(finished + 1, finished, dtype=np.intp)
    on_failure = np.full(finished + 1, finished, dtype=np.intp)
    cost = np.zeros(finished + 1, dtype=np.int64)
    for b in range(n_p + 1):
        first = b * width
        advance = first + width if b < n_p else finished
        for j in range(width):
            s = first + j
            on_failure[s] = start if full_restart else first
            if j < n_b:
                threshold[s] = bit_succ[j]
                cost[s] = 2 if j == 0 else 1
                on_success[s] = s + 1 if j + 1 < n_b or b >= 1 else advance
            elif b >= 1:
                threshold[s] = phase_succ[b - 1]
                cost[s] = 0 if n_b else 2 if full_restart and b == 1 else 1
                on_success[s] = advance
    return threshold, on_success, on_failure, cost, start


def mc_consumed_pairs(
    bit_succ: np.ndarray,
    phase_succ: np.ndarray,
    full_restart: bool,
    trials: int,
    seed: int,
) -> np.ndarray:
    """Raw pairs consumed by each trial of the pumping process.

    Each trial walks the draw events of ``_event_tables``: every loop
    iteration makes one draw for every tracked trial, moves it to the
    event's success or failure successor (failures restart according to
    ``full_restart``) and adds the raw pairs spent to enter that state to
    the trial's count.  Every trial spends two raw pairs before its first
    draw (schedule (0, 0) draws nothing and spends one).

    Draw k of a trial is always the Philox uniform (seed, trial, k), and at
    iteration k every tracked trial has made exactly k draws, so one call
    with the shared draw id k makes a step's draws; a draw fails iff its
    word passes the state's gate.  The finished state (threshold 0) is
    absorbing and free, so finished trials stay tracked until they are an
    eighth of them: their draws change nothing, and are under 1/7 of those used.
    """
    threshold, on_success, on_failure, cost, start = _event_tables(
        np.asarray(bit_succ, dtype=np.float64),
        np.asarray(phase_succ, dtype=np.float64),
        full_restart,
    )
    finished = len(cost) - 1
    # States are held doubled, so state + failed indexes the successor table.
    successor = 2 * np.stack((on_success, on_failure), axis=1).reshape(-1)
    gate, cost = np.repeat(_gates(threshold), 2), np.repeat(cost, 2)
    consumed = np.full(trials, 2 if start < finished else 1, dtype=np.int64)
    # Per-trial state of the n trials tracked, and per-draw buffers.
    n = trials if start < finished else 0
    ids = np.arange(n, dtype=np.uint32)
    state = np.full(n, 2 * start, dtype=np.intp)
    pairs = consumed[:n].copy()
    words, gathered, flags = np.empty(n, np.uint64), np.empty(n, np.uint64), np.empty(n, bool)
    draw = 0

    while n:
        # Entering the finished state costs nothing, so a trial's count
        # before its last draw is already its total.  Counts start at 2 and
        # grow by at most 2 a draw, so none passes the cap before 2 + 2*draw
        # does; each grows at least every second draw, bounding the loop.
        if 2 + 2 * draw > HARD_CAP and pairs.max() > HARD_CAP:
            raise RuntimeError("Monte-Carlo per-trial raw-pair cap exceeded")
        _philox_words(seed, ids, draw, words)
        draw += 1
        np.greater(words, gate.take(state, out=gathered, mode="clip"), out=flags)
        np.add(state, flags, out=state)
        successor.take(state, out=state, mode="clip")
        np.add(pairs, cost.take(state, out=gathered.view(np.int64), mode="clip"), out=pairs)
        np.not_equal(state, 2 * finished, out=flags)
        k = np.count_nonzero(flags)
        if 8 * (n - k) >= n:
            consumed[ids] = pairs
            for a in (ids, state, pairs):
                a[:k] = a[flags]
            n = k
            ids, state, pairs, words, gathered, flags = (
                a[:n] for a in (ids, state, pairs, words, gathered, flags)
            )
    return consumed


@dataclass(frozen=True)
class MonteCarloResult:
    """Trial statistics of the stochastic pumping process.

    ``fail_fraction`` estimates the probability that one robust generation
    needs more than ``budget`` raw pairs; ``mean_pairs`` the unconditional
    mean consumption (trials run to absorption).
    """

    fail_fraction: float
    mean_pairs: float
    fail_std_err: float
    pairs_std_err: float
    trials: int
    seed: int
    budget: int


def monte_carlo_pumping(
    trace: PumpTrace,
    restart_mode: RestartMode,
    budget: int,
    trials: int,
    seed: int,
) -> MonteCarloResult:
    """Simulate raw-pair consumption trial by trial.

    Uses Philox4x32-10 counter-based streams keyed by (seed, trial, draw),
    so results are bit-reproducible and independent of execution order.
    Each trial runs to absorption; the budget only classifies it
    as failed (consumed > budget).
    """
    _check_enum("restart_mode", restart_mode, RestartMode)
    budget = _check_int("budget", budget)
    trials = _check_int("trials", trials, 1, MAX_TRIALS)
    seed = _check_int("seed", seed, 0, MAX_SEED)
    bit_succ = np.array(
        [s.success_prob for s in trace.steps if s.kind is StepKind.BIT], dtype=np.float64
    )
    phase_succ = np.array(
        [s.success_prob for s in trace.steps if s.kind is StepKind.PHASE], dtype=np.float64
    )

    full = restart_mode is RestartMode.FULL
    consumed = mc_consumed_pairs(bit_succ, phase_succ, full, trials, seed).astype(np.float64)
    fails = consumed > budget
    fail_fraction = float(np.mean(fails))
    mean_pairs = float(np.mean(consumed))
    fail_std_err = float(np.sqrt(fail_fraction * (1.0 - fail_fraction) / trials))
    pairs_std_err = float(np.std(consumed, ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    return MonteCarloResult(
        fail_fraction=fail_fraction,
        mean_pairs=mean_pairs,
        fail_std_err=fail_std_err,
        pairs_std_err=pairs_std_err,
        trials=trials,
        seed=seed,
        budget=budget,
    )
