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
trials are processed, and each step generates just the draws it can use.
Its per-state tables (``_step_tables``) transcribe the chain's state
layout on their own rather than reading ``markov.build_chain``'s
transitions: that way Monte-Carlo checks the chain instead of repeating it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .model import BellDiagonalState, RestartMode, StepKind, ValidationError
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
    if not isinstance(kind, StepKind):
        raise ValidationError(f"kind must be a StepKind, got {kind!r}")
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
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials!r}")
    if budget < 0:
        raise ValidationError(f"budget must be >= 0, got {budget!r}")
    bit_succ = np.array(
        [s.success_prob for s in trace.steps if s.kind is StepKind.BIT], dtype=np.float64
    )
    phase_succ = np.array(
        [s.success_prob for s in trace.steps if s.kind is StepKind.PHASE], dtype=np.float64
    )
    if len(bit_succ) != trace.schedule.n_b or len(phase_succ) != trace.schedule.n_p:
        raise ValidationError("trace steps do not match its schedule")

    consumed = mc_consumed_pairs(
        bit_succ,
        phase_succ,
        restart_mode is RestartMode.FULL,
        int(trials),
        int(seed) & 0xFFFFFFFFFFFFFFFF,
    )
    consumed = np.asarray(consumed, dtype=np.float64)
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
