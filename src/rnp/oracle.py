"""Independent verification engines.

Two deliberately separate routes to the same physics:

* a dense 16-dimensional density-matrix simulation of the two-pair
  purification circuits (exact unitaries, Kraus channels, projective
  comparison), used to pin down the Bell-diagonal step maps; and
* a seeded Monte-Carlo trial simulator of the stochastic pumping process,
  used to cross-check the absorbing-chain planner.

The density-matrix route never touches the flag-space algebra in
pumping.py; agreement to 1e-10 is asserted by the verification suite.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import backend
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

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


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

    consumed = backend.mc_consumed_pairs(
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
