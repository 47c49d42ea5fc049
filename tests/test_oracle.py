import itertools

import numpy as np
import pytest

from rnp import (
    BellDiagonalState,
    ErrorParams,
    StepKind,
    ValidationError,
    pump_step,
    raw_pair,
    simulate_pump_step,
)
from rnp.oracle import DensityMatrix, _apply_depolarizing, _pair_density

PERFECT = BellDiagonalState(1.0, 0.0, 0.0, 0.0)


def params(f, p_l=0.0):
    return ErrorParams(p_local=p_l, p_init=0.05, p_meas=0.05, fidelity=f)


class TestDensityMatrix:
    def test_accepts_pair_density(self):
        rho = _pair_density(BellDiagonalState(0.7, 0.1, 0.1, 0.1))
        DensityMatrix(rho)

    def test_rejects_non_hermitian(self):
        rho = np.eye(4, dtype=complex) / 4
        rho[0, 1] = 0.1
        with pytest.raises(ValidationError):
            DensityMatrix(rho)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValidationError):
            DensityMatrix(np.eye(4, dtype=complex))

    def test_rejects_negative_eigenvalue(self):
        rho = np.diag([0.6, 0.5, -0.1, 0.0]).astype(complex)
        with pytest.raises(ValidationError):
            DensityMatrix(rho)

    def test_channel_preserves_invariants(self):
        rho = np.kron(
            _pair_density(BellDiagonalState(0.8, 0.1, 0.05, 0.05)),
            _pair_density(BellDiagonalState(0.9, 0.04, 0.03, 0.03)),
        )
        for qubits in ((0, 2), (1, 3)):
            rho = _apply_depolarizing(rho, qubits, 0.05)
            DensityMatrix(rho)  # hermitian, unit trace, PSD


class TestSimulatePumpStep:
    def test_perfect_inputs(self):
        for kind in (StepKind.BIT, StepKind.PHASE):
            succ, out = simulate_pump_step(PERFECT, PERFECT, kind, 0.0, 0.0)
            assert succ == pytest.approx(1.0, abs=1e-14)
            assert out.as_tuple() == pytest.approx((1, 0, 0, 0), abs=1e-12)

    def test_readout_error_on_perfect_inputs(self):
        # The odd-parity branch is empty but weighted: only the readout flips
        # the comparison, so success is exactly 1 - 2*eps*(1-eps).
        for kind in (StepKind.BIT, StepKind.PHASE):
            succ, out = simulate_pump_step(PERFECT, PERFECT, kind, 0.0, 1e-2)
            assert succ == pytest.approx(1.0 - 2e-2 * 0.99, abs=1e-14)
            assert out.as_tuple() == pytest.approx((1, 0, 0, 0), abs=1e-12)

    def test_bit_step_reduces_bit_errors(self):
        w = raw_pair(params(0.95))
        _, out = simulate_pump_step(w, w, StepKind.BIT, 0.0, 0.0)
        assert out.bit_error_mass < w.bit_error_mass
        assert out.bit_error_mass < 0.0333

    def test_post_selected_state_is_bell_diagonal(self):
        # exercised with noise on; the simulator raises if coherences appear
        w = raw_pair(params(0.9, p_l=1e-2))
        for kind in (StepKind.BIT, StepKind.PHASE):
            simulate_pump_step(w, w, kind, 1e-2, 1e-2)


class TestOracleEquivalence:
    """The Bell-diagonal recurrence is a transcription of the oracle."""

    GRID = list(
        itertools.product(
            [0.8, 0.9, 0.95], [0.0, 1e-3], [0.0, 1e-2], [StepKind.BIT, StepKind.PHASE]
        )
    )

    @pytest.mark.parametrize("f,p_l,eps_m,kind", GRID)
    def test_recurrence_matches_oracle(self, f, p_l, eps_m, kind):
        p = params(f, p_l)
        state = raw_pair(p)
        rec = pump_step(state, state, kind, p_l, eps_m)
        succ, out = simulate_pump_step(state, state, kind, p_l, eps_m)
        assert abs(succ - rec.success_prob) <= 1e-10
        for a, b in zip(out.as_tuple(), rec.state_after_success.as_tuple()):
            assert abs(a - b) <= 1e-10

    def test_equivalence_on_asymmetric_states(self):
        target = BellDiagonalState(0.85, 0.05, 0.06, 0.04)
        fresh = BellDiagonalState(0.7, 0.15, 0.1, 0.05)
        for kind in (StepKind.BIT, StepKind.PHASE):
            rec = pump_step(target, fresh, kind, 2e-3, 5e-3)
            succ, out = simulate_pump_step(target, fresh, kind, 2e-3, 5e-3)
            assert abs(succ - rec.success_prob) <= 1e-10
            for a, b in zip(out.as_tuple(), rec.state_after_success.as_tuple()):
                assert abs(a - b) <= 1e-10
