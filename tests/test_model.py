
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rnp import (
    BellDiagonalState,
    ErrorParams,
    NoiseKind,
    PumpSchedule,
    UnpurifiableError,
    ValidationError,
)


class TestErrorParams:
    def test_paper_operating_point_accepted(self):
        p = ErrorParams(p_local=1e-4, p_init=0.05, p_meas=0.05, fidelity=0.95)
        assert p.noise is NoiseKind.DEPOLARIZING

    def test_out_of_range_fidelity_names_field(self):
        with pytest.raises(ValidationError, match="fidelity"):
            ErrorParams(p_local=0.0, p_init=0.0, p_meas=0.0, fidelity=1.2)

    def test_unpurifiable_fidelity_rejected(self):
        with pytest.raises(UnpurifiableError):
            ErrorParams(p_local=0.0, p_init=0.0, p_meas=0.0, fidelity=0.4)
        with pytest.raises(UnpurifiableError):
            ErrorParams(p_local=0.0, p_init=0.0, p_meas=0.0, fidelity=0.5)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.1, 1.5])
    def test_rejects_non_probabilities(self, bad):
        with pytest.raises(ValidationError):
            ErrorParams(p_local=bad, p_init=0.0, p_meas=0.0, fidelity=0.9)

    @pytest.mark.parametrize("field", ["p_local", "p_init", "p_meas", "fidelity"])
    @pytest.mark.parametrize("bad", ["0.95", True, False])
    def test_rejects_text_and_bools(self, field, bad):
        # float() would take both; the fields must hold checked numbers.
        values = {"p_local": 1e-6, "p_init": 0.05, "p_meas": 0.05, "fidelity": 0.95, field: bad}
        with pytest.raises(ValidationError, match=f"{field} must be a number, got {bad!r}"):
            ErrorParams(**values)

    def test_stores_the_checked_floats(self):
        p = ErrorParams(p_local=np.float64(1e-6), p_init=1, p_meas=np.float32(0.5), fidelity=0.95)
        assert [type(v) for v in (p.p_local, p.p_init, p.p_meas, p.fidelity)] == [float] * 4
        assert (p.p_local, p.p_init, p.p_meas) == (1e-6, 1.0, 0.5)


class TestBellDiagonalState:
    def test_fidelity_accessor(self):
        s = BellDiagonalState(0.7, 0.1, 0.1, 0.1)
        assert s.fidelity == pytest.approx(0.7, abs=1e-12)
        assert s.infidelity == pytest.approx(0.3, abs=1e-12)
        assert s.bit_error_mass == pytest.approx(0.2, abs=1e-12)

    def test_infidelity_sums_error_populations(self):
        s = BellDiagonalState(1.0, 1e-20, 2e-20, 3e-20)
        assert s.infidelity == 1e-20 + 2e-20 + 3e-20

    def test_renormalizes_small_drift(self):
        drift = 1e-13
        s = BellDiagonalState(0.7 + drift, 0.1, 0.1, 0.1)
        assert abs(sum(s.as_tuple()) - 1.0) <= 1e-12

    def test_rejects_negative_component(self):
        with pytest.raises(ValidationError):
            BellDiagonalState(1.0, 0.1, -0.1, 0.0)

    def test_rejects_bad_sum(self):
        with pytest.raises(ValidationError):
            BellDiagonalState(0.5, 0.1, 0.1, 0.1)

    @given(
        st.lists(
            st.floats(min_value=1e-6, max_value=1.0, allow_nan=False), min_size=4, max_size=4
        )
    )
    def test_normalization_invariant(self, raw):
        total = sum(raw)
        s = BellDiagonalState.from_vector([x / total for x in raw])
        assert abs(sum(s.as_tuple()) - 1.0) <= 1e-12
        assert all(c >= 0.0 for c in s.as_tuple())


class TestPumpSchedule:
    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            PumpSchedule(n_b=-1, n_p=0)

    def test_rejects_non_integer(self):
        with pytest.raises(ValidationError):
            PumpSchedule(n_b=1.5, n_p=0)  # type: ignore[arg-type]

    @pytest.mark.parametrize("n_b", [65, True, "2"])
    def test_rejects_past_the_cap_and_non_integers(self, n_b):
        with pytest.raises(ValidationError, match=r"^n_b must be an integer in \[0, 64\], got "):
            PumpSchedule(n_b=n_b, n_p=0)

    def test_numpy_integers_are_stored_as_int(self):
        s = PumpSchedule(n_b=np.int64(3), n_p=np.uint8(2))
        assert s == PumpSchedule(3, 2) and type(s.n_b) is int and type(s.n_p) is int

    def test_accepts_search_bound_range(self):
        s = PumpSchedule(n_b=15, n_p=15)
        assert (s.n_b, s.n_p) == (15, 15)
