import math

import pytest

from rnp import ValidationError, entanglement_time, memory_check, optical_times
from rnp.timing import build_timings


class TestOpticalTimes:
    def test_headline_value(self):
        # ln(0.05)/ln(0.8) * (10 ns / 10) = 13.4 ns.
        t_i, t_m = optical_times(p_meas=0.05, eta=0.2, tau=10e-9, purcell_c=10.0)
        assert t_i == t_m
        assert t_i == pytest.approx(math.log(0.05) / math.log(0.8) * 1e-9, rel=1e-12)
        assert t_i == pytest.approx(13.4e-9, rel=0.01)

    def test_monotone_decreasing_in_eta(self):
        times = [optical_times(0.05, eta, 10e-9, 10.0)[0] for eta in (0.1, 0.3, 0.6, 0.9, 0.999)]
        assert all(a > b for a, b in zip(times, times[1:]))
        assert times[-1] < 1e-9  # the perfect-detection limit heads to zero

    def test_purcell_scaling(self):
        t1, _ = optical_times(0.05, 0.2, 10e-9, 10.0)
        t2, _ = optical_times(0.05, 0.2, 10e-9, 20.0)
        assert t2 == pytest.approx(t1 / 2, rel=1e-12)

    @pytest.mark.parametrize("eta", [0.0, 1.0])
    def test_rejects_degenerate_efficiency(self, eta):
        with pytest.raises(ValidationError):
            optical_times(0.05, eta, 10e-9, 10.0)

    def test_rejects_efficiency_where_one_minus_eta_rounds_to_one(self):
        # 1 - 2**-54 is a tie that rounds to 1.0; anything above it does not.
        with pytest.raises(ValidationError, match="eta must exceed 2"):
            optical_times(0.05, 2.0**-54, 10e-9, 10.0)
        t, _ = optical_times(0.05, 2.0**-53, 10e-9, 10.0)
        assert math.isfinite(t) and t > 0.0

    def test_rejects_degenerate_p_meas(self):
        with pytest.raises(ValidationError):
            optical_times(1.0, 0.2, 10e-9, 10.0)


class TestEntanglementTime:
    def test_headline_value(self):
        t_i, _ = optical_times(0.05, 0.2, 10e-9, 10.0)
        t_e = entanglement_time(t_i, 10e-9, 10.0, 0.2)
        assert t_e == pytest.approx((t_i + 1e-9) / 0.04, rel=1e-12)
        assert t_e == pytest.approx(360e-9, rel=0.01)

    def test_perfect_detection_limit(self):
        t_e = entanglement_time(10e-9, 10e-9, 10.0, 0.999999)
        assert t_e == pytest.approx(10e-9 + 1e-9, rel=1e-3)

    def test_inverse_square_efficiency_scaling(self):
        a = entanglement_time(10e-9, 10e-9, 10.0, 0.4)
        b = entanglement_time(10e-9, 10e-9, 10.0, 0.1)
        assert b == pytest.approx(16 * a, rel=1e-12)


class TestMemoryCheck:
    def test_trapped_ion_headroom(self):
        check = memory_check(997e-6, 10.0)
        assert check.ratio == pytest.approx(1e-4, rel=0.01)
        assert not check.warning

    def test_nuclear_spin_headroom(self):
        check = memory_check(140e-6, 1.0)
        assert check.ratio == pytest.approx(1.4e-4, rel=0.01)
        assert not check.warning

    def test_equal_times_warn(self):
        check = memory_check(1.0, 1.0)
        assert check.ratio == 1.0
        assert check.warning


def test_build_timings_bundle():
    t = build_timings(p_meas=0.05, eta=0.2, tau=10e-9, purcell_c=10.0, t_local=0.1e-6, t_mem=10.0)
    assert t.t_init == t.t_meas
    assert t.t_ent > t.t_init  # eta < 1 forces a repetition penalty
    assert t.t_mem == 10.0
