
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rnp import ErrorParams, ValidationError, exact_vote_error, measurement_error, measurement_time, optimal_m
from rnp import measurement, model
from rnp.model import BellDiagonalState
from rnp.timing import PhysicalTimings


def params(p_l=1e-4, p_i=0.05, p_m=0.05):
    return ErrorParams(p_local=p_l, p_init=p_i, p_meas=p_m, fidelity=0.95)


ION_TIMINGS = PhysicalTimings(p_meas=0.05, eta=0.2, tau=10e-9, purcell_c=10.0, t_local=0.1e-6)


class TestMeasurementError:
    def test_hand_computed_value_m6(self):
        # C(13, 7) = 1716, so 1716 * 0.1**7 + 6.5 * 1e-4 = 8.216e-4.
        assert measurement_error(6, params()) == pytest.approx(
            1716 * 0.1**7 + 6.5e-4, rel=1e-12
        )

    def test_error_free_inputs(self):
        assert measurement_error(0, params(p_l=0.0, p_i=0.0, p_m=0.0)) == 0.0

    def test_single_round_closed_form(self):
        p = params(p_l=2e-4, p_i=0.03, p_m=0.04)
        assert measurement_error(0, p) == pytest.approx(0.03 + 0.04 + 1e-4, rel=1e-12)

    def test_rejects_saturated_shot_error(self):
        with pytest.raises(ValidationError):
            measurement_error(3, params(p_i=0.6, p_m=0.4))

    def test_clamped_to_one(self):
        assert measurement_error(20, params(p_l=1.0)) == 1.0

    def test_eventually_increasing_unique_minimum(self):
        # The local-gate term dominates at large m for every grid point.
        for p_shot in (0.01, 0.05, 0.1):
            for p_l in (1e-6, 1e-5, 1e-4, 1e-3):
                p = params(p_l=p_l, p_i=p_shot / 2, p_m=p_shot / 2)
                errs = [measurement_error(m, p) for m in range(26)]
                m_star = errs.index(min(errs))
                assert all(errs[m + 1] >= errs[m] for m in range(m_star, 25))

    @given(
        st.floats(min_value=0.0, max_value=0.2),
        st.floats(min_value=0.0, max_value=0.2),
        st.floats(min_value=0.0, max_value=1e-3),
        st.integers(min_value=0, max_value=20),
    )
    def test_monotone_in_each_error(self, p_i, p_m, p_l, m):
        base = measurement_error(m, params(p_l=p_l, p_i=p_i, p_m=p_m))
        assert measurement_error(m, params(p_l=p_l, p_i=p_i + 0.01, p_m=p_m)) >= base
        assert measurement_error(m, params(p_l=p_l, p_i=p_i, p_m=p_m + 0.01)) >= base
        assert measurement_error(m, params(p_l=p_l + 1e-4, p_i=p_i, p_m=p_m)) >= base


class TestMeasurementTime:
    def test_thirteen_rounds(self):
        # (2*6+1) * (t_init + t_local + t_meas) with t_init = t_meas = 13.4 ns.
        t = measurement_time(6, ION_TIMINGS)
        per_round = 2 * ION_TIMINGS.t_init + ION_TIMINGS.t_local
        assert t == pytest.approx(13 * per_round, rel=1e-12)
        assert t == pytest.approx(1.65e-6, rel=0.01)

    def test_single_round(self):
        t = measurement_time(0, ION_TIMINGS)
        assert t == pytest.approx(2 * ION_TIMINGS.t_init + ION_TIMINGS.t_local, rel=1e-12)

    def test_twenty_one_rounds(self):
        assert measurement_time(10, ION_TIMINGS) == pytest.approx(2.66e-6, rel=0.01)


class TestOptimalM:
    def test_paper_point_high_gate_error(self):
        mp = optimal_m(params(p_l=1e-4), m_max=25)
        assert mp.m == 6
        assert 6.4e-4 <= mp.error_prob <= 9.6e-4

    def test_paper_point_low_gate_error(self):
        mp = optimal_m(params(p_l=1e-6), m_max=25)
        assert mp.m == 10
        assert 1.1e-5 <= mp.error_prob <= 1.5e-5

    def test_error_free_needs_no_repetition(self):
        mp = optimal_m(params(p_l=0.0, p_i=0.0, p_m=0.0))
        assert mp.m == 0
        assert mp.error_prob == 0.0

    @pytest.mark.parametrize("m_max", [measurement.MAX_M + 1, 10**4, -1, 2.0, True])
    def test_m_max_out_of_range(self, m_max):
        # Above 514 the tail's binomial coefficients overflow a float.
        with pytest.raises(ValidationError, match=r"^m_max must be an integer in \[0, 514\], got "):
            optimal_m(params(p_l=1e-6), m_max=m_max)

    def test_largest_m_has_a_finite_tail(self):
        assert 0.0 < exact_vote_error(measurement.MAX_M, params(p_l=1e-6)) < 1.0
        # One past it the tail's binomial coefficients would overflow a float.
        with pytest.raises(ValidationError, match=r"^m must be an integer in \[0, 514\], got 515$"):
            exact_vote_error(measurement.MAX_M + 1, params(p_l=1e-6))

    def test_duration_attached_with_timings(self):
        mp = optimal_m(params(p_l=1e-6), timings=ION_TIMINGS)
        assert mp.duration_s == pytest.approx(measurement_time(mp.m, ION_TIMINGS))

    def test_exact_vote_error_leading_order_agreement(self):
        # The exact tail and the leading-order form agree when (2m+1)p << 1.
        p = params(p_l=0.0, p_i=0.005, p_m=0.005)
        for m in range(4):
            assert exact_vote_error(m, p) == pytest.approx(
                measurement_error(m, p), rel=0.15
            )


def compensated_sum(iterable, start=0):
    """A correctly rounded sum, like the compensated builtin sum() of Python 3.12+."""
    return math.fsum([start, *iterable])


class TestSumsAreLeftToRight:
    # Python 3.12 made the builtin sum() of floats compensated, and the
    # package allows Python 3.10+.  Its float sums are explicit left-to-right
    # folds, so a compensated sum() must leave every bit where it was.
    @pytest.fixture
    def outputs(self):
        def compute():
            sweep_column = params(p_l=1.7782794100389227e-06)  # the default sweep's second p_L
            return (
                BellDiagonalState(0.7, 0.1, 0.1, 0.1).as_tuple(),
                [exact_vote_error(m, params()) for m in range(8)],
                optimal_m(sweep_column),
                optimal_m(params()),
            )

        return compute

    def test_compensated_builtin_sum_moves_no_bit(self, outputs, monkeypatch):
        plain = outputs()
        # Left to right, 0.7 + 0.1 + 0.1 + 0.1 is 0.9999999999999999 and each
        # component moves by an ulp when divided by it: the cases can tell.
        assert 0.7 + 0.1 + 0.1 + 0.1 != compensated_sum([0.7, 0.1, 0.1, 0.1])
        assert plain[0] == (0.7000000000000001, 0.10000000000000002, 0.10000000000000002, 0.10000000000000002)
        monkeypatch.setattr(model, "sum", compensated_sum, raising=False)
        monkeypatch.setattr(measurement, "sum", compensated_sum, raising=False)
        assert outputs() == plain
