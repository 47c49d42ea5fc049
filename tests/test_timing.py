import dataclasses
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rnp import PhysicalTimings, ValidationError, memory_check

# The predecessor of PhysicalTimings' derivation, kept as a reference: two
# formula helpers, a forwarding builder, the bundle it filled in, and the
# positive-time check the bundle called.


def _check_positive(name: str, value: float) -> float:
    if isinstance(value, (str, bytes, bool)):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise ValidationError(f"{name} must be positive and finite, got {value!r}")
    return value


def reference_optical_times(p_meas: float, eta: float, tau: float, purcell_c: float) -> tuple[float, float]:
    """Optical initialization and readout times (equal by construction).

    Reading the communication qubit means scattering photons until the
    misidentification probability drops to p_meas; with per-attempt
    collection efficiency eta that takes ln(p_meas)/ln(1-eta) scattering
    rounds of duration tau/C each.
    """
    if not (0.0 < eta < 1.0):
        raise ValidationError(f"eta must lie strictly inside (0, 1), got {eta!r}")
    if not (0.0 < p_meas < 1.0):
        raise ValidationError(f"p_meas must lie strictly inside (0, 1), got {p_meas!r}")
    if not (math.isfinite(purcell_c) and purcell_c >= 1.0):
        raise ValidationError(f"purcell_c must be >= 1, got {purcell_c!r}")
    if not (math.isfinite(tau) and tau > 0.0):
        raise ValidationError(f"tau must be positive, got {tau!r}")
    log_miss = math.log(1.0 - eta)
    if log_miss == 0.0:
        raise ValidationError(f"eta must exceed 2**-54, where 1 - eta rounds to 1, got {eta!r}")
    t = math.log(p_meas) / log_miss * tau / purcell_c
    return (t, t)


def reference_entanglement_time(t_init: float, tau: float, purcell_c: float, eta: float) -> float:
    """Mean time to herald one raw pair via two-photon coincidence.

    Each attempt costs an initialization plus an emission (tau/C); both
    photons must be detected, hence the eta^-2 repetition factor.
    """
    if not (0.0 < eta < 1.0):
        raise ValidationError(f"eta must lie strictly inside (0, 1), got {eta!r}")
    if not (math.isfinite(t_init) and t_init > 0.0):
        raise ValidationError(f"t_init must be positive and finite, got {t_init!r}")
    return (t_init + tau / purcell_c) / (eta * eta)


@dataclass(frozen=True)
class ReferenceTimings:
    """Hardware timing bundle.

    t_local -- local two-qubit gate time [s]
    tau     -- vacuum radiative lifetime of the emitter [s]
    eta     -- photon collection/detection efficiency
    purcell_c -- cavity Purcell factor (>= 1), shortens emission to tau/C
    t_init, t_meas -- optical initialization / readout times (equal by
        construction, both set by the same photon-scattering formula)
    t_ent   -- mean time to herald one raw entangled pair
    t_mem   -- optional storage-qubit memory time [s]
    """

    t_local: float
    tau: float
    eta: float
    purcell_c: float
    t_init: float
    t_meas: float
    t_ent: float
    t_mem: float | None = None

    def __post_init__(self) -> None:
        _check_positive("t_local", self.t_local)
        _check_positive("tau", self.tau)
        eta = float(self.eta)
        if not (0.0 < eta < 1.0):
            raise ValidationError(f"eta must lie strictly inside (0, 1), got {eta!r}")
        c = float(self.purcell_c)
        if not math.isfinite(c) or c < 1.0:
            raise ValidationError(f"purcell_c must be >= 1, got {c!r}")
        _check_positive("t_init", self.t_init)
        _check_positive("t_meas", self.t_meas)
        if abs(self.t_init - self.t_meas) > 1e-15 * max(self.t_init, self.t_meas):
            raise ValidationError("t_init and t_meas must be equal (same optical process)")
        _check_positive("t_ent", self.t_ent)
        if self.t_mem is not None:
            _check_positive("t_mem", self.t_mem)


def reference_build_timings(
    p_meas: float,
    eta: float,
    tau: float,
    purcell_c: float,
    t_local: float,
    t_mem: float | None = None,
) -> ReferenceTimings:
    """Assemble the full timing bundle from hardware primitives."""
    t_init, t_meas = reference_optical_times(p_meas, eta, tau, purcell_c)
    t_ent = reference_entanglement_time(t_init, tau, purcell_c, eta)
    return ReferenceTimings(
        t_local=t_local,
        tau=tau,
        eta=eta,
        purcell_c=purcell_c,
        t_init=t_init,
        t_meas=t_meas,
        t_ent=t_ent,
        t_mem=t_mem,
    )


#: The headline hardware point: 13.4 ns optical time, 360 ns pair time.
HEADLINE = dict(p_meas=0.05, eta=0.2, tau=10e-9, purcell_c=10.0, t_local=0.1e-6)


def timings(**inputs):
    return PhysicalTimings(**{**HEADLINE, **inputs})


class TestOpticalTimes:
    def test_headline_value(self):
        # ln(0.05)/ln(0.8) * (10 ns / 10) = 13.4 ns.
        t = timings()
        assert t.t_init == t.t_meas
        assert t.t_init == pytest.approx(math.log(0.05) / math.log(0.8) * 1e-9, rel=1e-12)
        assert t.t_init == pytest.approx(13.4e-9, rel=0.01)

    def test_monotone_decreasing_in_eta(self):
        times = [timings(eta=eta).t_init for eta in (0.1, 0.3, 0.6, 0.9, 0.999)]
        assert all(a > b for a, b in zip(times, times[1:]))
        assert times[-1] < 1e-9  # the perfect-detection limit heads to zero

    def test_purcell_scaling(self):
        t1 = timings(purcell_c=10.0).t_init
        t2 = timings(purcell_c=20.0).t_init
        assert t2 == pytest.approx(t1 / 2, rel=1e-12)

    @pytest.mark.parametrize("eta", [0.0, 1.0])
    def test_rejects_degenerate_efficiency(self, eta):
        with pytest.raises(ValidationError):
            timings(eta=eta)

    def test_rejects_efficiency_where_one_minus_eta_rounds_to_one(self):
        # 1 - 2**-54 is a tie that rounds to 1.0; anything above it does not.
        with pytest.raises(ValidationError, match="eta must exceed 2"):
            timings(eta=2.0**-54)
        t = timings(eta=2.0**-53).t_init
        assert math.isfinite(t) and t > 0.0

    def test_rejects_degenerate_p_meas(self):
        with pytest.raises(ValidationError):
            timings(p_meas=1.0)


class TestEntanglementTime:
    def test_headline_value(self):
        t = timings()
        assert t.t_ent == pytest.approx((t.t_init + 1e-9) / 0.04, rel=1e-12)
        assert t.t_ent == pytest.approx(360e-9, rel=0.01)

    def test_perfect_detection_limit(self):
        # As eta -> 1 a pair costs one attempt: an initialization plus an emission.
        t = timings(eta=0.999999)
        assert t.t_ent * 0.999999**2 == pytest.approx(t.t_init + 1e-9, rel=1e-12)
        assert t.t_ent == pytest.approx(t.t_init + 1e-9, rel=1e-5)

    def test_inverse_square_efficiency_scaling(self):
        # Per attempt cost t_init + tau/C, repeated eta^-2 times on average.
        a = timings(eta=0.4)
        b = timings(eta=0.1)
        assert a.t_ent * 0.4**2 == pytest.approx(a.t_init + 1e-9, rel=1e-12)
        assert b.t_ent * 0.1**2 == pytest.approx(b.t_init + 1e-9, rel=1e-12)
        ratio = (b.t_ent / (b.t_init + 1e-9)) / (a.t_ent / (a.t_init + 1e-9))
        assert ratio == pytest.approx(16, rel=1e-12)


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


class TestPhysicalTimings:
    def test_bundle(self):
        t = timings(t_mem=10.0)
        assert t.t_init == t.t_meas
        assert t.t_ent > t.t_init  # eta < 1 forces a repetition penalty
        assert t.t_mem == 10.0

    def test_takes_exactly_the_hardware_inputs(self):
        params = [f.name for f in dataclasses.fields(PhysicalTimings) if f.init]
        assert params == ["p_meas", "eta", "tau", "purcell_c", "t_local", "t_mem"]

    @pytest.mark.parametrize("derived", ["t_init", "t_meas", "t_ent"])
    def test_derived_times_cannot_be_passed(self, derived):
        with pytest.raises(TypeError):
            timings(**{derived: 1e-9})

    @settings(max_examples=500, deadline=None)
    @given(
        p_meas=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        eta=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        tau=st.floats(1e-12, 1e-3),
        purcell_c=st.floats(1.0, 1e3),
    )
    def test_matches_reference(self, p_meas, eta, tau, purcell_c):
        inputs = dict(p_meas=p_meas, eta=eta, tau=tau, purcell_c=purcell_c)
        try:
            ref = reference_build_timings(**{**HEADLINE, **inputs})
        except ValidationError:
            with pytest.raises(ValidationError):
                timings(**inputs)
            return
        t = timings(**inputs)
        assert (t.t_init, t.t_meas, t.t_ent) == (ref.t_init, ref.t_meas, ref.t_ent)

    @pytest.mark.parametrize(
        "inputs,message",
        [
            (dict(purcell_c=0.5), "purcell_c must lie in [1, inf), got 0.5"),
            (dict(purcell_c=math.inf), "purcell_c must lie in [1, inf), got inf"),
            (dict(tau=1e308), "t_init must lie in (0, inf), got inf"),  # t_init overflows
            (dict(tau=1e307), "t_ent must lie in (0, inf), got inf"),  # t_ent overflows
            (dict(eta=1e-17), "eta must exceed 2**-54, where 1 - eta rounds to 1, got 1e-17"),
            (dict(eta=1.0), "eta must lie in (0, 1), got 1.0"),
            (dict(eta=0.0), "eta must lie in (0, 1), got 0.0"),
            (dict(eta=math.nan), "eta must lie in (0, 1), got nan"),
            (dict(p_meas=0.0), "p_meas must lie in (0, 1), got 0.0"),
            (dict(p_meas=1.0), "p_meas must lie in (0, 1), got 1.0"),
            # t_init underflows to 0
            (dict(purcell_c=1e308, tau=1e-300), "t_init must lie in (0, inf), got 0.0"),
            # eta is checked first
            (dict(eta=0.0, p_meas=1.0, purcell_c=0.5), "eta must lie in (0, 1), got 0.0"),
            (dict(p_meas=1.0, purcell_c=0.5, tau=-1.0), "p_meas must lie in (0, 1), got 1.0"),
            # t_init before t_local
            (dict(tau=1e308, t_local=-1.0), "t_init must lie in (0, inf), got inf"),
            # t_local before t_ent
            (dict(t_local=-1.0, tau=1e307), "t_local must lie in (0, inf), got -1.0"),
            (dict(t_local=math.inf), "t_local must lie in (0, inf), got inf"),
            (dict(t_mem=0.0), "t_mem must lie in (0, inf), got 0.0"),
        ],
    )
    def test_rejects_what_the_reference_rejects_with_its_message(self, inputs, message):
        # The messages are model._check_real's; the reference rejects the
        # same inputs and names the same input first.
        with pytest.raises(ValidationError) as ref:
            reference_build_timings(**{**HEADLINE, **inputs})
        with pytest.raises(ValidationError) as new:
            timings(**inputs)
        assert str(new.value) == message
        assert str(new.value).split()[0] == str(ref.value).split()[0]

    @pytest.mark.parametrize("field", ["p_meas", "eta", "tau", "purcell_c", "t_local", "t_mem"])
    @pytest.mark.parametrize("bad", ["0.5", True, False])
    def test_rejects_text_and_bools(self, field, bad):
        # float() would take both; the fields must hold checked numbers.
        with pytest.raises(ValidationError, match=f"^{field} must be a number, got {bad!r}$"):
            timings(**{field: bad})

    def test_stores_the_checked_floats(self):
        t = timings(p_meas=np.float32(0.5), eta=np.float64(0.2), tau=1, purcell_c=np.int64(10), t_local=1, t_mem=2)
        fields = (t.p_meas, t.eta, t.tau, t.purcell_c, t.t_local, t.t_mem)
        assert [type(v) for v in fields] == [float] * 6
        assert fields == (0.5, 0.2, 1.0, 10.0, 1.0, 2.0)
        assert timings().t_mem is None

    @pytest.mark.parametrize("tau", [0.0, -1e-9, math.inf, math.nan])
    def test_bad_tau_message_names_finiteness(self, tau):
        # A bad tau is reported like every other time input, with its open
        # range, so inf and nan are outside it too.
        with pytest.raises(ValidationError, match=rf"^tau must lie in \(0, inf\), got {tau!r}$"):
            timings(tau=tau)
