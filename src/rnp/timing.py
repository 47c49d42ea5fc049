"""Optical timing model: readout, initialization and pair-generation times."""

from __future__ import annotations

import math
from typing import NamedTuple

from .model import PhysicalTimings, ValidationError

__all__ = ["optical_times", "entanglement_time", "memory_check", "MemoryCheck", "build_timings"]

#: t_C / t_mem above this raises the "too slow for the memory" warning flag.
DEFAULT_MEMORY_RATIO = 0.01


def optical_times(p_meas: float, eta: float, tau: float, purcell_c: float) -> tuple[float, float]:
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


def entanglement_time(t_init: float, tau: float, purcell_c: float, eta: float) -> float:
    """Mean time to herald one raw pair via two-photon coincidence.

    Each attempt costs an initialization plus an emission (tau/C); both
    photons must be detected, hence the eta^-2 repetition factor.
    """
    if not (0.0 < eta < 1.0):
        raise ValidationError(f"eta must lie strictly inside (0, 1), got {eta!r}")
    if not (math.isfinite(t_init) and t_init > 0.0):
        raise ValidationError(f"t_init must be positive and finite, got {t_init!r}")
    return (t_init + tau / purcell_c) / (eta * eta)


class MemoryCheck(NamedTuple):
    ratio: float
    warning: bool


def memory_check(t_c: float, t_mem: float) -> MemoryCheck:
    """Compare a clock cycle against the storage memory time.

    Returns t_c/t_mem and a warning flag once the ratio exceeds
    ``DEFAULT_MEMORY_RATIO`` (1%, i.e. two decades of headroom).
    """
    if t_c <= 0.0 or t_mem <= 0.0:
        raise ValidationError("t_c and t_mem must both be positive")
    ratio = t_c / t_mem
    return MemoryCheck(ratio=ratio, warning=ratio > DEFAULT_MEMORY_RATIO)


def build_timings(
    p_meas: float,
    eta: float,
    tau: float,
    purcell_c: float,
    t_local: float,
    t_mem: float | None = None,
) -> PhysicalTimings:
    """Assemble the full timing bundle from hardware primitives."""
    t_init, t_meas = optical_times(p_meas, eta, tau, purcell_c)
    t_ent = entanglement_time(t_init, tau, purcell_c, eta)
    return PhysicalTimings(
        t_local=t_local,
        tau=tau,
        eta=eta,
        purcell_c=purcell_c,
        t_init=t_init,
        t_meas=t_meas,
        t_ent=t_ent,
        t_mem=t_mem,
    )
