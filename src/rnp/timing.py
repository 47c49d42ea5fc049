"""Optical timing model: readout, initialization and pair-generation times."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .model import ValidationError, _check_number, _check_positive

__all__ = ["PhysicalTimings", "memory_check", "MemoryCheck"]

#: t_C / t_mem above this raises the "too slow for the memory" warning flag.
DEFAULT_MEMORY_RATIO = 0.01


@dataclass(frozen=True)
class PhysicalTimings:
    """Hardware timing bundle; the optical and pair times derive from the inputs.

    p_meas  -- single-shot readout error of the communication qubit
    eta     -- photon collection/detection efficiency
    tau     -- vacuum radiative lifetime of the emitter [s]
    purcell_c -- cavity Purcell factor (>= 1), shortens emission to tau/C
    t_local -- local two-qubit gate time [s]
    t_mem   -- optional storage-qubit memory time [s]
    t_init, t_meas -- optical initialization / readout time, one value:
        photons are scattered until the misidentification probability drops
        to p_meas, ln(p_meas)/ln(1-eta) rounds of duration tau/C each
    t_ent   -- mean time to herald one raw pair: each attempt costs an
        initialization plus an emission (tau/C), and both photons must be
        detected, hence the eta^-2 repetition factor
    """

    p_meas: float
    eta: float
    tau: float
    purcell_c: float
    t_local: float
    t_mem: float | None = None
    t_init: float = field(init=False)
    t_meas: float = field(init=False)
    t_ent: float = field(init=False)

    def __post_init__(self) -> None:
        for name in ("p_meas", "eta", "tau", "purcell_c", "t_local", "t_mem"):
            if getattr(self, name) is not None:  # t_mem alone may be None
                object.__setattr__(self, name, _check_number(name, getattr(self, name)))
        p_meas, eta, tau, purcell_c = self.p_meas, self.eta, self.tau, self.purcell_c
        if not (0.0 < eta < 1.0):
            raise ValidationError(f"eta must lie strictly inside (0, 1), got {eta!r}")
        if not (0.0 < p_meas < 1.0):
            raise ValidationError(f"p_meas must lie strictly inside (0, 1), got {p_meas!r}")
        if not (math.isfinite(purcell_c) and purcell_c >= 1.0):
            raise ValidationError(f"purcell_c must be >= 1, got {purcell_c!r}")
        _check_positive("tau", tau)
        log_miss = math.log(1.0 - eta)
        if log_miss == 0.0:
            raise ValidationError(f"eta must exceed 2**-54, where 1 - eta rounds to 1, got {eta!r}")
        t = _check_positive("t_init", math.log(p_meas) / log_miss * tau / purcell_c)
        _check_positive("t_local", self.t_local)
        object.__setattr__(self, "t_init", t)
        object.__setattr__(self, "t_meas", t)
        object.__setattr__(self, "t_ent", _check_positive("t_ent", (t + tau / purcell_c) / (eta * eta)))
        if self.t_mem is not None:
            _check_positive("t_mem", self.t_mem)


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
