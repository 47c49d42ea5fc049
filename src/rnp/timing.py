"""Optical timing model: readout, initialization and pair-generation times."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .model import POSITIVE, ValidationError, _check_real

__all__ = ["PhysicalTimings", "memory_check", "MemoryCheck"]

#: t_C / t_mem above this raises the "too slow for the memory" warning flag.
DEFAULT_MEMORY_RATIO = 0.01

#: Each time input's range and each derived time's, (lo, hi, ends) for
#: ``model._check_real``, in the order PhysicalTimings checks them.
RANGES = {
    "eta": (0.0, 1.0, "()"),
    "p_meas": (0.0, 1.0, "()"),
    "purcell_c": (1.0, math.inf, "[)"),
    **dict.fromkeys(("tau", "t_init", "t_local", "t_ent", "t_mem"), POSITIVE),
}


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
        def check(name: str, value: float) -> None:
            object.__setattr__(self, name, _check_real(name, value, *RANGES[name]))

        for name in ("eta", "p_meas", "purcell_c", "tau"):
            check(name, getattr(self, name))
        log_miss = math.log(1.0 - self.eta)
        if log_miss == 0.0:
            raise ValidationError(f"eta must exceed 2**-54, where 1 - eta rounds to 1, got {self.eta!r}")
        check("t_init", math.log(self.p_meas) / log_miss * self.tau / self.purcell_c)
        object.__setattr__(self, "t_meas", self.t_init)
        check("t_local", self.t_local)
        check("t_ent", (self.t_init + self.tau / self.purcell_c) / (self.eta * self.eta))
        if self.t_mem is not None:
            check("t_mem", self.t_mem)


class MemoryCheck(NamedTuple):
    ratio: float
    warning: bool


def memory_check(t_c: float, t_mem: float) -> MemoryCheck:
    """Compare a clock cycle against the storage memory time.

    Returns t_c/t_mem and a warning flag once the ratio exceeds
    ``DEFAULT_MEMORY_RATIO`` (1%, i.e. two decades of headroom).
    """
    ratio = _check_real("t_c", t_c, *POSITIVE) / _check_real("t_mem", t_mem, *POSITIVE)
    return MemoryCheck(ratio=ratio, warning=ratio > DEFAULT_MEMORY_RATIO)
