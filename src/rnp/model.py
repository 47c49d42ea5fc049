"""Shared domain types for the register-network planner.

Everything here is an immutable value object with constructor-time
validation; the actual physics lives in the sibling modules.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

__all__ = [
    "ValidationError",
    "UselessLinkError",
    "UnpurifiableError",
    "BudgetCapError",
    "NoiseKind",
    "RestartMode",
    "StepKind",
    "ErrorParams",
    "BellDiagonalState",
    "PumpSchedule",
    "MeasurementPlan",
    "PhysicalTimings",
    "PlanResult",
    "SUM_TOL",
]

#: Tolerance on probability-vector normalisation (see BellDiagonalState).
SUM_TOL = 1e-12


class ValidationError(ValueError):
    """A field is out of range or not a finite number."""


class UnpurifiableError(ValidationError):
    """Raw fidelity at or below 1/2: entanglement pumping cannot improve it."""


class UselessLinkError(ValidationError):
    """The plan's effective gate error exceeds 1: the link carries no gate."""


class BudgetCapError(RuntimeError):
    """The raw-pair budget search exceeded its hard cap."""


class NoiseKind(enum.Enum):
    """Error model of the raw entangled pairs."""

    DEPOLARIZING = "depolarizing"
    DEPHASING = "dephasing"


class RestartMode(enum.Enum):
    """What a failed pumping step throws away.

    FULL: everything restarts from scratch (keeper included).
    LEVEL: only the fresh pair currently under construction is rebuilt;
    the phase-level keeper and completed phase steps are retained.
    """

    FULL = "full_restart"
    LEVEL = "level_restart"


class StepKind(enum.Enum):
    """Which error species a pumping step filters."""

    BIT = "bit"
    PHASE = "phase"


def _check_prob(name: str, value: float, lo: float = 0.0, hi: float = 1.0) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    if not (lo <= value <= hi):
        raise ValidationError(f"{name} out of range [{lo}, {hi}]: {value!r}")
    return value


def _check_positive(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise ValidationError(f"{name} must be positive and finite, got {value!r}")
    return value


@dataclass(frozen=True)
class ErrorParams:
    """The imperfection tuple driving every formula.

    p_local   -- failure probability of a local two-qubit unitary
    p_init    -- communication-qubit initialization error
    p_meas    -- single-shot readout error of the communication qubit
    fidelity  -- fidelity of a freshly generated (unpurified) entangled pair
    noise     -- error model shaping the raw pair (depolarizing or dephasing)

    A fidelity at or below 1/2 is rejected outright: no pumping schedule can
    improve such a pair, so any plan built on it is meaningless.
    """

    p_local: float
    p_init: float
    p_meas: float
    fidelity: float
    noise: NoiseKind = NoiseKind.DEPOLARIZING

    def __post_init__(self) -> None:
        _check_prob("p_local", self.p_local)
        _check_prob("p_init", self.p_init)
        _check_prob("p_meas", self.p_meas)
        _check_prob("fidelity", self.fidelity)
        if self.fidelity <= 0.5:
            raise UnpurifiableError(
                f"fidelity must exceed 0.5 for purification, got {self.fidelity!r}"
            )
        if not isinstance(self.noise, NoiseKind):
            raise ValidationError(f"noise must be a NoiseKind, got {self.noise!r}")


@dataclass(frozen=True)
class BellDiagonalState:
    """Two-qubit mixed state diagonal in the Bell basis.

    Components are the populations of (Phi+, Phi-, Psi+, Psi-) in that
    order.  Construction clamps negatives within ``SUM_TOL`` to zero and
    renormalizes, so tiny drift from iterated maps never accumulates.
    """

    p_phi_plus: float
    p_phi_minus: float
    p_psi_plus: float
    p_psi_minus: float

    def __post_init__(self) -> None:
        comps = [self.p_phi_plus, self.p_phi_minus, self.p_psi_plus, self.p_psi_minus]
        names = ["p_phi_plus", "p_phi_minus", "p_psi_plus", "p_psi_minus"]
        cleaned = []
        for name, c in zip(names, comps):
            c = float(c)
            if not math.isfinite(c):
                raise ValidationError(f"{name} must be finite, got {c!r}")
            if c < -SUM_TOL:
                raise ValidationError(f"{name} is negative: {c!r}")
            cleaned.append(max(c, 0.0))
        total = sum(cleaned)
        if abs(total - 1.0) > 1e-9:
            raise ValidationError(f"Bell components must sum to 1, got {total!r}")
        for name, c in zip(names, cleaned):
            object.__setattr__(self, name, c / total)

    @classmethod
    def from_vector(cls, vec) -> "BellDiagonalState":
        p0, p1, p2, p3 = (float(v) for v in vec)
        return cls(p0, p1, p2, p3)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.p_phi_plus, self.p_phi_minus, self.p_psi_plus, self.p_psi_minus)

    @property
    def fidelity(self) -> float:
        """Overlap with the target Bell state Phi+."""
        return self.p_phi_plus

    @property
    def infidelity(self) -> float:
        """Total error population, summed directly rather than as 1 - p_phi_plus,
        which would cancel to 0 for pairs better than ~1e-16."""
        return self.p_phi_minus + self.p_psi_plus + self.p_psi_minus

    @property
    def bit_error_mass(self) -> float:
        """Total population of the bit-flipped (Psi) components."""
        return self.p_psi_plus + self.p_psi_minus


@dataclass(frozen=True)
class PumpSchedule:
    """Pumping control parameters: n_b bit-filter steps, n_p phase-filter steps."""

    n_b: int
    n_p: int

    def __post_init__(self) -> None:
        for name, v in (("n_b", self.n_b), ("n_p", self.n_p)):
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValidationError(f"{name} must be an integer, got {v!r}")
            if v < 0:
                raise ValidationError(f"{name} must be nonnegative, got {v!r}")
            if v > 64:
                raise ValidationError(f"{name} unreasonably large ({v!r}); cap is 64")


@dataclass(frozen=True)
class MeasurementPlan:
    """A chosen repetition count for majority-vote readout and its figures.

    duration_s may be None when no gate/readout timings were supplied.
    """

    m: int
    error_prob: float
    duration_s: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.m, int) or self.m < 0:
            raise ValidationError(f"m must be a nonnegative integer, got {self.m!r}")
        _check_prob("error_prob", self.error_prob)
        if self.duration_s is not None:
            _check_positive("duration_s", self.duration_s)


@dataclass(frozen=True)
class PhysicalTimings:
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


@dataclass(frozen=True)
class PlanResult:
    """Composed planner output for one parameter point.

    Field names are part of the JSON interface; do not rename.
    ``n_tot_budget`` is the allocated raw-pair budget (failure quantile),
    ``expected_pairs`` the mean consumption; the two play different roles
    and are reported separately.
    """

    schedule: PumpSchedule
    delta_min: float
    n_tot_budget: int
    expected_pairs: float
    eps_fail: float
    eps_E: float
    t_robust_ent: float
    t_C: float
    gamma: float
    p_cnot_raw: float
    restart_mode: RestartMode = field(default=RestartMode.FULL)

    def __post_init__(self) -> None:
        _check_prob("delta_min", self.delta_min)
        _check_prob("eps_fail", self.eps_fail)
        _check_prob("eps_E", self.eps_E)
        _check_prob("gamma", self.gamma)
        if self.eps_E > 2.0 * self.delta_min + SUM_TOL:
            raise ValidationError(
                f"eps_E={self.eps_E!r} exceeds 2*delta_min={2 * self.delta_min!r}"
            )
        if self.t_C < self.t_robust_ent:
            raise ValidationError("t_C cannot be smaller than t_robust_ent")
        if self.gamma < self.eps_E:
            raise ValidationError("gamma cannot be smaller than eps_E")

    def to_dict(self) -> dict:
        """JSON mirror; key set is the wire format, do not extend."""
        return {
            "schedule": {"n_b": self.schedule.n_b, "n_p": self.schedule.n_p},
            "delta_min": self.delta_min,
            "n_tot_budget": self.n_tot_budget,
            "expected_pairs": self.expected_pairs,
            "eps_fail": self.eps_fail,
            "eps_E": self.eps_E,
            "t_robust_ent": self.t_robust_ent,
            "t_C": self.t_C,
            "gamma": self.gamma,
            "p_cnot_raw": self.p_cnot_raw,
        }
