"""Shared domain types for the register-network planner.

Everything here is an immutable value object with constructor-time
validation; the actual physics lives in the sibling modules, and so does
the timing bundle, ``rnp.timing.PhysicalTimings``, which derives its times.
"""

from __future__ import annotations

import enum
import math
import numbers
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
    "PlanResult",
    "SUM_TOL",
    "MAX_STEPS",
    "MAX_M",
]

#: Tolerance on probability-vector normalisation (see BellDiagonalState).
SUM_TOL = 1e-12

#: Most steps of either kind a PumpSchedule holds.
MAX_STEPS = 64

#: The range of a time, or of any other positive real, for ``_check_real``.
POSITIVE = (0.0, math.inf, "()")

#: Largest majority-vote repetition count m: above it the binomial
#: coefficients of the vote error's tail exceed the float range.
MAX_M = 514


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


def _check_real(name: str, value: float, lo: float = 0.0, hi: float = 1.0, ends: str = "[]") -> float:
    """``value`` as a float between lo and hi, each end closed ("[", "]") or
    open ("(", ")"); NaN lies in no range.  Python and NumPy reals pass, and
    bool and text do not."""
    if isinstance(value, (str, bytes, bool)):  # float() would take "0.95" and True
        raise ValidationError(f"{name} must be a number, got {value!r}")
    try:
        value = float(value)
        if lo < value < hi or value == lo and ends[0] == "[" or value == hi and ends[1] == "]":
            return value
    except (TypeError, ValueError, OverflowError):
        pass  # not a real, or an int past the float range: in no range
    raise ValidationError(f"{name} must lie in {ends[0]}{lo:g}, {hi:g}{ends[1]}, got {value!r}")


def _check_int(name: str, value: int, lo: int = 0, hi: int = math.inf) -> int:
    """``value`` as an int in [lo, hi]; Python and NumPy integers pass, and
    bool, float and str do not.  A plain int skips the slow ABC check."""
    integral = type(value) is int or not isinstance(value, bool) and isinstance(value, numbers.Integral)
    if not integral or not lo <= value <= hi:
        raise ValidationError(f"{name} must be an integer in [{lo}, {hi}], got {value!r}")
    return int(value)


def _check_enum(name: str, value: enum.Enum, kind: type[enum.Enum]) -> None:
    """Reject ``value`` unless it is a member of ``kind``; its value string does not pass."""
    if not isinstance(value, kind):
        raise ValidationError(f"{name} must be a {kind.__name__}, got {value!r}")


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
        for name in ("p_local", "p_init", "p_meas", "fidelity"):
            object.__setattr__(self, name, _check_real(name, getattr(self, name)))
        if self.fidelity <= 0.5:
            raise UnpurifiableError(
                f"fidelity must exceed 0.5 for purification, got {self.fidelity!r}"
            )
        _check_enum("noise", self.noise, NoiseKind)


@dataclass(frozen=True, slots=True)
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
        cleaned, total = [], 0.0
        for name, c in zip(names, comps):
            c = float(c)
            if not math.isfinite(c):
                raise ValidationError(f"{name} must be finite, got {c!r}")
            if c < -SUM_TOL:
                raise ValidationError(f"{name} is negative: {c!r}")
            cleaned.append(max(c, 0.0))
            total += cleaned[-1]  # left to right: builtin sum() compensates from Python 3.12
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


@dataclass(frozen=True, slots=True)
class PumpSchedule:
    """Pumping control parameters: n_b bit-filter steps, n_p phase-filter steps."""

    n_b: int
    n_p: int

    def __post_init__(self) -> None:
        for name in ("n_b", "n_p"):
            object.__setattr__(self, name, _check_int(name, getattr(self, name), 0, MAX_STEPS))


@dataclass(frozen=True)
class MeasurementPlan:
    """A chosen repetition count for majority-vote readout and its figures.

    duration_s may be None when no gate/readout timings were supplied.
    """

    m: int
    error_prob: float
    duration_s: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "m", _check_int("m", self.m, 0, MAX_M))
        object.__setattr__(self, "error_prob", _check_real("error_prob", self.error_prob))
        if self.duration_s is not None:
            object.__setattr__(self, "duration_s", _check_real("duration_s", self.duration_s, *POSITIVE))


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
        for name in ("delta_min", "eps_fail", "eps_E", "gamma"):
            object.__setattr__(self, name, _check_real(name, getattr(self, name)))
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
