"""Majority-vote ("robust") measurement: error, duration, optimal repetition.

A register qubit is read out indirectly: it is copied onto the communication
qubit 2m+1 times and each copy is measured optically; the majority of the
outcomes wins.  The readout commutes with the copy gate, so repetition is
legitimate (QND readout) and the voted error drops steeply with m until the
accumulated local-gate error takes over.
"""

from __future__ import annotations

import math

from .model import MAX_M, ErrorParams, MeasurementPlan, ValidationError, _check_int
from .timing import PhysicalTimings

__all__ = ["measurement_error", "exact_vote_error", "measurement_time", "optimal_m", "MAX_M"]


def _shot_error(params: ErrorParams) -> float:
    """Error of one readout shot, p_init + p_meas, which a vote needs below 1."""
    p_shot = params.p_init + params.p_meas
    if p_shot >= 1.0:
        raise ValidationError(
            f"p_init + p_meas must be below 1 for a majority vote, got {p_shot!r}"
        )
    return p_shot


def measurement_error(m: int, params: ErrorParams) -> float:
    """Voted readout error for 2m+1 repetitions.

    The vote is lost when at least m+1 of the 2m+1 single shots go wrong;
    to leading order that is C(2m+1, m+1) * (p_init + p_meas)^(m+1), plus the
    linear cost (2m+1)/2 * p_local of the copy gates.  The result is clamped
    to [0, 1] since the leading-order expression can exceed 1 for extreme
    inputs.
    """
    m = _check_int("m", m, 0, MAX_M)
    p_shot = _shot_error(params)
    # math.comb is exact arbitrary-precision; float() afterwards is safe for
    # every m up to MAX_M.
    vote = float(math.comb(2 * m + 1, m + 1)) * p_shot ** (m + 1)
    eps = vote + (2 * m + 1) / 2.0 * params.p_local
    return min(max(eps, 0.0), 1.0)


def exact_vote_error(m: int, params: ErrorParams) -> float:
    """Exact majority-vote error: the full binomial tail plus gate cost.

    Unlike the leading-order form above this keeps the (1-p)^k factors, so
    it stays accurate when (2m+1)*p is not small.  The two expressions
    agree to leading order but their minimizers over m can differ by one.
    """
    m = _check_int("m", m, 0, MAX_M)
    p_shot = _shot_error(params)
    n = 2 * m + 1
    tail = 0.0  # summed left to right: builtin sum() compensates from Python 3.12
    for k in range(m + 1, n + 1):
        tail += math.comb(n, k) * p_shot**k * (1.0 - p_shot) ** (n - k)
    eps = tail + n / 2.0 * params.p_local
    return min(max(eps, 0.0), 1.0)


def measurement_time(m: int, timings: PhysicalTimings) -> float:
    """Wall time of a voted readout: 2m+1 rounds of init + local gate + readout."""
    m = _check_int("m", m, 0, MAX_M)
    return (2 * m + 1) * (timings.t_init + timings.t_local + timings.t_meas)


def optimal_m(
    params: ErrorParams,
    m_max: int = 25,
    timings: PhysicalTimings | None = None,
) -> MeasurementPlan:
    """Pick the repetition count in [0, m_max] minimizing the voted error;
    ``m_max`` is an integer in [0, MAX_M].

    Minimizes the exact vote error (not its leading-order estimate, whose
    argmin lands one repetition high near the crossover).  Ties break
    toward smaller m (shorter readout).  When timings are given the plan
    also carries the readout duration.
    """
    m_max = _check_int("m_max", m_max, 0, MAX_M)
    best_m = 0
    best_eps = exact_vote_error(0, params)
    for m in range(1, m_max + 1):
        eps = exact_vote_error(m, params)
        if eps < best_eps:
            best_m, best_eps = m, eps
    duration = measurement_time(best_m, timings) if timings is not None else None
    return MeasurementPlan(m=best_m, error_prob=best_eps, duration_s=duration)
