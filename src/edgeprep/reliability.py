"""Consistency-based sensor reliability scoring.

A sensor earns credit each time its measurement lands in the voted optimal
set.  Per interval ``]t1, t2]`` the consistency rate is ``lam = q / n``
(clamped to 1 when q >= n) for q correct appearances out of n expected
samples, and the reliability weight is the Poisson probability

    P = (lam * t)^n / n! * exp(-lam * t)

evaluated in log space so large n cannot overflow.  A cumulative variant
integrates the piecewise-constant rate history over a longer horizon.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "ReliabilityState",
    "compute_lambda",
    "record_observation",
    "interval_reliability",
    "poisson_weight",
    "cumulative_reliability",
    "close_interval",
]


def compute_lambda(q: int, n_expected: int) -> float:
    """Consistency rate: q/n while q < n, else 1."""
    if n_expected < 1:
        raise ValueError("n_expected must be >= 1")
    if q < 0:
        raise ValueError("q must be >= 0")
    if q >= n_expected:
        return 1.0
    return q / n_expected


def poisson_weight(mean: float, n: int) -> float:
    """``mean^n / n! * exp(-mean)`` via log-gamma; exact 0 at mean == 0."""
    if mean < 0:
        raise ValueError("mean must be >= 0")
    if n < 1:
        raise ValueError("n must be >= 1")
    if mean == 0.0:
        return 0.0
    log_p = n * math.log(mean) - math.lgamma(n + 1) - mean
    return math.exp(log_p)


def interval_reliability(q: int, n_expected: int, t: float) -> float:
    """Reliability weight for one interval of length ``t`` (seconds)."""
    if t <= 0:
        raise ValueError(f"interval length must be positive, got {t}")
    lam = compute_lambda(q, n_expected)
    return poisson_weight(lam * t, n_expected)


def cumulative_reliability(
    lambda_history: Sequence[tuple[int, int, float]],
    n_expected: int,
    t0_ms: int,
    t_end_ms: int,
    seconds_per_unit: float = 1.0,
) -> float:
    """Reliability over ``]t0, T]`` from a piecewise-constant rate history.

    ``lambda_history`` holds ``(start_ms, end_ms, lam)`` pieces.  The rate
    integral is the exact sum of ``lam * length`` over the pieces clipped to
    the horizon; spans not covered by any piece contribute rate 0 (absence
    of evidence is treated pessimistically).  Durations are measured in
    units of ``seconds_per_unit`` (default: plain seconds); passing the
    expected sampling interval keeps the weight scale tied to the expected
    sample count.
    """
    if t_end_ms <= t0_ms:
        raise ValueError("horizon must satisfy T > t0")
    if seconds_per_unit <= 0:
        raise ValueError("seconds_per_unit must be positive")
    if not lambda_history:
        warnings.warn("empty rate history; cumulative reliability defaults to 0",
                      stacklevel=2)
        return 0.0
    integral = 0.0
    for start_ms, end_ms, lam in lambda_history:
        if end_ms <= start_ms:
            raise ValueError(f"malformed history interval ]{start_ms}, {end_ms}]")
        lo = max(start_ms, t0_ms)
        hi = min(end_ms, t_end_ms)
        if hi > lo:
            integral += lam * ((hi - lo) / 1000.0 / seconds_per_unit)
    return poisson_weight(integral, n_expected)


@dataclass(frozen=True)
class ReliabilityState:
    """Per-sensor consistency tracker (one open interval at a time).

    ``lambda_history`` collects closed intervals as ``(start_ms, end_ms,
    lam)``; ``beta`` is the latest interval weight and ``beta_cumulative``
    the weight over the whole recorded history.  ``rate_integral`` is the
    running sum of ``lam * length`` over ``lambda_history``, lengths in
    units of the ``seconds_per_unit`` passed to :func:`close_interval`, and
    added piece by piece in history order; it is the Poisson mean behind
    ``beta_cumulative``.  It equals what :func:`cumulative_reliability`
    integrates only while every close of one state uses the same
    ``seconds_per_unit``.
    """

    sensor_id: str
    n_expected: int
    interval_start_ms: int = 0
    q: int = 0
    lambda_history: tuple[tuple[int, int, float], ...] = ()
    beta: float = 1.0
    beta_cumulative: float = 1.0
    rate_integral: float = 0.0

    def __post_init__(self) -> None:
        if self.n_expected < 1:
            raise ValueError("n_expected must be >= 1")
        if self.q < 0:
            raise ValueError("q must be >= 0")


def record_observation(state: ReliabilityState, in_optimal: bool) -> ReliabilityState:
    """Count one expected sample: credit q only for optimal-set appearances.

    Missing or non-optimal samples leave q unchanged and are charged
    implicitly when the interval closes against ``n_expected``.
    """
    if not in_optimal:
        return state
    # every field spelled out, here and in close_interval: on this per-vote
    # path dataclasses.replace costs about twice the constructor
    return ReliabilityState(
        sensor_id=state.sensor_id,
        n_expected=state.n_expected,
        interval_start_ms=state.interval_start_ms,
        q=state.q + 1,
        lambda_history=state.lambda_history,
        beta=state.beta,
        beta_cumulative=state.beta_cumulative,
        rate_integral=state.rate_integral,
    )


def close_interval(
    state: ReliabilityState, t_end_ms: int, seconds_per_unit: float = 1.0
) -> ReliabilityState:
    """Close ``]interval_start, t_end]``: fix lam, refresh both weights.

    Returns a new state with q reset and the next interval opened at
    ``t_end``.  ``seconds_per_unit`` sets the time unit of the Poisson
    mean; passing the expected sampling interval makes a fully consistent
    sensor land exactly on the distribution mode, keeping the weight
    monotone in q for any cadence.

    The cumulative weight comes from the running ``rate_integral``, so a
    close costs the same however long the history is.  Precondition:
    ``seconds_per_unit`` is fixed for a state's lifetime (the pipeline
    passes each sensor's constant granularity).  Under it,
    ``beta_cumulative`` is bit for bit ``cumulative_reliability(
    lambda_history, n_expected, lambda_history[0][0], t_end_ms,
    seconds_per_unit)``, whose loop adds the same terms in the same order.
    """
    if t_end_ms <= state.interval_start_ms:
        raise ValueError("interval end must follow its start")
    if seconds_per_unit <= 0:
        raise ValueError("seconds_per_unit must be positive")
    length = (t_end_ms - state.interval_start_ms) / 1000.0 / seconds_per_unit
    lam = compute_lambda(state.q, state.n_expected)
    rate_integral = state.rate_integral + lam * length
    return ReliabilityState(
        sensor_id=state.sensor_id,
        n_expected=state.n_expected,
        interval_start_ms=t_end_ms,
        q=0,
        lambda_history=state.lambda_history + ((state.interval_start_ms, t_end_ms, lam),),
        beta=interval_reliability(state.q, state.n_expected, length),
        beta_cumulative=poisson_weight(rate_integral, state.n_expected),
        rate_integral=rate_integral,
    )
