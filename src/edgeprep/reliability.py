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
from typing import Sequence

from .model import positive_finite

__all__ = [
    "ReliabilityState",
    "compute_lambda",
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


class ReliabilityState:
    """Per-sensor consistency tracker (one open interval at a time).

    ``q`` counts the open interval's optimal-set appearances; the caller
    increments it.  ``lambda_history`` collects closed intervals as
    ``(start_ms, end_ms, lam)``; ``beta`` is the latest interval weight and
    ``beta_cumulative`` the weight over the whole recorded history.
    ``rate_integral`` is the running sum of ``lam * length`` over
    ``lambda_history``, lengths in units of ``seconds_per_unit`` seconds,
    added piece by piece in history order; it is the Poisson mean behind
    ``beta_cumulative``.  Passing the expected sampling interval as the unit
    makes a fully consistent sensor land exactly on the distribution mode,
    keeping the weight monotone in q for any cadence.  ``n_expected`` and
    ``seconds_per_unit`` are read-only.
    """

    __slots__ = ("_n_expected", "_seconds_per_unit", "q",
                 "lambda_history", "beta", "beta_cumulative", "rate_integral")

    def __init__(self, n_expected: int, seconds_per_unit: float = 1.0):
        if n_expected < 1:
            raise ValueError("n_expected must be >= 1")
        positive_finite("seconds_per_unit", seconds_per_unit)
        self._n_expected = n_expected
        self._seconds_per_unit = seconds_per_unit
        self.q = 0
        self.lambda_history: list[tuple[int, int, float]] = []
        self.beta = 1.0
        self.beta_cumulative = 1.0
        self.rate_integral = 0.0

    # fixed at construction, so every close measures lengths in one unit
    @property
    def n_expected(self) -> int:
        return self._n_expected

    @property
    def seconds_per_unit(self) -> float:
        return self._seconds_per_unit


def close_interval(states: Sequence[ReliabilityState], start_ms: int, end_ms: int) -> None:
    """Close ``]start_ms, end_ms]`` for every state in place: fix lam, set
    ``beta`` to ``interval_reliability(q, n_expected, length)`` bit for bit,
    refresh ``beta_cumulative`` and reset q.

    A non-forward interval, a state listed twice or a negative ``q`` fails
    the call before any state changes.  The history grows by one append and
    the cumulative weight comes from the running ``rate_integral``, so a
    close costs the same however long the history is.  While only this
    function changes both, ``beta_cumulative`` is bit for bit
    ``cumulative_reliability(lambda_history, n_expected,
    lambda_history[0][0], end_ms, seconds_per_unit)``.
    """
    if end_ms <= start_ms:
        raise ValueError("interval end must follow its start")
    if len(set(states)) != len(states):
        raise ValueError("a state is listed twice in one close")
    lams = [compute_lambda(state.q, state._n_expected) for state in states]
    seconds = (end_ms - start_ms) / 1000.0
    for state, lam in zip(states, lams):
        length = seconds / state._seconds_per_unit
        state.beta = poisson_weight(lam * length, state._n_expected)
        state.rate_integral += lam * length
        state.lambda_history.append((start_ms, end_ms, lam))
        state.beta_cumulative = poisson_weight(state.rate_integral, state._n_expected)
        state.q = 0
