"""Fuzzy majority voting over collocated homogeneous sensors.

Given one measurement per sensor for a time interval, the module
standardizes the values, builds a pairwise fuzzy membership matrix
``exp(-(x_i - x_j)^p / c)``, accumulates per-sensor scores by row sum,
extracts the top-k "optimal set", and assigns every sensor an accuracy
weight ``exp(-|x_i - y|)``, where ``y`` is the Kalman-fused estimate over
the optimal set on the raw measurement scale.

Inputs are canonicalized to ascending sensor-id order so all outputs are
independent of caller ordering, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .fusion import KalmanConfig, kalman_fuse

__all__ = [
    "VotingConfig",
    "NormalizedMeasurements",
    "MembershipMatrix",
    "OptimalSet",
    "normalize",
    "membership_matrix",
    "cumulative_scores",
    "select_optimal",
    "assign_accuracy",
    "default_k",
]


@dataclass(frozen=True)
class VotingConfig:
    """Membership-function shape (p, c) and optimal-set size k.

    ``k=None`` defers to the majority threshold ``ceil(n / 2)`` at selection
    time.
    """

    p: int = 2
    c: float = 2.0
    k: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.p, int) or self.p <= 0 or self.p % 2 != 0:
            raise ValueError(f"p must be a positive even integer, got {self.p!r}")
        if not self.c > 0:
            raise ValueError(f"c must be positive, got {self.c!r}")
        if self.k is not None and self.k < 1:
            raise ValueError(f"k must be >= 1 when given, got {self.k!r}")


def default_k(n: int) -> int:
    """Majority threshold: the minimum count of near-correct sensors."""
    return math.ceil(n / 2)


@dataclass(frozen=True)
class NormalizedMeasurements:
    """Standardized measurements with the statistics that produced them.

    ``values[i]`` belongs to ``source_ids[i]``; ids ascend.
    """

    values: tuple[float, ...]
    mean: float
    stdev: float
    source_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.values) != len(self.source_ids):
            raise ValueError("values and source_ids must be parallel")


@dataclass(frozen=True)
class MembershipMatrix:
    """Symmetric pairwise membership degrees with a unit diagonal."""

    n: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        if self.entries.shape != (self.n, self.n):
            raise ValueError(f"entries must be {self.n}x{self.n}")


@dataclass(frozen=True)
class OptimalSet:
    """Top-k measurements by cumulative score, score-descending.

    Each member is ``(sensor_id, measurement, score)`` with the raw
    (un-standardized) measurement.
    """

    members: tuple[tuple[str, float, float], ...]
    k: int

    def __post_init__(self) -> None:
        if len(self.members) != self.k:
            raise ValueError("optimal set must contain exactly k members")
        scores = [m[2] for m in self.members]
        if any(a < b for a, b in zip(scores, scores[1:])):
            raise ValueError("members must be sorted by non-increasing score")

    @property
    def sensor_ids(self) -> tuple[str, ...]:
        return tuple(m[0] for m in self.members)

    @property
    def measurements(self) -> tuple[float, ...]:
        return tuple(m[1] for m in self.members)


def _canonical(measurements: Sequence[tuple[str, float]]) -> list[tuple[str, float]]:
    ordered = sorted(measurements, key=lambda sv: sv[0])
    ids = [sid for sid, _ in ordered]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate sensor ids in voting cohort")
    for sid, value in ordered:
        if not math.isfinite(value):
            raise ValueError(f"non-finite measurement for sensor {sid!r}")
    return ordered


def normalize(measurements: Sequence[tuple[str, float]]) -> NormalizedMeasurements:
    """Standardize measurements to zero mean and unit sample deviation.

    Uses the n-1 divisor.  When the deviation is zero (all values equal),
    every standardized value is defined as 0.
    """
    ordered = _canonical(measurements)
    if len(ordered) < 2:
        raise ValueError("normalization needs at least 2 measurements")
    ids = tuple(sid for sid, _ in ordered)
    raw = np.array([v for _, v in ordered], dtype=float)
    n = len(raw)
    # np.add.reduce(x) / n is x.mean() without its wrapper, bit for bit
    mean = float(np.add.reduce(raw) / n)
    # two-pass centering: the second pass removes the rounding residue the
    # first subtraction leaves when the offset dwarfs the spread
    deviations = raw - mean
    correction = float(np.add.reduce(deviations) / n)
    deviations -= correction
    stdev = math.sqrt(float(np.add.reduce(deviations**2)) / (n - 1))
    if stdev > 0:
        values = (deviations / stdev).tolist()
    else:
        values = [0.0] * n
    return NormalizedMeasurements(
        values=tuple(values),
        mean=mean + correction,
        stdev=stdev,
        source_ids=ids,
    )


def membership_matrix(norm: NormalizedMeasurements, cfg: VotingConfig | None = None) -> MembershipMatrix:
    """Pairwise fuzzy membership ``exp(-(x_i - x_j)^p / c)``.

    Each unordered pair is evaluated once, so symmetry is exact; the
    diagonal is exactly 1.
    """
    cfg = cfg or VotingConfig()
    p, c = cfg.p, cfg.c
    x = [float(v) for v in norm.values]
    n = len(x)
    rows = [[1.0] * n for _ in range(n)]
    for i in range(n):
        x_i, row_i = x[i], rows[i]
        for j in range(i + 1, n):
            # float ** int calls libm pow; numpy's array ** squares exactly
            # instead, which moves the last bit of some entries
            try:
                u = math.exp(-((x_i - x[j]) ** p) / c)
            except OverflowError:
                u = 0.0  # the power exceeds the float range: exp(-inf)
            row_i[j] = u
            rows[j][i] = u
    return MembershipMatrix(n=n, entries=np.array(rows, dtype=float).reshape(n, n))


def cumulative_scores(matrix: MembershipMatrix) -> tuple[float, ...]:
    """Per-sensor cumulative membership: the row sums of the matrix."""
    return tuple(float(s) for s in matrix.entries.sum(axis=1))


def select_optimal(
    scores: Sequence[float],
    measurements: Sequence[tuple[str, float]],
    cfg: VotingConfig | None = None,
) -> OptimalSet:
    """Keep the k measurements with the largest cumulative scores.

    ``scores`` must be in canonical (ascending sensor-id) order, as produced
    by the normalize -> membership -> cumulative chain; ``measurements`` are
    re-sorted to the same order here.  Ties break by ascending sensor id for
    reproducible traces.
    """
    cfg = cfg or VotingConfig()
    if len(scores) != len(measurements):
        raise ValueError("scores and measurements must be parallel")
    ordered = _canonical(measurements)
    n = len(scores)
    k = cfg.k if cfg.k is not None else default_k(n)
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for cohort of {n}")
    ranked = sorted(
        zip(ordered, scores),
        key=lambda item: (-item[1], item[0][0]),
    )
    members = tuple((sid, float(value), float(score)) for (sid, value), score in ranked[:k])
    return OptimalSet(members=members, k=k)


def assign_accuracy(
    measurements: Sequence[tuple[str, float]],
    optimal: OptimalSet,
    kf_cfg: KalmanConfig | None = None,
) -> Mapping[str, float]:
    """Accuracy weight ``exp(-|x_i - y|)`` for every sensor in the interval.

    ``y`` is the Kalman-fused estimate over the optimal-set measurements on
    the raw scale (scores are interval-local, raw residuals stay comparable
    across intervals), consumed in score-descending order.  Non-selected
    sensors are scored too; ranking needs a weight for every cohort member.
    """
    if not optimal.members:
        raise ValueError("optimal set must be non-empty")
    y = kalman_fuse(optimal.measurements, kf_cfg)
    return {
        sid: math.exp(-abs(value - y))
        for sid, value in sorted(measurements, key=lambda sv: sv[0])
    }
