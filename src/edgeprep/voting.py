"""Fuzzy majority voting over collocated homogeneous sensors.

Given one measurement per sensor for a time interval, the module
standardizes the values, builds a pairwise fuzzy membership matrix
``exp(-(x_i - x_j)^p / c)``, accumulates per-sensor scores by row sum,
extracts the top-k "optimal set", and assigns every sensor an accuracy
weight ``exp(-|x_i - y|)``, where ``y`` is the Kalman-fused estimate over
the optimal set on the raw measurement scale.

:func:`normalize` is the one step that orders and validates a vote's
readings.  It puts them in ascending sensor-id order, so every output is
independent of caller ordering bit for bit, and carries the raw values in
that order; :func:`select_optimal` and :func:`assign_accuracy` take its
result instead of the readings.  The kernels run on Python floats, and
every sum is :func:`math.fsum`, the exact sum rounded once, so no result
depends on the order of the terms or on a library's summation scheme.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Mapping, NamedTuple, Sequence

from .fusion import KalmanConfig, kalman_fuse
from .model import positive_finite

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
        positive_finite("c", self.c)
        if self.k is not None and self.k < 1:
            raise ValueError(f"k must be >= 1 when given, got {self.k!r}")


def default_k(n: int) -> int:
    """Majority threshold: the minimum count of near-correct sensors."""
    return math.ceil(n / 2)


class NormalizedMeasurements(NamedTuple):
    """Standardized measurements with the statistics that produced them.

    ``values[i]`` and the raw reading ``raw[i]`` belong to
    ``source_ids[i]``; ids ascend.
    """

    values: tuple[float, ...]
    mean: float
    stdev: float
    source_ids: tuple[str, ...]
    raw: tuple[float, ...]


class MembershipMatrix(NamedTuple):
    """Symmetric pairwise membership degrees with a unit diagonal, as ``n``
    rows of ``n`` floats."""

    n: int
    rows: Sequence[Sequence[float]]


class OptimalSet(NamedTuple):
    """Top-k measurements by cumulative score, score-descending.

    Each member is ``(sensor_id, measurement, score)`` with the raw
    (un-standardized) measurement.
    """

    members: tuple[tuple[str, float, float], ...]
    k: int

    @property
    def sensor_ids(self) -> tuple[str, ...]:
        return tuple(m[0] for m in self.members)

    @property
    def measurements(self) -> tuple[float, ...]:
        return tuple(m[1] for m in self.members)


def normalize(measurements: Sequence[tuple[str, float]]) -> NormalizedMeasurements:
    """Standardize measurements to zero mean and unit sample deviation.

    Orders the ``(sensor_id, value)`` pairs by id and rejects duplicate ids
    and non-finite values.  Uses the n-1 divisor.  When the deviation is
    zero (all values equal), every standardized value is defined as 0.
    """
    ordered = sorted(measurements, key=itemgetter(0))
    n = len(ordered)
    ids = tuple(sid for sid, _ in ordered)
    raw = tuple(float(v) for _, v in ordered)
    if len(set(ids)) != n:
        raise ValueError("duplicate sensor ids in voting cohort")
    if not all(map(math.isfinite, raw)):
        sid = next(sid for sid, v in zip(ids, raw) if not math.isfinite(v))
        raise ValueError(f"non-finite measurement for sensor {sid!r}")
    if n < 2:
        raise ValueError("normalization needs at least 2 measurements")
    mean = math.fsum(raw) / n
    # two-pass centering: the second pass removes the rounding residue the
    # first subtraction leaves when the offset dwarfs the spread
    deviations = [x - mean for x in raw]
    correction = math.fsum(deviations) / n
    deviations = [d - correction for d in deviations]
    stdev = math.sqrt(math.fsum([d * d for d in deviations]) / (n - 1))
    values = tuple(d / stdev for d in deviations) if stdev > 0 else (0.0,) * n
    return NormalizedMeasurements(values, mean + correction, stdev, ids, raw)


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
    return MembershipMatrix(n, rows)


def cumulative_scores(matrix: MembershipMatrix) -> tuple[float, ...]:
    """Per-sensor cumulative membership: the row sums of the matrix, each
    the exact sum rounded once."""
    return tuple(map(math.fsum, matrix.rows))


def select_optimal(
    scores: Sequence[float],
    norm: NormalizedMeasurements,
    cfg: VotingConfig | None = None,
) -> OptimalSet:
    """Keep the k measurements with the largest cumulative scores.

    ``scores`` are parallel to ``norm.source_ids``, as the normalize ->
    membership -> cumulative chain produces them.  Ties break by ascending
    sensor id for reproducible traces.
    """
    cfg = cfg or VotingConfig()
    ids, raw = norm.source_ids, norm.raw
    n = len(scores)
    if n != len(ids):
        raise ValueError("scores and measurements must be parallel")
    k = cfg.k if cfg.k is not None else default_k(n)
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for cohort of {n}")
    # ids ascend, and a stable sort keeps equal scores in index order
    top = sorted(range(n), key=scores.__getitem__, reverse=True)[:k]
    return OptimalSet(tuple((ids[i], raw[i], scores[i]) for i in top), k)


def assign_accuracy(
    norm: NormalizedMeasurements,
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
    return {sid: math.exp(-abs(value - y)) for sid, value in zip(norm.source_ids, norm.raw)}
