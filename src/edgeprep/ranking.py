"""Multi-criteria sensor ranking against a per-service utopia vector.

Each sensor is a five-attribute vector in [0, 1], and a cohort is ranked
as one ``(n, 5)`` matrix with one row per sensor id; a service declares an
ideal (utopia) vector plus attribute weights.  Sensors are ordered by a
direction-aware distance that combines a weighted Euclidean magnitude term
with a weighted cosine angular term, each rescaled by the inverse cohort
mean so neither dominates.  A conventional TOPSIS ranking over the same
attribute matrix is provided as a static baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.typing import ArrayLike

from .model import (
    ATTRIBUTE_NAMES,
    STATIC_ATTRIBUTE_NAMES,
    ConfigError,
    Direction,
    QosProfile,
    SensorSpec,
)

__all__ = [
    "SensorDistance",
    "RankingResult",
    "static_score",
    "static_profile",
    "scaling_coefficients",
    "direction_aware_distance",
    "rank_and_select",
    "topsis_select",
]


@dataclass(frozen=True)
class SensorDistance:
    """Distance record for one sensor.

    For the direction-aware ranking, ``d_m``/``d_a`` are the magnitude and
    angular components and ``d_ma`` their scaled combination.  For the
    TOPSIS baseline, ``d_m``/``d_a`` are the distances to the ideal and
    anti-ideal rows and ``d_ma`` is ``1 - closeness`` (so ascending ``d_ma``
    is descending closeness in both schemes).
    """

    sensor_id: str
    d_m: float
    d_a: float
    d_ma: float


@dataclass(frozen=True)
class RankingResult:
    """Full cohort ordering plus the selected prefix."""

    records: tuple[SensorDistance, ...]
    xi_m: float
    xi_a: float
    order: tuple[str, ...]
    selected: tuple[str, ...]

    def record_for(self, sensor_id: str) -> SensorDistance:
        for rec in self.records:
            if rec.sensor_id == sensor_id:
                return rec
        raise KeyError(sensor_id)


def static_score(raw_theta: float, direction: Direction) -> float:
    """Map a documented raw attribute value into (0, 1], 1 being ideal.

    Cost attributes decay directly: ``exp(-raw)``.  Benefit attributes are
    first inverted to the cost ``1 / (1 + raw)`` so that larger raw values
    approach the ideal.
    """
    raw = float(raw_theta)
    if not math.isfinite(raw) or raw < 0:
        raise ValueError(f"raw attribute value must be finite and >= 0, got {raw!r}")
    if direction is Direction.BENEFIT:
        raw = 1.0 / (1.0 + raw)
    return math.exp(-raw)


def static_profile(spec: SensorSpec) -> tuple[float, float, float]:
    """(resolution, response_time, range) scores for one sensor spec."""
    out = []
    for name in STATIC_ATTRIBUTE_NAMES:
        attr = spec.static_attrs.get(name)
        if attr is None:
            raise ConfigError(f"sensor {spec.sensor_id!r} lacks static attribute {name!r}")
        out.append(static_score(attr.value, attr.direction))
    return tuple(out)


def _row_distances(
    states: np.ndarray, v: np.ndarray, wt: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Euclidean and cosine components of every row of ``states`` to ``v``.

    ``d_m = sqrt(sum(w (a - v)^2))`` and ``d_a = 1 - sum(|w a| |w v|) /
    sqrt(sum((w a)^2) sum((w v)^2))``, clipped to [0, 1].  One row-wise
    pass; each row's sums are the ones the 1-D formula takes, so a
    single-row matrix and a cohort give the same bits for that row.
    """
    d_m = np.sqrt((wt * (states - v) ** 2).sum(axis=1))
    wa, wb = wt * states, wt * v
    denom = np.sqrt((wa**2).sum(axis=1) * (wb**2).sum())
    zero = denom == 0.0
    similarity = (np.abs(wa) * np.abs(wb)).sum(axis=1) / np.where(zero, 1.0, denom)
    d_a = np.minimum(np.maximum(1.0 - similarity, 0.0), 1.0)
    # a zero-norm weighted vector is maximally dissimilar
    d_a[zero] = 1.0
    return d_m, d_a


def scaling_coefficients(d_ms: Sequence[float], d_as: Sequence[float]) -> tuple[float, float]:
    """Inverse cohort means of the two components (1 for an all-zero sum)."""
    if len(d_ms) != len(d_as) or not d_ms:
        raise ValueError("component sequences must be non-empty and parallel")
    count = len(d_ms)
    sum_m = float(sum(d_ms))
    sum_a = float(sum(d_as))
    xi_m = count / sum_m if sum_m > 0 else 1.0
    xi_a = count / sum_a if sum_a > 0 else 1.0
    return xi_m, xi_a


def direction_aware_distance(d_m: float, d_a: float, xi_m: float = 1.0, xi_a: float = 1.0) -> float:
    """Combined distance ``sqrt(xi_m^2 d_m^2 + xi_a^2 d_a^2)``."""
    if min(d_m, d_a, xi_m, xi_a) < 0:
        raise ValueError("distance components and coefficients must be >= 0")
    return math.hypot(xi_m * d_m, xi_a * d_a)


def _checked_cohort(
    sensor_ids: Sequence[str], states: ArrayLike, qos: QosProfile, count: int | None
) -> tuple[np.ndarray, int]:
    """The cohort's ``(n, 5)`` state matrix and the number to select.

    ``sensor_ids`` must be strictly ascending (one row per id, in that
    order) and every state entry must lie in [0, 1].
    """
    n = len(sensor_ids)
    if n == 0:
        raise ValueError("cohort must be non-empty")
    matrix = np.asarray(states, dtype=float)
    if matrix.shape != (n, len(ATTRIBUTE_NAMES)):
        raise ValueError(
            f"states must have shape ({n}, {len(ATTRIBUTE_NAMES)}) for {n} sensor ids, "
            f"got {matrix.shape}"
        )
    if any(a >= b for a, b in zip(sensor_ids, sensor_ids[1:])):
        raise ValueError("sensor ids must be strictly ascending")
    # NaN fails both comparisons
    if not (matrix.min() >= 0.0 and matrix.max() <= 1.0):
        raise ValueError("state entries must lie in [0, 1]")
    count = qos.select_count if count is None else count
    if not 1 <= count <= n:
        raise ConfigError(f"count={count} out of range for cohort of {n}")
    return matrix, count


def _ranked(records: tuple[SensorDistance, ...], xi_m: float, xi_a: float,
            count: int) -> RankingResult:
    """Order records by ascending ``d_ma``, ties by ascending sensor id."""
    by_distance = sorted(records, key=lambda r: (r.d_ma, r.sensor_id))
    order = tuple(r.sensor_id for r in by_distance)
    return RankingResult(records=records, xi_m=xi_m, xi_a=xi_a, order=order,
                         selected=order[:count])


def rank_and_select(
    sensor_ids: Sequence[str],
    states: ArrayLike,
    qos: QosProfile,
    count: int | None = None,
) -> RankingResult:
    """Order a cohort by direction-aware distance to the service utopia.

    ``states`` is the cohort's ``(n, 5)`` attribute matrix, columns in
    :data:`ATTRIBUTE_NAMES` order, one row per id of the strictly ascending
    ``sensor_ids``.  Ties break by ascending sensor id; ``selected`` is the
    leading ``count`` ids (default: the profile's select_count).
    """
    matrix, count = _checked_cohort(sensor_ids, states, qos, count)
    # QosProfile has validated the weights and the utopia row already
    d_m, d_a = _row_distances(matrix, np.array(qos.utopia), np.array(qos.weights))
    d_ms, d_as = d_m.tolist(), d_a.tolist()
    # Python's left-to-right sum and math.hypot per sensor: np.sum and
    # np.hypot round differently in the last bit
    xi_m, xi_a = scaling_coefficients(d_ms, d_as)
    records = tuple(
        SensorDistance(
            sensor_id=sid,
            d_m=dm,
            d_a=da,
            d_ma=direction_aware_distance(dm, da, xi_m, xi_a),
        )
        for sid, dm, da in zip(sensor_ids, d_ms, d_as)
    )
    return _ranked(records, xi_m, xi_a, count)


def topsis_select(
    sensor_ids: Sequence[str],
    states: ArrayLike,
    qos: QosProfile,
    count: int | None = None,
) -> RankingResult:
    """Conventional TOPSIS ordering of the same attribute matrix.

    Takes the cohort as :func:`rank_and_select` does.  Vector
    (root-sum-square) column normalization, weighting, ideal and anti-ideal
    rows, closeness coefficient ``d- / (d+ + d-)``; the order is descending
    closeness.  All five attributes are benefit criteria here (ideal =
    column max).  The method sees only the attribute snapshot it is given;
    it has no notion of per-interval updates, which is exactly what makes it
    a static baseline.
    """
    matrix, count = _checked_cohort(sensor_ids, states, qos, count)
    w = np.array(qos.weights)

    norms = np.sqrt((matrix**2).sum(axis=0))
    normalized = np.divide(matrix, norms, out=np.zeros_like(matrix), where=norms > 0)
    weighted = normalized * w
    ideal = weighted.max(axis=0)
    anti = weighted.min(axis=0)
    d_plus = np.sqrt(((weighted - ideal) ** 2).sum(axis=1))
    d_minus = np.sqrt(((weighted - anti) ** 2).sum(axis=1))
    closeness = np.ones(len(sensor_ids))
    span = d_plus + d_minus
    np.divide(d_minus, span, out=closeness, where=span > 0)

    records = tuple(
        SensorDistance(
            sensor_id=sid,
            d_m=float(dp),
            d_a=float(dm),
            d_ma=float(1.0 - c),
        )
        for sid, dp, dm, c in zip(sensor_ids, d_plus, d_minus, closeness)
    )
    return _ranked(records, 1.0, 1.0, count)
