"""Multi-criteria sensor ranking against a per-service utopia vector.

Each sensor is a five-attribute vector in [0, 1], and a cohort is ranked
as one ``(n, 5)`` matrix with one row per sensor id; a service declares an
ideal (utopia) vector plus attribute weights.  Sensors are ordered by a
direction-aware distance that combines a weighted Euclidean magnitude term
with a weighted cosine angular term, each rescaled by the inverse cohort
mean so neither dominates.  A conventional TOPSIS ranking over the same
attribute matrix is provided as a static baseline.

:func:`rank_and_select` checks a cohort it is given; :func:`rank_rows`,
the pipeline's kernel, ranks rows the pipeline built and validated itself,
through the same private helpers, so each formula has one home.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import NamedTuple, Sequence

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
    "rank_and_select",
    "rank_rows",
    "topsis_select",
]


class SensorDistance(NamedTuple):
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


class RankingResult(NamedTuple):
    """A cohort's records, in id order, and its ids by ascending ``d_ma``."""

    records: tuple[SensorDistance, ...]
    xi_m: float
    xi_a: float
    order: tuple[str, ...]


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


def scaling_coefficients(d_ms: Sequence[float], d_as: Sequence[float]) -> tuple[float, float]:
    """Inverse cohort means of the two components (1 for an all-zero sum)."""
    if len(d_ms) != len(d_as) or not d_ms:
        raise ValueError("component sequences must be non-empty and parallel")
    count = len(d_ms)
    # left to right: the builtin sum compensates its rounding from Python
    # 3.12 on, which would move the last bit of the coefficients
    sum_m = sum_a = 0.0
    for d_m, d_a in zip(d_ms, d_as):
        sum_m += d_m
        sum_a += d_a
    xi_m = count / sum_m if sum_m > 0 else 1.0
    xi_a = count / sum_a if sum_a > 0 else 1.0
    return xi_m, xi_a


def _checked_cohort(sensor_ids: Sequence[str], states: ArrayLike) -> list[tuple[float, ...]]:
    """The cohort's rows, as tuples of five floats.

    ``sensor_ids`` must be strictly ascending, ``states`` must hold one row
    of :data:`ATTRIBUTE_NAMES` entries per id, in that order, and every
    entry must lie in [0, 1].
    """
    n = len(sensor_ids)
    if n == 0:
        raise ValueError("cohort must be non-empty")
    width = len(ATTRIBUTE_NAMES)
    try:
        shape_ok = len(states) == n and set(map(len, states)) == {width}
    except TypeError:  # a row that is a scalar: one flat vector
        shape_ok = False
    if not shape_ok:
        raise ValueError(f"states must have shape ({n}, {width}) for {n} sensor ids")
    if not all(map(operator.lt, sensor_ids, sensor_ids[1:])):
        raise ValueError("sensor ids must be strictly ascending")
    flat = list(map(float, itertools.chain.from_iterable(states)))
    # min and max pass over a NaN that is not first in line
    if any(map(math.isnan, flat)) or not (0.0 <= min(flat) and max(flat) <= 1.0):
        raise ValueError("state entries must lie in [0, 1]")
    rows = iter(flat)
    return list(zip(*[rows] * width))


def _order(d_mas: Sequence[float]) -> list[int]:
    """Row indices by ascending ``d_ma``; the rows are in ascending id order,
    and a stable sort keeps equal distances in that order."""
    return sorted(range(len(d_mas)), key=d_mas.__getitem__)


def _ranked(sensor_ids: Sequence[str], d_ms: Sequence[float], d_as: Sequence[float],
            d_mas: Sequence[float], xi_m: float, xi_a: float) -> RankingResult:
    """Records in id order, and the ids by ascending ``d_ma``, ties by
    ascending id."""
    records = tuple(map(SensorDistance, sensor_ids, d_ms, d_as, d_mas))
    order = tuple(sensor_ids[i] for i in _order(d_mas))
    return RankingResult(records, xi_m, xi_a, order)


def _distances(rows: Sequence[Sequence[float]], qos: QosProfile
               ) -> tuple[list[float], list[float], list[float], float, float]:
    """``d_m``, ``d_a`` and ``d_ma`` of each row of five floats in [0, 1],
    and the scaling coefficients ``xi_m`` and ``xi_a``."""
    # QosProfile has validated both rows: every w, v and a is >= 0, so the
    # absolute values in d_a are the products themselves
    v0, v1, v2, v3, v4 = qos.utopia
    w0, w1, w2, w3, w4 = qos.weights
    b0, b1, b2, b3, b4 = w0 * v0, w1 * v1, w2 * v2, w3 * v3, w4 * v4
    bb = b0 * b0 + b1 * b1 + b2 * b2 + b3 * b3 + b4 * b4
    sqrt = math.sqrt
    d_ms: list[float] = []
    d_as: list[float] = []
    for a0, a1, a2, a3, a4 in rows:
        t0, t1, t2, t3, t4 = a0 - v0, a1 - v1, a2 - v2, a3 - v3, a4 - v4
        d_ms.append(sqrt(w0 * (t0 * t0) + w1 * (t1 * t1) + w2 * (t2 * t2)
                         + w3 * (t3 * t3) + w4 * (t4 * t4)))
        c0, c1, c2, c3, c4 = w0 * a0, w1 * a1, w2 * a2, w3 * a3, w4 * a4
        denom = sqrt((c0 * c0 + c1 * c1 + c2 * c2 + c3 * c3 + c4 * c4) * bb)
        if denom == 0.0:
            d_as.append(1.0)  # a zero-norm weighted vector is maximally dissimilar
            continue
        d_a = 1.0 - (c0 * b0 + c1 * b1 + c2 * b2 + c3 * b3 + c4 * b4) / denom
        d_as.append(0.0 if d_a < 0.0 else 1.0 if d_a > 1.0 else d_a)
    xi_m, xi_a = scaling_coefficients(d_ms, d_as)
    d_mas = [math.hypot(xi_m * d_m, xi_a * d_a) for d_m, d_a in zip(d_ms, d_as)]
    return d_ms, d_as, d_mas, xi_m, xi_a


def rank_and_select(
    sensor_ids: Sequence[str], states: ArrayLike, qos: QosProfile
) -> RankingResult:
    """Order a cohort by direction-aware distance to the service utopia.

    ``states`` is the cohort's ``(n, 5)`` attribute matrix, columns in
    :data:`ATTRIBUTE_NAMES` order, one row per id of the strictly ascending
    ``sensor_ids``.  Ties break by ascending sensor id; a caller selects a
    prefix of ``order``.

    Per sensor row ``a``, against utopia ``v`` with weights ``w``:
    ``d_m = sqrt(sum(w (a - v)^2))`` and ``d_a = 1 - sum(|w a| |w v|) /
    sqrt(sum((w a)^2) sum((w v)^2))``, clipped to [0, 1], and 1 when the
    root is 0.  Each sum adds its five terms left to right, as numpy sums a
    row of five, and squares are products, as numpy squares.
    """
    rows = _checked_cohort(sensor_ids, states)
    return _ranked(sensor_ids, *_distances(rows, qos))


#: one sensor of a ranked cohort: ``(sensor_id, d_m, d_a, d_ma, rank)``
RankedRow = tuple[str, float, float, float, int]


def rank_rows(sensor_ids: Sequence[str], rows: Sequence[Sequence[float]], qos: QosProfile
              ) -> tuple[tuple[str, ...], list[RankedRow]]:
    """One ranking of trusted rows: the ids by ascending ``d_ma``, and each
    sensor's distances and 1-based rank, in id order.

    ``rows`` holds one row of five floats in [0, 1] per id of the strictly
    ascending ``sensor_ids``, as the pipeline builds them; nothing is
    re-checked.  Gives the bits and the order of :func:`rank_and_select`,
    through the same helpers.
    """
    d_ms, d_as, d_mas, _, _ = _distances(rows, qos)
    order = _order(d_mas)
    ranks = [0] * len(order)
    for rank, i in enumerate(order, start=1):
        ranks[i] = rank
    return (tuple(sensor_ids[i] for i in order),
            list(zip(sensor_ids, d_ms, d_as, d_mas, ranks)))


def topsis_select(
    sensor_ids: Sequence[str], states: ArrayLike, qos: QosProfile
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
    rows = _checked_cohort(sensor_ids, states)
    matrix = np.array(rows)
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
    return _ranked(sensor_ids, d_plus.tolist(), d_minus.tolist(), (1.0 - closeness).tolist(),
                   1.0, 1.0)
