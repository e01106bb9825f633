"""Multi-criteria sensor ranking against a per-service utopia vector.

Each sensor is a five-attribute vector in [0, 1], and a cohort is ranked
as one row of five floats per sensor id; a service declares an ideal
(utopia) vector plus attribute weights.  Sensors are ordered by a
direction-aware distance that combines a weighted Euclidean magnitude term
with a weighted cosine angular term, each rescaled by the inverse cohort
mean so neither dominates.  A conventional TOPSIS ranking, the static
baseline, runs on the same float rows.

Every ranking has one shape, :data:`Ranking`: the ids in rank order, and
one :data:`RankedRow` per sensor in id order.  :func:`rank_and_select` and
:func:`topsis_select` check a cohort they are given; :func:`rank_rows`
ranks trusted rows.  The distance arithmetic has one definition, in two
parts: :func:`static_terms` forms, once per cohort and profile, every
product that the three static scores fix, and :func:`rank_terms`, the
pipeline's kernel, adds each sensor's α and β terms to them.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import reduce
from typing import Sequence

from .model import ATTRIBUTE_NAMES, QosProfile

__all__ = [
    "RankedRow",
    "Ranking",
    "Rows",
    "Terms",
    "scaling_coefficients",
    "rank_and_select",
    "rank_rows",
    "rank_terms",
    "static_terms",
    "topsis_select",
]


#: one sensor of a ranked cohort: ``(sensor_id, d_m, d_a, d_ma, rank)``, the
#: magnitude and angular components and their scaled combination, or for
#: TOPSIS the distances to the ideal and anti-ideal rows and ``1 - closeness``
#: (ascending ``d_ma`` is descending closeness); ``rank`` is 1-based
RankedRow = tuple[str, float, float, float, int]

#: a cohort's ranking: its ids by ascending ``d_ma``, ties by ascending id,
#: and one :data:`RankedRow` per sensor, in id order
Ranking = tuple[tuple[str, ...], list[RankedRow]]

#: a cohort's attribute rows: five floats per sensor id, in ATTRIBUTE_NAMES order
Rows = Sequence[Sequence[float]]

#: what a profile's utopia ``v`` and weights ``w`` fix of a cohort's
#: distances: the scalars ``(v0, v1, w0, w1, b0, b1, bb)``, with ``b = w v``
#: and ``bb`` the sum of the five ``b * b``, and for each sensor, in id
#: order, the nine products of its static scores ``a2..a4``:
#: ``w_i (a_i - v_i)^2``, then ``(w_i a_i)^2``, then ``w_i a_i b_i``
Terms = tuple[tuple[float, ...], list[tuple[float, ...]]]


def scaling_coefficients(d_ms: Sequence[float], d_as: Sequence[float]) -> tuple[float, float]:
    """Inverse cohort means of the two components (1 for an all-zero sum)."""
    if len(d_ms) != len(d_as) or not d_ms:
        raise ValueError("component sequences must be non-empty and parallel")
    count = len(d_ms)
    # left to right: the builtin sum compensates its rounding from Python
    # 3.12 on, which would move the last bit of the coefficients
    sum_m = reduce(operator.add, d_ms, 0.0)
    sum_a = reduce(operator.add, d_as, 0.0)
    xi_m = count / sum_m if sum_m > 0 else 1.0
    xi_a = count / sum_a if sum_a > 0 else 1.0
    return xi_m, xi_a


def _checked_cohort(sensor_ids: Sequence[str], states: Rows) -> list[tuple[float, ...]]:
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


def _ranked(sensor_ids: Sequence[str], d_ms: Sequence[float], d_as: Sequence[float],
            d_mas: Sequence[float]) -> Ranking:
    """The ids by ascending ``d_ma``, and each sensor's row with its rank.

    The ids ascend, and a stable sort keeps equal distances in that order.
    """
    order = sorted(range(len(d_mas)), key=d_mas.__getitem__)
    ranks = [0] * len(order)
    for rank, i in enumerate(order, start=1):
        ranks[i] = rank
    return (tuple(sensor_ids[i] for i in order),
            list(zip(sensor_ids, d_ms, d_as, d_mas, ranks)))


def static_terms(statics: Rows, qos: QosProfile) -> Terms:
    """The :data:`Terms` that ``qos`` fixes for a cohort whose rows of three
    static scores in [0, 1] are ``statics``: every product that the
    distances form from a static score, computed once for every ranking of
    the cohort under ``qos``."""
    # QosProfile has validated both rows: every w, v and a is >= 0, so the
    # absolute values in d_a are the products themselves
    v0, v1, v2, v3, v4 = qos.utopia
    w0, w1, w2, w3, w4 = qos.weights
    b0, b1, b2, b3, b4 = w0 * v0, w1 * v1, w2 * v2, w3 * v3, w4 * v4
    bb = b0 * b0 + b1 * b1 + b2 * b2 + b3 * b3 + b4 * b4
    rows = []
    for a2, a3, a4 in statics:
        t2, t3, t4 = a2 - v2, a3 - v3, a4 - v4
        c2, c3, c4 = w2 * a2, w3 * a3, w4 * a4
        rows.append((w2 * (t2 * t2), w3 * (t3 * t3), w4 * (t4 * t4),
                     c2 * c2, c3 * c3, c4 * c4, c2 * b2, c3 * b3, c4 * b4))
    return (v0, v1, w0, w1, b0, b1, bb), rows


def rank_terms(sensor_ids: Sequence[str], alphas: Sequence[float], betas: Sequence[float],
               terms: Terms) -> Ranking:
    """The ranking of trusted rows given as their dynamic columns, α and β
    in [0, 1], and the :func:`static_terms` of their static scores: the
    cycle's kernel.

    Each sum adds the same five terms in the same order as
    :func:`rank_and_select` documents, so the two give the same bits.
    Nothing is re-checked.
    """
    (v0, v1, w0, w1, b0, b1, bb), rows = terms
    sqrt = math.sqrt
    d_ms: list[float] = []
    d_as: list[float] = []
    for a0, a1, (m2, m3, m4, n2, n3, n4, p2, p3, p4) in zip(alphas, betas, rows):
        t0, t1 = a0 - v0, a1 - v1
        d_ms.append(sqrt(w0 * (t0 * t0) + w1 * (t1 * t1) + m2 + m3 + m4))
        c0, c1 = w0 * a0, w1 * a1
        denom = sqrt((c0 * c0 + c1 * c1 + n2 + n3 + n4) * bb)
        if denom == 0.0:
            d_as.append(1.0)  # a zero-norm weighted vector is maximally dissimilar
            continue
        d_a = 1.0 - (c0 * b0 + c1 * b1 + p2 + p3 + p4) / denom
        d_as.append(0.0 if d_a < 0.0 else 1.0 if d_a > 1.0 else d_a)
    xi_m, xi_a = scaling_coefficients(d_ms, d_as)
    d_mas = [math.hypot(xi_m * d_m, xi_a * d_a) for d_m, d_a in zip(d_ms, d_as)]
    return _ranked(sensor_ids, d_ms, d_as, d_mas)


def rank_rows(sensor_ids: Sequence[str], rows: Rows, qos: QosProfile) -> Ranking:
    """The ranking of trusted rows, as :func:`rank_and_select` ranks a
    cohort it has checked.

    ``rows`` holds one row of five floats in [0, 1] per id of the strictly
    ascending ``sensor_ids``; nothing is re-checked.
    """
    return rank_terms(sensor_ids, [row[0] for row in rows], [row[1] for row in rows],
                      static_terms([row[2:] for row in rows], qos))


def rank_and_select(sensor_ids: Sequence[str], states: Rows, qos: QosProfile) -> Ranking:
    """Order a cohort by direction-aware distance to the service utopia.

    ``states`` is the cohort's ``(n, 5)`` attribute matrix, columns in
    :data:`ATTRIBUTE_NAMES` order, one row per id of the strictly ascending
    ``sensor_ids``.  Returns the ids by ascending ``d_ma``, ties by
    ascending id, and each sensor's :data:`RankedRow`; a caller selects a
    prefix of the order.

    Per sensor row ``a``, against utopia ``v`` with weights ``w``:
    ``d_m = sqrt(sum(w (a - v)^2))`` and ``d_a = 1 - sum(|w a| |w v|) /
    sqrt(sum((w a)^2) sum((w v)^2))``, clipped to [0, 1], and 1 when the
    root is 0.  Each sum adds its five terms left to right, as numpy sums a
    row of five, and squares are products, as numpy squares.  ``d_ma`` is
    ``hypot(xi_m d_m, xi_a d_a)`` with :func:`scaling_coefficients`.
    """
    return rank_rows(sensor_ids, _checked_cohort(sensor_ids, states), qos)


def topsis_select(sensor_ids: Sequence[str], states: Rows, qos: QosProfile) -> Ranking:
    """Conventional TOPSIS ordering of the same cohort, taken and returned
    as :func:`rank_and_select` takes and returns it.

    Vector (root-sum-square) column normalization, weighting, ideal (column
    max: all five attributes are benefit criteria) and anti-ideal rows, and
    closeness ``d- / (d+ + d-)``, 1 when both are 0; the order is descending
    closeness.  It sees only the snapshot it is given, with no notion of
    per-interval updates, which is exactly what makes it a static baseline.
    """
    rows = _checked_cohort(sensor_ids, states)

    def norm(terms: Sequence[float]) -> float:
        # squares added in order, as numpy adds a column or a row of five
        return math.sqrt(reduce(operator.add, [t * t for t in terms]))

    norms = [norm(col) for col in zip(*rows)]
    weighted = [[(x / n if n > 0 else 0.0) * w for x, n, w in zip(row, norms, qos.weights)]
                for row in rows]
    ideal, anti = list(map(max, zip(*weighted))), list(map(min, zip(*weighted)))
    d_plus = [norm([x - b for x, b in zip(row, ideal)]) for row in weighted]
    d_minus = [norm([x - b for x, b in zip(row, anti)]) for row in weighted]
    d_mas = [1.0 - (dm / (dp + dm) if dp + dm > 0 else 1.0) for dp, dm in zip(d_plus, d_minus)]
    return _ranked(sensor_ids, d_plus, d_minus, d_mas)
