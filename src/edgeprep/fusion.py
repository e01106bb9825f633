"""Stream alignment and multi-stream fusion.

Alignment puts irregular streams onto a common tick grid using linear
interpolation between bracketing samples.  Fusion collapses one or more
aligned streams into a single estimate with a scalar random-walk Kalman
filter (state transition 1, observation 1): slow ambient quantities do not
need a richer motion model, and the filter avoids the window-size dilemma of
moving-average smoothers.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import SensorStream, positive_finite

__all__ = [
    "KalmanConfig",
    "AlignedGrid",
    "FusedStream",
    "interpolate",
    "align",
    "kalman_fuse",
    "kalman_fuse_streams",
]


@dataclass(frozen=True)
class KalmanConfig:
    """Scalar Kalman filter parameters.

    ``measurement_noise`` applies to every source; the state starts at the
    first measurement.
    """

    process_noise: float = 1e-3
    measurement_noise: float = 0.1
    initial_variance: float = 1.0

    def __post_init__(self) -> None:
        positive_finite("process_noise", self.process_noise)
        positive_finite("measurement_noise", self.measurement_noise)
        positive_finite("initial_variance", self.initial_variance)


@dataclass(frozen=True)
class AlignedGrid:
    """Streams resampled onto a shared tick grid; NaN marks a missing value.

    ``values`` has shape (len(sensor_ids), len(ticks_ms)).
    """

    ticks_ms: tuple[int, ...]
    sensor_ids: tuple[str, ...]
    values: np.ndarray


@dataclass(frozen=True)
class FusedStream:
    """Single fused series produced from several source streams."""

    timestamps_ms: tuple[int, ...]
    values: tuple[float, ...]
    source_ids: tuple[str, ...]


def interpolate(t0_ms: int, v0: float, t1_ms: int, v1: float, at_ms: int) -> float:
    """Linear interpolant at ``at_ms`` between two samples of one stream.

    The target instant must lie inside ``[t0_ms, t1_ms]``; extrapolation is
    refused.  Endpoints reproduce the endpoint values exactly.
    """
    if t0_ms >= t1_ms:
        raise ValueError("the first sample must precede the second")
    if not t0_ms <= at_ms <= t1_ms:
        raise ValueError(
            f"interpolation instant {at_ms} outside [{t0_ms}, {t1_ms}] (no extrapolation)"
        )
    slope = (v0 - v1) / (t0_ms - t1_ms)
    return slope * (at_ms - t1_ms) + v1


def align(
    streams: Sequence[SensorStream],
    ticks_ms: Sequence[int],
    delta_ms: int,
    max_gap_ms: float,
) -> AlignedGrid:
    """Resample streams onto the ascending ``ticks_ms``, ``delta_ms`` apart.

    Per tick and stream: take the nearest real sample within half a tick
    spacing; otherwise interpolate between the bracketing samples when both
    sit within ``max_gap_ms`` of the tick (whole milliseconds, or ``inf``
    for no bound); otherwise mark the cell missing.
    """
    if delta_ms <= 0:
        raise ValueError("delta_ms must be positive")
    if max_gap_ms < 0:
        raise ValueError("max_gap_ms must be >= 0")
    ordered = sorted(streams, key=lambda s: s.sensor_id)
    ticks = tuple(int(t) for t in ticks_ms)
    half_ms = delta_ms / 2
    rows: list[list[float]] = []
    for stream in ordered:
        ts, vs = stream.timestamps_ms, stream.values
        n = len(ts)
        row = []
        # the ticks ascend, so one bisection finds the first tick's sample
        # and a walk forward each later one's
        idx = bisect_left(ts, ticks[0]) if ticks else 0
        for tick in ticks:
            while idx < n and ts[idx] < tick:
                idx += 1
            d_left = tick - ts[idx - 1] if idx > 0 else math.inf
            d_right = ts[idx] - tick if idx < n else math.inf
            # nearest sample within half a tick spacing wins, the earlier
            # one on a tie
            if d_left <= d_right:
                if d_left <= half_ms:
                    row.append(vs[idx - 1])
                    continue
            elif d_right <= half_ms:
                row.append(vs[idx])
                continue
            if 0 < idx < n and d_left <= max_gap_ms and d_right <= max_gap_ms:
                row.append(interpolate(ts[idx - 1], vs[idx - 1], ts[idx], vs[idx], tick))
            else:
                row.append(math.nan)
        rows.append(row)
    return AlignedGrid(
        ticks_ms=ticks,
        sensor_ids=tuple(s.sensor_id for s in ordered),
        values=np.array(rows, dtype=float).reshape(len(ordered), len(ticks)),
    )


def kalman_fuse(measurements: Sequence[float], cfg: KalmanConfig | None = None) -> float:
    """Fuse a measurement sequence into one scalar estimate.

    Runs one predict/update pair per measurement, in the given order, so the
    result is deterministic for a fixed config.  Callers that need
    order-independence must canonicalize the sequence themselves.
    """
    cfg = cfg or KalmanConfig()
    values = [float(v) for v in measurements]
    if not values:
        raise ValueError("kalman_fuse requires at least one measurement")
    q, r = cfg.process_noise, cfg.measurement_noise
    state, variance = values[0], cfg.initial_variance
    for z in values:
        variance += q
        gain = variance / (variance + r)
        state += gain * (z - state)
        variance *= 1.0 - gain
    return state


def kalman_fuse_streams(grid: AlignedGrid, cfg: KalmanConfig | None = None) -> FusedStream:
    """Fuse an aligned grid into a single stream.

    One predict step per tick, then one update per available source at that
    tick in ascending sensor-id order; ticks with no data are skipped.  The
    state starts at the first available value.
    """
    cfg = cfg or KalmanConfig()
    q, r = cfg.process_noise, cfg.measurement_noise
    timestamps: list[int] = []
    values: list[float] = []
    state = variance = None
    for tick, column in zip(grid.ticks_ms, grid.values.T.tolist()):
        available = [v for v in column if not math.isnan(v)]
        if not available:
            continue
        if state is None:
            state, variance = available[0], cfg.initial_variance
        variance += q
        for z in available:
            gain = variance / (variance + r)
            state += gain * (z - state)
            variance *= 1.0 - gain
        timestamps.append(tick)
        values.append(state)
    return FusedStream(timestamps_ms=tuple(timestamps), values=tuple(values),
                       source_ids=grid.sensor_ids)
