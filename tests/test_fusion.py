import math
from bisect import bisect_left, bisect_right
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeprep.fusion import (
    AlignedGrid,
    KalmanConfig,
    align,
    fuse_window,
    interpolate,
    kalman_fuse,
    kalman_fuse_streams,
)
from edgeprep.model import Modality, SensorStream


def stream(sid, pairs, modality=Modality.TEMPERATURE):
    return SensorStream(sid, modality, tuple(t for t, _ in pairs), tuple(v for _, v in pairs))


class TestInterpolate:
    def test_midpoint(self):
        assert interpolate(0, 10.0, 2, 20.0, 1) == 15.0

    def test_endpoints_are_exact(self):
        assert interpolate(100, 3.5, 300, -1.25, 100) == 3.5
        assert interpolate(100, 3.5, 300, -1.25, 300) == -1.25

    def test_constant_segment(self):
        assert interpolate(100, 3.0, 200, 3.0, 147) == 3.0

    def test_no_extrapolation(self):
        with pytest.raises(ValueError):
            interpolate(100, 1.0, 200, 2.0, 99)
        with pytest.raises(ValueError):
            interpolate(100, 1.0, 200, 2.0, 201)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            interpolate(10, 1.0, 10, 2.0, 10)
        with pytest.raises(ValueError):
            interpolate(20, 1.0, 10, 2.0, 15)

    @given(
        a=st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
        b=st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
        t1=st.integers(min_value=0, max_value=10_000),
        span=st.integers(min_value=2, max_value=10_000),
        data=st.data(),
    )
    def test_affine_signals_reconstruct_exactly(self, a, b, t1, span, data):
        t2 = t1 + span
        line = lambda t: a + b * (t / 1000.0)
        mid = data.draw(st.integers(min_value=t1 + 1, max_value=t2 - 1))
        got = interpolate(t1, line(t1), t2, line(t2), mid)
        assert got == pytest.approx(line(mid), abs=1e-9)


class TestAlign:
    def test_identity_when_already_on_grid(self):
        s = stream("s1", [(1000, 1.0), (2000, 2.0), (3000, 3.0)])
        grid = align([s], (1000, 2000, 3000), 1000, 2000)
        assert grid.values == ((1.0, 2.0, 3.0),)

    def test_missing_tick_is_interpolated(self):
        s = stream("s1", [(1000, 1.0), (3000, 3.0)])
        grid = align([s], (1000, 2000, 3000), 1000, 2000)
        assert grid.values[0][1] == 2.0

    def test_gap_beyond_max_gap_is_missing(self):
        s = stream("s1", [(1000, 1.0), (9000, 9.0)])
        grid = align([s], (1000, 5000, 9000), 1000, 2000)
        assert math.isnan(grid.values[0][1])

    def test_nearest_sample_within_half_tick_wins(self):
        s = stream("s1", [(1400, 7.0)])
        grid = align([s], (1000, 2000), 1000, 0)
        assert grid.values[0][0] == 7.0  # 400 ms away, inside half a tick
        assert math.isnan(grid.values[0][1])

    def test_sensor_rows_sorted_by_id(self):
        a = stream("b", [(1000, 1.0)])
        b = stream("a", [(1000, 2.0)])
        grid = align([a, b], (1000,), 1000, 0)
        assert grid.sensor_ids == ("a", "b")

    @pytest.mark.parametrize("tick, expected", [(2002, 2.002), (2003, math.nan)])
    def test_a_sample_exactly_max_gap_away_is_interpolated(self, tick, expected):
        # 2.002 s is 2001.9999999999998 ms in float seconds times 1000
        s = stream("s1", [(0, 0.0), (3000, 3.0)])
        value = align([s], (tick,), delta_ms=1001, max_gap_ms=2002).values[0][0]
        assert value == pytest.approx(expected, nan_ok=True)


class TestAlignedGrid:
    def test_a_row_shorter_than_the_ticks_is_refused(self):
        # fusing it once dropped tick 3000 silently
        grid = dict(ticks_ms=(1000, 2000, 3000), sensor_ids=("a",), values=np.array([[1.0, 2.0]]))
        with pytest.raises(ValueError, match="1 rows, one per sensor id, of 3 entries"):
            kalman_fuse_streams(AlignedGrid(**grid))

    def test_a_grid_with_a_row_missing_is_refused(self):
        # fusing it once gave a stream that named "b" as a source
        grid = dict(ticks_ms=(1000, 2000), sensor_ids=("a", "b"), values=np.array([[1.0, 2.0]]))
        with pytest.raises(ValueError, match="2 rows, one per sensor id, of 2 entries"):
            kalman_fuse_streams(AlignedGrid(**grid))

    def test_entries_are_stored_as_float_rows(self):
        grid = AlignedGrid(ticks_ms=(1000, 2000), sensor_ids=("a",), values=np.array([[1, 2]]))
        assert grid.values == ((1.0, 2.0),)
        assert [type(v) for v in grid.values[0]] == [float, float]


class TestKalmanFuse:
    def test_consensus_is_a_fixed_point(self):
        assert kalman_fuse([7.0, 7.0, 7.0]) == 7.0

    def test_single_measurement_identity(self):
        assert kalman_fuse([42.0]) == 42.0

    def test_against_brute_force_filter_iteration(self):
        cfg = KalmanConfig(process_noise=1e-3, measurement_noise=0.1, initial_variance=1.0)
        measurements = [10.0, 10.0, 10.0, 14.0]
        state, var = measurements[0], cfg.initial_variance
        for z in measurements:
            var += cfg.process_noise
            gain = var / (var + cfg.measurement_noise)
            state += gain * (z - state)
            var *= 1.0 - gain
        got = kalman_fuse(measurements, cfg)
        assert got == pytest.approx(state, abs=1e-12)
        assert 10.0 < got < 14.0
        assert got - 10.0 < 14.0 - got  # closer to the consensus block

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError):
            kalman_fuse([])

    @given(st.lists(st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
                    min_size=1, max_size=30))
    def test_result_within_input_hull(self, values):
        got = kalman_fuse(values)
        assert min(values) - 1e-9 <= got <= max(values) + 1e-9

    def test_config_validation(self):
        with pytest.raises(ValueError):
            KalmanConfig(process_noise=0.0)

    @pytest.mark.parametrize("field", ["process_noise", "measurement_noise", "initial_variance"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_config_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            KalmanConfig(**{field: value})


class TestKalmanFuseStreams:
    def make_grid(self, rows, ticks):
        sensor_ids = tuple(sorted(rows))
        values = np.array([rows[sid] for sid in sensor_ids], dtype=float)
        return AlignedGrid(ticks_ms=tuple(ticks), sensor_ids=sensor_ids, values=values)

    def test_identical_streams_reproduce_the_signal(self):
        ticks = tuple(range(1000, 11_000, 1000))
        rows = {sid: [5.5] * len(ticks) for sid in ("a", "b", "c")}
        fused = kalman_fuse_streams(self.make_grid(rows, ticks))
        assert fused.timestamps_ms == ticks
        for v in fused.values:
            assert v == pytest.approx(5.5, abs=1e-9)

    def test_one_deviant_stream_pulls_the_estimate(self):
        ticks = tuple(range(1000, 51_000, 1000))
        rows = {
            "a": [10.0] * len(ticks),
            "b": [10.0] * len(ticks),
            "c": [14.0] * len(ticks),
        }
        fused = kalman_fuse_streams(self.make_grid(rows, ticks))
        final = fused.values[-1]
        assert final > 10.1  # clearly off the majority value
        assert final < 14.0

    def test_single_stream_is_smoothed_copy(self):
        ticks = tuple(range(1000, 6000, 1000))
        values = [1.0, 2.0, 1.5, 1.8, 1.2]
        fused = kalman_fuse_streams(self.make_grid({"a": values}, ticks))
        assert len(fused.values) == len(ticks)
        for v in fused.values:
            assert min(values) <= v <= max(values)

    def test_all_missing_ticks_are_skipped(self):
        values = np.array([[1.0, np.nan, 3.0]])
        grid = AlignedGrid(ticks_ms=(1000, 2000, 3000), sensor_ids=("a",), values=values)
        fused = kalman_fuse_streams(grid)
        assert fused.timestamps_ms == (1000, 3000)

    def test_per_tick_hull_including_prior_state(self):
        # each tick's estimate stays inside the hull of the previous estimate
        # and that tick's measurements (convex-combination argument)
        rng = np.random.default_rng(3)
        ticks = tuple(range(1000, 41_000, 1000))
        rows = {
            sid: list(rng.normal(20.0, 2.0, len(ticks)))
            for sid in ("a", "b", "c")
        }
        cfg = KalmanConfig(process_noise=1e-3, measurement_noise=0.1)  # Q/R = 1e-2
        grid = self.make_grid(rows, ticks)
        fused = kalman_fuse_streams(grid, cfg)
        prev = None
        for idx, value in enumerate(fused.values):
            tick_values = [rows[sid][idx] for sid in ("a", "b", "c")]
            bounds = tick_values if prev is None else tick_values + [prev]
            assert min(bounds) - 1e-9 <= value <= max(bounds) + 1e-9
            prev = value


def cell_reference_align(streams, ticks_ms, delta_ms, gap_ms):
    """The per-cell alignment: both neighbours tried in turn, each cell
    written into a NaN-filled array."""
    ordered = sorted(streams, key=lambda s: s.sensor_id)
    half_ms = delta_ms / 2
    values = np.full((len(ordered), len(ticks_ms)), np.nan)
    for row, s in enumerate(ordered):
        ts, vs = s.timestamps_ms, s.values
        for col, tick in enumerate(ticks_ms):
            idx = bisect_left(ts, tick)
            best = None
            for j in (idx - 1, idx):
                if 0 <= j < len(ts):
                    d = abs(ts[j] - tick)
                    if d <= half_ms and (best is None or d < best[0]):
                        best = (d, j)
            if best is not None:
                values[row, col] = vs[best[1]]
                continue
            if 0 < idx < len(ts) and tick - ts[idx - 1] <= gap_ms and ts[idx] - tick <= gap_ms:
                values[row, col] = interpolate(ts[idx - 1], vs[idx - 1], ts[idx], vs[idx], tick)
    return values


def column_reference_fuse(ticks_ms, values, cfg):
    """The per-column fusion: each tick's available cells read as numpy
    scalars, then one predict and one update per cell."""
    timestamps, fused = [], []
    state = variance = None
    for col, tick in enumerate(ticks_ms):
        available = [float(values[row, col]) for row in range(values.shape[0])
                     if not math.isnan(values[row, col])]
        if not available:
            continue
        if state is None:
            state, variance = available[0], cfg.initial_variance
        variance += cfg.process_noise
        for z in available:
            gain = variance / (variance + cfg.measurement_noise)
            state += gain * (z - state)
            variance *= 1.0 - gain
        timestamps.append(tick)
        fused.append(state)
    return tuple(timestamps), tuple(fused)


@st.composite
def irregular_streams(draw):
    """Up to three streams on a grid step of 0.5 to 2 s, with samples on
    quarter-step instants (so some sit exactly half a step from a tick) or
    anywhere, and ticks that may run past either end of a stream."""
    delta_ms = draw(st.sampled_from([500, 1000, 2000]))
    horizon = 12 * delta_ms
    instants = st.one_of(st.integers(0, 48).map(lambda q: q * delta_ms // 4),
                         st.integers(0, horizon))
    streams = []
    for k in range(draw(st.integers(min_value=0, max_value=3))):
        ts = sorted(set(draw(st.lists(instants, max_size=14))))
        vs = draw(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                           min_size=len(ts), max_size=len(ts)))
        streams.append(SensorStream(f"s{k}", Modality.TEMPERATURE, tuple(ts), tuple(vs)))
    first = draw(st.integers(min_value=-2, max_value=10))
    count = draw(st.integers(min_value=0, max_value=10))
    ticks = tuple((first + i) * delta_ms for i in range(count) if first + i >= 0)
    max_gap_ms = draw(st.sampled_from([0, delta_ms // 2, delta_ms, 2 * delta_ms, math.inf]))
    return streams, ticks, delta_ms, max_gap_ms


class TestMatchesCellReference:
    """``align`` and ``kalman_fuse_streams`` give the per-cell reference's
    bits: ties, gaps beyond ``max_gap_ms`` and an unbounded gap included."""

    @settings(max_examples=300)
    @given(irregular_streams())
    def test_align_and_fusion_are_bit_identical(self, case):
        streams, ticks, delta_ms, max_gap_ms = case
        grid = align(streams, ticks, delta_ms, max_gap_ms)
        expected = cell_reference_align(streams, ticks, delta_ms, max_gap_ms)
        assert [len(row) for row in grid.values] == [len(ticks)] * len(streams)
        assert np.array(grid.values).reshape(expected.shape).tobytes() == expected.tobytes()
        cfg = KalmanConfig()
        fused = kalman_fuse_streams(grid, cfg)
        timestamps, values = column_reference_fuse(ticks, expected, cfg)
        assert fused.timestamps_ms == timestamps
        assert [v.hex() for v in fused.values] == [v.hex() for v in values]

    def test_a_tie_goes_to_the_earlier_sample(self):
        s = stream("s1", [(1500, 1.0), (2500, 2.0)])
        assert align([s], (2000,), 1000, 0).values == ((1.0,),)

    def test_an_unbounded_gap_still_needs_a_sample_on_each_side(self):
        s = stream("s1", [(1000, 1.0), (9000, 9.0)])
        grid = align([s], (0, 5000, 10_000), 1000, math.inf)
        assert math.isnan(grid.values[0][0]) and math.isnan(grid.values[0][2])
        assert grid.values[0][1] == 5.0


@st.composite
def window_cases(draw):
    """Up to four streams around a window ``]t_a, t_b]`` on a grid step of
    0.5 to 2 s: regular samples off the ticks with dropouts (a period of
    three steps leaves gaps beyond two), samples anywhere, one-sample and
    empty streams, windows with no samples or no ticks, and the bounds
    ``]t_a - tol, t_b + tol]`` the kernel reads."""
    delta_ms = draw(st.sampled_from([500, 1000, 1001, 2000]))
    t_a = draw(st.integers(min_value=0, max_value=20 * delta_ms))
    t_b = (t_a + draw(st.integers(min_value=0, max_value=10)) * delta_ms
           + draw(st.integers(min_value=0, max_value=delta_ms - 1)))
    first, last = max(0, t_a - 4 * delta_ms), t_b + 4 * delta_ms
    instants = st.integers(min_value=first, max_value=last)
    streams = []
    for k in range(draw(st.integers(min_value=0, max_value=4))):
        kind = draw(st.sampled_from(["regular", "anywhere", "one"]))
        if kind == "regular":
            period = draw(st.sampled_from([delta_ms // 2, delta_ms, 3 * delta_ms]))
            ts = range(first + draw(st.integers(min_value=0, max_value=period - 1)),
                       last + 1, period)
            kept = draw(st.lists(st.booleans(), min_size=len(ts), max_size=len(ts)))
            ts = [t for t, keep in zip(ts, kept) if keep]
        elif kind == "anywhere":
            ts = sorted(set(draw(st.lists(instants, max_size=20))))
        else:
            ts = [draw(instants)]
        vs = draw(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                           min_size=len(ts), max_size=len(ts)))
        streams.append(SensorStream(f"s{k}", Modality.TEMPERATURE, tuple(ts), tuple(vs)))
    tol_ms = draw(st.sampled_from([0, delta_ms // 2, delta_ms, 2 * delta_ms]))
    max_gap_ms = draw(st.sampled_from([0, delta_ms // 2, delta_ms, 2 * delta_ms, math.inf]))
    noise = draw(st.floats(min_value=1e-6, max_value=1e3))
    return streams, t_a, t_b, delta_ms, tol_ms, max_gap_ms, KalmanConfig(measurement_noise=noise)


def window_columns(streams, t_a, t_b, tol_ms):
    """Each stream's whole columns with the bounds of ``]t_a - tol, t_b +
    tol]``, and the slice those bounds cut."""
    columns, slices = [], []
    for s in streams:
        ts = s.timestamps_ms
        lo, hi = bisect_right(ts, t_a - tol_ms), bisect_right(ts, t_b + tol_ms)
        columns.append((ts, s.values, lo, hi))
        slices.append(replace(s, timestamps_ms=ts[lo:hi], values=s.values[lo:hi]))
    return columns, slices


class TestFuseWindowKernel:
    """``fuse_window`` over bounded columns gives the bits of
    ``kalman_fuse_streams(align(...))`` over the bisected slices."""

    @settings(max_examples=400, deadline=None)
    @given(window_cases())
    def test_matches_align_then_fuse_bit_for_bit(self, case):
        streams, t_a, t_b, delta_ms, tol_ms, max_gap_ms, cfg = case
        ticks = range(t_a + delta_ms, t_b + 1, delta_ms)
        columns, slices = window_columns(streams, t_a, t_b, tol_ms)
        timestamps, values = fuse_window(columns, ticks, delta_ms, max_gap_ms, cfg)
        want = kalman_fuse_streams(align(slices, ticks, delta_ms, max_gap_ms), cfg)
        assert timestamps == want.timestamps_ms
        assert [v.hex() for v in values] == [v.hex() for v in want.values]

    def test_an_off_tick_pair_is_interpolated(self):
        # tick 2000 is 800 ms after one sample and 900 ms before the next
        s = stream("s1", [(1200, 1.0), (2900, 2.0)])
        columns, _ = window_columns([s], 1000, 2000, 2000)
        timestamps, values = fuse_window(columns, range(2000, 2001, 1000), 1000, 2000,
                                         KalmanConfig())
        assert (timestamps, values) == ((2000,), (interpolate(1200, 1.0, 2900, 2.0, 2000),))

    def test_the_bounds_hide_samples_outside_them(self):
        # the sample at 500 brackets tick 2000 in the whole stream, not in
        # the bounds ]1000, ...]
        s = stream("s1", [(500, 1.0), (2900, 2.0)])
        ts, vs = s.timestamps_ms, s.values
        args = (range(2000, 2001, 1000), 1000, math.inf, KalmanConfig())
        assert fuse_window([(ts, vs, 0, 2)], *args) != ((), ())
        assert fuse_window([(ts, vs, 1, 2)], *args) == ((), ())
