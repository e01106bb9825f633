import math
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from edgeprep.fusion import FusedStream
from edgeprep.model import ConfigError, Modality, QosProfile, SensorStream
from edgeprep.pipeline import (
    FeatureCache,
    FeatureFunction,
    Mode,
    Pipeline,
    ServiceSpec,
    TraceRow,
    associate,
    build_feature_registry,
    compute_feature,
)
from edgeprep.ranking import rank_and_select
import edgeprep.pipeline as pipeline_module
import edgeprep.reliability as reliability_module
from edgeprep.reliability import compute_lambda, interval_reliability
from edgeprep.harness import GeneratorSpec, generate_synthetic, inject_faults, run_scenario
from edgeprep.voting import (
    VotingConfig,
    cumulative_scores,
    membership_matrix,
    normalize,
    select_optimal,
)
from conftest import exact_sum, load_config, make_spec, mixed_magnitudes


def stream_of(timestamps, sid="s1"):
    return SensorStream(sid, Modality.TEMPERATURE, tuple(timestamps),
                        tuple(float(t) for t in timestamps))


class TestFormWindow:
    """A service fixes its period and grid step in integer milliseconds at
    construction; an activation at ``t`` reads ``]t - k_l*dt, t + k_r*dt]``."""

    @staticmethod
    def service(k_l, k_r, delta_t_s, period_s=1.0, features=("temperature_mean",)):
        return ServiceSpec(qos=QosProfile(service_id="svc", modality_needs=("temperature",)),
                           period_s=period_s, k_l=k_l, k_r=k_r, delta_t_s=delta_t_s,
                           features=features)

    @staticmethod
    def window_at(monkeypatch, svc, t_ms):
        """``((t_a, t_b), ticks)`` of ``svc``'s window at ``t_ms``: the bounds
        in the feature cache key and the ticks the window is fused on."""
        streams = synth_streams({"t1": ("temperature", 20.0)}, duration_s=120.0)
        calls = counted(monkeypatch, "fuse_window")
        pipeline = Pipeline([make_spec("t1")], [svc], streams)
        pipeline.run_cycle(t_ms)
        ((_, t_a_ms, t_b_ms, _),) = pipeline.caches()[0]
        ((_, ticks, *_),) = calls
        return (t_a_ms, t_b_ms), tuple(ticks)

    def test_direct_substitution(self, monkeypatch):
        svc = self.service(2, 1, 5.0)
        assert (svc.period_ms, svc.delta_ms) == (1000, 5000)
        assert self.window_at(monkeypatch, svc, 100_000)[0] == (90_000, 105_000)

    def test_causal_boundaries(self, monkeypatch):
        assert self.window_at(monkeypatch, self.service(0, 2, 5.0), 100_000)[0][0] == 100_000
        assert self.window_at(monkeypatch, self.service(2, 0, 5.0), 100_000)[0][1] == 100_000

    def test_degenerate_window_rejected(self):
        for k_l, k_r, delta_t_s, message in [
            (0, 0, 5.0, "degenerate window"),
            (-1, 2, 5.0, "k_l and k_r must be >= 0"),
            (1, 1, 0.0, "delta_t_s must be finite and positive"),
            (1, 1, 0.0005, "delta_t_s 0.0005s is not representable in whole milliseconds"),
        ]:
            with pytest.raises(ConfigError, match=message):
                self.service(k_l, k_r, delta_t_s)

    def test_ticks_cover_the_half_open_window(self, monkeypatch):
        assert self.window_at(monkeypatch, self.service(3, 0, 1.0), 10_000)[1] == (
            8000, 9000, 10_000)

    def test_identical_parameters_give_identical_membership(self, monkeypatch):
        first, second = self.service(3, 0, 1.0), self.service(3, 0, 1.0)
        assert first == second
        assert (self.window_at(monkeypatch, first, 10_000)
                == self.window_at(monkeypatch, second, 10_000))

    def test_milliseconds_are_exact_where_float_seconds_are_not(self):
        # 2 * 1.001 * 1000.0 is 2001.9999999999998
        svc = self.service(3, 0, 1.001, period_s=1.001)
        assert (svc.period_ms, svc.delta_ms) == (1001, 1001)

    def test_a_sample_two_grid_steps_from_a_tick_is_interpolated(self):
        # ]7007, 10010] on a 1001 ms grid: tick 8008 sits 2002 ms after the
        # sample at 6006, tick 9009 takes the sample at 8600, tick 10010
        # has no sample after it
        svc = self.service(3, 0, 1.001, period_s=1.001, features=("temperature_count",))
        stream = SensorStream("t1", Modality.TEMPERATURE, (6006, 8600), (20.0, 21.0))
        pipeline = Pipeline([make_spec("t1")], [svc], {"t1": stream},
                            mode=Mode.NO_SELECTION_FUSED)
        result = pipeline.run_cycle(10_010)
        assert result.features["svc"].components["temperature_count"] == 2.0


class TestAssociate:
    """The temporal slice ``]t_a - tol, t_b + tol]`` that the tracer wraps;
    the cycle bisects the same slice in place."""

    def test_point_in_window(self):
        assert associate(stream_of([9000]), 8000, 10_000) == (True, stream_of([9000]))

    def test_empty_point_set(self):
        assert associate(stream_of([]), 8000, 10_000) == (False, stream_of([]))

    def test_window_boundaries_are_half_open(self):
        pts = stream_of([8000, 8001, 10_000, 10_001], "s1")
        _, subset = associate(pts, 8000, 10_000)
        assert subset.timestamps_ms == (8001, 10_000)
        assert subset.values == (8001.0, 10_000.0)

    def test_tolerance_widens_both_edges(self):
        pts = stream_of([7500, 7501, 10_500, 10_501], "s1")
        _, subset = associate(pts, 8000, 10_000, tol_ms=500)
        assert subset.timestamps_ms == (7501, 10_500)

    def test_enlarging_the_window_never_removes_points(self):
        pts = stream_of(range(6000, 12_001, 500), "s1")
        _, inner = associate(pts, 8000, 10_000)
        _, outer = associate(pts, 6000, 11_000)
        assert set(inner.timestamps_ms) <= set(outer.timestamps_ms)

    def test_the_cycle_fuses_the_slice_associate_keeps(self, monkeypatch):
        # window ]3 s, 5 s] on a 1 s grid, so the tolerance is 2 s
        stream = SensorStream("t1", Modality.TEMPERATURE, tuple(range(700, 9000, 700)),
                              tuple(float(i) for i in range(1, 13)))
        calls = counted(monkeypatch, "fuse_window")
        Pipeline([make_spec("t1")], [simple_service()], {"t1": stream}).run_cycle(5000)
        (([(ts, values, lo, hi)], *_),) = calls
        assert associate(stream, 3000, 5000, 2000) == (
            True, replace(stream, timestamps_ms=ts[lo:hi], values=values[lo:hi]))


class TestComputeFeature:
    def make_fn(self, counter):
        def compute(values):
            counter["calls"] += 1
            return sum(values) / len(values)

        return FeatureFunction(fid="temperature_mean", modality="temperature", compute=compute)

    def data(self, values=(7.0, 7.0, 7.0), sources=("s1",)):
        ticks = tuple(range(8000, 8000 + 1000 * len(values), 1000))
        return {"temperature": FusedStream(ticks, tuple(values), tuple(sources))}

    def test_shared_key_computed_once(self):
        counter = {"calls": 0}
        fn = self.make_fn(counter)
        cache = FeatureCache()
        w = (7000, 10_000)
        first = compute_feature(fn, *w, self.data(), cache)
        second = compute_feature(fn, *w, self.data(), cache)
        assert counter["calls"] == 1
        assert cache.misses == 1 and cache.hits == 1
        assert first == second == 7.0

    def test_fresh_cache_recomputes_identically(self):
        counter = {"calls": 0}
        fn = self.make_fn(counter)
        w = (7000, 10_000)
        first = compute_feature(fn, *w, self.data(), FeatureCache())
        second = compute_feature(fn, *w, self.data(), FeatureCache())
        assert counter["calls"] == 2
        assert first == second

    def test_mean_over_constant_window(self):
        fn = self.make_fn({"calls": 0})
        got = compute_feature(fn, 7000, 10_000, self.data(), FeatureCache())
        assert got == 7.0

    def test_missing_modality_marker(self):
        fn = self.make_fn({"calls": 0})
        cache = FeatureCache()
        w = (7000, 10_000)
        assert compute_feature(fn, *w, {}, cache) is None
        assert compute_feature(fn, *w, self.data(values=()), cache) is None
        assert cache.misses == 0 and cache.hits == 0

    def test_different_sensor_sets_do_not_collide(self):
        counter = {"calls": 0}
        fn = self.make_fn(counter)
        cache = FeatureCache()
        w = (7000, 10_000)
        compute_feature(fn, *w, self.data(sources=("s1",)), cache)
        compute_feature(fn, *w, self.data(sources=("s2",)), cache)
        assert counter["calls"] == 2

    def test_eviction_drops_old_windows(self):
        fn = self.make_fn({"calls": 0})
        cache = FeatureCache()
        compute_feature(fn, 7000, 10_000, self.data(), cache)
        assert len(cache) == 1
        assert cache.evict_before(20_000) == [("temperature_mean", 7000, 10_000, ("s1",))]
        assert len(cache) == 0

    @given(st.lists(
        st.one_of(
            st.tuples(st.just("insert"), st.integers(min_value=0, max_value=30)),
            st.tuples(st.just("evict"), st.integers(min_value=-5, max_value=35)),
        ),
        max_size=60,
    ))
    def test_eviction_matches_a_reference_dict(self, ops):
        cache = FeatureCache()
        reference: dict[tuple, float] = {}
        inserted = set()
        for i, (op, t) in enumerate(ops):
            if op == "insert":
                # t_b values arrive out of order, and keys repeat
                key = ("f", t - 3, t, ("s1",))
                cache.insert(key, float(i))
                reference[key] = float(i)
                inserted.add(key)
            else:
                stale = [k for k in reference if k[2] < t]
                for k in stale:
                    del reference[k]
                assert sorted(cache.evict_before(t)) == sorted(stale)
            assert len(cache) == len(reference)
        for key in inserted:
            assert cache.lookup(key) == reference.get(key)


class TestFeatureRegistry:
    def test_stat_features_resolve(self):
        registry = build_feature_registry(["temperature_mean", "co2_max", "motion_std"])
        assert set(registry) == {"temperature_mean", "co2_max", "motion_std"}
        assert registry["co2_max"].modality == "co2"
        assert registry["co2_max"].compute((400.0, 650.0, 500.0)) == 650.0

    def test_presence_is_a_low_level_inference(self):
        fn = build_feature_registry(["presence"])["presence"]
        assert fn.modality == "motion"
        assert fn.compute((0.8, 0.9)) == 1.0
        assert fn.compute((0.1, 0.2)) == 0.0
        # a mean level at the threshold is not presence
        assert fn.compute((pipeline_module.PRESENCE_THRESHOLD,) * 2) == 0.0

    def test_unknown_feature_rejected(self):
        with pytest.raises(ConfigError):
            build_feature_registry(["sound_level"])

    def test_purity_contract(self):
        registry = build_feature_registry(["temperature_std"])
        fn = registry["temperature_std"]
        values = (1.0, 2.0, 4.0)
        assert fn.compute(values) == fn.compute(values)

    def test_a_service_resolves_its_features_once(self, monkeypatch):
        svc = TestFormWindow.service(1, 0, 1.0, features=("temperature_max", "temperature_mean",
                                                          "temperature_min"))
        assert [fn.fid for fn in svc.feature_functions] == list(svc.features)
        calls = counted(monkeypatch, "build_feature_registry")
        streams = synth_streams({"t1": ("temperature", 20.0)}, duration_s=5.0)
        result = Pipeline([make_spec("t1")], [svc], streams).run_cycle(2000)
        assert calls == []
        assert set(result.features["svc"].components) == set(svc.features)


def documented_stats(v):
    """Each statistic of the window values ``v`` by its documented
    definition, with every sum exact."""
    n = len(v)
    mean = exact_sum(v) / n
    ordered = sorted(v)
    half = n // 2
    return {
        "mean": mean,
        "std": math.sqrt(exact_sum([(x - mean) * (x - mean) for x in v]) / n),
        "min": ordered[0],
        "max": ordered[-1],
        "median": ordered[half] if n % 2 else (ordered[half - 1] + ordered[half]) / 2,
        "range": ordered[-1] - ordered[0],
        "last": v[-1],
        "count": n,
    }


class TestStatisticsMatchTheirDefinitions:
    """Every statistic equals its documented definition bit for bit (``==``
    on floats is bit equality apart from the sign of zero)."""

    @given(st.lists(st.one_of(mixed_magnitudes, st.floats(0.0, 1.0)), min_size=1, max_size=60)
           .map(tuple))
    def test_every_statistic(self, values):
        expected = documented_stats(values)
        assert set(expected) == set(pipeline_module._STATS)
        registry = build_feature_registry([f"temperature_{stat}" for stat in expected])
        for stat, value in expected.items():
            assert registry[f"temperature_{stat}"].compute(values) == value, stat
        presence = build_feature_registry(["presence"])["presence"].compute(values)
        assert presence == (1.0 if expected["mean"] > pipeline_module.PRESENCE_THRESHOLD else 0.0)

    def test_mean_is_exact_where_left_to_right_addition_is_not(self):
        values = (1e16, 1.0, -1e16, 3.0)
        assert ((values[0] + values[1]) + values[2]) + values[3] == 3.0
        assert build_feature_registry(["co2_mean"])["co2_mean"].compute(values) == 1.0


def simple_service(service_id="svc", modalities=("temperature",), period_s=1.0,
                   features=("temperature_mean",), **kw):
    return ServiceSpec(
        qos=QosProfile(service_id=service_id, modality_needs=modalities),
        period_s=period_s,
        k_l=2,
        k_r=0,
        delta_t_s=1.0,
        features=features,
        **kw,
    )


def synth_streams(spec_map, duration_s=20.0, seed=1):
    gens = [
        GeneratorSpec(sensor_id=sid, modality=modality, base="constant", level=level,
                      noise_std=0.0, period_s=1.0, duration_s=duration_s)
        for sid, (modality, level) in spec_map.items()
    ]
    return generate_synthetic(gens, seed)


def counted(monkeypatch, name):
    """Patch ``edgeprep.pipeline.<name>`` to count its calls; returns the
    list that collects one entry per call."""
    calls = []
    inner = getattr(pipeline_module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(pipeline_module, name, counting)
    return calls


class TestPipeline:
    def test_singleton_cohorts_bypass_voting(self):
        sensors = [make_spec("t1"), make_spec("m1", Modality.MOTION)]
        service = simple_service(modalities=("motion", "temperature"),
                                 features=("temperature_mean", "motion_mean"))
        streams = synth_streams({"t1": ("temperature", 20.0), "m1": ("motion", 0.5)})
        pipeline = Pipeline(sensors, [service], streams)
        result = pipeline.run_cycle(5000)
        fv = result.features["svc"]
        assert fv.components["temperature_mean"] == pytest.approx(20.0)
        assert fv.components["motion_mean"] == pytest.approx(0.5)
        rows = {r.sensor_id: r for r in result.trace}
        assert rows["t1"].selected and rows["t1"].rank == 1

    def test_trace_ranks_follow_the_distance_order(self):
        sensors = [make_spec(sid) for sid in ("a", "b", "c")]
        streams = synth_streams({"a": ("temperature", 28.0), "b": ("temperature", 20.0),
                                 "c": ("temperature", 20.0)})
        pipeline = Pipeline(sensors, [simple_service()], streams)
        for t_ms in range(1000, 5001, 1000):
            result = pipeline.run_cycle(t_ms)
        rows = sorted(result.trace, key=lambda r: r.rank)
        assert [(r.sensor_id, r.rank, r.selected) for r in rows] == [
            ("b", 1, True), ("c", 2, False), ("a", 3, False)]
        assert [r.d_ma for r in rows] == sorted(r.d_ma for r in rows)

    def test_one_vote_credits_only_the_optimal_set(self):
        levels = {"a": 20.0, "b": 20.0, "c": 20.0, "d": 28.0}
        pipeline = Pipeline([make_spec(sid) for sid in levels], [simple_service()],
                            synth_streams({sid: ("temperature", v) for sid, v in levels.items()}))
        pipeline.run_cycle(1000)
        norm = normalize(list(levels.items()))
        cfg = VotingConfig()
        optimal = select_optimal(cumulative_scores(membership_matrix(norm, cfg)), norm, cfg)
        assert "d" not in optimal.sensor_ids
        assert {sid: pipeline._dyn[sid].rel.q for sid in levels} == {
            sid: int(sid in optimal.sensor_ids) for sid in levels}

    @pytest.mark.parametrize("t3_ms, votes", [(1000, False), (1001, True), (2000, True),
                                              (2001, False)])
    def test_a_vote_reads_each_sensor_latest_sample_in_its_interval(self, t3_ms, votes):
        # the vote at 2 s reads ]1 s, 2 s] at the cohort's 1 s granularity;
        # t3 reports once, far from the others, and only a vote that reads
        # it changes its alpha
        streams = {sid: SensorStream(sid, Modality.TEMPERATURE, (1000, 2000), (20.0, level))
                   for sid, level in (("t1", 20.0), ("t2", 20.5))}
        streams["t3"] = SensorStream("t3", Modality.TEMPERATURE, (t3_ms,), (90.0,))
        pipeline = Pipeline([make_spec(sid) for sid in streams], [simple_service()], streams)
        pipeline.run_cycle(2000)
        assert (pipeline._dyn["t3"].alpha != 1.0) is votes

    def test_points_processed_counts_the_window_not_the_tolerance(self):
        # window ]3 s, 5 s] with a 2 s tolerance: six samples are aligned,
        # the two inside the window are counted
        pipeline = Pipeline([make_spec("t1")], [simple_service()],
                            synth_streams({"t1": ("temperature", 20.0)}))
        pipeline.run_cycle(5000)
        assert pipeline.counters.points_processed == 2

    @pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
    def test_service_error_does_not_break_others(self, mode):
        sensors = [make_spec("t1"), make_spec("t2")]
        ok = simple_service("ok", ("temperature",))
        starved = simple_service("starved", ("co2",), features=("co2_mean",))
        streams = synth_streams({"t1": ("temperature", 20.0), "t2": ("temperature", 21.0)})
        both = Pipeline(sensors, [ok, starved], streams, mode=mode)
        alone = Pipeline(sensors, [ok], streams, mode=mode)
        for t_ms in range(1000, 8001, 1000):
            result, reference = both.run_cycle(t_ms), alone.run_cycle(t_ms)
            # both services are due from their first full window, at 2 s
            assert result.errors == (
                {"starved": "no live sensors for modality 'co2'"} if t_ms >= 2000 else {})
            assert result.features == reference.features
            assert result.trace == reference.trace
        assert "ok" in result.features

    def test_a_close_after_a_skipped_one_starts_at_the_last_close(self, monkeypatch):
        # one pool clock: driven at 10 s and then at 30 s, every state closes
        # ]10 s, 30 s], which a clock derived as t - interval would not
        levels = {"a": 20.0, "b": 20.0, "c": 20.0, "d": 28.0}
        pipeline = Pipeline([make_spec(sid) for sid in levels], [simple_service()],
                            synth_streams({sid: ("temperature", v) for sid, v in levels.items()},
                                          duration_s=40.0),
                            reliability_interval_s=10.0)
        closes = []
        inner = pipeline_module.close_interval

        def recording(states, *args):
            closes.append([(state, state.q) for state in states])
            return inner(states, *args)

        monkeypatch.setattr(pipeline_module, "close_interval", recording)
        pipeline.run_cycle(10_000)
        pipeline.run_cycle(30_000)
        _, second = closes
        assert {q for _, q in second} == {0, 1}
        assert [state for state, _ in second] == [dyn.rel for dyn in pipeline._dyn.values()]
        for state, q in second:
            n, unit = state.n_expected, state.seconds_per_unit
            assert state.lambda_history[-1] == (10_000, 30_000, compute_lambda(q, n))
            assert state.beta.hex() == interval_reliability(q, n, 20.0 / unit).hex()

    def test_shared_inference_computed_once(self):
        sensors = [make_spec("m1", Modality.MOTION), make_spec("m2", Modality.MOTION)]
        svc_a = simple_service("a", ("motion",), features=("motion_mean", "presence"))
        svc_b = simple_service("b", ("motion",), features=("presence",))
        streams = synth_streams({"m1": ("motion", 0.6), "m2": ("motion", 0.6)})
        pipeline = Pipeline(sensors, [svc_a, svc_b], streams, mode=Mode.UNIFIED)
        result = pipeline.run_cycle(5000)
        assert result.features["a"].components["presence"] == \
            result.features["b"].components["presence"]
        # presence shared (1 miss + 1 hit), motion_mean computed once
        assert pipeline.feature_invocations == 2
        assert pipeline.cache_hits == 1

    def test_per_service_mode_recomputes_shared_features(self):
        sensors = [make_spec("m1", Modality.MOTION), make_spec("m2", Modality.MOTION)]
        svc_a = simple_service("a", ("motion",), features=("presence",))
        svc_b = simple_service("b", ("motion",), features=("presence",))
        streams = synth_streams({"m1": ("motion", 0.6), "m2": ("motion", 0.6)})
        unified = Pipeline(sensors, [svc_a, svc_b], streams, mode=Mode.UNIFIED)
        per_service = Pipeline(sensors, [svc_a, svc_b], streams, mode=Mode.PER_SERVICE)
        r1 = unified.run_cycle(5000)
        r2 = per_service.run_cycle(5000)
        assert r1.features["a"] == r2.features["a"]
        assert r1.features["b"] == r2.features["b"]
        assert unified.feature_invocations == 1
        assert per_service.feature_invocations == 2

    def test_no_selection_mode_uses_every_live_sensor(self):
        sensors = [make_spec(f"t{i}") for i in (1, 2, 3)]
        service = simple_service()
        streams = synth_streams({f"t{i}": ("temperature", 20.0) for i in (1, 2, 3)})
        selective = Pipeline(sensors, [service], streams, mode=Mode.UNIFIED)
        fused_all = Pipeline(sensors, [service], streams, mode=Mode.NO_SELECTION_FUSED)
        r_sel = selective.run_cycle(5000)
        r_all = fused_all.run_cycle(5000)
        assert r_all.features["svc"].provenance[:3] == ("t1", "t2", "t3")
        assert len(r_sel.features["svc"].provenance) < len(r_all.features["svc"].provenance)
        assert fused_all.counters.points_processed > selective.counters.points_processed

    @pytest.mark.parametrize("sensors, services, streams, message", [
        (("t1", "t2", "t1"), ("svc",), {}, "sensors[2]: duplicate sensor id 't1'"),
        (("t1",), ("svc", "svc"), {}, "services[1]: duplicate service id 'svc'"),
        (("t1",), ("svc",), {"t1": "temperature", "tX": "temperature"},
         "streams['tX']: stream for unknown sensor 'tX'"),
        # a CSV row may label t1's stream co2 while its sensor is temperature
        (("t1",), ("svc",), {"t1": "co2"},
         "streams['t1']: stream for sensor 't1' is 'co2', the sensor is 'temperature'"),
    ], ids=["repeated_sensor", "repeated_service", "unknown_stream", "stream_of_another_modality"])
    def test_direct_caller_refusal_names_its_argument(self, sensors, services, streams, message):
        streams = synth_streams({sid: (modality, 20.0) for sid, modality in streams.items()})
        with pytest.raises(ConfigError) as err:
            Pipeline([make_spec(sid) for sid in sensors], [simple_service(s) for s in services],
                     streams)
        assert str(err.value) == message

    def test_a_custom_label_is_matched_in_any_case(self):
        # the sensor, its stream, the service's need and its feature id
        # each spell 'lux' their own way
        spec = make_spec("l1", "Lux")
        stream = SensorStream("l1", " LUX ", (1000, 2000), (1.0, 2.0))
        svc = ServiceSpec(qos=QosProfile("svc", modality_needs=("lUx",)), period_s=1.0,
                          k_l=1, k_r=0, delta_t_s=1.0, features=("Lux_mean",))
        assert spec.modality == stream.modality == "lux"
        assert svc.qos.modality_needs == ("lux",)
        result = Pipeline([spec], [svc], {"l1": stream}).run_cycle(2000)
        assert result.errors == {}
        assert result.features["svc"].components == {"Lux_mean": 2.0}

    @pytest.mark.parametrize("mode, misses, hits", [
        (Mode.UNIFIED, [2], [1]),
        (Mode.TOPSIS_BASELINE, [2], [1]),
        (Mode.NO_SELECTION_FUSED, [2], [1]),
        # one cache per service, in service order: a computes two
        # features, b its one
        (Mode.PER_SERVICE, [2, 1], [0, 0]),
    ])
    def test_one_feature_cache_per_scope(self, mode, misses, hits):
        sensors = [make_spec("m1", Modality.MOTION), make_spec("m2", Modality.MOTION)]
        services = [simple_service("b", ("motion",), features=("presence",)),
                    simple_service("a", ("motion",), features=("presence", "motion_mean"))]
        streams = synth_streams({"m1": ("motion", 0.6), "m2": ("motion", 0.6)})
        pipeline = Pipeline(sensors, services, streams, mode=mode)
        pipeline.run_cycle(5000)
        assert [cache.misses for cache in pipeline.caches()] == misses
        assert [cache.hits for cache in pipeline.caches()] == hits

    def test_feature_outside_declared_needs_rejected(self):
        with pytest.raises(ConfigError, match="'presence' needs modality 'motion' outside"):
            simple_service(modalities=("temperature",),
                           features=("temperature_mean", "presence"))

    def test_unknown_feature_id_rejected(self):
        with pytest.raises(ConfigError, match="cannot resolve feature id 'sound_level'"):
            simple_service(features=("temperature_mean", "sound_level"))

    @pytest.mark.parametrize("field, value", [
        ("period_s", 0.0),
        ("period_s", 0.0001),  # not a whole millisecond
        ("delta_t_s", 0.0),
        ("k_l", 0),            # with k_r = 0
    ])
    def test_service_the_cycle_cannot_run_is_rejected(self, field, value):
        with pytest.raises(ConfigError):
            replace(simple_service(), **{field: value})

    def test_alpha_tracks_voted_outliers(self):
        sensors = [make_spec(f"t{i}") for i in (1, 2, 3)]
        streams = synth_streams({"t1": ("temperature", 20.0),
                                 "t2": ("temperature", 20.0),
                                 "t3": ("temperature", 28.0)})
        pipeline = Pipeline(sensors, [simple_service()], streams)
        pipeline.run_cycle(1000)
        alphas = {sid: pipeline._dyn[sid].alpha for sid in ("t1", "t2", "t3")}
        assert alphas["t1"] == 1.0 and alphas["t2"] == 1.0
        assert alphas["t3"] == pytest.approx(np.exp(-8.0), rel=1e-9)

    @staticmethod
    def run_with_a_nan_vote(nan_at_ms, last_ms):
        # five sensors read 20.0 every second but once, when they read
        # values near the float range that take the vote's Kalman estimate
        # through inf to NaN; the service ranks every 5 s
        ids = [f"t{i}" for i in range(1, 6)]
        times = tuple(range(1000, last_ms + 1, 1000))
        streams = {
            sid: SensorStream(sid, Modality.TEMPERATURE, times,
                              tuple(extreme if t == nan_at_ms else 20.0 for t in times))
            for sid, extreme in zip(ids, (1e308, -1e308, 1e308, -1e308, 1e308))
        }
        pipeline = Pipeline([make_spec(sid) for sid in ids],
                            [simple_service(period_s=5.0)], streams)
        return pipeline, [pipeline.run_cycle(t_ms) for t_ms in times]

    def test_a_nan_alpha_replaced_before_any_ranking_reads_it_is_harmless(self):
        pipeline, results = self.run_with_a_nan_vote(nan_at_ms=2000, last_ms=5000)
        assert results[-1].errors == {}
        assert len(results[-1].trace) == 5
        assert all(pipeline._dyn[f"t{i}"].alpha == 1.0 for i in range(1, 6))

    def test_a_nan_alpha_that_a_ranking_reads_is_refused(self):
        with pytest.raises(ValueError, match=r"state entries must lie in \[0, 1\]"):
            self.run_with_a_nan_vote(nan_at_ms=5000, last_ms=5000)

    @pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
    def test_cycle_times_must_increase(self, mode):
        # an evicted cache key may recur only on a clock that goes back
        sensors = [make_spec("t1"), make_spec("t2")]
        streams = synth_streams({"t1": ("temperature", 20.0), "t2": ("temperature", 21.0)})
        pipeline = Pipeline(sensors, [simple_service()], streams, mode=mode)
        pipeline.run_cycle(4000)
        for t_ms in (4000, 3000):  # repeated, backwards
            with pytest.raises(ValueError, match="cycle time .* does not follow 4000"):
                pipeline.run_cycle(t_ms)
        assert "svc" in pipeline.run_cycle(5000).features
        assert pipeline.counters.cycles == 2

    def test_zone_scoping_limits_the_cohort(self):
        sensors = [make_spec("t1", zone="lab"), make_spec("t2", zone="hall")]
        service = simple_service(zone="lab")
        streams = synth_streams({"t1": ("temperature", 20.0), "t2": ("temperature", 99.0)})
        pipeline = Pipeline(sensors, [service], streams)
        result = pipeline.run_cycle(5000)
        assert result.features["svc"].components["temperature_mean"] == pytest.approx(20.0)
        assert {r.sensor_id for r in result.trace} == {"t1"}

    def test_ranking_is_called_once_per_cohort_and_profile_per_cycle(self, monkeypatch):
        # the cycle ranks through the module-level rank_terms, ids first and
        # positionally, so a bypass or a second call shows here.  Zone
        # scoping splits the temperature cohort, so both temperature cohorts
        # are ranked.
        sensors = [make_spec("t1", zone="lab"), make_spec("t2", zone="lab"),
                   make_spec("t3", zone="hall"), make_spec("t4", zone="lab"),
                   make_spec("m1", Modality.MOTION, zone="lab"),
                   make_spec("m2", Modality.MOTION, zone="lab")]
        streams = synth_streams({"t1": ("temperature", 20.0), "t2": ("temperature", 21.0),
                                 "t3": ("temperature", 22.0), "m1": ("motion", 0.5),
                                 "m2": ("motion", 0.6)})  # t4 has no stream
        services = [simple_service("all", ("motion", "temperature"),
                                   features=("temperature_mean", "motion_mean")),
                    simple_service("lab", ("temperature",), period_s=2.0, zone="lab")]
        live = {("all", "motion"): ("m1", "m2"), ("all", "temperature"): ("t1", "t2", "t3"),
                ("lab", "temperature"): ("t1", "t2")}
        calls = counted(monkeypatch, "rank_terms")
        pipeline = Pipeline(sensors, services, streams, mode=Mode.UNIFIED)
        expected = []
        for t_ms in range(1000, 10_001, 1000):
            cohorts = [live[(plan.spec.service_id, mk)] for plan in pipeline._due_plans(t_ms)
                       for mk in plan.spec.qos.modality_needs]
            expected.extend(dict.fromkeys(cohorts))
            pipeline.run_cycle(t_ms)
        assert len(expected) == 9 * 2 + 5  # "all" from t = 2 s, "lab" every 2 s
        assert [tuple(args[0]) for args in calls] == expected


def temperature_service(service_id, select_count=1, k_l=2, delta_t_s=1.0):
    return ServiceSpec(
        qos=QosProfile(service_id=service_id, modality_needs=("temperature",),
                       select_count=select_count),
        period_s=1.0, k_l=k_l, k_r=0, delta_t_s=delta_t_s,
        features=("temperature_mean", "temperature_std"),
    )


class TestSharedWork:
    """Within a cycle, services of one scope rank a cohort once per profile
    and fuse a window once per bounds, grid step and sources."""

    sensors = [make_spec(f"t{i}") for i in (1, 2, 3, 4)]
    streams = generate_synthetic(
        [GeneratorSpec(sensor_id=f"t{i}", modality="temperature", level=level,
                       noise_std=0.3, period_s=0.7, duration_s=12.0)
         for i, level in ((1, 20.0), (2, 20.4), (3, 21.0), (4, 26.0))],
        seed=4,
    )

    def run(self, services, mode, cycles=range(1000, 10_001, 1000)):
        pipeline = Pipeline(self.sensors, services, self.streams, mode=mode)
        results = [pipeline.run_cycle(t_ms) for t_ms in cycles]
        return pipeline, results

    @pytest.mark.parametrize("mode, ranks_per_cycle", [(Mode.UNIFIED, 1),
                                                       (Mode.PER_SERVICE, 2)])
    def test_one_cohort_and_profile_is_ranked_once_whatever_the_count(
            self, monkeypatch, mode, ranks_per_cycle):
        services = [temperature_service("one"), temperature_service("three", select_count=3)]
        with monkeypatch.context() as patch:
            calls = counted(patch, "rank_terms")
            _, shared = self.run(services, mode)
        # both services are due from t = 2 s
        assert len(calls) == 9 * ranks_per_cycle
        for svc in services:
            _, alone = self.run([svc], mode)
            for both, solo in zip(shared, alone):
                assert both.features.get(svc.service_id) == solo.features.get(svc.service_id)
                assert [r for r in both.trace if r.service_id == svc.service_id] == solo.trace
        last = shared[-1].trace
        assert sum(r.selected for r in last if r.service_id == "one") == 1
        assert sum(r.selected for r in last if r.service_id == "three") == 3

    @pytest.mark.parametrize("profile", [{"weights": (1.0, 0.5, 1.0, 1.0, 1.0)},
                                         {"utopia": (1.0, 0.5, 1.0, 1.0, 1.0)},
                                         {"beta_source": "cumulative"}])
    def test_each_ranking_profile_ranks_apart(self, monkeypatch, profile):
        other = temperature_service("other")
        other = replace(other, qos=replace(other.qos, **profile))
        with monkeypatch.context() as patch:
            calls = counted(patch, "rank_terms")
            self.run([temperature_service("default"), other], Mode.UNIFIED, cycles=[4000])
        assert len(calls) == 2

    unit = st.floats(min_value=0.0, max_value=1.0)

    # shrinking a failing pipeline takes minutes; the unshrunk example is
    # reported instead
    @settings(deadline=None, max_examples=60,
              phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(states=st.lists(st.tuples(unit, unit, unit), min_size=4, max_size=4),
           raws=st.lists(st.tuples(*[st.floats(min_value=0.0, max_value=100.0)] * 3),
                         min_size=4, max_size=4),
           utopia=st.tuples(*[unit] * 5),
           weights=st.tuples(*[st.one_of(st.just(0.0), st.floats(min_value=0.0,
                                                                  max_value=10.0))] * 5
                             ).filter(lambda w: sum(w) > 0),
           beta_source=st.sampled_from(["interval", "cumulative"]),
           count=st.integers(min_value=1, max_value=5))
    def test_the_cycle_ranks_its_states_as_rank_and_select_ranks_their_rows(
            self, states, raws, utopia, weights, beta_source, count):
        # the static terms are fixed at construction; alpha and the beta of
        # the profile's source are read from the states at each ranking
        sensors = [make_spec(f"t{i}", resolution=res, response=resp, sensing_range=rng)
                   for i, (res, resp, rng) in enumerate(raws, start=1)]
        svc = temperature_service("svc", select_count=count)
        svc = replace(svc, qos=replace(svc.qos, utopia=utopia, weights=weights,
                                       beta_source=beta_source))
        pipeline = Pipeline(sensors, [svc], self.streams)
        plan = pipeline._plans[0]
        need = plan.needs[0]
        specs = {spec.sensor_id: spec for spec in sensors}
        rows = []
        for sid, (alpha, beta, beta_cumulative) in zip(need.live, states):
            dyn = pipeline._dyn[sid]
            dyn.alpha, dyn.rel.beta, dyn.rel.beta_cumulative = alpha, beta, beta_cumulative
            rows.append((alpha, beta if beta_source == "interval" else beta_cumulative)
                        + specs[sid].static_scores)
        trace = []
        selected = pipeline._select(plan, need, 4000, trace)
        order, ranked = rank_and_select(need.live, rows, svc.qos)
        assert selected == order[:count]
        assert all(type(row) is TraceRow for row in trace)
        assert [(*row[:3], *map(float.hex, row[3:6]), *row[6:]) for row in trace] == [
            (4000, "svc", sid, d_m.hex(), d_a.hex(), d_ma.hex(), rank, rank <= count)
            for sid, d_m, d_a, d_ma, rank in ranked]

    @pytest.mark.parametrize("mode, fusions", [(Mode.UNIFIED, 1), (Mode.PER_SERVICE, 2)])
    def test_equal_windows_and_sources_are_fused_once(self, monkeypatch, mode, fusions):
        services = [temperature_service("a"), temperature_service("b")]
        with monkeypatch.context() as patch:
            calls = counted(patch, "fuse_window")
            pipeline, _ = self.run(services, mode, cycles=[4000])
        assert len(calls) == fusions
        # every activation still counts the samples of its window
        alone, _ = self.run(services[:1], mode, cycles=[4000])
        assert pipeline.counters.points_processed == 2 * alone.counters.points_processed > 0

    @pytest.mark.parametrize("mode", [Mode.UNIFIED, Mode.PER_SERVICE])
    def test_equal_bounds_on_different_grids_are_fused_apart(self, monkeypatch, mode):
        # ]2 s, 4 s] as 2 x 1 s and as 4 x 0.5 s
        services = [temperature_service("coarse"),
                    temperature_service("fine", k_l=4, delta_t_s=0.5)]
        with monkeypatch.context() as patch:
            calls = counted(patch, "fuse_window")
            self.run(services, mode, cycles=[4000])
        assert len(calls) == 2
        assert sorted(len(args[1]) for args in calls) == [2, 4]

    @pytest.mark.parametrize("mode", [Mode.UNIFIED, Mode.PER_SERVICE])
    def test_points_processed_is_counted_per_activation(self, mode):
        # both services of two_service.yaml read the same windows; 960 is
        # the count from before fused windows were shared
        report = run_scenario(load_config("two_service"), mode=mode)
        assert report.points_processed == 960


class TestHorizonIndependence:
    """Per-cycle work must not grow with elapsed time (counted, not timed)."""

    def test_window_candidates_give_the_whole_stream_result(self, monkeypatch):
        # samples every 3 s on a 1 s grid: the first ticks of a window
        # interpolate from points that only the temporal tolerance keeps
        cfg = load_config("fault_scenario", duration_s=300)
        cfg = replace(cfg, generators=[replace(g, period_s=3.0) for g in cfg.generators])
        windowed = run_scenario(cfg)
        inner = pipeline_module.fuse_window

        def whole_streams(columns, *args):
            return inner([(ts, vs, 0, len(ts)) for ts, vs, _, _ in columns], *args)

        with monkeypatch.context() as patch:
            patch.setattr(pipeline_module, "fuse_window", whole_streams)
            whole = run_scenario(cfg)
        assert windowed.features == whole.features
        assert windowed.trace == whole.trace
        assert windowed.points_processed == whole.points_processed

    def largest_window_input(self, monkeypatch, duration_s):
        """The most samples one source gives a fused window over a fault
        run of ``duration_s``."""
        calls = {"largest": 0, "closes": 0}
        inner_fuse = pipeline_module.fuse_window
        inner_close = pipeline_module.close_interval

        def counting_fuse(columns, *args):
            calls["largest"] = max([calls["largest"], *(hi - lo for _, _, lo, hi in columns)])
            return inner_fuse(columns, *args)

        def counting_close(*args, **kwargs):
            calls["closes"] += 1
            return inner_close(*args, **kwargs)

        def forbidden(*args, **kwargs):
            raise AssertionError("close_interval re-integrated the rate history")

        with monkeypatch.context() as patch:
            patch.setattr(pipeline_module, "fuse_window", counting_fuse)
            patch.setattr(pipeline_module, "close_interval", counting_close)
            patch.setattr(reliability_module, "cumulative_reliability", forbidden)
            run_scenario(load_config("fault_scenario", duration_s=duration_s))
        assert calls["closes"] > 0
        return calls["largest"]

    def test_window_input_and_reliability_close_do_not_grow(self, monkeypatch):
        short = self.largest_window_input(monkeypatch, 300.0)
        long = self.largest_window_input(monkeypatch, 2400.0)
        assert 0 < short == long


class TestBoundedState:
    def test_cache_and_key_accounting_do_not_grow_with_the_horizon(self):
        # one 9600 s fault run, its cache and key-accounting state pickled
        # after 2400 s and at the end
        cfg = load_config("fault_scenario", duration_s=9600)
        streams = inject_faults(generate_synthetic(cfg.generators, cfg.seed), cfg.faults, cfg.seed)
        pipeline = Pipeline(cfg.sensors, cfg.services, streams, voting=cfg.voting,
                            kalman=cfg.kalman, reliability_interval_s=cfg.reliability_interval_s)

        def state():
            return len(pickle.dumps(([c._store for c in pipeline.caches()],
                                     pipeline._retired_keys)))

        sizes, keys = {}, {}
        for t_ms in range(pipeline.tick_ms, 9_600_001, pipeline.tick_ms):
            pipeline.run_cycle(t_ms)
            if t_ms in (2_400_000, 9_600_000):
                sizes[t_ms], keys[t_ms] = state(), pipeline.distinct_feature_keys
        assert sizes[9_600_000] <= sizes[2_400_000]
        # one new window per second: the count still covers every key
        assert keys[9_600_000] - keys[2_400_000] == 7200
        assert keys[9_600_000] == pipeline.feature_invocations


#: feature id -> the modality it reads; services draw from this shared pool
SHARED_FEATURES = {"temperature_mean": "temperature", "temperature_max": "temperature",
                   "motion_mean": "motion", "presence": "motion"}


@st.composite
def service_mixes(draw):
    """One to three services over a temperature and a motion cohort that
    draw feature ids from one pool, with any window a cycle can run."""
    services = []
    for i in range(draw(st.integers(min_value=1, max_value=3))):
        features = tuple(draw(st.lists(st.sampled_from(sorted(SHARED_FEATURES)),
                                       min_size=1, max_size=3, unique=True)))
        k_l = draw(st.integers(min_value=0, max_value=3))
        services.append(ServiceSpec(
            qos=QosProfile(service_id=f"s{i}",
                           modality_needs=tuple(sorted({SHARED_FEATURES[f] for f in features}))),
            period_s=draw(st.sampled_from([0.5, 1.0, 2.0, 3.0])),
            k_l=k_l,
            k_r=draw(st.integers(min_value=0 if k_l else 1, max_value=2)),
            delta_t_s=draw(st.sampled_from([0.5, 1.0, 2.0])),
            features=features,
        ))
    return services


def coinciding_windows():
    """Two services whose windows coincide one 0.5 s cycle apart, so the
    second reads the first's entry if the eviction kept it."""
    return [ServiceSpec(qos=QosProfile(service_id=sid, modality_needs=("temperature",),
                                       select_count=2),
                        period_s=0.5, k_l=k_l, k_r=k_r, delta_t_s=0.5,
                        features=("temperature_mean",))
            for sid, k_l, k_r in (("a", 1, 1), ("b", 2, 0))]


class TestCacheEviction:
    """Evicting at the cycle time drops only windows no later cycle can ask for."""

    sensors = [make_spec("t1"), make_spec("t2"), make_spec("m1", Modality.MOTION),
               make_spec("m2", Modality.MOTION)]
    streams = generate_synthetic(
        [GeneratorSpec(sensor_id=sid, modality=modality, level=level, noise_std=0.1,
                       period_s=1.0, duration_s=16.0)
         for sid, modality, level in (("t1", "temperature", 20.0), ("t2", "temperature", 20.5),
                                      ("m1", "motion", 0.4), ("m2", "motion", 0.45))],
        seed=3,
    )

    def run(self, services, mode, evicts=True):
        pipeline = Pipeline(self.sensors, services, self.streams, mode=mode)
        outputs = []
        for t_ms in range(pipeline.tick_ms, 16_001, pipeline.tick_ms):
            result = pipeline.run_cycle(t_ms)
            outputs.append((result.features, result.errors))
            for cache in pipeline.caches() if evicts else ():
                assert all(key[2] >= t_ms for key in cache._store)
        counts = (pipeline.cache_hits, pipeline.feature_invocations,
                  pipeline.distinct_feature_keys)
        return outputs, counts

    @settings(max_examples=30, deadline=None)
    @given(services=service_mixes(), mode=st.sampled_from([Mode.UNIFIED, Mode.PER_SERVICE]))
    @example(services=coinciding_windows(), mode=Mode.UNIFIED)
    def test_eviction_loses_no_hit(self, services, mode):
        evicting = self.run(services, mode)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(FeatureCache, "evict_before", lambda self, cutoff_ms: [])
            keeping = self.run(services, mode, evicts=False)
        assert evicting == keeping
