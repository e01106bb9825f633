import gc
import json
import math
import os
import re
import subprocess
import sys
from collections.abc import Callable
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeprep.harness import (
    FAULT_PARAMS,
    GENERATOR_PARAMS,
    FaultKind,
    FaultSpec,
    GeneratorSpec,
    compare_modes,
    generate_synthetic,
    ingest_csv,
    inject_faults,
    load_scenario,
    parse_scenario,
    parse_synth_spec,
    run_scenario,
    write_streams_csv,
)
from edgeprep.cli import main
from edgeprep.model import ConfigError, Direction, Modality, SensorStream
from edgeprep.pipeline import Mode
from edgeprep.ranking import rank_and_select
from conftest import load_config, writable_as_utf8


def stream_of(sid, pairs, modality=Modality.TEMPERATURE):
    return SensorStream(sid, modality, tuple(t for t, _ in pairs), tuple(v for _, v in pairs))


class TestIngestCsv:
    def write(self, tmp_path, text):
        path = tmp_path / "streams.csv"
        path.write_text(text, encoding="utf-8")
        return path

    def test_two_row_file(self, tmp_path):
        path = self.write(tmp_path, "timestamp_ms,sensor_id,modality,value\n"
                                    "1000,s1,temperature,20.5\n"
                                    "2000,s1,temperature,21.0\n")
        streams = ingest_csv(path)
        assert list(streams) == ["s1"]
        assert streams["s1"].values == (20.5, 21.0)
        assert streams["s1"].modality == Modality.TEMPERATURE

    def test_duplicate_timestamp_names_the_line(self, tmp_path):
        path = self.write(tmp_path, "timestamp_ms,sensor_id,modality,value\n"
                                    "1000,s1,temperature,20.5\n"
                                    "1000,s1,temperature,21.0\n")
        with pytest.raises(ValueError, match=":3"):
            ingest_csv(path)

    def test_rows_out_of_order_are_sorted_and_a_late_duplicate_named(self, tmp_path):
        rows = "timestamp_ms,sensor_id,modality,value\n3000,s1,temperature,3.0\n" \
               "1000,s1,temperature,1.0\n2000,s1,temperature,2.0\n"
        stream = ingest_csv(self.write(tmp_path, rows))["s1"]
        assert (stream.timestamps_ms, stream.values) == ((1000, 2000, 3000), (1.0, 2.0, 3.0))
        path = self.write(tmp_path, rows + "3000,s1,temperature,4.0\n")
        with pytest.raises(ValueError, match=":5: .*previous at line 2"):
            ingest_csv(path)

    def test_empty_file_with_header(self, tmp_path):
        path = self.write(tmp_path, "timestamp_ms,sensor_id,modality,value\n")
        assert ingest_csv(path) == {}

    def test_malformed_row_names_the_line(self, tmp_path):
        path = self.write(tmp_path, "timestamp_ms,sensor_id,modality,value\n"
                                    "1000,s1,temperature,twenty\n")
        with pytest.raises(ValueError, match=":2"):
            ingest_csv(path)

    def test_bad_header_rejected(self, tmp_path):
        path = self.write(tmp_path, "time,id,kind,val\n1000,s1,temperature,1.0\n")
        with pytest.raises(ValueError, match="header"):
            ingest_csv(path)

    @pytest.mark.parametrize("row, empty", [
        ("1000,,co2,22.0", "sensor id"),
        ("1000,t1,,22.0", "modality"),
        ("1000, ,co2,22.0", "sensor id"),
    ])
    def test_empty_id_or_modality_names_the_line(self, tmp_path, row, empty):
        path = self.write(tmp_path, "timestamp_ms,sensor_id,modality,value\n"
                                    f"1000,s1,co2,20.5\n{row}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: empty {empty}")):
            ingest_csv(path)

    @pytest.mark.parametrize("row, message", [
        ("1000,s1,co2", "expected 4 fields, got 3"),
        ("1000,s1,co2,22.0,x", "expected 4 fields, got 5"),
        ("1e3,s1,co2,22.0", "malformed row ['1e3', 's1', 'co2', '22.0']"),
        ("1000,s1,co2, nan ", "non-finite value 'nan'"),
        (" -5 ,s1,co2,22.0", "negative timestamp -5"),
        # the rows of one instant share one parse, refused at the first
        (" -5 ,s1,co2,22.0\n -5 ,s2,co2,22.0\n -5 ,s3,co2,22.0", "negative timestamp -5"),
        ("-5,,co2,inf", "non-finite value 'inf'"),
        ("-5,,co2,22.0", "negative timestamp -5"),
        ("x,,co2,22.0", "malformed row ['x', '', 'co2', '22.0']"),
        # int() and float() read Python literals that are no CSV number:
        # digits grouped by '_' and non-ASCII digits
        ("1_000,s2,co2,22.0", "malformed row ['1_000', 's2', 'co2', '22.0']"),
        ("3000,s2,co2, 4_00.5 ", "malformed row ['3000', 's2', 'co2', ' 4_00.5 ']"),
        ("\uff12\uff10\uff10\uff10,s2,co2,22.0",
         "malformed row ['\uff12\uff10\uff10\uff10', 's2', 'co2', '22.0']"),
        ("3000,s2,co2, \uff14.5", "malformed row ['3000', 's2', 'co2', ' \uff14.5']"),
        ("3000, s1 , humidity ,22.0", "sensor 's1' switches modality 'co2' -> 'humidity'"),
    ])
    def test_each_bad_row_fails_with_its_line_and_reason(self, tmp_path, row, message):
        path = self.write(tmp_path, "timestamp_ms,sensor_id,modality,value\n"
                                    f"1000,s1,co2,20.5\n\n{row}\n2000,s1,co2,1.0\n")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:4: {message}')}$"):
            ingest_csv(path)

    def test_one_instant_reads_alike_in_time_order_and_sensor_order(self, tmp_path):
        rows = ["1000,s1,co2,1.0", " 1000 ,s2,co2,2.0", "2000,s1,co2,3.0", "2000,s2,co2,4.0"]
        header = "timestamp_ms,sensor_id,modality,value\n"
        by_time = ingest_csv(self.write(tmp_path, header + "\n".join(rows)))
        by_sensor = ingest_csv(self.write(tmp_path, header + "\n".join(rows[0::2] + rows[1::2])))
        assert by_time == by_sensor == {
            "s1": SensorStream("s1", "co2", (1000, 2000), (1.0, 3.0)),
            "s2": SensorStream("s2", "co2", (1000, 2000), (2.0, 4.0)),
        }
        # rows of one instant that spell it alike share one parsed int
        assert by_time["s1"].timestamps_ms[1] is by_time["s2"].timestamps_ms[1]

    def test_a_repeat_among_rows_of_one_instant_names_both_lines(self, tmp_path):
        path = self.write(tmp_path, "timestamp_ms,sensor_id,modality,value\n"
                                    "1000,s1,co2,1.0\n1000,s2,co2,2.0\n1000,s1,co2,3.0\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}:4: duplicate or non-increasing timestamp 1000 for sensor 's1' "
                f"(previous at line 2)")):
            ingest_csv(path)

    def test_modality_switch_rejected(self, tmp_path):
        path = self.write(tmp_path, "timestamp_ms,sensor_id,modality,value\n"
                                    "1000,s1,temperature,20.5\n"
                                    "2000,s1,humidity,55.0\n")
        with pytest.raises(ValueError, match="modality"):
            ingest_csv(path)

    def test_one_modality_in_any_case_is_one_sensor(self, tmp_path):
        # 'CO2' then 'co2' was once refused as a switch of modality
        path = self.write(tmp_path, "timestamp_ms,sensor_id,modality,value\n"
                                    "1000,c1,CO2,400.0\n2000,c1,co2,401.0\n")
        stream = ingest_csv(path)["c1"]
        assert (stream.modality, stream.values) == ("co2", (400.0, 401.0))
        path = self.write(tmp_path, "timestamp_ms,sensor_id,modality,value\n"
                                    "1000,c1,CO2,400.0\n2000,c1,co2,401.0\n"
                                    "3000,c1,motion,0.5\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}:4: sensor 'c1' switches modality 'CO2' -> 'motion'")):
            ingest_csv(path)

    def test_fields_are_stripped_of_any_whitespace(self, tmp_path):
        path = self.write(tmp_path, "timestamp_ms,sensor_id,modality,value\n"
                                    "\x1c1000\t, s1 ,co2\x1f,\x1e20.5\x1d\n")
        stream = ingest_csv(path)["s1"]
        assert (stream.timestamps_ms, stream.values, stream.modality) == \
            ((1000,), (20.5,), Modality.CO2)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        text = ("timestamp_ms,sensor_id,modality,value\n"
                "1000,s1,temperature,20.5\n2000,s1,temperature,21.0\n")
        plain = self.write(tmp_path, text)
        marked = tmp_path / "marked.csv"
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        assert ingest_csv(marked) == ingest_csv(plain)

    def test_ingest_starts_almost_no_garbage_collection(self, tmp_path):
        # rows go straight into per-sensor columns, so no container per row
        # survives to drive the cyclic collector
        gens = [GeneratorSpec(sensor_id=f"t{i}", modality="temperature", level=20.0,
                              noise_std=0.1, duration_s=2400.0) for i in range(7)]
        path = tmp_path / "streams.csv"
        write_streams_csv(generate_synthetic(gens, seed=3), path)
        starts = []

        def count(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        gc.collect()
        gc.callbacks.append(count)
        try:
            streams = ingest_csv(path)
        finally:
            gc.callbacks.remove(count)
        assert sum(map(len, streams.values())) == 16_800
        assert len(starts) <= 2, starts


MODALITIES = [Modality.TEMPERATURE, Modality.HUMIDITY, Modality.CO2, Modality.MOTION,
              Modality("lux"), Modality("noise_db")]


@st.composite
def stream_sets(draw):
    """A few streams of distinct sensors, each with its own modality."""
    ids = draw(st.lists(st.text("abmst0123_", min_size=1, max_size=3),
                        min_size=1, max_size=4, unique=True))
    streams = {}
    for sid in ids:
        modality = draw(st.sampled_from(MODALITIES))
        ts = draw(st.lists(st.integers(0, 10**12), min_size=1, max_size=12, unique=True))
        vs = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=len(ts), max_size=len(ts)))
        streams[sid] = SensorStream(sid, modality, tuple(sorted(ts)), tuple(vs))
    return streams


def scramble(lines, rnd):
    """``lines`` (header first) with the rows shuffled, blank lines between
    some of them and every field padded with spaces."""
    header, rows = lines[0], lines[1:]
    rnd.shuffle(rows)
    out = []
    for line in [header] + rows:
        if out and rnd.random() < 0.3:
            out.append("")
        out.append(",".join(" " * rnd.randrange(3) + f + " " * rnd.randrange(3)
                            for f in line.split(",")))
    return out


def write_lines(path, lines):
    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write("".join(line + "\r\n" for line in lines))


class TestCsvRoundTrip:
    @given(streams=stream_sets(), rnd=st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_any_row_order_spacing_and_line_ending_reads_back(self, tmp_path_factory,
                                                               streams, rnd):
        path = tmp_path_factory.mktemp("roundtrip") / "streams.csv"
        write_streams_csv(streams, path)
        write_lines(path, scramble(path.read_text(encoding="utf-8").splitlines(), rnd))
        assert ingest_csv(path) == streams

    @given(streams=stream_sets(), rnd=st.randoms(use_true_random=False),
           copies=st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_duplicate_names_its_later_line_and_the_previous_one(self, tmp_path_factory,
                                                                 streams, rnd, copies):
        path = tmp_path_factory.mktemp("duplicate") / "streams.csv"
        write_streams_csv(streams, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        for _ in range(copies):
            ts, sid, modality, _ = rnd.choice(lines[1:]).split(",")
            lines.append(",".join((ts, sid, modality, repr(rnd.random()))))
        lines = scramble(lines, rnd)
        write_lines(path, lines)
        # brute force: the first sensor by id, its least repeated timestamp,
        # and the first two lines that carry it
        seen = {}
        for lineno, line in enumerate(lines[1:], start=2):
            if line:
                ts, sid, _, _ = (f.strip() for f in line.split(","))
                seen.setdefault((sid, int(ts)), []).append(lineno)
        sid, ts = min(key for key, at in seen.items() if len(at) > 1)
        first, later = seen[sid, ts][:2]
        with pytest.raises(ValueError) as exc:
            ingest_csv(path)
        assert str(exc.value) == (f"{path}:{later}: duplicate or non-increasing timestamp "
                                  f"{ts} for sensor {sid!r} (previous at line {first})")

    # a NUL is outside the CSV module's reach before Python 3.11
    @given(label=st.text(st.characters(blacklist_characters="\x00")).filter(str.strip))
    @settings(max_examples=60, deadline=None)
    def test_any_label_reads_back_equal(self, tmp_path_factory, label):
        if not writable_as_utf8(label):
            # refused where it is read, before any file is written
            with pytest.raises(ConfigError, match="cannot be written as UTF-8"):
                SensorStream("s1", label, (1000, 2000), (1.0, 2.0))
            return
        streams = {"s1": SensorStream("s1", label, (1000, 2000), (1.0, 2.0))}
        path = tmp_path_factory.mktemp("label") / "streams.csv"
        write_streams_csv(streams, path)
        assert ingest_csv(path) == streams

    @given(
        pairs=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=10**12),
                st.floats(allow_nan=False, allow_infinity=False),
            ),
            min_size=1,
            max_size=40,
            unique_by=lambda pair: pair[0],
        )
    )
    @settings(max_examples=50)
    def test_values_and_timestamps_survive_bit_for_bit(self, tmp_path_factory, pairs):
        pairs = sorted(pairs)
        streams = {"s1": stream_of("s1", pairs)}
        path = tmp_path_factory.mktemp("roundtrip") / "streams.csv"
        write_streams_csv(streams, path)
        back = ingest_csv(path)
        assert back["s1"].timestamps_ms == tuple(t for t, _ in pairs)
        assert back["s1"].values == tuple(v for _, v in pairs)


class TestInjectFaults:
    def base(self):
        return {"s1": stream_of("s1", [(t, 20.0) for t in range(1000, 11_000, 1000)])}

    def test_stuck_at_replaces_only_inside_the_interval(self):
        fault = FaultSpec("s1", FaultKind.STUCK_AT, 3, 6, value=30.0)
        out = inject_faults(self.base(), [fault], seed=1)["s1"]
        for t, v in zip(out.timestamps_ms, out.values):
            assert v == (30.0 if 3000 < t <= 6000 else 20.0)

    def test_dropout_probability_one_removes_everything_in_interval(self):
        fault = FaultSpec("s1", FaultKind.DROPOUT, 3, 6, probability=1.0)
        out = inject_faults(self.base(), [fault], seed=1)["s1"]
        assert out.timestamps_ms == (1000, 2000, 3000, 7000, 8000, 9000, 10_000)

    def test_drift_offset_grows_linearly(self):
        fault = FaultSpec("s1", FaultKind.DRIFT, 0, 10, slope_per_s=0.1)
        out = inject_faults(self.base(), [fault], seed=1)["s1"]
        assert out.values[-1] == pytest.approx(20.0 + 0.1 * 10.0, abs=1e-12)

    def test_spike_is_deterministic_under_seed(self):
        fault = FaultSpec("s1", FaultKind.SPIKE, 0, 10, magnitude=5.0, rate=0.5)
        a = inject_faults(self.base(), [fault], seed=9)["s1"]
        b = inject_faults(self.base(), [fault], seed=9)["s1"]
        assert a.values == b.values
        deviations = {round(abs(v - 20.0), 9) for v in a.values}
        assert deviations <= {0.0, 5.0}
        assert 5.0 in deviations

    def test_unknown_sensor_rejected(self):
        fault = FaultSpec("sX", FaultKind.STUCK_AT, 0, 1, value=1.0)
        with pytest.raises(ConfigError):
            inject_faults(self.base(), [fault], seed=1)

    def test_fault_validation(self):
        with pytest.raises(ConfigError):
            FaultSpec("s1", FaultKind.STUCK_AT, 1, 1)
        with pytest.raises(ConfigError):
            FaultSpec("s1", FaultKind.DROPOUT, 0, 1, probability=1.5)

    @pytest.mark.parametrize("kind", list(FaultKind), ids=lambda k: k.value)
    def test_each_kind_takes_its_own_parameters(self, kind):
        own = {name: 0.5 for name in FAULT_PARAMS[kind.value]}
        # a parameter left at its default is not set
        others = {name: 0.0 for names in FAULT_PARAMS.values() for name in names
                  if name not in own}
        FaultSpec("s1", kind, 0, 1, **own, **others)

    @pytest.mark.parametrize("kind, param", [
        (FaultKind.STUCK_AT, "slope_per_s"),
        (FaultKind.DRIFT, "value"),
        (FaultKind.SPIKE, "probability"),
        (FaultKind.DROPOUT, "magnitude"),
        (FaultKind.DROPOUT, "rate"),
    ])
    def test_a_parameter_its_kind_does_not_read_is_rejected(self, kind, param):
        with pytest.raises(ConfigError, match=f"'{kind.value}' does not read {param}"):
            FaultSpec("s1", kind, 0, 1, **{param: 0.5})

    @pytest.mark.parametrize("fault, level", [
        (FaultSpec("s1", FaultKind.DRIFT, 2, 9, slope_per_s=1e308), 20.0),
        (FaultSpec("s1", FaultKind.SPIKE, 2, 9, magnitude=1e308, rate=1.0), 1e308),
    ], ids=["drift", "spike"])
    def test_a_faulted_value_that_overflows_names_the_fault(self, fault, level):
        param = "slope_per_s" if fault.kind is FaultKind.DRIFT else "magnitude"
        base = {"s1": stream_of("s1", [(t, level) for t in range(1000, 11_000, 1000)])}
        harmless = FaultSpec("s1", FaultKind.STUCK_AT, 0, 1, value=1.0)
        with pytest.raises(ConfigError) as err:
            inject_faults(base, [harmless, fault], seed=1)
        assert re.fullmatch(
            re.escape("scenario.faults[1]: fault on sensor 's1' overflows: value inf at ")
            + "[0-9]+" + re.escape(f" ms from {param}={getattr(fault, param)!r}"),
            str(err.value))

    @pytest.mark.parametrize("kind, param", [
        (FaultKind.STUCK_AT, "value"),
        (FaultKind.DRIFT, "slope_per_s"),
        (FaultKind.SPIKE, "magnitude"),
    ])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_parameter_is_rejected(self, kind, param, value):
        with pytest.raises(ConfigError, match=f"{param} must be finite"):
            FaultSpec("s1", kind, 0, 1, **{param: value})


class TestGenerateSynthetic:
    def test_constant_generator_counts_and_values(self):
        spec = GeneratorSpec(sensor_id="s1", modality="temperature", base="constant",
                             level=22.0, period_s=3.0, duration_s=30.0)
        stream = generate_synthetic([spec], seed=1)["s1"]
        assert len(stream) == 10
        assert set(stream.values) == {22.0}

    def test_degenerate_sinusoid_is_constant(self):
        spec = GeneratorSpec(sensor_id="s1", modality="temperature", base="sinusoid",
                             level=5.0, amplitude=0.0, period_s=1.0, duration_s=10.0)
        stream = generate_synthetic([spec], seed=1)["s1"]
        assert all(v == pytest.approx(5.0, abs=1e-12) for v in stream.values)

    def test_same_seed_and_params_give_identical_streams(self):
        spec = GeneratorSpec(sensor_id="s1", modality="temperature", base="constant",
                             level=1.0, noise_std=0.5, period_s=1.0, duration_s=20.0)
        a = generate_synthetic([spec], seed=4)["s1"]
        b = generate_synthetic([spec], seed=4)["s1"]
        assert a.values == b.values

    def test_nonpositive_period_rejected(self):
        with pytest.raises(ConfigError):
            GeneratorSpec(sensor_id="s1", modality="temperature", period_s=0.0)

    def test_a_repeated_generator_names_its_argument_entry(self):
        specs = [GeneratorSpec(sid, "temperature") for sid in ("s1", "s2", "s1")]
        with pytest.raises(ConfigError) as err:
            generate_synthetic(specs, seed=1)
        assert str(err.value) == "specs[2]: duplicate generator for sensor 's1'"

    def test_ramp_slope(self):
        spec = GeneratorSpec(sensor_id="s1", modality="temperature", base="ramp", level=1.0,
                             slope_per_s=2.0, period_s=1.0, duration_s=5.0)
        stream = generate_synthetic([spec], seed=1)["s1"]
        assert stream.values == (3.0, 5.0, 7.0, 9.0, 11.0)

    @pytest.mark.parametrize("base", sorted(GENERATOR_PARAMS))
    def test_each_base_takes_its_own_parameters(self, base):
        spec = GeneratorSpec(sensor_id="s1", modality="temperature", base=base,
                             **{name: 2.0 for name in GENERATOR_PARAMS[base]})
        assert len(generate_synthetic([spec], seed=1)["s1"]) == 60

    @pytest.mark.parametrize("base, param, value", [
        ("constant", "amplitude", 1.0),
        ("constant", "wavelength_s", 30.0),
        ("ramp", "amplitude", 1.0),
        ("sinusoid", "slope_per_s", 0.5),
    ])
    def test_a_parameter_its_base_does_not_read_is_rejected(self, base, param, value):
        with pytest.raises(ConfigError, match=f"'{base}' does not read {param}"):
            GeneratorSpec(sensor_id="s1", modality="temperature", base=base, **{param: value})

    @pytest.mark.parametrize("base, param", [
        ("constant", "level"),
        ("constant", "noise_std"),
        ("sinusoid", "amplitude"),
        ("sinusoid", "wavelength_s"),
        ("ramp", "slope_per_s"),
    ])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_parameter_is_rejected(self, base, param, value):
        # a NaN noise_std once passed `noise_std < 0` and gave a noise-free stream
        with pytest.raises(ConfigError, match=f"{param} must be finite"):
            GeneratorSpec(sensor_id="s1", modality="temperature", base=base, **{param: value})

    def test_times_are_whole_milliseconds_fixed_at_construction(self):
        spec = GeneratorSpec(sensor_id="s1", modality="temperature", period_s=0.5, start_s=2.5,
                             duration_s=1.001)
        assert (spec.period_ms, spec.start_ms, spec.duration_ms) == (500, 2500, 1001)
        assert generate_synthetic([spec], seed=1)["s1"].timestamps_ms == (3000, 3500)

    @pytest.mark.parametrize("base, params", [
        ("constant", {"noise_std": 1e308}),
        ("constant", {"level": 1.7e308, "noise_std": 1e307}),
        ("sinusoid", {"level": 1e308, "amplitude": 1e308}),
        ("ramp", {"slope_per_s": 1e308}),
    ])
    def test_values_that_overflow_name_the_generator(self, base, params):
        spec = GeneratorSpec(sensor_id="t1", modality="temperature", base=base, **params)
        with pytest.raises(ConfigError, match=r"generator 't1' overflows: value -?inf at \d+ ms "
                                              r"from level=.*, amplitude=.*, slope_per_s=.*, "
                                              r"noise_std="):
            generate_synthetic([spec], seed=1)

    def test_duration_not_truncated_by_float_product(self):
        # 1.001 * 1000 is 1000.9999999999999 in binary floating point
        spec = GeneratorSpec(sensor_id="s1", modality="temperature", period_s=0.001,
                             duration_s=1.001)
        stream = generate_synthetic([spec], seed=1)["s1"]
        assert len(stream) == 1001
        assert stream.timestamps_ms[-1] == 1001


class TestScenarioConfigParsing:
    def test_yaml_round_trip(self, tmp_path):
        (tmp_path / "cfg.yaml").write_text(
            """
            seed: 3
            mode: per_service
            duration_s: 20
            sensors:
              - sensor_id: t1
                modality: temperature
                zone: lab
                static_attrs:
                  resolution: {value: 0.5}
                  response_time: {value: 1.0}
                  range: {value: 50, direction: benefit}
            streams:
              synthetic:
                - {sensor_id: t1, modality: temperature, base: constant, level: 20, period_s: 1}
            services:
              - service_id: svc
                period_s: 1
                granularity_s: 1
                modalities: [temperature]
                weights: {accuracy: 2, reliability: 1, resolution: 1, response_time: 1, range: 1}
                window: {k_l: 2, k_r: 0, delta_t_s: 1.0}
                features: [temperature_mean]
            """,
            encoding="utf-8",
        )
        cfg = load_scenario(tmp_path / "cfg.yaml")
        assert cfg.seed == 3
        assert cfg.mode is Mode.PER_SERVICE
        assert cfg.services[0].qos.weights == (2.0, 1.0, 1.0, 1.0, 1.0)
        assert cfg.generators[0].duration_s == 20.0

    def test_unknown_weight_name_rejected(self):
        raw = {
            "duration_s": 10,
            "sensors": [],
            "streams": {"synthetic": [{"sensor_id": "x", "modality": "motion"}]},
            "services": [{
                "service_id": "svc", "period_s": 1, "modalities": ["motion"],
                "weights": {"speed": 1}, "window": {"k_l": 1, "k_r": 0, "delta_t_s": 1},
                "features": ["motion_mean"],
            }],
        }
        with pytest.raises(ConfigError):
            parse_scenario(raw)

    def test_fault_beyond_horizon_rejected(self):
        cfg = load_config("fault_scenario")
        with pytest.raises(ConfigError):
            type(cfg)(
                sensors=cfg.sensors,
                services=cfg.services,
                duration_s=10.0,  # shorter than the fault windows
                generators=cfg.generators,
                faults=cfg.faults,
            )


def valid_scenario():
    """A small scenario document that sets a key at every nesting level."""
    return {
        "duration_s": 20,
        "voting": {"p": 2},
        "kalman": {"process_noise": 0.001},
        "sensors": [{
            "sensor_id": "t1", "modality": "temperature", "zone": "lab",
            "static_attrs": {"resolution": {"value": 0.5}, "response_time": 1.0,
                             "range": {"value": 50, "direction": "benefit"}},
        }],
        "streams": {"synthetic": [{"sensor_id": "t1", "modality": "temperature", "level": 20}]},
        "faults": [{"sensor_id": "t1", "kind": "drift", "slope_per_s": 0.5,
                    "start_s": 0, "end_s": 10}],
        "services": [{
            "service_id": "svc", "period_s": 1, "modalities": ["temperature"],
            "window": {"k_l": 2, "k_r": 0, "delta_t_s": 1.0}, "features": ["temperature_mean"],
        }],
    }


def valid_synth_spec():
    return {"seed": 1, "duration_s": 5,
            "generators": [{"sensor_id": "s1", "modality": "co2", "level": 2}]}


# nesting level -> (parser, that level's mapping within the parser's document)
LEVELS = {
    "scenario": (parse_scenario, lambda doc: doc),
    "sensor": (parse_scenario, lambda doc: doc["sensors"][0]),
    "static attribute name": (parse_scenario, lambda doc: doc["sensors"][0]["static_attrs"]),
    "static attribute entry": (
        parse_scenario, lambda doc: doc["sensors"][0]["static_attrs"]["range"]),
    "service": (parse_scenario, lambda doc: doc["services"][0]),
    "window": (parse_scenario, lambda doc: doc["services"][0]["window"]),
    "streams": (parse_scenario, lambda doc: doc["streams"]),
    "generator": (parse_scenario, lambda doc: doc["streams"]["synthetic"][0]),
    "fault": (parse_scenario, lambda doc: doc["faults"][0]),
    "voting": (parse_scenario, lambda doc: doc["voting"]),
    "kalman": (parse_scenario, lambda doc: doc["kalman"]),
    "synth spec": (parse_synth_spec, lambda doc: doc),
    "synth generator": (parse_synth_spec, lambda doc: doc["generators"][0]),
}


def parse_with(level, key, value):
    """Parse the valid document for ``level`` with ``key`` set to ``value`` there."""
    parse, locate = LEVELS[level]
    doc = valid_scenario() if parse is parse_scenario else valid_synth_spec()
    parse(doc)
    if value is None:
        del locate(doc)[key]
    else:
        locate(doc)[key] = value
    return parse(doc)


class TestStrictParsing:
    def test_valid_documents_take_dataclass_defaults(self):
        cfg = parse_scenario(valid_scenario())
        assert cfg.voting.c == 2.0
        assert cfg.kalman.measurement_noise == 0.1
        assert cfg.services[0].qos.granularity_s == 1.0
        assert cfg.services[0].qos.weights == (1.0,) * 5
        assert cfg.sensors[0].static_attrs["resolution"].direction is Direction.COST
        assert cfg.generators[0].duration_s == 20.0
        assert cfg.faults[0].start_ms == 0
        generators, seed = parse_synth_spec({"generators": [{"sensor_id": "s1",
                                                             "modality": "CO2"}]})
        assert seed == 0
        assert generators == [GeneratorSpec(sensor_id="s1", modality="co2")]

    @pytest.mark.parametrize("level", sorted(LEVELS))
    def test_unknown_key_at_every_level_is_named(self, level):
        with pytest.raises(ConfigError, match=r"\.bogus_key: unknown key"):
            parse_with(level, "bogus_key", 1)

    @pytest.mark.parametrize("level, key", [
        ("service", "granularity"),        # granularity_s misspelt
        ("service", "k_l"),                # set by window only
        ("service", "modality_needs"),     # set by modalities only
        ("fault", "start_ms"),             # set by start_s only
        ("scenario", "csv_path"),          # set by streams only
        ("scenario", "cache_horizon_s"),   # the cache evicts at the cycle time
        ("scenario", "presence_threshold"),  # fixed at PRESENCE_THRESHOLD
        ("kalman", "initial_state"),       # the filter starts at the first measurement
        ("service", "max_gap_s"),          # two grid steps, fixed by the pipeline
        ("service", "period_ms"),          # derived from period_s
        ("window", "delta_ms"),            # derived from delta_t_s
        ("generator", "start_ms"),         # derived from start_s
    ])
    def test_fields_without_a_key_of_their_own_are_unknown(self, level, key):
        with pytest.raises(ConfigError, match=re.escape(f".{key}: unknown key")):
            parse_with(level, key, 1)

    @pytest.mark.parametrize("features, message", [
        (["sound_level"], "cannot resolve feature id 'sound_level'"),
        (["presence"], "feature 'presence' needs modality 'motion' outside the declared needs"),
        (["temperature_max", "temperature_mean", "temperature_max"],
         "feature 'temperature_max' is listed twice"),
    ])
    def test_bad_feature_id_names_its_service(self, features, message):
        doc = valid_scenario()
        doc["services"].append({**doc["services"][0], "service_id": "other",
                                "features": features})
        with pytest.raises(ConfigError, match=re.escape(f"scenario.services[1]: {message}")):
            parse_scenario(doc)

    @pytest.mark.parametrize("level, key, value", [
        ("service", "period_s", "abc"),
        ("generator", "period_s", "abc"),
        ("scenario", "seed", 1.5),
        ("scenario", "mode", "fast"),
        ("window", "k_l", True),
        ("fault", "kind", "melt"),
        ("fault", "start_s", "abc"),
        ("service", "features", "temperature_mean"),
        ("static attribute entry", "direction", "sideways"),
    ])
    def test_unreadable_value_is_named(self, level, key, value):
        with pytest.raises(ConfigError, match=re.escape(f".{key}:")):
            parse_with(level, key, value)

    @pytest.mark.parametrize("level, path", [
        ("sensor", "scenario.sensors[0].modality"),
        ("generator", "scenario.streams.synthetic[0].modality"),
        ("synth generator", "spec.generators[0].modality"),
    ])
    @pytest.mark.parametrize("label", ["", "  "])
    def test_blank_modality_label_is_named(self, level, path, label):
        # it once became modality "other" silently
        message = f"{path}: modality label {label!r} is blank"
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_with(level, "modality", label)

    @pytest.mark.parametrize("level, path", [
        ("generator", "scenario.streams.synthetic[0].modality"),
        ("synth generator", "spec.generators[0].modality"),
    ])
    def test_a_generator_must_name_its_modality(self, level, path):
        # it once defaulted to 'other' and failed later against its sensor
        with pytest.raises(ConfigError, match=re.escape(f"{path}: required key is missing")):
            parse_with(level, "modality", None)

    @pytest.mark.parametrize("level, key", [
        ("sensor", "sensor_id"),
        ("sensor", "zone"),
        ("service", "period_s"),
        ("service", "window"),
        ("window", "k_r"),
        ("fault", "end_s"),
        ("scenario", "duration_s"),
    ])
    def test_missing_required_field_is_named(self, level, key):
        with pytest.raises(ConfigError, match=re.escape(f".{key}: required key is missing")):
            parse_with(level, key, None)

    @pytest.mark.parametrize("level, key, message", [
        # the generators take the scenario's duration, and are read first
        ("scenario", "duration_s", "scenario.streams.synthetic[0]: generator duration_s must be"),
        ("scenario", "reliability_interval_s", "scenario: reliability_interval_s must be"),
        ("service", "period_s", "scenario.services[0]: period_s must be"),
        ("service", "granularity_s", "scenario.services[0]: granularity_s must be"),
        ("window", "delta_t_s", "scenario.services[0]: delta_t_s must be"),
        ("fault", "start_s", "scenario.faults[0]: fault start_s must be"),
        ("fault", "end_s", "scenario.faults[0]: fault end_s must be"),
        ("kalman", "measurement_noise", "scenario.kalman: "),
        ("voting", "c", "scenario.voting: c must be"),
        ("generator", "period_s", "scenario.streams.synthetic[0]: generator period_s must be"),
        ("generator", "start_s", "scenario.streams.synthetic[0]: generator start_s must be"),
        ("generator", "level", "scenario.streams.synthetic[0]: level must be"),
        ("generator", "noise_std", "scenario.streams.synthetic[0]: noise_std must be"),
        ("fault", "slope_per_s", "scenario.faults[0]: slope_per_s must be"),
    ])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_value_is_named(self, level, key, message, value):
        with pytest.raises(ConfigError, match=re.escape(message) + ".*finite"):
            parse_with(level, key, value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 1e308],
                             ids=["nan", "inf", "-inf", "huge"])
    def test_non_finite_instant_is_rejected(self, value):
        with pytest.raises(ConfigError, match=re.escape("scenario.faults[0]: fault start_s must be")
                           + ".*finite"):
            parse_with("fault", "start_s", value)

    @pytest.mark.parametrize("level, key, value, message", [
        ("generator", "duration_s", 1e308,
         "scenario.streams.synthetic[0]: generator duration_s must be finite in milliseconds"),
        ("generator", "start_s", 1e308,
         "scenario.streams.synthetic[0]: generator start_s must be finite in milliseconds"),
        ("generator", "start_s", 0.0004,
         "generator start_s 0.0004s is not representable in whole milliseconds"),
        ("generator", "start_s", -1, "generator start_s must be finite and >= 0"),
        ("synth spec", "duration_s", 1e308,
         "spec.generators[0]: generator duration_s must be finite in milliseconds"),
        ("fault", "start_s", 0.0001,
         "scenario.faults[0]: fault start_s 0.0001s is not representable in whole milliseconds"),
        ("fault", "end_s", 10.0005,
         "scenario.faults[0]: fault end_s 10.0005s is not representable in whole milliseconds"),
        ("fault", "end_s", -1, "scenario.faults[0]: fault end_s must be finite and >= 0"),
        ("service", "granularity_s", 0.0005,
         "scenario.services[0]: granularity_s 0.0005s is not representable in whole milliseconds"),
    ])
    def test_times_not_in_whole_milliseconds_are_named(self, level, key, value, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_with(level, key, value)

    @pytest.mark.parametrize("level, key, value, message", [
        ("fault", "value", 30, "scenario.faults[0]: 'drift' does not read value"),
        ("generator", "slope_per_s", 0.5,
         "scenario.streams.synthetic[0]: 'constant' does not read slope_per_s"),
        ("synth generator", "amplitude", 1, "spec.generators[0]: 'constant' does not read amplitude"),
    ])
    def test_parameter_its_kind_does_not_read_is_named(self, level, key, value, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_with(level, key, value)

    @pytest.mark.parametrize("level, key, message", [
        # the generators take the scenario's duration, and are read first
        ("scenario", "duration_s", "scenario.streams.synthetic[0]: generator duration_s must be"),
        ("service", "period_s", "scenario.services[0]: period_s must be"),
    ])
    def test_duration_too_large_for_milliseconds_is_named(self, level, key, message):
        with pytest.raises(ConfigError, match=re.escape(message) + ".*finite in milliseconds"):
            parse_with(level, key, 1e308)

    def test_horizon_too_large_for_milliseconds_is_named_without_generators(self):
        doc = {**valid_scenario(), "duration_s": 1e308, "streams": {"csv": "streams.csv"}}
        with pytest.raises(ConfigError, match=re.escape("scenario: duration_s must be")
                           + ".*finite in milliseconds"):
            parse_scenario(doc)

    def test_value_the_dataclass_rejects_names_its_level(self):
        with pytest.raises(ConfigError, match=r"scenario\.voting: p must be"):
            parse_with("voting", "p", 3)

    @pytest.mark.parametrize("key, value", [("period_s", 0.0001)])
    def test_service_the_cycle_cannot_run_is_named(self, key, value):
        with pytest.raises(ConfigError, match=re.escape("scenario.services[0]: ")):
            parse_with("service", key, value)

    @pytest.mark.parametrize("utopia", [[1, 1, 1, 1], [1, 1, 1, 1, 2], [1, 1, float("nan"), 1, 1]],
                             ids=["four", "above_one", "nan"])
    def test_bad_utopia_names_its_service(self, utopia):
        with pytest.raises(ConfigError, match=re.escape("scenario.services[0]: ") + ".*utopia"):
            parse_with("service", "utopia", utopia)

    def test_utopia_read_from_yaml_changes_the_pick(self, tmp_path):
        # "full" sits on the default all-ones utopia, "half" on the one read
        doc = valid_scenario()
        doc["services"][0]["utopia"] = [0.5] * 5
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(doc), encoding="utf-8")
        read = load_scenario(path).services[0].qos
        assert read.utopia == (0.5,) * 5
        ids, rows = ("full", "half"), np.array([[1.0] * 5, [0.5] * 5])
        assert rank_and_select(ids, rows, replace(read, utopia=(1.0,) * 5))[0][:1] == ("full",)
        assert rank_and_select(ids, rows, read)[0][:1] == ("half",)

    def test_streams_name_one_source(self):
        # a run would read the CSV alone and silently drop the generators
        with pytest.raises(ConfigError, match=re.escape("scenario.streams: ") + ".*not both"):
            parse_with("streams", "csv", "streams.csv")


ROOT = Path(__file__).resolve().parents[1]


def readme_block(heading, language):
    """The first ``language`` code block after ``heading`` in README.md."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text[text.index(heading):]
    return re.search(rf"```{language}\n(.*?)```", section, re.DOTALL).group(1)


class TestConfigsAndDocs:
    @pytest.mark.parametrize("path", sorted((ROOT / "configs").glob("*.yaml")),
                             ids=lambda p: p.name)
    def test_every_config_loads(self, path):
        assert load_scenario(path).services

    def test_readme_scenario_block_loads(self):
        cfg = parse_scenario(yaml.safe_load(readme_block("## Scenario config", "yaml")))
        assert cfg.services[0].qos.utopia == (1.0,) * 5

    def test_readme_quickstart_runs(self):
        namespace = {}
        exec(readme_block("## Library quickstart", "python"), namespace)
        assert namespace["alphas"]["d"] < 0.01 < namespace["alphas"]["a"]

    @pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")),
                             ids=lambda p: p.name[:2])
    def test_demo_prints_its_expected_output(self, demo):
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        run = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True)
        assert run.returncode == 0, run.stderr.decode()
        assert run.stdout == (ROOT / "demos" / "expected" / f"{demo.name[:2]}.txt").read_bytes()


def put(*keys, value):
    """The edit that sets the entry at ``keys`` of a config document to ``value``."""
    def edit(doc):
        for key in keys[:-1]:
            doc = doc[key]
        doc[keys[-1]] = value
    return edit


def synth_spec(doc):
    """The ``synth`` spec of a scenario document's generators."""
    return {"seed": doc["seed"], "duration_s": doc["duration_s"],
            "generators": doc["streams"]["synthetic"]}


def mixed_case(csv_text):
    """``csv_text`` with ``co2`` spelt `` CO2 `` on every second row and
    ``motion`` spelt ``Motion`` on every third."""
    header, *rows = csv_text.splitlines(keepends=True)
    for i in range(0, len(rows), 2):
        rows[i] = rows[i].replace(",co2,", ", CO2 ,")
    for i in range(0, len(rows), 3):
        rows[i] = rows[i].replace(",motion,", ",Motion,")
    text = header + "".join(rows)
    assert ", CO2 ," in text and ",Motion," in text
    return text


def without_t3(csv_text):
    """``csv_text`` without the rows of sensor ``t3``."""
    return "".join(line for line in csv_text.splitlines(keepends=True) if ",t3," not in line)


def huge_readings(csv_text):
    """``csv_text`` with every reading 1.7e308: each is finite, but the exact
    sum of a window of them is not, so every mode fails while it runs."""
    header, *rows = csv_text.splitlines(keepends=True)
    return header + "".join(row.rsplit(",", 1)[0] + ",1.7e308\n" for row in rows)


class CliCase(NamedTuple):
    """One CLI run on a config in ``configs/`` after one edit, and its outcome.

    ``edit`` replaces the first ``old`` of the config's text with ``new``
    when it is ``(old, new)``, and changes its parsed document otherwise.
    ``csv(text)`` of the CSV its generators synthesize, when given, becomes
    the config's ``streams.csv``; ``synth`` reads its generators as a spec.

    Exit 2 is a refusal that writes nothing and prints one line on stderr:
    ``edgeprep: error: `` and ``error`` if ``error`` ends in a newline, a line
    that holds ``error`` otherwise.  Exit 1 is a ``compare`` whose every mode
    fails with ``error``.  Exit 0 writes the run's artifacts and no stderr.
    """

    id: str
    command: str
    status: int
    edit: tuple | Callable | None
    error: str = ""
    config: str = "two_service"
    csv: Callable | None = None


CSV_ROW = "timestamp_ms,sensor_id,modality,value\n{}\n".format
STATIC = "scenario.sensors[0]: sensor 'm1' static attribute 'response_time': raw attribute value "
SERVICE_ID = "scenario.services[0]: service id {} may not hold '/', '\\' or NUL\n".format

CLI_CASES = [
    CliCase("unknown_key", "run", 2, ("granularity_s:", "granularity:"),
            "scenario.services[0].granularity: unknown key\n"),
    CliCase("yaml_syntax", "run", 2, ("duration_s: 60", "duration_s: ["), "while parsing"),
    CliCase("unknown_feature", "run", 2, ("co2_mean", "sound_level"), "scenario.services[1]: "),
    CliCase("repeated_feature", "run", 2, ("features: [co2_mean, temperature_mean, presence]",
                                           "features: [co2_mean, temperature_mean, co2_mean]"),
            "scenario.services[1]: "),
    CliCase("utopia_above_one", "run", 2,
            ("select_count: 1\n", "select_count: 1\n    utopia: [1, 1, 1, 1, 2]\n"),
            "scenario.services[0]: "),
    CliCase("unknown_service_key", "run", 2, ("    window:", "    max_gap_s: 2.0\n    window:"),
            "scenario.services[0].max_gap_s: "),
    CliCase("infinite_period", "run", 2, ("period_s: 5\n", "period_s: .inf\n"),
            "scenario.services[0]: "),
    CliCase("period_beyond_milliseconds", "run", 2, ("period_s: 5\n", "period_s: 1e308\n"),
            "scenario.services[0]: "),
    CliCase("granularity_below_a_millisecond", "run", 2,
            ("granularity_s: 1\n", "granularity_s: 0.0005\n"), "scenario.services[0]: "),
    CliCase("nan_kalman_noise", "run", 2, ("measurement_noise: 0.1", "measurement_noise: .nan"),
            "scenario.kalman: "),
    # a CSV stream is checked against the sensors where the file is read, naming it
    CliCase("csv_stream_of_another_modality", "run", 2, None,
            "streams.csv: stream for sensor 't1' is 'co2', the sensor is 'temperature'",
            csv=lambda _: CSV_ROW("1000,t1,co2,22.0")),
    CliCase("csv_stream_for_an_undeclared_sensor", "run", 2, None,
            "streams.csv: stream for unknown sensor 'zz'",
            csv=lambda text: text + "1000,zz,motion,1.0\n"),
    CliCase("fault_on_a_sensor_without_a_stream", "run", 2, None,
            "scenario.faults[0]: sensor 't3' has no stream\n", "fault_scenario", csv=without_t3),
    CliCase("fault_parameter_its_kind_does_not_read", "run", 2,
            ("kind: stuck_at,", "kind: stuck_at, slope_per_s: 0.5,"),
            "scenario.faults[0]: 'stuck_at' does not read slope_per_s\n", "fault_scenario"),
    CliCase("fault_parameter_that_overflows", "run", 2, ("slope_per_s: 0.5", "slope_per_s: 1e308"),
            "scenario.faults[1]: fault on sensor 't7' overflows: "
            "value inf at 91000 ms from slope_per_s=1e+308\n", "fault_scenario"),
    CliCase("nan_noise", "run", 2, put("streams", "synthetic", 3, "noise_std", value=math.nan),
            "scenario.streams.synthetic[3]: "),
    CliCase("noise_that_overflows", "run", 2,
            put("streams", "synthetic", 3, "noise_std", value=1e308), "generator 't1' overflows"),
    CliCase("blank_modality", "run", 2, ("modality: motion\n", 'modality: " "\n'),
            "scenario.sensors[0].modality: "),
    CliCase("generator_without_modality", "run", 2, ("m1, modality: motion, ", "m1, "),
            "scenario.streams.synthetic[0].modality: "),
    # refused where the sensor is parsed, at its key path
    CliCase("static_attribute_that_underflows", "run", 2,
            ("response_time: {value: 0.2, direction: cost}", "response_time: {value: 800}"),
            STATIC + "800.0 is too large: its score exp(-800.0) underflows to 0; "
                     "give it in a coarser unit\n"),
    CliCase("static_attribute_below_zero", "run", 2,
            ("response_time: {value: 0.2, direction: cost}", "response_time: {value: -1}"),
            STATIC + "must be finite and >= 0, got -1.0\n"),
    CliCase("service_id_utf8_cannot_write", "run", 2, ("id: occupancy", 'id: "o\\ud800"'),
            "scenario.services[0]: service id 'o\\ud800' cannot be written as UTF-8\n"),
    # each once ran every cycle and then failed to open features_<id>.ndjson
    CliCase("service_id_with_slash", "run", 2, ("id: occupancy", 'id: "occ/upancy"'),
            SERVICE_ID("'occ/upancy'")),
    CliCase("service_id_with_backslash", "run", 2, ("id: occupancy", 'id: "occ\\\\upancy"'),
            SERVICE_ID("'occ\\\\upancy'")),
    CliCase("service_id_with_nul", "run", 2, ("id: occupancy", 'id: "occ\\0upancy"'),
            SERVICE_ID("'occ\\x00upancy'")),
    CliCase("empty_sensor_id", "run", 2, put("sensors", 3, "sensor_id", value=""),
            "scenario.sensors[3]: sensor id must be non-empty\n"),
    CliCase("empty_generator_sensor_id", "run", 2,
            put("streams", "synthetic", 3, "sensor_id", value=""),
            "scenario.streams.synthetic[3]: sensor id must be non-empty\n"),
    # entries that refer to one another are checked before any stream is generated
    CliCase("duplicate_sensor", "compare", 2, lambda doc: doc["sensors"].append(doc["sensors"][0]),
            "scenario.sensors[7]: duplicate sensor id 'm1'\n"),
    CliCase("duplicate_service", "compare", 2,
            lambda doc: doc["services"].append(doc["services"][0]),
            "scenario.services[2]: duplicate service id 'occupancy'\n"),
    CliCase("duplicate_generator", "compare", 2,
            lambda doc: doc["streams"]["synthetic"].append(doc["streams"]["synthetic"][0]),
            "scenario.streams.synthetic[7]: duplicate generator for sensor 'm1'\n"),
    CliCase("generator_for_an_undeclared_sensor", "compare", 2,
            put("streams", "synthetic", 0, "sensor_id", value="zz"),
            "scenario.streams.synthetic[0]: stream for unknown sensor 'zz'\n"),
    CliCase("generator_of_another_modality", "compare", 2,
            put("streams", "synthetic", 0, "modality", value="co2"),
            "scenario.streams.synthetic[0]: "
            "stream for sensor 'm1' is 'co2', the sensor is 'motion'\n"),
    CliCase("fault_on_an_undeclared_sensor", "compare", 2,
            put("faults", 1, "sensor_id", value="zz"),
            "scenario.faults[1]: fault references unknown sensor 'zz'\n", "fault_scenario"),
    CliCase("fault_beyond_the_horizon", "compare", 2, put("faults", 1, "end_s", value=500),
            "scenario.faults[1]: fault on 't7' ends after the scenario horizon\n",
            "fault_scenario"),
    CliCase("no_services", "run", 2, put("services", value=[]),
            "scenario.services: expected at least one service\n"),
    # random.Random seeds with an int's absolute value: a negative seed
    # would repeat another seed's draws
    CliCase("negative_seed", "run", 2, ("seed: 7", "seed: -1"),
            "scenario.seed: must be >= 0, got -1\n"),
    CliCase("synth_negative_seed", "synth", 2, put("seed", value=-1),
            "spec.seed: must be >= 0, got -1\n"),
    CliCase("synth_duplicate_generator", "synth", 2,
            lambda doc: doc["streams"]["synthetic"].append(doc["streams"]["synthetic"][0]),
            "spec.generators[7]: duplicate generator for sensor 'm1'\n"),
    CliCase("synth_duration_s_beyond_milliseconds", "synth", 2, put("duration_s", value=1e308),
            "spec.generators[0]: generator duration_s must be finite in milliseconds, "
            "got 1e+308\n"),
    CliCase("synth_start_s_beyond_milliseconds", "synth", 2,
            put("streams", "synthetic", 0, "start_s", value=1e308),
            "spec.generators[0]: generator start_s must be finite in milliseconds, got 1e+308\n"),
    CliCase("synth_modality_utf8_cannot_write", "synth", 2,
            put("streams", "synthetic", 0, "modality", value="\ud800x"),
            "spec.generators[0].modality: "),
    CliCase("synth_sensor_id_utf8_cannot_write", "synth", 2,
            put("streams", "synthetic", 0, "sensor_id", value="s\ud800"),
            "spec.generators[0]: sensor id 's\\ud800' cannot be written as UTF-8\n"),
    # compare reads, checks and faults its inputs once: a refusal of them is
    # one error, not one FAILED line per mode
    CliCase("compare_fault_on_a_sensor_without_a_stream", "compare", 2, None,
            "scenario.faults[0]: sensor 't3' has no stream\n", "fault_scenario", csv=without_t3),
    CliCase("compare_malformed_csv_row", "compare", 2, None, ":2: malformed row",
            csv=lambda _: CSV_ROW("1000,m1,motion,abc")),
    CliCase("compare_exits_1_when_every_mode_fails", "compare", 1, None,
            "OverflowError: intermediate overflow in fsum", csv=huge_readings),
    # a CSV exported with a UTF-8 byte-order mark is read like one without
    CliCase("csv_with_byte_order_mark", "run", 0, None, csv=lambda text: "\ufeff" + text),
    # one modality spelt in several cases on one sensor's rows is one modality
    CliCase("csv_modality_in_mixed_case", "run", 0, None, csv=mixed_case),
]


def write_case(case, tmp_path):
    """The argv that runs ``case`` on its config, written under ``tmp_path``,
    and the path it writes to."""
    text = (ROOT / "configs" / f"{case.config}.yaml").read_text(encoding="utf-8")
    if isinstance(case.edit, tuple):
        old, new = case.edit
        assert old in text
        text = text.replace(old, new, 1)
    else:
        doc = yaml.safe_load(text)
        if case.edit is not None:
            case.edit(doc)
        if case.csv is not None:
            csv = tmp_path / "streams.csv"
            write_streams_csv(generate_synthetic(*parse_synth_spec(synth_spec(doc))), csv)
            csv.write_text(case.csv(csv.read_text(encoding="utf-8")), encoding="utf-8")
            doc["streams"] = {"csv": csv.name}
        text = yaml.safe_dump(synth_spec(doc) if case.command == "synth" else doc,
                              sort_keys=False)
    config = tmp_path / "config.yaml"
    config.write_text(text, encoding="utf-8")
    out = tmp_path / ("out.csv" if case.command == "synth" else "out")
    flag = "--spec" if case.command == "synth" else "--config"
    return [case.command, flag, str(config), "--out", str(out)], out


class TestCli:
    @pytest.mark.parametrize("case", CLI_CASES, ids=lambda case: case.id)
    def test_case(self, tmp_path, capsys, case):
        argv, out = write_case(case, tmp_path)
        assert main(argv) == case.status
        got = capsys.readouterr()
        # one key-path form: scenario.sensors[7], never scenario: sensors[7]
        assert not re.search(r"\b(scenario|spec): [\w.]+\[", got.err + got.out)
        if case.status == 2:
            assert got.err.startswith("edgeprep: error: ") and got.err.count("\n") == 1
            if case.error.endswith("\n"):
                assert got.err == "edgeprep: error: " + case.error
            assert case.error in got.err
            assert not out.exists()
        elif case.status == 1:
            assert got.err == ""
            failed = [line for line in got.out.splitlines() if ": FAILED (" in line]
            assert len(failed) == len(Mode) and all(case.error in line for line in failed)
            # no mode ran, so stdout is the summary alone
            assert (out / "comparison.txt").read_text(encoding="utf-8") == got.out
        else:
            assert got.err == ""
            assert (out / "selection_trace.csv").exists()

    def test_python_m_edgeprep_exits_2_without_a_traceback(self, tmp_path):
        case = CLI_CASES[0]
        argv, out = write_case(case, tmp_path)
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        proc = subprocess.run([sys.executable, "-m", "edgeprep", *argv], env=env,
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (2, "edgeprep: error: " + case.error)
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    def test_negative_seed_flag_is_a_one_line_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["run", "--config", str(ROOT / "configs" / "two_service.yaml"),
                "--seed", "-3", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == "edgeprep: error: --seed: must be >= 0, got -3\n"
        assert not out.exists()

    def test_missing_config_is_a_one_line_error(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.yaml")
        assert main(["compare", "--config", missing, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("edgeprep: error: ")

    @staticmethod
    def malformed_csv_config(tmp_path):
        """A scenario whose ``streams.csv`` has a malformed row on line 2."""
        (tmp_path / "streams.csv").write_text(
            "timestamp_ms,sensor_id,modality,value\n1000,t1,temperature,abc\n",
            encoding="utf-8")
        doc = valid_scenario()
        doc["streams"] = {"csv": "streams.csv"}
        config = tmp_path / "scenario.yaml"
        config.write_text(yaml.safe_dump(doc), encoding="utf-8")
        return config


    def test_missing_static_attribute_names_its_sensor(self, tmp_path, capsys):
        doc = valid_scenario()
        del doc["sensors"][0]["static_attrs"]["range"]
        config = tmp_path / "scenario.yaml"
        config.write_text(yaml.safe_dump(doc), encoding="utf-8")
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == ("edgeprep: error: scenario.sensors[0]: "
                                           "sensor 't1' lacks static attribute 'range'\n")

    def test_malformed_csv_row_is_a_one_line_error(self, tmp_path, capsys):
        config = self.malformed_csv_config(tmp_path)
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("edgeprep: error: ")
        assert ":2: malformed row" in err
        assert err.count("\n") == 1

    def test_readings_whose_sum_overflows_are_a_one_line_error(self, tmp_path, capsys):
        # every reading is finite, but a window's exact sum is not; numpy's
        # mean once wrote it as Infinity
        rows = "".join(f"{t},t1,temperature,1.7e308\n" for t in range(1000, 21_000, 1000))
        (tmp_path / "streams.csv").write_text(
            "timestamp_ms,sensor_id,modality,value\n" + rows, encoding="utf-8")
        doc = valid_scenario()
        doc["streams"] = {"csv": "streams.csv"}
        config = tmp_path / "scenario.yaml"
        config.write_text(yaml.safe_dump(doc), encoding="utf-8")
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("edgeprep: error: ") and "overflow" in err
        assert err.count("\n") == 1


class TestRunScenario:
    def test_deterministic_at_the_library_level(self):
        cfg = load_config("two_service", duration_s=20)
        a = run_scenario(cfg)
        b = run_scenario(cfg)
        assert a.features == b.features
        assert a.trace == b.trace
        assert a.points_processed == b.points_processed

    def test_writes_expected_artifacts(self, tmp_path):
        cfg = load_config("two_service", duration_s=20)
        report = run_scenario(cfg, out_dir=tmp_path)
        assert (tmp_path / "selection_trace.csv").exists()
        assert (tmp_path / "report.txt").exists()
        assert sorted(p.name for p in tmp_path.glob("features_*.ndjson")) == [
            "features_airquality.ndjson", "features_occupancy.ndjson"]
        assert report.activations == sum(
            len(p.read_text().splitlines()) for p in tmp_path.glob("features_*.ndjson"))
        header = (tmp_path / "selection_trace.csv").read_text().splitlines()[0]
        assert header == "t_ms,service_id,sensor_id,d_M,d_A,d_MA,rank,selected"
        text = (tmp_path / "report.txt").read_text()
        assert "feature function invocations" in text
        assert "wall" not in text  # timings never enter artifacts

    def test_one_label_reaches_one_cohort_from_every_entry_point(self, tmp_path):
        # YAML 'Lux', a CSV row ' LUX ', a SensorSpec 'lux' and the feature
        # id 'Lux_mean' name one modality
        (tmp_path / "streams.csv").write_text(
            "timestamp_ms,sensor_id,modality,value\n"
            + "".join(f"{t}000,{sid}, LUX ,{v}\n" for t in range(1, 5)
                      for sid, v in (("l1", 1.0), ("l2", 3.0))),
            encoding="utf-8")
        doc = valid_scenario()
        doc.pop("faults")
        doc["duration_s"] = 4
        doc["sensors"][0].update(sensor_id="l1", modality="Lux")
        doc["streams"] = {"csv": "streams.csv"}
        doc["services"][0].update(modalities=["Lux"], features=["Lux_mean"],
                                  select_count=2, window={"k_l": 1, "k_r": 0, "delta_t_s": 1})
        cfg = parse_scenario(doc, base_dir=tmp_path)
        cfg.sensors.append(replace(cfg.sensors[0], sensor_id="l2", modality=Modality("lux")))
        report = run_scenario(cfg, mode=Mode.UNIFIED)
        assert report.errors == []
        assert report.selection_counts == {"l1": 4, "l2": 4}
        for fv in report.features:
            assert fv.provenance == ("l1", "l2", "Lux_mean")
            assert 1.0 < fv.components["Lux_mean"] < 3.0  # both sensors fused

    def test_starved_service_is_reported_and_run_continues(self):
        cfg = load_config("two_service", duration_s=20)
        starved = cfg.services[0]
        qos = starved.qos
        from dataclasses import replace

        bad_qos = replace(qos, service_id="starved", modality_needs=("humidity",))
        cfg.services.append(replace(starved, qos=bad_qos, features=("humidity_mean",)))
        report = run_scenario(cfg)
        assert any(sid == "starved" for _, sid, _ in report.errors)
        assert report.activations > 0

    def test_a_row_inside_overlapping_fault_windows_counts_once(self):
        # t3 sticks over ]60, 180] s; a drift over ]100, 200] s overlaps it,
        # and the union ]60, 200] s holds one climate row per second
        cfg = load_config("fault_scenario")
        cfg.faults.append(FaultSpec("t3", FaultKind.DRIFT, 100, 200, slope_per_s=0.5))
        report = run_scenario(cfg)
        rows = [r for r in report.trace
                if r.sensor_id == "t3" and 60_000 < r.t_ms <= 200_000]
        assert len(rows) == 140
        assert report.fault_avoidance["t3"] == (sum(not r.selected for r in rows), 140)


class TestCompareModes:
    def test_counts_and_verdict(self, tmp_path):
        cfg = load_config("two_service", duration_s=20)
        comparison = compare_modes(cfg, out_dir=tmp_path)
        assert comparison.features_identical is True
        uni = comparison.reports["unified"]
        per = comparison.reports["per_service"]
        fused = comparison.reports["no_selection_fused"]
        assert uni.feature_invocations < per.feature_invocations
        assert fused.points_processed > uni.points_processed
        assert (tmp_path / "comparison.txt").exists()
        assert (tmp_path / "unified" / "report.txt").exists()

    def test_single_service_has_nothing_to_share(self):
        cfg = load_config("fault_scenario")
        cfg.faults = []
        comparison = compare_modes(cfg)
        assert sorted(comparison.reports) == sorted(mode.value for mode in Mode)
        uni = comparison.reports["unified"]
        per = comparison.reports["per_service"]
        assert uni.feature_invocations == per.feature_invocations
        assert comparison.features_identical is True


def probe(script, *args):
    """The last line that ``script`` prints when a fresh interpreter runs it
    on ``args``, with ``src`` on its path; it must exit 0."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", script, *map(str, args)],
                          env=env, capture_output=True, text=True, check=True)
    return proc.stdout.splitlines()[-1]


#: with numpy blocked, runs the CLI on each argv of a JSON list and prints
#: their exit statuses
NUMPY_FREE_PROBE = """
import json, sys
sys.modules["numpy"] = None  # any import of numpy now fails
from edgeprep.cli import main
print(*(main(argv) for argv in json.loads(sys.argv[1])))
"""

#: with PyYAML and numpy blocked, runs a scenario given as JSON over its CSV,
#: and reports its activations
YAML_FREE_PROBE = """
import json, sys
sys.modules["yaml"] = sys.modules["numpy"] = None  # any import of either now fails
from edgeprep.harness import parse_scenario, run_scenario
print(run_scenario(parse_scenario(json.loads(sys.argv[1]))).activations)
"""


def test_a_run_over_csv_loads_no_yaml(tmp_path):
    # ingest_csv and a Pipeline over a config built in memory, as the benchmark runs
    doc = yaml.safe_load((ROOT / "configs" / "two_service.yaml").read_text(encoding="utf-8"))
    path = tmp_path / "streams.csv"
    write_streams_csv(generate_synthetic(*parse_synth_spec(synth_spec(doc))), path)
    del doc["streams"]["synthetic"]
    doc["streams"]["csv"] = str(path)
    report = run_scenario(parse_scenario(doc))
    assert probe(YAML_FREE_PROBE, json.dumps(doc)) == str(report.activations)


class TestNumpyLoadsOnlyWhereAStreamDraws:
    """A run over CSV input imports numpy nowhere, not even for a fault that draws."""

    SPIKE = {"sensor_id": "t3", "kind": "spike", "magnitude": 5.0, "rate": 0.2,
             "start_s": 60, "end_s": 180}

    @pytest.mark.parametrize("config, faults", [
        ("two_service", []),
        ("fault_scenario", None),  # its own stuck_at and drift faults
        ("fault_scenario", [SPIKE]),
    ], ids=["no-faults", "stuck_at-and-drift", "spike"])
    def test_csv_run(self, tmp_path, config, faults):
        doc = yaml.safe_load((ROOT / "configs" / f"{config}.yaml").read_text(encoding="utf-8"))
        spec = tmp_path / "spec.yaml"
        spec.write_text(yaml.safe_dump(synth_spec(doc)), encoding="utf-8")
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "streams.csv")]) == 0
        doc["streams"] = {"csv": "streams.csv"}
        if faults is None:
            assert {fault["kind"] for fault in doc["faults"]} == {"stuck_at", "drift"}
        else:
            doc["faults"] = faults
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(yaml.safe_dump(doc), encoding="utf-8")
        out = tmp_path / "out"
        argvs = [["run", "--config", str(scenario), "--out", str(out)]]
        assert probe(NUMPY_FREE_PROBE, json.dumps(argvs)) == "0"
        assert (out / "selection_trace.csv").exists()


def test_no_run_loads_numpy(tmp_path):
    # run, compare and synth on both canned configs, and a run whose faults draw
    argvs = []
    for config in ("two_service", "fault_scenario"):
        scenario = ROOT / "configs" / f"{config}.yaml"
        doc = yaml.safe_load(scenario.read_text(encoding="utf-8"))
        spec = tmp_path / f"{config}_spec.yaml"
        spec.write_text(yaml.safe_dump(synth_spec(doc)), encoding="utf-8")
        argvs += [["run", "--config", scenario, "--out", tmp_path / config / "run"],
                  ["compare", "--config", scenario, "--out", tmp_path / config / "compare"],
                  ["synth", "--spec", spec, "--out", tmp_path / config / "streams.csv"]]
    # the fault scenario with a spike and a dropout in place of its own faults
    doc["faults"] = [{"sensor_id": "t3", "kind": "spike", "magnitude": 5.0, "rate": 0.2,
                      "start_s": 60, "end_s": 180},
                     {"sensor_id": "t7", "kind": "dropout", "probability": 0.3,
                      "start_s": 90, "end_s": 210}]
    scenario = tmp_path / "drawing_faults.yaml"
    scenario.write_text(yaml.safe_dump(doc), encoding="utf-8")
    argvs.append(["run", "--config", scenario, "--out", tmp_path / "drawing_faults"])
    argvs = [[str(arg) for arg in argv] for argv in argvs]
    assert probe(NUMPY_FREE_PROBE, json.dumps(argvs)) == " ".join(["0"] * len(argvs))
    assert (tmp_path / "drawing_faults" / "selection_trace.csv").exists()
