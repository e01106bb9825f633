import enum
import math
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from edgeprep.model import (
    ConfigError,
    Modality,
    QosProfile,
    SensorSpec,
    SensorStream,
    seconds_to_ms,
)
from edgeprep.harness import GeneratorSpec
from conftest import make_spec, row_components, writable_as_utf8


def stream_of(timestamps, values, sid="s1"):
    return SensorStream(sid, Modality.TEMPERATURE, tuple(timestamps), tuple(values))


# query bounds on both sides of, and between, the generated timestamps
bounds = st.one_of(
    st.integers(min_value=-50, max_value=550),
    st.floats(min_value=-50.0, max_value=550.0),
)


class TestSensorStream:
    def test_rejects_non_finite_values(self):
        with pytest.raises(ValueError):
            stream_of([0], [float("nan")])
        with pytest.raises(ValueError):
            stream_of([0], [float("inf")])

    def test_rejects_negative_or_non_integer_timestamps(self):
        with pytest.raises(ValueError):
            stream_of([-1], [1.0])
        with pytest.raises(ValueError):
            stream_of([1.5], [1.0])
        with pytest.raises(ValueError):
            stream_of([True], [1.0])

    def test_rejects_empty_sensor_id(self):
        with pytest.raises(ValueError):
            stream_of([0], [1.0], sid="")

    def test_rejects_columns_of_different_lengths(self):
        with pytest.raises(ValueError):
            stream_of([0, 10], [1.0])

    def test_requires_strictly_increasing_timestamps(self):
        with pytest.raises(ValueError):
            stream_of([10, 10], [1.0, 2.0])
        with pytest.raises(ValueError):
            stream_of([10, 5], [1.0, 2.0])

    @pytest.mark.parametrize("timestamps, values, message", [
        ([0, True], [1.0, 2.0], "timestamp True must be an integer (epoch milliseconds)"),
        ([0, 1.5], [1.0, 2.0], "timestamp 1.5 must be an integer (epoch milliseconds)"),
        ([-1, 5], [1.0, 2.0], "timestamps must be non-negative and strictly increasing; "
                              "-1 follows -1 for sensor 's1'"),
        ([0, 10, 10], [1.0, 2.0, 3.0], "timestamps must be non-negative and strictly "
                                       "increasing; 10 follows 10 for sensor 's1'"),
        ([0, 10, 5], [1.0, 2.0, 3.0], "timestamps must be non-negative and strictly "
                                      "increasing; 5 follows 10 for sensor 's1'"),
        ([0, 10], [1.0, math.nan], "value nan of sensor 's1' is not finite"),
        ([0, 10], [-math.inf, 1.0], "value -inf of sensor 's1' is not finite"),
        ([0, 10], [1.0], "2 timestamps but 1 values for sensor 's1'"),
    ])
    def test_each_rejection_names_its_offender(self, timestamps, values, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            stream_of(timestamps, values)

    def test_int_subclass_timestamps_are_accepted(self):
        class Tick(enum.IntEnum):
            FIRST = 0
            SECOND = 10

        stream = stream_of([Tick.FIRST, Tick.SECOND], [1, 2.5])
        assert stream.timestamps_ms == (0, 10)
        assert stream.values == (1.0, 2.5)
        assert type(stream.values[0]) is float

    def test_interval_queries_are_half_open(self):
        stream = stream_of([10, 20, 30], [10.0, 20.0, 30.0])
        assert stream.latest_in(10, 30) == (30, 30.0)
        assert stream.latest_in(30, 40) is None

    @given(
        timestamps=st.lists(st.integers(min_value=0, max_value=500),
                            unique=True, max_size=40).map(sorted),
        start=bounds,
        end=bounds,
    )
    def test_bisected_queries_match_linear_scan(self, timestamps, start, end):
        stream = stream_of(timestamps, [float(t) for t in timestamps])
        expected = [t for t in timestamps if start < t <= end]
        assert stream.latest_in(start, end) == (
            (expected[-1], float(expected[-1])) if expected else None
        )


class TestModality:
    def test_named_labels(self):
        assert Modality.TEMPERATURE == "temperature"
        assert Modality("CO2") == Modality.CO2 == "co2"
        assert Modality(" Lux ") == "lux"
        assert isinstance(Modality("lux"), str)

    @given(st.text(st.characters()))  # surrogates included, unlike st.text()
    def test_a_label_is_stripped_and_lower_cased(self, label):
        canonical = label.strip().lower()
        if not canonical:
            with pytest.raises(ConfigError, match="is blank"):
                Modality(label)
        elif not writable_as_utf8(canonical):
            with pytest.raises(ConfigError, match="cannot be written as UTF-8"):
                Modality(label)
        else:
            assert Modality(label) == canonical
            assert Modality(Modality(label)) == canonical

    @pytest.mark.parametrize("label", ["\ud800", "\ud800x", " Lux\udfff "])
    def test_a_label_with_a_lone_surrogate_is_refused(self, label):
        # it once reached write_streams_csv, which failed mid-file
        with pytest.raises(ConfigError, match="cannot be written as UTF-8"):
            Modality(label)

    @pytest.mark.parametrize("label", ["", "  ", "\t"])
    def test_a_blank_label_is_refused(self, label):
        # it once became modality "other"
        with pytest.raises(ConfigError, match="is blank"):
            Modality(label)

    @pytest.mark.parametrize("label", ["Lux", " Noise_dB ", "CO2", "other"])
    def test_a_stream_and_its_sensor_store_one_label(self, label):
        stream = SensorStream("s1", label, (1000,), (1.0,))
        spec = make_spec("s1", label)
        assert type(stream.modality) is type(spec.modality) is Modality
        assert stream.modality == spec.modality == label.strip().lower()

    @pytest.mark.parametrize("make", [
        lambda sid: SensorStream(sid, "co2", (1000,), (1.0,)),
        lambda sid: make_spec(sid, "co2"),
        lambda sid: GeneratorSpec(sensor_id=sid, modality="co2"),
    ], ids=["stream", "sensor", "generator"])
    @pytest.mark.parametrize("sensor_id", ["\ud800", "s\udfff"])
    def test_a_sensor_id_with_a_lone_surrogate_is_refused(self, make, sensor_id):
        with pytest.raises(ConfigError, match="sensor id .* cannot be written as UTF-8"):
            make(sensor_id)

    @pytest.mark.parametrize("make, text, message", [
        (lambda sid: SensorStream(sid, "co2", (1000,), (1.0,)), "", "sensor id must be non-empty"),
        (lambda sid: make_spec(sid, "co2"), "", "sensor id must be non-empty"),
        (lambda sid: GeneratorSpec(sensor_id=sid, modality="co2"), "",
         "sensor id must be non-empty"),
        (lambda sid: QosProfile(service_id=sid), "", "service id must be non-empty"),
        (lambda sid: QosProfile(service_id=sid), "o\ud800",
         "service id 'o\\ud800' cannot be written as UTF-8"),
    ], ids=["stream", "sensor", "generator", "service", "service-surrogate"])
    def test_every_id_is_non_empty_and_writable_as_utf8(self, make, text, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            make(text)

    @pytest.mark.parametrize("service_id", ["occ/upancy", "occ\\upancy", "occ\0upancy", "/"])
    def test_a_service_id_that_is_not_a_file_name_is_refused(self, service_id):
        # it names the service's features_<id>.ndjson
        with pytest.raises(ConfigError, match=r"may not hold '/', '\\' or NUL"):
            QosProfile(service_id=service_id)

    @pytest.mark.parametrize("label", ["", "  "])
    def test_a_blank_stream_or_sensor_label_is_refused(self, label):
        with pytest.raises(ConfigError, match="is blank"):
            SensorStream("s1", label, (1000,), (1.0,))
        with pytest.raises(ConfigError, match="is blank"):
            make_spec("s1", label)


class TestQosProfile:
    def test_rejects_all_zero_weights(self):
        with pytest.raises(ConfigError):
            QosProfile(service_id="svc", weights=(0, 0, 0, 0, 0))

    def test_rejects_negative_weights(self):
        with pytest.raises(ConfigError):
            QosProfile(service_id="svc", weights=(1, -1, 1, 1, 1))

    @pytest.mark.parametrize("granularity_s", [0.0, math.nan, math.inf, -math.inf],
                             ids=["zero", "nan", "inf", "-inf"])
    def test_rejects_granularity_that_is_not_finite_and_positive(self, granularity_s):
        with pytest.raises(ConfigError, match="granularity_s"):
            QosProfile(service_id="svc", granularity_s=granularity_s)

    def test_granularity_is_fixed_in_whole_milliseconds(self):
        assert QosProfile(service_id="svc", granularity_s=0.25).granularity_ms == 250
        with pytest.raises(ConfigError, match="granularity_s 0.0005s is not representable"):
            QosProfile(service_id="svc", granularity_s=0.0005)

    def test_rejects_unknown_beta_source(self):
        with pytest.raises(ConfigError):
            QosProfile(service_id="svc", beta_source="hourly")

    def test_modality_needs_are_sorted_and_deduplicated(self):
        qos = QosProfile(service_id="svc", modality_needs=("motion", "co2", "motion"))
        assert qos.modality_needs == ("co2", "motion")


class TestBoundedVectors:
    def test_utopia_components_must_be_unit_range(self):
        with pytest.raises(ConfigError, match="utopia"):
            QosProfile(service_id="svc", utopia=(1.0, 1.0, 1.0, 1.0, 1.5))

    @pytest.mark.parametrize("utopia", [
        (1.0, 1.0, 1.0, 1.0),             # four entries
        (1.0, 1.0, 1.0, 1.0, 1.0, 1.0),   # six entries
        (1.0, -0.5, 1.0, 1.0, 1.0),       # below the unit interval
        (1.0, 1.0, math.nan, 1.0, 1.0),
    ], ids=["four", "six", "negative", "nan"])
    def test_utopia_needs_five_entries_in_the_unit_interval(self, utopia):
        with pytest.raises(ConfigError, match="utopia"):
            QosProfile(service_id="svc", utopia=utopia)

    def test_state_vector_components_must_be_unit_range(self):
        # a state vector is a row of the cohort matrix the ranking checks
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            row_components((1.2, 1.0, 1.0, 1.0, 1.0))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            row_components((math.nan, 1.0, 1.0, 1.0, 1.0))

    def test_utopia_is_a_plain_row(self):
        qos = QosProfile(service_id="svc", utopia=[0, 0.5, 1, 1, 1])
        assert qos.utopia == (0.0, 0.5, 1.0, 1.0, 1.0)
        assert QosProfile(service_id="svc").utopia == (1.0,) * 5


class TestDurations:
    def test_exact_millisecond_conversion(self):
        assert seconds_to_ms(1.5) == 1500
        assert seconds_to_ms(0.001) == 1

    def test_rejects_sub_millisecond_and_non_positive(self):
        with pytest.raises(ConfigError):
            seconds_to_ms(0.0005)
        with pytest.raises(ConfigError):
            seconds_to_ms(0)

    # 1e308 s is finite, but its count of milliseconds is not
    @pytest.mark.parametrize("seconds", [math.nan, math.inf, -math.inf, 1e308],
                             ids=["nan", "inf", "-inf", "huge"])
    def test_rejects_non_finite(self, seconds):
        with pytest.raises(ConfigError, match="period_s must be finite"):
            seconds_to_ms(seconds, "period_s")
