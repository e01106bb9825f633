"""Core domain types shared by every other module.

Streams, sensor descriptions and service QoS profiles.  All types are
immutable value objects after construction and can be shared freely across
threads.

Conventions used throughout the package:

* timestamps are integer epoch-milliseconds, so window arithmetic is exact;
* durations are float seconds in a config, exact milliseconds after it;
* a modality is its label, stripped and lower-cased (:class:`Modality`),
  and keys every cohort, service need and feature;
* an attribute vector is a plain row of five floats, in the fixed order
  (accuracy, reliability, resolution, response_time, range), each in [0, 1].
"""

from __future__ import annotations

import enum
import math
import operator
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import islice
from typing import Mapping

__all__ = [
    "ATTRIBUTE_NAMES",
    "STATIC_ATTRIBUTE_NAMES",
    "ConfigError",
    "Modality",
    "Direction",
    "SensorStream",
    "StaticAttr",
    "SensorSpec",
    "QosProfile",
]

#: Fixed order of the five sensor attributes used by ranking and QoS weights.
ATTRIBUTE_NAMES = ("accuracy", "reliability", "resolution", "response_time", "range")

#: The three statically documented attributes (the other two are dynamic).
STATIC_ATTRIBUTE_NAMES = ("resolution", "response_time", "range")


class ConfigError(ValueError):
    """Raised for invalid configuration values (weights, periods, ids...)."""


class Modality(str):
    """Physical quantity a sensor measures: a label, stripped and lower-cased.

    The constructor is the one place a label is canonicalised, so
    ``Modality("CO2") == "co2"`` and ``Modality(" Lux ") == "lux"``; a blank
    label names no modality and is refused, and so is one that cannot be
    written as UTF-8 (a lone surrogate), which no CSV could carry.  No set
    of modalities is closed; four common labels are named constants.
    """

    __slots__ = ()

    def __new__(cls, label: str) -> Modality:
        norm = str(label).strip().lower()
        if not norm:
            raise ConfigError(f"modality label {label!r} is blank")
        try:
            norm.encode("utf-8")
        except UnicodeEncodeError:
            raise ConfigError(f"modality label {label!r} cannot be written as UTF-8") from None
        return super().__new__(cls, norm)


Modality.TEMPERATURE = Modality("temperature")
Modality.HUMIDITY = Modality("humidity")
Modality.CO2 = Modality("co2")
Modality.MOTION = Modality("motion")


class Direction(enum.Enum):
    """Whether a lower (cost) or higher (benefit) raw value is preferable."""

    COST = "cost"
    BENEFIT = "benefit"


@dataclass(frozen=True)
class SensorStream:
    """A time-ordered series of measurements from a single sensor.

    Two parallel columns: ``timestamps_ms`` (non-negative integers, strictly
    increasing) and ``values`` (finite floats).  Both are validated once, at
    construction; slices of a stream are streams and are not re-validated.
    """

    sensor_id: str
    modality: Modality
    timestamps_ms: tuple[int, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.sensor_id:
            raise ValueError("sensor_id must be non-empty")
        object.__setattr__(self, "modality", Modality(self.modality))
        timestamps = tuple(self.timestamps_ms)
        values = tuple(map(float, self.values))
        if len(timestamps) != len(values):
            raise ValueError(
                f"{len(timestamps)} timestamps but {len(values)} values "
                f"for sensor {self.sensor_id!r}"
            )
        # the checks iterate in C; only a failing one walks the column
        # again, to name the offender (and to accept an int subclass)
        if not (set(map(type, timestamps)) <= {int}
                and (not timestamps or timestamps[0] >= 0)
                and all(map(operator.lt, timestamps, islice(timestamps, 1, None)))):
            prev = -1
            for t in timestamps:
                if not isinstance(t, int) or isinstance(t, bool):
                    raise ValueError(f"timestamp {t!r} must be an integer (epoch milliseconds)")
                if t <= prev:
                    raise ValueError(
                        f"timestamps must be non-negative and strictly increasing; "
                        f"{t} follows {prev} for sensor {self.sensor_id!r}"
                    )
                prev = t
        if not all(map(math.isfinite, values)):
            v = next(v for v in values if not math.isfinite(v))
            raise ValueError(f"value {v!r} of sensor {self.sensor_id!r} is not finite")
        object.__setattr__(self, "timestamps_ms", timestamps)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.timestamps_ms)

    def __getitem__(self, index: slice) -> SensorStream:
        """The samples at ``index``, a slice, as a stream of the same sensor."""
        sub = object.__new__(SensorStream)
        sub.__dict__.update(self.__dict__, timestamps_ms=self.timestamps_ms[index],
                            values=self.values[index])
        return sub

    def latest_in(self, start_ms: int, end_ms: int) -> tuple[int, float] | None:
        """``(timestamp_ms, value)`` of the most recent sample within
        ``]start_ms, end_ms]``, if any."""
        ts = self.timestamps_ms
        hi = bisect_right(ts, end_ms)
        if hi == 0 or ts[hi - 1] <= start_ms:
            return None
        return ts[hi - 1], self.values[hi - 1]


@dataclass(frozen=True)
class StaticAttr:
    """Documented raw value of a static sensor attribute plus its direction."""

    value: float
    direction: Direction = Direction.COST


@dataclass(frozen=True)
class SensorSpec:
    """Static description of one deployed sensor."""

    sensor_id: str
    modality: Modality
    zone: str
    static_attrs: Mapping[str, StaticAttr] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "modality", Modality(self.modality))
        object.__setattr__(self, "static_attrs", dict(self.static_attrs))


# perfbench/workloads.py:112-124 reads these two aliases of the modality;
# nothing in the package does, and ROADMAP item 2 deletes both with its
# benchmark edit
Modality.value = property(str.__str__)
SensorSpec.modality_key = property(operator.attrgetter("modality"))


@dataclass(frozen=True)
class QosProfile:
    """Per-service quality-of-service declaration.

    ``utopia`` (the ideal attribute row the service ranks sensors against,
    each entry in [0, 1]) and ``weights`` follow the attribute order of
    :data:`ATTRIBUTE_NAMES`; ``modality_needs`` are stored as
    :class:`Modality` labels, sorted and without repeats; ``granularity_s``
    is the expected inter-sample interval of the data the service consumes,
    fixed in exact milliseconds as ``granularity_ms`` at construction;
    ``beta_source`` chooses between the latest-interval and the cumulative
    reliability score.
    """

    service_id: str
    utopia: tuple[float, float, float, float, float] = (1.0, 1.0, 1.0, 1.0, 1.0)
    weights: tuple[float, float, float, float, float] = (1.0, 1.0, 1.0, 1.0, 1.0)
    modality_needs: tuple[Modality, ...] = ()
    granularity_s: float = 1.0
    select_count: int = 1
    beta_source: str = "interval"
    granularity_ms: int = field(init=False)  # granularity_s in exact milliseconds

    def __post_init__(self) -> None:
        if not self.service_id:
            raise ConfigError("service_id must be non-empty")
        weights = tuple(float(w) for w in self.weights)
        if len(weights) != len(ATTRIBUTE_NAMES):
            raise ConfigError(f"weights need {len(ATTRIBUTE_NAMES)} entries")
        if any(not math.isfinite(w) or w < 0 for w in weights):
            raise ConfigError("weights must be finite and >= 0")
        if sum(weights) <= 0:
            raise ConfigError("weights must not all be zero")
        utopia = tuple(float(u) for u in self.utopia)
        if len(utopia) != len(ATTRIBUTE_NAMES):
            raise ConfigError(f"utopia needs {len(ATTRIBUTE_NAMES)} entries")
        # NaN fails both comparisons
        if not all(0.0 <= u <= 1.0 for u in utopia):
            raise ConfigError(f"utopia entries must lie in [0, 1], got {utopia}")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "utopia", utopia)
        object.__setattr__(
            self, "modality_needs", tuple(sorted(set(map(Modality, self.modality_needs))))
        )
        object.__setattr__(self, "granularity_ms",
                           seconds_to_ms(self.granularity_s, "granularity_s"))
        if self.select_count < 1:
            raise ConfigError("select_count must be >= 1")
        if self.beta_source not in ("interval", "cumulative"):
            raise ConfigError("beta_source must be 'interval' or 'cumulative'")


def positive_finite(name: str, value: float) -> None:
    """Raise :class:`ConfigError` naming ``name`` unless ``value`` is finite
    and > 0."""
    # NaN fails both comparisons
    if not 0 < value < math.inf:
        raise ConfigError(f"{name} must be finite and positive, got {value!r}")


def seconds_to_ms(seconds: float, name: str = "duration", *, instant: bool = False) -> int:
    """Exact integer milliseconds of ``seconds``, a duration (> 0) or an
    ``instant`` (>= 0); errors name the value ``name``."""
    if not instant:
        positive_finite(name, seconds)
    elif not 0 <= seconds < math.inf:  # NaN fails both comparisons
        raise ConfigError(f"{name} must be finite and >= 0, got {seconds!r}")
    exact = float(seconds) * 1000.0
    if exact == math.inf:
        raise ConfigError(f"{name} must be finite in milliseconds, got {seconds!r}")
    ms = round(exact)
    if abs(ms - exact) > 1e-6 or (ms == 0 and not instant):
        raise ConfigError(f"{name} {seconds}s is not representable in whole milliseconds")
    return int(ms)
