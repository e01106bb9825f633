"""Scenario harness: data generation, fault injection, CSV I/O, runs.

A scenario bundles sensors, streams (CSV or seeded synthetic generators),
services, faults and pipeline configuration; running one executes the
pipeline cycle loop over the horizon in a chosen mode and produces
deterministic artifacts: a selection trace CSV, one newline-delimited JSON
feature file per service, and a plain-text report.  All randomness flows
from the single scenario seed, so identical configs yield byte-identical
outputs.  Wall-clock timings are measured and reported via stdout only;
they never enter the output files.
"""

from __future__ import annotations

import csv
import enum
import json
import math
import operator
import random
import time
import zlib
from array import array
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import partial
from itertools import islice
from pathlib import Path
from typing import Mapping, Sequence, get_args, get_origin, get_type_hints

from .fusion import KalmanConfig
from .model import (
    ATTRIBUTE_NAMES,
    STATIC_ATTRIBUTE_NAMES,
    ConfigError,
    Modality,
    QosProfile,
    SensorSpec,
    SensorStream,
    StaticAttr,
    positive_finite,
    require_declared,
    require_id,
    require_unique,
    seconds_to_ms,
)
from .pipeline import FeatureVector, Mode, Pipeline, ServiceSpec, TraceRow
from .voting import VotingConfig

__all__ = [
    "CSV_HEADER",
    "FaultKind",
    "FaultSpec",
    "GeneratorSpec",
    "ScenarioConfig",
    "ScenarioReport",
    "ComparisonReport",
    "ingest_csv",
    "write_streams_csv",
    "inject_faults",
    "generate_synthetic",
    "load_scenario",
    "parse_scenario",
    "parse_synth_spec",
    "read_seed",
    "run_scenario",
    "compare_modes",
    "render_report",
]

CSV_HEADER = ("timestamp_ms", "sensor_id", "modality", "value")

TRACE_HEADER = ("t_ms", "service_id", "sensor_id", "d_M", "d_A", "d_MA", "rank", "selected")


# ---------------------------------------------------------------------------
# CSV ingestion / serialization
# ---------------------------------------------------------------------------

def ingest_csv(path: str | Path) -> dict[str, SensorStream]:
    """Read streams from CSV, grouped by sensor, ordered and validated.

    One pass reads each row straight into its sensor's columns (modality,
    timestamps, values and line numbers, in line order), so no record per
    row outlives its line.  Line numbers are kept as a machine-integer
    column, not as Python ints.  A row whose timestamp text repeats the
    previous row's reuses that row's parsed int, so the sensors sampled at
    one instant of a file in (timestamp, sensor id) order share one int
    object.  A timestamp is an ASCII integer and a value an ASCII float:
    a ``_`` or a non-ASCII character in either is a malformed row.  Rows
    may come in any order, fields may carry surrounding
    whitespace, a sensor's rows may spell its modality in any case
    (``CO2``, ``co2``), and a UTF-8 byte-order mark is skipped.  A sensor
    whose timestamps already increase is taken as it is; only otherwise are
    its rows stably sorted by timestamp, and a repeated timestamp names both
    of its lines.  Every bad row fails as ``path:line``.
    """
    path = Path(path)
    # sensor id -> (modality label, timestamps, values, line numbers)
    columns: dict[str, tuple[str, list[int], list[float], array]] = {}
    ts_text, ts = None, 0  # the last timestamp text parsed, and its int
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, expected header "
                             f"{','.join(CSV_HEADER)}") from None
        if tuple(h.strip() for h in header) != CSV_HEADER:
            raise ValueError(f"{path}: bad header {header!r}, expected {list(CSV_HEADER)}")
        for lineno, row in enumerate(reader, start=2):
            try:
                ts_raw, sid, modality, val_raw = row
            except ValueError:
                if not row:
                    continue
                raise ValueError(f"{path}:{lineno}: expected 4 fields, got {len(row)}") from None
            # float() and int() also read what no CSV number holds: a '_'
            # between digits and non-ASCII digits
            text = val_raw.strip()
            try:
                if "_" in text or not text.isascii():
                    raise ValueError
                value = float(text)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: malformed row {row!r}") from None
            if not math.isfinite(value):
                raise ValueError(f"{path}:{lineno}: non-finite value {text!r}")
            if ts_raw != ts_text:
                text = ts_raw.strip()
                try:
                    if "_" in text or not text.isascii():
                        raise ValueError
                    ts = int(text)
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: malformed row {row!r}") from None
                if ts < 0:
                    raise ValueError(f"{path}:{lineno}: negative timestamp {ts}")
                ts_text = ts_raw
            sid = sid.strip()
            modality = modality.strip()
            if not sid or not modality:
                empty = "modality" if sid else "sensor id"
                raise ValueError(f"{path}:{lineno}: empty {empty} in row {row!r}")
            column = columns.get(sid)
            if column is None:
                column = columns[sid] = (modality, [], [], array("L"))
            elif column[0] != modality and Modality(column[0]) != Modality(modality):
                raise ValueError(
                    f"{path}:{lineno}: sensor {sid!r} switches modality "
                    f"{column[0]!r} -> {modality!r}"
                )
            column[1].append(ts)
            column[2].append(value)
            column[3].append(lineno)
    streams: dict[str, SensorStream] = {}
    for sid in sorted(columns):
        label, timestamps, values, lines = columns[sid]
        if not all(map(operator.lt, timestamps, islice(timestamps, 1, None))):
            # the columns are in line order, so a stable sort on the
            # timestamp puts a duplicate right after its first line
            order = sorted(range(len(timestamps)), key=timestamps.__getitem__)
            for prev, i in zip(order, islice(order, 1, None)):
                if timestamps[i] == timestamps[prev]:
                    raise ValueError(
                        f"{path}:{lines[i]}: duplicate or non-increasing timestamp "
                        f"{timestamps[i]} for sensor {sid!r} (previous at line {lines[prev]})"
                    )
            timestamps = [timestamps[i] for i in order]
            values = [values[i] for i in order]
        streams[sid] = SensorStream(sensor_id=sid, modality=label,
                                    timestamps_ms=tuple(timestamps), values=tuple(values))
    return streams


def write_streams_csv(streams: Mapping[str, SensorStream], path: str | Path) -> None:
    """Write streams as one merged CSV, ordered by (timestamp, sensor id).

    Values are written with ``repr`` so a read-back reproduces them bit for
    bit.
    """
    path = Path(path)
    records = []
    for sid in sorted(streams):
        stream = streams[sid]
        for ts, value in zip(stream.timestamps_ms, stream.values):
            records.append((ts, sid, stream.modality, value))
    records.sort(key=lambda r: (r[0], r[1]))
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for ts, sid, modality, value in records:
            writer.writerow([ts, sid, modality, repr(value)])


# ---------------------------------------------------------------------------
# Synthetic streams and fault injection
# ---------------------------------------------------------------------------

class FaultKind(enum.Enum):
    STUCK_AT = "stuck_at"
    DRIFT = "drift"
    SPIKE = "spike"
    DROPOUT = "dropout"


def _require_finite(spec, names: Sequence[str]) -> None:
    """Raise ConfigError naming the first of ``names`` whose value on
    ``spec`` is NaN or infinite."""
    for name in names:
        if not math.isfinite(getattr(spec, name)):
            raise ConfigError(f"{name} must be finite, got {getattr(spec, name)!r}")


def _reject_unread(spec, kind: str, table: Mapping[str, tuple[str, ...]]) -> None:
    """Raise ConfigError naming a parameter of ``table`` that ``spec`` sets
    away from its default although ``table[kind]`` does not hold it."""
    defaults = {f.name: f.default for f in fields(spec)}
    for name in dict.fromkeys(n for reads in table.values() for n in reads):
        if name not in table[kind] and getattr(spec, name) != defaults[name]:
            raise ConfigError(f"{kind!r} does not read {name}")


#: the parameters each fault kind reads
FAULT_PARAMS = {
    "stuck_at": ("value",),
    "drift": ("slope_per_s",),
    "spike": ("magnitude", "rate"),
    "dropout": ("probability",),
}


@dataclass(frozen=True)
class FaultSpec:
    """One fault active over ``]start, end]``, with its kind's FAULT_PARAMS.

    The instants ``start_s`` and ``end_s`` are fixed in exact milliseconds
    as ``start_ms`` and ``end_ms`` at construction.
    """

    sensor_id: str
    kind: FaultKind
    start_s: float
    end_s: float
    value: float = 0.0       # stuck_at level
    slope_per_s: float = 0.0  # drift rate
    magnitude: float = 0.0    # spike amplitude
    rate: float = 0.0         # spike probability per sample
    probability: float = 0.0  # dropout probability per sample
    start_ms: int = field(init=False)
    end_ms: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "start_ms",
                           seconds_to_ms(self.start_s, "fault start_s", instant=True))
        object.__setattr__(self, "end_ms", seconds_to_ms(self.end_s, "fault end_s", instant=True))
        if self.end_ms <= self.start_ms:
            raise ConfigError("fault interval must satisfy end > start")
        for name in ("rate", "probability"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"fault {name} must lie in [0, 1], got {v}")
        _reject_unread(self, self.kind.value, FAULT_PARAMS)
        _require_finite(self, ("value", "slope_per_s", "magnitude"))

    def active(self, t_ms: int) -> bool:
        return self.start_ms < t_ms <= self.end_ms


def read_seed(value, path: str) -> int:
    """``value`` read as a seed, an int >= 0: ``random.Random`` takes an int's absolute value."""
    if (seed := _scalar(int, value, path)) < 0:
        raise ConfigError(f"{path}: must be >= 0, got {seed}")
    return seed


def inject_faults(
    streams: Mapping[str, SensorStream],
    faults: Sequence[FaultSpec],
    seed: int,
) -> dict[str, SensorStream]:
    """Apply faults in list order; deterministic under the seed.

    A fault whose sensor has no stream, or whose faulted value leaves the
    float range, raises :class:`ConfigError` at ``scenario.faults[i]``.
    """
    out = dict(streams)
    for idx, fault in enumerate(faults):
        stream = out.get(fault.sensor_id)
        if stream is None:
            raise ConfigError(f"scenario.faults[{idx}]: sensor {fault.sensor_id!r} has no stream")
        rng = random.Random((seed << 32) | idx)
        timestamps: list[int] = []
        values: list[float] = []
        for t_ms, value in zip(stream.timestamps_ms, stream.values):
            if fault.active(t_ms):
                param = None
                if fault.kind is FaultKind.STUCK_AT:
                    value = fault.value
                elif fault.kind is FaultKind.DRIFT:
                    value += fault.slope_per_s * (t_ms - fault.start_ms) / 1000.0
                    param = "slope_per_s"
                elif fault.kind is FaultKind.SPIKE:
                    if rng.random() < fault.rate:
                        sign = 1.0 if rng.random() < 0.5 else -1.0
                        value += sign * fault.magnitude
                        param = "magnitude"
                elif rng.random() < fault.probability:  # dropout
                    continue
                if param is not None and not math.isfinite(value):
                    raise ConfigError(
                        f"scenario.faults[{idx}]: fault on sensor {fault.sensor_id!r} "
                        f"overflows: value {value!r} at {t_ms} ms from "
                        f"{param}={getattr(fault, param)!r}"
                    )
            timestamps.append(t_ms)
            values.append(value)
        out[fault.sensor_id] = replace(stream, timestamps_ms=tuple(timestamps),
                                       values=tuple(values))
    return out


#: the parameters each generator base signal reads
GENERATOR_PARAMS = {
    "constant": ("level",),
    "sinusoid": ("level", "amplitude", "wavelength_s"),
    "ramp": ("level", "slope_per_s"),
}


@dataclass(frozen=True)
class GeneratorSpec:
    """Seeded synthetic stream: a base signal plus Gaussian noise.

    ``period_s`` is the sampling interval; samples land at
    ``start + period, ..., start + duration``, in the ``*_ms`` fields set at
    construction.  Each base reads its own GENERATOR_PARAMS.
    """

    sensor_id: str
    modality: Modality
    base: str = "constant"  # constant | sinusoid | ramp
    level: float = 0.0
    amplitude: float = 0.0
    wavelength_s: float = 60.0
    slope_per_s: float = 0.0
    noise_std: float = 0.0
    period_s: float = 1.0
    start_s: float = 0.0
    duration_s: float = 60.0
    period_ms: int = field(init=False)
    start_ms: int = field(init=False)
    duration_ms: int = field(init=False)

    def __post_init__(self) -> None:
        require_id("sensor id", self.sensor_id)
        object.__setattr__(self, "modality", Modality(self.modality))
        object.__setattr__(self, "period_ms", seconds_to_ms(self.period_s, "generator period_s"))
        object.__setattr__(self, "duration_ms",
                           seconds_to_ms(self.duration_s, "generator duration_s"))
        object.__setattr__(self, "start_ms",
                           seconds_to_ms(self.start_s, "generator start_s", instant=True))
        if self.base not in GENERATOR_PARAMS:
            raise ConfigError(f"unknown base signal {self.base!r}")
        _reject_unread(self, self.base, GENERATOR_PARAMS)
        _require_finite(self, ("level", "amplitude", "slope_per_s"))
        # NaN fails both comparisons
        if not 0 <= self.noise_std < math.inf:
            raise ConfigError(f"noise_std must be finite and >= 0, got {self.noise_std!r}")
        positive_finite("wavelength_s", self.wavelength_s)


def generate_synthetic(specs: Sequence[GeneratorSpec], seed: int) -> dict[str, SensorStream]:
    """Materialize generator specs into streams; deterministic under seed."""
    require_unique((spec.sensor_id for spec in specs), "specs", "generator for sensor")
    streams: dict[str, SensorStream] = {}
    for spec in specs:
        rng = random.Random((seed << 32) | zlib.crc32(spec.sensor_id.encode()))
        start_ms, period_ms = spec.start_ms, spec.period_ms
        count = spec.duration_ms // period_ms
        timestamps = tuple(start_ms + k * period_ms for k in range(1, count + 1))
        values = []
        for t_ms in timestamps:
            elapsed_s = (t_ms - start_ms) / 1000.0
            if spec.base == "constant":
                value = spec.level
            elif spec.base == "sinusoid":
                value = spec.level + spec.amplitude * math.sin(
                    2.0 * math.pi * elapsed_s / spec.wavelength_s
                )
            else:  # ramp
                value = spec.level + spec.slope_per_s * elapsed_s
            if spec.noise_std > 0:
                # Box–Muller over two random() draws; 1 - u lies in ]0, 1], so log never sees 0
                value += spec.noise_std * (math.sqrt(-2.0 * math.log(1.0 - rng.random()))
                                           * math.cos(2.0 * math.pi * rng.random()))
            if not math.isfinite(value):
                raise ConfigError(
                    f"generator {spec.sensor_id!r} overflows: value {value!r} at {t_ms} ms "
                    f"from level={spec.level!r}, amplitude={spec.amplitude!r}, "
                    f"slope_per_s={spec.slope_per_s!r}, noise_std={spec.noise_std!r}"
                )
            values.append(value)
        streams[spec.sensor_id] = SensorStream(
            sensor_id=spec.sensor_id, modality=spec.modality,
            timestamps_ms=timestamps, values=tuple(values),
        )
    return streams


# ---------------------------------------------------------------------------
# Scenario configuration
# ---------------------------------------------------------------------------

@dataclass
class ScenarioConfig:
    sensors: list[SensorSpec]
    services: list[ServiceSpec]
    duration_s: float
    seed: int = 0
    mode: Mode = Mode.UNIFIED
    generators: list[GeneratorSpec] = field(default_factory=list)
    csv_path: str | None = None
    faults: list[FaultSpec] = field(default_factory=list)
    voting: VotingConfig = field(default_factory=VotingConfig)
    kalman: KalmanConfig = field(default_factory=KalmanConfig)
    reliability_interval_s: float = 10.0
    horizon_ms: int = field(init=False)  # duration_s in exact milliseconds

    def __post_init__(self) -> None:
        read_seed(self.seed, "scenario.seed")
        self.horizon_ms = seconds_to_ms(self.duration_s, "duration_s")
        seconds_to_ms(self.reliability_interval_s, "reliability_interval_s")
        if not self.generators and self.csv_path is None:
            raise ConfigError("scenario needs synthetic generators or a csv path")
        if not self.services:
            raise ConfigError("scenario.services: expected at least one service")
        # refused here, naming the entry, before any stream is generated
        require_unique((s.sensor_id for s in self.sensors), "scenario.sensors", "sensor id")
        require_unique((s.service_id for s in self.services), "scenario.services", "service id")
        require_unique((g.sensor_id for g in self.generators), "scenario.streams.synthetic",
                       "generator for sensor")
        declared = {s.sensor_id: s for s in self.sensors}
        for i, gen in enumerate(self.generators):
            require_declared(declared, gen.sensor_id, gen.modality,
                             f"scenario.streams.synthetic[{i}]")
        for i, fault in enumerate(self.faults):
            if fault.sensor_id not in declared:
                raise ConfigError(f"scenario.faults[{i}]: fault references unknown sensor "
                                  f"{fault.sensor_id!r}")
            if fault.end_ms > self.horizon_ms:
                raise ConfigError(f"scenario.faults[{i}]: fault on {fault.sensor_id!r} "
                                  f"ends after the scenario horizon")


def _mapping(raw, path: str, known=None) -> Mapping:
    """``raw`` if it is a mapping whose keys are all in ``known`` (if given)."""
    if not isinstance(raw, Mapping):
        raise ConfigError(f"{path}: expected a mapping, got {raw!r}")
    for key in raw if known is not None else ():
        if key not in known:
            raise ConfigError(f"{path}.{key}: unknown key")
    return raw


def _items(read, value, path: str) -> list:
    """Each entry of the list ``value`` read by ``read(entry, entry_path)``."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{path}: expected a list, got {value!r}")
    return [read(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _scalar(tp: type, value, path: str):
    """``value`` read as ``tp``: int, float, a str type or an enum."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ConfigError(f"{path}: expected {tp.__name__}, got {value!r}")
    try:
        out = tp(value)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    except (ValueError, OverflowError):
        raise ConfigError(f"{path}: cannot read {value!r} as {tp.__name__}") from None
    if tp is int and out != float(value):
        raise ConfigError(f"{path}: {value!r} is not an integer")
    return out


def _reader(tp):
    """``read(value, path)`` for a scalar, a str type, an enum, ``X | None`` or
    a tuple of those; None for any other declared type."""
    args = get_args(tp)
    if type(None) in args:
        read = _reader(next(a for a in args if a is not type(None)))
        return read and (lambda v, path: None if v is None else read(v, path))
    if get_origin(tp) is tuple:
        item = _reader(args[0])
        return item and (lambda v, path: tuple(_items(item, v, path)))
    if tp in (int, float) or (isinstance(tp, type) and issubclass(tp, (str, enum.Enum))):
        return partial(_scalar, tp)
    return None


def _build(cls, raw, path: str, derived: Mapping | None = None, **given):
    """Build the config dataclass ``cls`` from the mapping ``raw`` at ``path``.

    Keys are the init fields :func:`_reader` can read, and those of
    ``derived``: ``{key: (field or fields, read(value, key_path))}``.  Fields
    that ``derived`` or the caller's ``given`` set are not keys.  Absent keys
    take the dataclass's defaults; anything else wrong raises ConfigError at
    ``path``, or at the key path under it that the refusal already names.
    """
    keys = {k: ((f,) if isinstance(f, str) else f, read)
            for k, (f, read) in (derived or {}).items()}
    taken = set(given).union(*(names for names, _ in keys.values()))
    init = [f for f in fields(cls) if f.init]
    hints = get_type_hints(cls)
    for f in init:
        if f.name not in taken and (read := _reader(hints[f.name])) is not None:
            keys[f.name] = ((f.name,), read)
    kwargs = dict(given)
    for key, value in _mapping(raw, path, keys).items():
        names, read = keys[key]
        out = read(value, f"{path}.{key}")
        kwargs.update(zip(names, out if len(names) > 1 else (out,)))
    for f in init:
        if f.name not in kwargs and f.default is MISSING and f.default_factory is MISSING:
            key = next((k for k, (names, _) in keys.items() if f.name in names), f.name)
            raise ConfigError(f"{path}.{key}: required key is missing")
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        message = str(exc) if str(exc).startswith((f"{path}.", f"{path}[")) else f"{path}: {exc}"
        raise ConfigError(message) from exc


def _static_attrs(value, path: str) -> dict[str, StaticAttr]:
    """``{name: {value, direction} | value}`` for the static attribute names."""
    return {
        name: _build(StaticAttr, entry if isinstance(entry, Mapping) else {"value": entry},
                     f"{path}.{name}")
        for name, entry in _mapping(value, path, STATIC_ATTRIBUTE_NAMES).items()
    }


def _weights(value, path: str) -> tuple[float, ...]:
    """Weights as a list in attribute order, or by name with omitted ones 0."""
    if not isinstance(value, Mapping):
        return tuple(_items(partial(_scalar, float), value, path))
    return tuple(_scalar(float, _mapping(value, path, ATTRIBUTE_NAMES).get(name, 0.0),
                         f"{path}.{name}") for name in ATTRIBUTE_NAMES)


_WINDOW = ("k_l", "k_r", "delta_t_s")
_QOS_KEYS = {f.name for f in fields(QosProfile)} | {"modalities"}


def _window(value, path: str) -> tuple:
    """A service's ``window``: its ServiceSpec's ``k_l``, ``k_r`` and ``delta_t_s``."""
    hints = get_type_hints(ServiceSpec)
    for key in _WINDOW:
        if key not in _mapping(value, path, _WINDOW):
            raise ConfigError(f"{path}.{key}: required key is missing")
    return tuple(_scalar(hints[key], value[key], f"{path}.{key}") for key in _WINDOW)


def _service(value, path: str) -> ServiceSpec:
    """A service mapping holds its QoS profile's keys beside its own."""
    qos_raw = {k: v for k, v in _mapping(value, path).items() if k in _QOS_KEYS}
    qos = _build(QosProfile, qos_raw, path, {
        "modalities": ("modality_needs", _reader(tuple[Modality, ...])),
        "weights": ("weights", _weights),
    })
    return _build(ServiceSpec, {k: v for k, v in value.items() if k not in _QOS_KEYS}, path,
                  {"window": (_WINDOW, _window)}, qos=qos)


def _generators(value, path: str, outer: Mapping) -> list[GeneratorSpec]:
    """Generator specs, whose duration defaults to ``outer``'s ``duration_s``."""
    horizon = {"duration_s": outer["duration_s"]} if "duration_s" in outer else {}
    return _items(lambda g, p: _build(GeneratorSpec, {**horizon, **_mapping(g, p)}, p),
                  value, path)


def parse_scenario(raw: Mapping, base_dir: Path | None = None) -> ScenarioConfig:
    """Build a scenario from a parsed config document.

    Keys are the init fields of :class:`ScenarioConfig` and of the config
    classes it holds, or stand for some (``streams``, ``modalities``,
    ``window``); any other key raises ConfigError.
    """
    raw = _mapping(raw, "scenario")

    def streams(value, path: str) -> tuple[list[GeneratorSpec], str | None]:
        _mapping(value, path, ("synthetic", "csv"))
        if "synthetic" in value and "csv" in value:
            # one source per scenario: a run would read the CSV and drop the generators
            raise ConfigError(f"{path}: give synthetic generators or a csv path, not both")
        csv_path = _reader(str | None)(value.get("csv"), f"{path}.csv")
        if csv_path is not None and base_dir is not None:
            csv_path = str((base_dir / csv_path).resolve())
        return _generators(value.get("synthetic", []), f"{path}.synthetic", raw), csv_path

    sensor = partial(_build, SensorSpec, derived={
        "static_attrs": ("static_attrs", _static_attrs),
    })
    return _build(ScenarioConfig, raw, "scenario", {
        "sensors": ("sensors", partial(_items, sensor)),
        "services": ("services", partial(_items, _service)),
        "faults": ("faults", partial(_items, partial(_build, FaultSpec))),
        "voting": ("voting", partial(_build, VotingConfig)),
        "kalman": ("kalman", partial(_build, KalmanConfig)),
        "streams": (("generators", "csv_path"), streams),
    })


def parse_synth_spec(raw: Mapping) -> tuple[list[GeneratorSpec], int]:
    """Generators and seed of a ``synth`` spec ``{seed, duration_s, generators}``;
    ``duration_s`` is the generators' default duration."""
    _mapping(raw, "spec", ("seed", "duration_s", "generators"))
    seed = read_seed(raw.get("seed", ScenarioConfig.seed), "spec.seed")
    generators = _generators(raw.get("generators", []), "spec.generators", raw)
    require_unique((g.sensor_id for g in generators), "spec.generators", "generator for sensor")
    return generators, seed


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Load a YAML scenario config."""
    import yaml  # here, not at the top: a run over a built config reads no YAML
    path = Path(path)
    with path.open(encoding="utf-8") as fh:
        raw = yaml.safe_load(fh)
    return parse_scenario(raw, base_dir=path.parent)


# ---------------------------------------------------------------------------
# Scenario execution
# ---------------------------------------------------------------------------

@dataclass
class ScenarioReport:
    """Exact-count summary of one scenario run (timings are wall clock)."""

    mode: Mode
    seed: int
    cycles: int
    votes: int
    activations: int
    feature_invocations: int
    cache_hits: int
    distinct_feature_keys: int
    points_processed: int
    selection_counts: dict[str, int]
    # sensor -> (avoided, total) over its rows inside any of its fault windows
    fault_avoidance: dict[str, tuple[int, int]]
    errors: list[tuple[int, str, str]]
    features: list[FeatureVector]
    trace: list[TraceRow]
    wall_clock_s: float

    def avoidance_rate(self, sensor_id: str) -> float | None:
        pair = self.fault_avoidance.get(sensor_id)
        if pair is None or pair[1] == 0:
            return None
        return pair[0] / pair[1]


def _feature_line(fv: FeatureVector) -> str:
    return json.dumps(
        {
            "t_ms": fv.t_ms,
            "service_id": fv.service_id,
            "components": {k: fv.components[k] for k in sorted(fv.components)},
            "provenance": list(fv.provenance),
            "missing": list(fv.missing),
        },
        sort_keys=True,
    )


def _trace_line(row: TraceRow) -> list:
    return [
        row.t_ms,
        row.service_id,
        row.sensor_id,
        repr(row.d_m),
        repr(row.d_a),
        repr(row.d_ma),
        row.rank,
        int(row.selected),
    ]


def run_scenario(
    cfg: ScenarioConfig,
    out_dir: str | Path | None = None,
    mode: Mode | None = None,
    seed: int | None = None,
) -> ScenarioReport:
    """Execute the pipeline over the scenario horizon in one mode."""
    mode = cfg.mode if mode is None else mode
    seed = cfg.seed if seed is None else seed
    return _run_mode(cfg, _scenario_streams(cfg, seed), mode, seed, out_dir)


def _scenario_streams(cfg: ScenarioConfig, seed: int) -> dict[str, SensorStream]:
    """The streams every mode of a run reads: the CSV's, each checked against
    its declared sensor, or the generators' draws, with the faults applied."""
    if cfg.csv_path is not None:
        streams = ingest_csv(cfg.csv_path)
        declared = {s.sensor_id: s for s in cfg.sensors}
        for sid, stream in streams.items():
            require_declared(declared, sid, stream.modality, cfg.csv_path)
    else:
        streams = generate_synthetic(cfg.generators, seed)
    return inject_faults(streams, cfg.faults, seed)


def _run_mode(
    cfg: ScenarioConfig,
    streams: Mapping[str, SensorStream],
    mode: Mode,
    seed: int,
    out_dir: str | Path | None,
) -> ScenarioReport:
    """Run the pipeline over ``streams`` for the scenario horizon in ``mode``."""
    pipeline = Pipeline(
        cfg.sensors,
        cfg.services,
        streams,
        voting=cfg.voting,
        kalman=cfg.kalman,
        mode=mode,
        reliability_interval_s=cfg.reliability_interval_s,
    )
    features: list[FeatureVector] = []
    trace: list[TraceRow] = []
    errors: list[tuple[int, str, str]] = []
    started = time.perf_counter()
    for t_ms in range(pipeline.tick_ms, cfg.horizon_ms + 1, pipeline.tick_ms):
        result = pipeline.run_cycle(t_ms)
        for service_id in sorted(result.features):
            features.append(result.features[service_id])
        trace.extend(result.trace)
        for service_id in sorted(result.errors):
            errors.append((t_ms, service_id, result.errors[service_id]))
    wall = time.perf_counter() - started

    selection_counts: dict[str, int] = {}
    for row in trace:
        if row.selected:
            selection_counts[row.sensor_id] = selection_counts.get(row.sensor_id, 0) + 1
    # a row inside several of its sensor's fault windows counts once
    faults_of: dict[str, list[FaultSpec]] = {}
    for fault in cfg.faults:
        faults_of.setdefault(fault.sensor_id, []).append(fault)
    fault_avoidance: dict[str, tuple[int, int]] = {}
    for sid, faults in faults_of.items():
        rows = [r for r in trace
                if r.sensor_id == sid and any(fault.active(r.t_ms) for fault in faults)]
        fault_avoidance[sid] = (sum(1 for r in rows if not r.selected), len(rows))

    report = ScenarioReport(
        mode=mode,
        seed=seed,
        cycles=pipeline.counters.cycles,
        votes=pipeline.counters.votes,
        activations=len(features),
        feature_invocations=pipeline.feature_invocations,
        cache_hits=pipeline.cache_hits,
        distinct_feature_keys=pipeline.distinct_feature_keys,
        points_processed=pipeline.counters.points_processed,
        selection_counts=selection_counts,
        fault_avoidance=fault_avoidance,
        errors=errors,
        features=features,
        trace=trace,
        wall_clock_s=wall,
    )
    if out_dir is not None:
        _write_outputs(report, Path(out_dir))
    return report


def _write_outputs(report: ScenarioReport, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / "selection_trace.csv"
    with trace_path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER)
        for row in report.trace:
            writer.writerow(_trace_line(row))
    by_service: dict[str, list[FeatureVector]] = {}
    for fv in report.features:
        by_service.setdefault(fv.service_id, []).append(fv)
    for service_id in sorted(by_service):
        path = out_dir / f"features_{service_id}.ndjson"
        with path.open("w", encoding="utf-8") as fh:
            for fv in by_service[service_id]:
                fh.write(_feature_line(fv) + "\n")
    (out_dir / "report.txt").write_text(render_report(report), encoding="utf-8")


def render_report(report: ScenarioReport) -> str:
    """Human-readable run summary; deterministic (no wall-clock content)."""
    lines = [
        "scenario report",
        f"mode: {report.mode.value}",
        f"seed: {report.seed}",
        f"cycles: {report.cycles}",
        f"votes: {report.votes}",
        f"service activations: {report.activations}",
        f"feature function invocations: {report.feature_invocations}",
        f"feature cache hits: {report.cache_hits}",
        f"distinct feature keys: {report.distinct_feature_keys}",
        f"data points processed: {report.points_processed}",
        "per-sensor selection counts:",
    ]
    if report.selection_counts:
        for sid in sorted(report.selection_counts):
            lines.append(f"  {sid}: {report.selection_counts[sid]}")
    else:
        lines.append("  (none)")
    if report.fault_avoidance:
        lines.append("fault-window avoidance:")
        for sid in sorted(report.fault_avoidance):
            avoided, total = report.fault_avoidance[sid]
            rate = f"{avoided / total:.4f}" if total else "n/a"
            lines.append(f"  {sid}: {rate} ({avoided}/{total})")
    if report.errors:
        lines.append("per-service errors:")
        for t_ms, service_id, message in report.errors:
            lines.append(f"  t={t_ms} {service_id}: {message}")
    else:
        lines.append("per-service errors: none")
    return "\n".join(lines) + "\n"


@dataclass
class ComparisonReport:
    """Side-by-side counts for several modes on identical inputs."""

    reports: dict[str, ScenarioReport]
    failures: dict[str, str]
    features_identical: bool | None  # unified vs per_service, when both ran

    def summary(self) -> str:
        lines = ["mode comparison"]
        for name in sorted(self.reports):
            rep = self.reports[name]
            lines.append(
                f"{name}: activations={rep.activations} "
                f"feature_invocations={rep.feature_invocations} "
                f"cache_hits={rep.cache_hits} "
                f"points_processed={rep.points_processed}"
            )
        for name in sorted(self.failures):
            lines.append(f"{name}: FAILED ({self.failures[name]})")
        if self.features_identical is not None:
            verdict = "identical" if self.features_identical else "DIFFERENT"
            lines.append(f"unified vs per_service feature vectors: {verdict}")
        return "\n".join(lines) + "\n"


def compare_modes(cfg: ScenarioConfig, out_dir: str | Path | None = None) -> ComparisonReport:
    """Run every mode on identical inputs and seed; collect exact counts.

    The inputs are read, checked and faulted once, so a refusal of them
    raises here; a failure inside one mode's run is reported for that mode.
    """
    out_dir = Path(out_dir) if out_dir is not None else None
    streams = _scenario_streams(cfg, cfg.seed)
    reports: dict[str, ScenarioReport] = {}
    failures: dict[str, str] = {}
    for mode in Mode:
        sub = out_dir / mode.value if out_dir is not None else None
        try:
            reports[mode.value] = _run_mode(cfg, streams, mode, cfg.seed, sub)
        except Exception as exc:  # partial comparison is still useful
            failures[mode.value] = f"{type(exc).__name__}: {exc}"
    identical: bool | None = None
    uni = reports.get(Mode.UNIFIED.value)
    per = reports.get(Mode.PER_SERVICE.value)
    if uni is not None and per is not None:
        identical = [_feature_line(fv) for fv in uni.features] == [
            _feature_line(fv) for fv in per.features
        ]
    comparison = ComparisonReport(
        reports=reports, failures=failures, features_identical=identical
    )
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "comparison.txt").write_text(comparison.summary(), encoding="utf-8")
    return comparison

