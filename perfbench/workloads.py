"""Benchmark workloads: sensor pools, services and their seeded input data.

Each workload is generated here, faults included, from the benchmark seed
alone, with a generator of the benchmark's own: later changes to the
package's synthetic generators or fault injection cannot shift the inputs.
The program sees the data only as the CSV file that ``write_csv`` produces
and ``edgeprep.harness.ingest_csv`` reads.

Why each workload exists (see README.md for the measured split):

* ``fault_long`` - the seven-sensor fault scenario over a long horizon.
  The horizon-bound scans (cumulative reliability, ``latest_in``) dominate
  and their cost grows with elapsed time.
* ``wide_cohort`` - one modality with 120 redundant sensors and a short
  horizon: the O(n^2) voting matrix and per-sensor ranking dominate while
  the horizon-bound layers do almost nothing.
* ``shared_services`` - six services over four modalities with overlapping
  windows, so the shared feature cache gets hits.  One service pair has
  equal window bounds on different grids, which real service mixes can
  contain and which exposes the feature-cache key defect.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from edgeprep.model import (
    Direction,
    Modality,
    QosProfile,
    SensorSpec,
    StaticAttr,
)
from edgeprep.pipeline import ServiceSpec

NAMES = ("fault_long", "wide_cohort", "shared_services")

CSV_HEADER = ("timestamp_ms", "sensor_id", "modality", "value")

#: every sensor samples at 1 Hz, from one period after 0 to the horizon
SAMPLE_PERIOD_MS = 1000

#: Accuracy-priority QoS weights (accuracy, reliability, resolution,
#: response time, range), as in the package's fault scenario.
ACCURACY_FIRST = (1.0, 0.0, 0.02, 0.02, 0.02)

#: (level, amplitude, wavelength_s, noise_std) of each modality's signal.
SIGNALS = {
    "temperature": (22.0, 0.8, 240.0, 0.05),
    "humidity": (45.0, 5.0, 300.0, 0.5),
    "co2": (520.0, 40.0, 180.0, 8.0),
    "motion": (0.4, 0.3, 60.0, 0.05),
}


@dataclass(frozen=True)
class Fault:
    """A fault over ``]start_ms, end_ms]``: stuck at ``param``, or drifting
    away at ``param`` units per second."""

    sensor_id: str
    kind: str  # "stuck_at" | "drift"
    start_ms: int
    end_ms: int
    param: float

    def active(self, t_ms: int) -> bool:
        return self.start_ms < t_ms <= self.end_ms


@dataclass
class Workload:
    name: str
    sensors: list[SensorSpec]
    services: list[ServiceSpec]
    reliability_interval_s: float
    horizon_ms: int
    faults: list[Fault]
    seed: int

    # The schedule implied by the configuration, computed apart from the
    # pipeline so that the output checks can hold the pipeline to it.

    def tick_ms(self) -> int:
        steps = [_ms(s.period_s) for s in self.services]
        steps += [_ms(s.qos.granularity_s) for s in self.services]
        steps.append(_ms(self.reliability_interval_s))
        return math.gcd(*steps)

    def cycle_times(self) -> range:
        tick = self.tick_ms()
        return range(tick, self.horizon_ms + 1, tick)

    def activations_due(self) -> dict[str, int]:
        due = {}
        for svc in self.services:
            period = _ms(svc.period_s)
            warmup = svc.k_l * _ms(svc.delta_t_s)
            due[svc.service_id] = sum(
                1 for t in self.cycle_times() if t % period == 0 and t >= warmup
            )
        return due

    def selection_chance(self, sensor_id: str) -> float:
        """The share of activations that would select ``sensor_id`` if each
        service picked its sensors of that modality at random."""
        key = next(s.modality_key for s in self.sensors if s.sensor_id == sensor_id)
        cohort = sum(1 for s in self.sensors if s.modality_key == key)
        return max(min(svc.qos.select_count, cohort) / cohort for svc in self.services
                   if key in svc.qos.modality_needs)

    def rows(self) -> list[tuple[int, str, str, float]]:
        """Every sample of every sensor, faults applied, in CSV order."""
        out = []
        times = np.arange(SAMPLE_PERIOD_MS, self.horizon_ms + 1, SAMPLE_PERIOD_MS,
                          dtype=np.int64)
        seconds = times / 1000.0
        for index, spec in enumerate(self.sensors):
            modality = spec.modality.value
            level, amplitude, wavelength, noise = SIGNALS[modality]
            rng = np.random.default_rng([self.seed, NAMES.index(self.name), index])
            phase = rng.uniform(0.0, 0.2)
            values = (level
                      + amplitude * np.sin(2.0 * np.pi * seconds / wavelength + phase)
                      + noise * rng.standard_normal(len(times)))
            for fault in self.faults:
                if fault.sensor_id != spec.sensor_id:
                    continue
                inside = (times > fault.start_ms) & (times <= fault.end_ms)
                if fault.kind == "stuck_at":
                    values[inside] = fault.param
                else:
                    values[inside] += fault.param * (times[inside] - fault.start_ms) / 1000.0
            out.extend(
                (int(t), spec.sensor_id, modality, float(v))
                for t, v in zip(times, values)
            )
        out.sort(key=lambda r: (r[0], r[1]))
        return out

    def write_csv(self, path: Path) -> int:
        """Write the input CSV; values use ``repr`` so they read back exactly."""
        rows = self.rows()
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER)
            for t, sid, modality, value in rows:
                writer.writerow([t, sid, modality, repr(value)])
        return len(rows)


def _ms(seconds: float) -> int:
    return round(seconds * 1000)


def _sensor(sensor_id: str, modality: str, response: float) -> SensorSpec:
    return SensorSpec(
        sensor_id=sensor_id,
        modality=Modality(modality),
        zone="room",
        static_attrs={
            "resolution": StaticAttr(0.5, Direction.COST),
            "response_time": StaticAttr(response, Direction.COST),
            "range": StaticAttr(50.0, Direction.BENEFIT),
        },
    )


def _service(service_id: str, modalities: tuple[str, ...], period_s: float,
             k_l: int, delta_t_s: float, features: tuple[str, ...],
             select_count: int = 1,
             weights: tuple[float, ...] = (1.0, 1.0, 1.0, 1.0, 1.0)) -> ServiceSpec:
    return ServiceSpec(
        qos=QosProfile(
            service_id=service_id,
            weights=weights,
            modality_needs=modalities,
            granularity_s=1.0,
            select_count=select_count,
        ),
        period_s=period_s,
        k_l=k_l,
        k_r=0,
        delta_t_s=delta_t_s,
        features=features,
    )


def fault_long(seed: int, tiny: bool) -> Workload:
    """Seven temperature sensors; t3 sticks at 30, t7 drifts at 0.5/s."""
    horizon_s = 120 if tiny else 2400
    sensors = [_sensor(f"t{i}", "temperature", 1.0 + 0.1 * i) for i in range(1, 8)]
    faults = [
        Fault("t3", "stuck_at", horizon_s * 250, horizon_s * 750, 30.0),
        Fault("t7", "drift", horizon_s * 375, horizon_s * 875, 0.5),
    ]
    climate = _service("climate", ("temperature",), 1.0, 5, 1.0,
                       ("temperature_mean",), weights=ACCURACY_FIRST)
    return Workload("fault_long", sensors, [climate], 2.0, horizon_s * 1000,
                    faults, seed)


def wide_cohort(seed: int, tiny: bool) -> Workload:
    """120 temperature sensors, a seeded tenth of them faulty."""
    horizon_s = 30 if tiny else 200
    size = 120
    sensors = [_sensor(f"w{i:03d}", "temperature", 1.0 + 0.01 * i) for i in range(size)]
    rng = np.random.default_rng([seed, NAMES.index("wide_cohort"), size])
    faulty = sorted(rng.choice(size, size // 10, replace=False))
    faults = []
    for n, i in enumerate(faulty):
        start = int(rng.integers(0, horizon_s // 2)) * 1000
        end = start + horizon_s * 500
        if n % 2:
            faults.append(Fault(f"w{i:03d}", "drift", start, end, 0.5))
        else:
            faults.append(Fault(f"w{i:03d}", "stuck_at", start, end, 30.0))
    climate = _service("climate", ("temperature",), 1.0, 5, 1.0,
                       ("temperature_mean", "temperature_std"),
                       select_count=3, weights=ACCURACY_FIRST)
    return Workload("wide_cohort", sensors, [climate], 10.0, horizon_s * 1000,
                    faults, seed)


def shared_services(seed: int, tiny: bool) -> Workload:
    """Six services over four modalities with five sensors each.

    ``comfort`` and ``hvac`` share window bounds ``]t - 10 s, t]`` on
    different grids (20 x 0.5 s and 10 x 1 s) and select the same sensors,
    so the feature cache serves one's features to the other.
    """
    horizon_s = 60 if tiny else 600
    sensors = [
        _sensor(f"{modality[0]}{i}", modality, 1.0 + 0.1 * i)
        for modality in ("temperature", "humidity", "co2", "motion")
        for i in range(1, 6)
    ]
    services = [
        _service("airquality", ("co2", "humidity"), 5.0, 5, 1.0,
                 ("co2_mean", "co2_max", "humidity_mean")),
        _service("comfort", ("temperature", "humidity"), 2.0, 20, 0.5,
                 ("temperature_mean", "temperature_std", "humidity_mean"),
                 select_count=2),
        _service("energy", ("temperature", "co2", "motion"), 10.0, 10, 1.0,
                 ("temperature_mean", "co2_mean", "presence")),
        _service("hvac", ("temperature", "humidity"), 2.0, 10, 1.0,
                 ("temperature_mean", "temperature_std", "humidity_mean"),
                 select_count=2),
        _service("occupancy", ("motion", "co2"), 1.0, 5, 1.0,
                 ("motion_mean", "co2_mean", "presence")),
        _service("security", ("motion",), 1.0, 5, 1.0, ("presence", "motion_max")),
    ]
    return Workload("shared_services", sensors, services, 5.0, horizon_s * 1000,
                    [], seed)


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    builders = {"fault_long": fault_long, "wide_cohort": wide_cohort,
                "shared_services": shared_services}
    return builders[name](seed, tiny)
