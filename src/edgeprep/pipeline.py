"""Unified preprocessing orchestrator.

One pipeline instance owns the whole cycle loop for a set of services
sharing a sensor pool: per-cohort fuzzy voting keeps accuracy weights fresh,
reliability intervals close on a fixed cadence, and each service activation
ranks its cohorts, fuses the selected streams over the service window and
emits a feature vector.  Collocated services share that work: within a
cycle a cohort is ranked once per ranking profile (utopia, weights,
reliability source) and a window is fused once per bounds, grid step and
sources, and shared intermediate features (including low-level inferences
such as presence detection) are memoized by ``(function, window bounds,
contributing sensors)``.

Operating modes:

* ``unified`` - selection on, rankings, fused windows and one feature cache
  shared by all services;
* ``per_service`` - selection on, each service ranks, fuses and caches its
  features on its own (every service recomputes shared work, counts show
  the overhead);
* ``topsis_baseline`` - selection fixed once from the static attribute
  snapshot by TOPSIS, dynamic scoring off;
* ``no_selection_fused`` - selection off, every live sensor of a needed
  modality is fused.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

from .fusion import FusedStream, KalmanConfig, fuse_window
from .model import (
    ConfigError,
    Modality,
    QosProfile,
    SensorSpec,
    SensorStream,
    seconds_to_ms,
)
from .ranking import Ranking, rank_rows, static_profile, topsis_select
from .reliability import ReliabilityState, close_interval
from .voting import VotingConfig, vote

# perfbench/tracer.py wraps SensorStream.latest_in and, by name in this
# module, normalize, membership_matrix, cumulative_scores, select_optimal,
# assign_accuracy, close_interval, rank_and_select, associate, align,
# kalman_fuse_streams and compute_feature; a missing name is a KeyError
# there.  The cycle calls the kernels vote, rank_rows and fuse_window
# instead of the public chains, which stay bound here until the benchmark
# traces stages (ROADMAP items 2 and 3).
from .fusion import align, kalman_fuse_streams  # noqa: F401
from .ranking import rank_and_select  # noqa: F401
from .voting import (  # noqa: F401
    assign_accuracy,
    cumulative_scores,
    membership_matrix,
    normalize,
    select_optimal,
)

__all__ = [
    "Mode",
    "AssociationPredicate",
    "associate",
    "FeatureFunction",
    "FeatureCache",
    "compute_feature",
    "build_feature_registry",
    "FeatureVector",
    "TraceRow",
    "CycleResult",
    "ServiceSpec",
    "Pipeline",
]


class Mode(enum.Enum):
    UNIFIED = "unified"
    PER_SERVICE = "per_service"
    TOPSIS_BASELINE = "topsis_baseline"
    NO_SELECTION_FUSED = "no_selection_fused"


# ---------------------------------------------------------------------------
# Windows and association
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AssociationPredicate:
    """Binary temporal + spatial correlation rules for a sensor's samples.

    ``zone_of`` must be total: it maps any sensor id to a zone tag (empty
    for unknown sensors).  The temporal rule is window containment with a
    tolerance in milliseconds; the spatial rule is zone-tag equality.
    """

    zone_of: Callable[[str], str]
    temporal_tolerance_ms: int = 0


def associate(
    points: SensorStream,
    pred: AssociationPredicate,
    t_a_ms: int,
    t_b_ms: int,
    zone: str,
) -> tuple[bool, SensorStream]:
    """Samples satisfying both rules, plus a flag (1 iff any survive).

    The zone rule holds for all of one sensor's samples or for none; the
    temporal rule keeps the bisected slice ``]t_a - tol, t_b + tol]``.
    """
    if pred.zone_of(points.sensor_id) != zone:
        return False, points[:0]
    ts = points.timestamps_ms
    tol_ms = pred.temporal_tolerance_ms
    subset = points[bisect_right(ts, t_a_ms - tol_ms):bisect_right(ts, t_b_ms + tol_ms)]
    return len(subset) > 0, subset


# ---------------------------------------------------------------------------
# Features
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FeatureFunction:
    """One statistic of one modality: ``compute`` maps the fused window
    values, a non-empty tuple of floats, to one float.

    Purity is a contract: identical inputs must produce identical outputs,
    which is what makes cross-service memoization sound.
    """

    fid: str
    modality: Modality
    compute: Callable[[Sequence[float]], float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "modality", Modality(self.modality))


class FeatureCache:
    """Memo table keyed by (feature id, window bounds, contributing sensors).

    Tracks hits and misses; windows whose right edge falls behind the
    eviction cutoff are dropped to bound memory.  The table holds only live
    windows, so an eviction scans every stored key.  Iterating yields the
    stored keys.
    """

    def __init__(self) -> None:
        self._store: dict[tuple, float] = {}
        self.hits = 0
        self.misses = 0

    def lookup(self, key: tuple) -> float | None:
        value = self._store.get(key)
        if value is not None:
            self.hits += 1
        return value

    def insert(self, key: tuple, value: float) -> float:
        self._store[key] = value
        self.misses += 1
        return value

    def evict_before(self, cutoff_ms: int) -> list[tuple]:
        """Drop every entry whose window ends before ``cutoff_ms``; returns
        the dropped keys."""
        evicted = [key for key in self._store if key[2] < cutoff_ms]
        for key in evicted:
            del self._store[key]
        return evicted

    def __len__(self) -> int:
        return len(self._store)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self._store)


def compute_feature(
    fn: FeatureFunction,
    t_a_ms: int,
    t_b_ms: int,
    data: Mapping[str, FusedStream],
    cache: FeatureCache,
) -> float | None:
    """Evaluate a feature over the window ``]t_a_ms, t_b_ms]``, memoized.

    Returns ``None`` (a missing-feature marker) when its modality has no
    usable data in the window; consumers decide whether to drop or fill.
    A cache hit performs no recomputation.
    """
    fused = data.get(fn.modality)
    if fused is None or not fused.values:
        return None
    key = (fn.fid, t_a_ms, t_b_ms, fused.source_ids)
    cached = cache.lookup(key)
    if cached is not None:
        return cached
    return cache.insert(key, float(fn.compute(fused.values)))


#: mean fused motion level above which ``presence`` reports 1.0
PRESENCE_THRESHOLD = 0.4


def _mean(v: Sequence[float]) -> float:
    """The exact sum rounded once, divided by the count."""
    return math.fsum(v) / len(v)


def _std(v: Sequence[float]) -> float:
    """Population deviation: ``sqrt(fsum((x - mean)**2) / n)``, each square
    a product."""
    mean = _mean(v)
    deviations = [x - mean for x in v]
    return math.sqrt(math.fsum([d * d for d in deviations]) / len(v))


def _median(v: Sequence[float]) -> float:
    """The middle of the sorted values; the mean ``(a + b) / 2`` of the two
    middle ones for an even count."""
    s = sorted(v)
    half = len(s) // 2
    return s[half] if len(s) % 2 else (s[half - 1] + s[half]) / 2


def _presence(values: Sequence[float]) -> float:
    """Presence detection stand-in: thresholded mean fused motion level.

    Illustrative heuristic only, not a calibrated detector; it exists to
    give collocated services a shared low-level inference to reuse.
    """
    return 1.0 if _mean(values) > PRESENCE_THRESHOLD else 0.0


#: one definition per statistic, over a non-empty tuple of floats
_STATS: dict[str, Callable[[Sequence[float]], float]] = {
    "mean": _mean,
    "std": _std,
    "min": min,
    "max": max,
    "median": _median,
    "range": lambda v: max(v) - min(v),
    "last": lambda v: v[-1],
    "count": len,
}


def build_feature_registry(feature_ids: Sequence[str]) -> dict[str, FeatureFunction]:
    """Resolve feature ids like ``temperature_mean`` or ``presence``.

    Stat features follow the pattern ``<modality>_<stat>`` with stats drawn
    from mean/std/min/max/median/range/last/count, the modality part read as
    a :class:`Modality` (``Lux_mean`` reads ``lux``); ``presence`` reads motion.
    """
    registry: dict[str, FeatureFunction] = {}
    for fid in feature_ids:
        if fid == "presence":
            registry[fid] = FeatureFunction(fid, Modality.MOTION, _presence)
            continue
        modality, _, stat = fid.rpartition("_")
        if not modality or stat not in _STATS:
            raise ConfigError(f"cannot resolve feature id {fid!r}")
        registry[fid] = FeatureFunction(fid, modality, _STATS[stat])
    return registry


# ---------------------------------------------------------------------------
# Services and results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ServiceSpec:
    """A service's QoS profile plus its scheduling and window shape: an
    activation at ``t`` reads ``]t - k_l*dt, t + k_r*dt]`` on a grid of step dt.
    ``feature_functions`` are ``features`` resolved, in their order."""

    qos: QosProfile
    period_s: float
    k_l: int
    k_r: int
    delta_t_s: float
    features: tuple[str, ...]
    zone: str | None = None
    period_ms: int = field(init=False)  # period_s in exact milliseconds
    delta_ms: int = field(init=False)   # dt = delta_t_s in exact milliseconds
    feature_functions: tuple[FeatureFunction, ...] = field(init=False, compare=False,
                                                           repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "period_ms", seconds_to_ms(self.period_s, "period_s"))
        if self.k_l < 0 or self.k_r < 0:
            raise ConfigError("k_l and k_r must be >= 0")
        if self.k_l == 0 and self.k_r == 0:
            raise ConfigError("degenerate window: k_l and k_r are both 0")
        object.__setattr__(self, "delta_ms", seconds_to_ms(self.delta_t_s, "delta_t_s"))
        if not self.features:
            raise ConfigError("service must declare at least one feature")
        object.__setattr__(self, "features", tuple(self.features))
        registry = build_feature_registry(self.features)
        for fid, fn in registry.items():
            if fn.modality not in self.qos.modality_needs:
                raise ConfigError(
                    f"feature {fid!r} needs modality {fn.modality!r} "
                    f"outside the declared needs"
                )
        object.__setattr__(self, "feature_functions",
                           tuple(registry[fid] for fid in self.features))

    @property
    def service_id(self) -> str:
        return self.qos.service_id


@dataclass(frozen=True)
class FeatureVector:
    """Per-service feature output for one activation."""

    service_id: str
    t_ms: int
    components: Mapping[str, float]
    provenance: tuple[str, ...]
    missing: tuple[str, ...] = ()


class TraceRow(NamedTuple):
    """One sensor's ranking outcome within one service activation."""

    t_ms: int
    service_id: str
    sensor_id: str
    d_m: float
    d_a: float
    d_ma: float
    rank: int
    selected: bool


@dataclass
class CycleResult:
    features: dict[str, FeatureVector] = field(default_factory=dict)
    trace: list[TraceRow] = field(default_factory=list)
    errors: dict[str, str] = field(default_factory=dict)


@dataclass
class Counters:
    cycles: int = 0
    votes: int = 0
    points_processed: int = 0


class ServiceDataError(RuntimeError):
    """A service could not be served this cycle; other services proceed."""


class _SensorDyn:
    """Mutable per-sensor dynamic state, owned by the pipeline."""

    __slots__ = ("alpha", "rel")

    def __init__(self, n_expected: int, seconds_per_unit: float):
        self.alpha = 1.0
        self.rel = ReliabilityState(n_expected, seconds_per_unit)


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

class Pipeline:
    """Single-writer cycle orchestrator over a fixed sensor pool.

    Construct one instance per scenario run; call :meth:`run_cycle` at every
    tick (see :attr:`tick_ms`).  Feature computations are pure, so only the
    cycle loop itself mutates state.
    """

    def __init__(
        self,
        sensors: Sequence[SensorSpec],
        services: Sequence[ServiceSpec],
        streams: Mapping[str, SensorStream],
        *,
        voting: VotingConfig | None = None,
        kalman: KalmanConfig | None = None,
        mode: Mode = Mode.UNIFIED,
        reliability_interval_s: float = 10.0,
    ):
        self.mode = mode
        self.voting = voting or VotingConfig()
        self.kalman = kalman or KalmanConfig()
        self.reliability_interval_ms = seconds_to_ms(reliability_interval_s,
                                                     "reliability_interval_s")
        self.counters = Counters()

        self.specs: dict[str, SensorSpec] = {}
        for spec in sensors:
            if spec.sensor_id in self.specs:
                raise ConfigError(f"duplicate sensor id {spec.sensor_id!r}")
            self.specs[spec.sensor_id] = spec
        for sid, stream in streams.items():
            spec = self.specs.get(sid)
            if spec is None:
                raise ConfigError(f"stream for unknown sensor {sid!r}")
            if stream.modality != spec.modality:
                raise ConfigError(f"stream for sensor {sid!r} is {stream.modality!r}, "
                                  f"the sensor is {spec.modality!r}")
        self.streams = dict(streams)

        self.services = sorted(services, key=lambda s: s.service_id)
        seen = set()
        for svc in self.services:
            if svc.service_id in seen:
                raise ConfigError(f"duplicate service id {svc.service_id!r}")
            seen.add(svc.service_id)

        # cohorts: modality -> specs, restricted to modalities in use
        needed = {mk for svc in self.services for mk in svc.qos.modality_needs}
        self._cohorts: dict[Modality, list[SensorSpec]] = {}
        for spec in sorted(self.specs.values(), key=lambda s: s.sensor_id):
            if spec.modality in needed:
                self._cohorts.setdefault(spec.modality, []).append(spec)

        self._granularity_ms: dict[Modality, int] = {
            mk: min(svc.qos.granularity_ms for svc in self.services
                    if mk in svc.qos.modality_needs)
            for mk in sorted(self._cohorts)
        }

        self._static: dict[str, tuple[float, float, float]] = {
            sid: static_profile(spec) for sid, spec in self.specs.items()
        }
        # the ranking kernel trusts its rows: static_score refuses the raw
        # values that would leave [0, 1], beta lies in [0, 1] by its formula,
        # alpha is checked where a ranking reads it (see _cohort_rows), and
        # every cohort's ids ascend, unique, by the duplicate check and the
        # sort above
        # interval lengths are measured in expected-sample units so a fully
        # consistent sensor sits on the Poisson mode at any cadence
        self._dyn: dict[str, _SensorDyn] = {}
        for mk, cohort in self._cohorts.items():
            gran_ms = self._granularity_ms[mk]
            n_expected = max(1, self.reliability_interval_ms // gran_ms)
            for spec in cohort:
                self._dyn[spec.sensor_id] = _SensorDyn(n_expected, gran_ms / 1000.0)

        # modality -> (sensor id, stream) of each cohort sensor with a
        # stream, ids ascending
        self._voters: dict[Modality, list[tuple[str, SensorStream]]] = {
            mk: [(spec.sensor_id, self.streams[spec.sensor_id]) for spec in cohort
                 if spec.sensor_id in self.streams]
            for mk, cohort in self._cohorts.items()
        }

        # one feature cache per scope (see _scope), in service order
        self._caches: dict[str | None, FeatureCache] = {
            self._scope(svc): FeatureCache() for svc in self.services
        }
        # keys evicted so far; none can recur while cycle times increase
        self._retired_keys = 0
        self._last_t_ms: int | None = None
        # this cycle's rankings and fused windows, keyed with the cache's
        # scope (see _scope); cleared at the start of every cycle
        self._cycle_memo: dict[tuple, object] = {}

        # (service id, modality) -> ascending ids of the cohort's sensors
        # with data, in the service's zone; streams and zones are fixed
        self._live: dict[tuple[str, Modality], tuple[str, ...]] = {
            (svc.service_id, mk): tuple(
                spec.sensor_id
                for spec in self._cohorts.get(mk, [])
                if len(self.streams.get(spec.sensor_id, ())) > 0
                and (svc.zone is None or spec.zone == svc.zone)
            )
            for svc in self.services
            for mk in svc.qos.modality_needs
        }

        # (service id, modality) -> the fixed ranking
        self._topsis: dict[tuple[str, Modality], Ranking] = {}
        if mode is Mode.TOPSIS_BASELINE:
            for svc in self.services:
                for mk in svc.qos.modality_needs:
                    live = self._live[(svc.service_id, mk)]
                    if live:
                        self._topsis[(svc.service_id, mk)] = topsis_select(
                            live, self._cohort_rows(live, "interval"), svc.qos)

        steps = ([svc.period_ms for svc in self.services] + list(self._granularity_ms.values())
                 + [self.reliability_interval_ms])
        self.tick_ms = math.gcd(*steps) if steps else 1000

    # -- state assembly ----------------------------------------------------

    def _cohort_rows(self, ids: Sequence[str], beta_source: str) -> list[tuple[float, ...]]:
        """The cohort's state rows, one tuple of five floats per id."""
        dyn, static = self._dyn, self._static
        if beta_source == "interval":
            rows = [(dyn[sid].alpha, dyn[sid].rel.beta) + static[sid] for sid in ids]
        else:
            rows = [(dyn[sid].alpha, dyn[sid].rel.beta_cumulative) + static[sid] for sid in ids]
        # alpha is in [0, 1] unless a vote's Kalman estimate went through inf
        # to NaN; a later vote may replace it, so only a ranking refuses it
        for row in rows:
            if row[0] != row[0]:
                raise ValueError("state entries must lie in [0, 1]")
        return rows

    def _scope(self, svc: ServiceSpec) -> str | None:
        """Who may reuse a service's work: its own id in per-service mode,
        every service (``None``) otherwise."""
        return svc.service_id if self.mode is Mode.PER_SERVICE else None

    def caches(self) -> list[FeatureCache]:
        return list(self._caches.values())

    @property
    def feature_invocations(self) -> int:
        return sum(c.misses for c in self.caches())

    @property
    def cache_hits(self) -> int:
        return sum(c.hits for c in self.caches())

    @property
    def distinct_feature_keys(self) -> int:
        return self._retired_keys + len(set().union(*self.caches()))

    # -- cohort maintenance --------------------------------------------------

    def _due(self, t_ms: int, step_ms: int) -> bool:
        return t_ms > 0 and t_ms % step_ms == 0

    def _vote(self, mk: Modality, t_ms: int) -> None:
        start_ms = t_ms - self._granularity_ms[mk]
        ids: list[str] = []
        raw: list[float] = []
        for sid, stream in self._voters[mk]:
            latest = stream.latest_in(start_ms, t_ms)
            if latest is not None:
                ids.append(sid)
                raw.append(latest[1])
        self.counters.votes += 1
        dyn = self._dyn
        if len(ids) >= 2:
            # the readings ascend by id and SensorStream validated them; the
            # optimal set's size is clamped to the sensors actually reporting
            alphas, top = vote(raw, self.voting, self.kalman)
            for sid, alpha in zip(ids, alphas):
                dyn[sid].alpha = alpha
            ids = [ids[i] for i in top]
        elif ids:
            # voting formulas are undefined for a single reporter
            dyn[ids[0]].alpha = 1.0
        # only optimal-set appearances earn reliability credit
        for sid in ids:
            dyn[sid].rel.q += 1

    def _close_reliability(self, t_ms: int) -> None:
        for dyn in self._dyn.values():
            close_interval(dyn.rel, t_ms)

    # -- service activation --------------------------------------------------

    def activations_due(self, t_ms: int) -> list[ServiceSpec]:
        # a service waits for its first full window
        return [
            svc for svc in self.services
            if self._due(t_ms, svc.period_ms) and t_ms >= svc.k_l * svc.delta_ms
        ]

    def _select(
        self, svc: ServiceSpec, mk: Modality, t_ms: int, live: tuple[str, ...]
    ) -> tuple[tuple[str, ...], list[TraceRow]]:
        if self.mode is Mode.NO_SELECTION_FUSED:
            return live, []
        qos = svc.qos
        if self.mode is Mode.TOPSIS_BASELINE:
            order, ranked = self._topsis[(svc.service_id, mk)]
        else:
            # the whole order is ranked once and each service takes its prefix
            key = ("rank", self._scope(svc), live, qos.utopia, qos.weights, qos.beta_source)
            ranking = self._cycle_memo.get(key)
            if ranking is None:
                ranking = self._cycle_memo[key] = rank_rows(
                    live, self._cohort_rows(live, qos.beta_source), qos
                )
            order, ranked = ranking
        # the service cuts its own prefix; a count beyond the cohort keeps all
        count = qos.select_count
        service_id = svc.service_id
        rows = [TraceRow(t_ms, service_id, sid, d_m, d_a, d_ma, rank, rank <= count)
                for sid, d_m, d_a, d_ma, rank in ranked]
        return order[:count], rows

    def _fused_window(
        self, svc: ServiceSpec, t_a_ms: int, t_b_ms: int, selected: Sequence[str]
    ) -> FusedStream:
        # the sources fix the modality, and the grid step fixes the ticks
        # and the gap; the zone rule keeps every sample of a live sensor
        sources = tuple(sorted(selected))
        key = ("fuse", self._scope(svc), t_a_ms, t_b_ms, svc.delta_ms, sources)
        fused = self._cycle_memo.get(key)
        if fused is None:
            fused = self._cycle_memo[key] = self._fuse(svc, t_a_ms, t_b_ms, sources)
        window, points = fused
        self.counters.points_processed += points
        return window

    def _fuse(
        self, svc: ServiceSpec, t_a_ms: int, t_b_ms: int, sources: tuple[str, ...]
    ) -> tuple[FusedStream, int]:
        """The fused window of ``sources`` and its count of samples inside
        ``]t_a, t_b]``; the fused stream's ``source_ids`` are ``sources``.

        A source's window is the samples :func:`associate` keeps: the
        temporal rule's ``]t_a - tol, t_b + tol]``, bisected once at each
        end, so the cost stays with the window, not with the length of the
        stream.  The zone rule keeps every sample of a live sensor.
        """
        delta_ms = svc.delta_ms
        # the samples bracketing a grid tick may sit two grid steps from it,
        # so the association tolerance is also the window's interpolation gap
        tol_ms = 2 * delta_ms
        points = 0
        columns = []
        for sid in sources:
            stream = self.streams[sid]
            ts = stream.timestamps_ms
            lo = bisect_right(ts, t_a_ms - tol_ms)
            hi = bisect_right(ts, t_b_ms + tol_ms, lo)
            points += bisect_right(ts, t_b_ms, lo, hi) - bisect_right(ts, t_a_ms, lo, hi)
            columns.append((ts, stream.values, lo, hi))
        ticks = range(t_a_ms + delta_ms, t_b_ms + 1, delta_ms)
        timestamps, values = fuse_window(columns, ticks, delta_ms, tol_ms, self.kalman)
        return FusedStream(timestamps, values, sources), points

    def _activate(self, svc: ServiceSpec, t_ms: int, result: CycleResult) -> None:
        t_a_ms = t_ms - svc.k_l * svc.delta_ms
        t_b_ms = t_ms + svc.k_r * svc.delta_ms
        selected_by_mk: dict[Modality, tuple[str, ...]] = {}
        rows: list[TraceRow] = []
        for mk in svc.qos.modality_needs:
            live = self._live[(svc.service_id, mk)]
            if not live:
                raise ServiceDataError(f"no live sensors for modality {mk!r}")
            selected, mk_rows = self._select(svc, mk, t_ms, live)
            selected_by_mk[mk] = selected
            rows.extend(mk_rows)
        data = {
            mk: self._fused_window(svc, t_a_ms, t_b_ms, selected)
            for mk, selected in selected_by_mk.items()
        }
        cache = self._caches[self._scope(svc)]
        components: dict[str, float] = {}
        missing: list[str] = []
        for fn in svc.feature_functions:
            value = compute_feature(fn, t_a_ms, t_b_ms, data, cache)
            if value is None:
                missing.append(fn.fid)
            else:
                components[fn.fid] = value
        sensors_used = sorted({sid for sel in selected_by_mk.values() for sid in sel})
        provenance = tuple(sensors_used) + tuple(svc.features)
        result.features[svc.service_id] = FeatureVector(
            service_id=svc.service_id,
            t_ms=t_ms,
            components=components,
            provenance=provenance,
            missing=tuple(missing),
        )
        result.trace.extend(rows)

    # -- the cycle -----------------------------------------------------------

    def run_cycle(self, t_ms: int) -> CycleResult:
        """Advance cohort state and serve every service due at ``t_ms``.

        Cycle times must increase from call to call.
        """
        if self._last_t_ms is not None and t_ms <= self._last_t_ms:
            raise ValueError(f"cycle time {t_ms} does not follow {self._last_t_ms}")
        self._last_t_ms = t_ms
        self._cycle_memo.clear()
        self.counters.cycles += 1
        if self.mode in (Mode.UNIFIED, Mode.PER_SERVICE):
            for mk in sorted(self._cohorts):
                if self._due(t_ms, self._granularity_ms[mk]):
                    self._vote(mk, t_ms)
            if self._due(t_ms, self.reliability_interval_ms):
                self._close_reliability(t_ms)
        result = CycleResult()
        for svc in self.activations_due(t_ms):
            try:
                self._activate(svc, t_ms, result)
            except ServiceDataError as exc:
                result.errors[svc.service_id] = str(exc)
        # every later window ends at or after its own, later, cycle time
        self._retired_keys += len(
            set().union(*(cache.evict_before(t_ms) for cache in self.caches()))
        )
        return result
