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
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

from .fusion import FusedStream, KalmanConfig, fuse_window
from .model import (
    ConfigError,
    Modality,
    QosProfile,
    SensorSpec,
    SensorStream,
    require_declared,
    require_unique,
    seconds_to_ms,
)
from .ranking import Ranking, rank_rows, topsis_select
from .reliability import ReliabilityState, close_interval
from .voting import VotingConfig, vote

# perfbench/tracer.py wraps SensorStream.latest_in and, by name in this
# module, normalize, membership_matrix, cumulative_scores, select_optimal,
# assign_accuracy, close_interval, rank_and_select, associate, align,
# kalman_fuse_streams and compute_feature; a missing name is a KeyError
# there.  The cycle looks up close_interval (one call per close, every
# state at once) and compute_feature (one call per feature) by those names
# at each call, so the wrappers see them.  It calls the kernels vote,
# rank_rows and fuse_window instead of the public chains, which stay bound
# here until the benchmark traces stages (ROADMAP items 2 and 3); only the
# temporal associate remains, kept for the tracer.
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

def associate(points: SensorStream, t_a_ms: int, t_b_ms: int,
              tol_ms: int = 0) -> tuple[bool, SensorStream]:
    """The samples of ``points`` in ``]t_a - tol, t_b + tol]``, bisected at
    each end, and whether any are there."""
    ts = points.timestamps_ms
    lo = bisect_right(ts, t_a_ms - tol_ms)
    hi = bisect_right(ts, t_b_ms + tol_ms, lo)
    return hi > lo, replace(points, timestamps_ms=ts[lo:hi], values=points.values[lo:hi])


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
        # a repeat would be computed twice per activation, the second time
        # as a cache hit that no other service shared
        for i, fid in enumerate(self.features):
            if fid in self.features[:i]:
                raise ConfigError(f"feature {fid!r} is listed twice")
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


class _SensorDyn:
    """Mutable per-sensor dynamic state, owned by the pipeline, beside the
    sensor's fixed static scores: together, its ranking row."""

    __slots__ = ("alpha", "rel", "static")

    def __init__(self, n_expected: int, seconds_per_unit: float,
                 static: tuple[float, float, float]):
        self.alpha = 1.0
        self.rel = ReliabilityState(n_expected, seconds_per_unit)
        self.static = static


@dataclass(eq=False, slots=True)
class _Need:
    """One modality a service needs, resolved at construction.

    ``live`` are the ascending ids of the cohort's sensors with data in the
    service's zone, and ``sources`` their states, in that order.
    ``profile`` numbers the ranking profile (scope, live ids, utopia,
    weights, beta source): services with one profile share one ranking per
    cycle.  ``fixed`` is the TOPSIS baseline's ranking, made once.
    """

    modality: Modality
    live: tuple[str, ...]
    sources: tuple[_SensorDyn, ...]
    profile: int
    fixed: Ranking | None


@dataclass(eq=False, slots=True)
class _Plan:
    """What an activation of one service reads, resolved at construction.

    An activation at ``t`` is due when the service's period divides ``t``
    and ``t >= left_ms``, its first full window, and reads
    ``]t - left_ms, t + right_ms]`` on the service's grid.  ``window``
    numbers the fusion profile (scope, offsets, grid step): one fused
    window per profile and sources per cycle.  ``error`` names the first
    need without live sensors: each due activation reports it, unserved.
    """

    spec: ServiceSpec
    left_ms: int
    right_ms: int
    window: int
    cache: FeatureCache
    needs: tuple[_Need, ...]
    error: str | None


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

class Pipeline:
    """Single-writer cycle orchestrator over a fixed sensor pool.

    Construct one instance per scenario run; call :meth:`run_cycle` at every
    tick (see :attr:`tick_ms`).  Feature computations are pure, so only the
    cycle loop itself mutates state.  Every lookup that the sensor pool,
    the streams and the services fix is resolved here, once: one vote list
    per cohort and one activation plan per service.
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

        require_unique((spec.sensor_id for spec in sensors), "sensors", "sensor id")
        require_unique((svc.service_id for svc in services), "services", "service id")
        specs = {spec.sensor_id: spec for spec in sensors}
        for sid, stream in streams.items():
            require_declared(specs, sid, stream.modality, f"streams[{sid!r}]")
        self.streams = dict(streams)
        self.services = sorted(services, key=lambda s: s.service_id)

        # cohorts: modality -> specs, restricted to modalities in use
        needed = {mk for svc in self.services for mk in svc.qos.modality_needs}
        cohorts: dict[Modality, list[SensorSpec]] = {}
        for spec in sorted(specs.values(), key=lambda s: s.sensor_id):
            if spec.modality in needed:
                cohorts.setdefault(spec.modality, []).append(spec)
        granularity_ms: dict[Modality, int] = {
            mk: min(svc.qos.granularity_ms for svc in self.services
                    if mk in svc.qos.modality_needs)
            for mk in sorted(cohorts)
        }

        # the ranking kernel trusts its rows: SensorSpec refuses a raw value
        # whose score would leave [0, 1], beta lies in [0, 1] by its formula,
        # alpha is checked where a ranking reads it (see _rows), and every
        # cohort's ids ascend, unique, by the duplicate check and the sort
        # above
        # interval lengths are measured in expected-sample units so a fully
        # consistent sensor sits on the Poisson mode at any cadence
        self._dyn: dict[str, _SensorDyn] = {}
        for mk, cohort in cohorts.items():
            gran_ms = granularity_ms[mk]
            n_expected = max(1, self.reliability_interval_ms // gran_ms)
            for spec in cohort:
                self._dyn[spec.sensor_id] = _SensorDyn(n_expected, gran_ms / 1000.0,
                                                       spec.static_scores)

        # cohort maintenance, which only the two selecting modes run: per
        # cohort in modality order, its granularity and the (stream, state)
        # pair of each sensor with a stream, ids ascending; and every
        # reliability state, closed in one call
        maintained = mode in (Mode.UNIFIED, Mode.PER_SERVICE)
        self._votes: list[tuple[int, list[tuple[SensorStream, _SensorDyn]]]] = [
            (granularity_ms[mk], [(self.streams[spec.sensor_id], self._dyn[spec.sensor_id])
                                  for spec in cohorts[mk] if spec.sensor_id in self.streams])
            for mk in sorted(cohorts)
        ] if maintained else []
        self._reliability: list[ReliabilityState] = (
            [dyn.rel for dyn in self._dyn.values()] if maintained else [])

        # one feature cache per scope, in service order: who may reuse a
        # service's work, its own id in per-service mode, every service
        # (None) otherwise
        self._caches: dict[str | None, FeatureCache] = {}
        profiles: dict[tuple, int] = {}
        windows: dict[tuple, int] = {}
        self._plans: list[_Plan] = []
        for svc in self.services:
            scope = svc.service_id if mode is Mode.PER_SERVICE else None
            qos = svc.qos
            needs = []
            for mk in qos.modality_needs:
                # the sensors with data in the service's zone; streams and
                # zones are fixed
                live = tuple(spec.sensor_id for spec in cohorts.get(mk, [])
                             if len(self.streams.get(spec.sensor_id, ())) > 0
                             and (svc.zone is None or spec.zone == svc.zone))
                sources = tuple(self._dyn[sid] for sid in live)
                profile = profiles.setdefault(
                    (scope, live, qos.utopia, qos.weights, qos.beta_source), len(profiles))
                fixed = None
                if mode is Mode.TOPSIS_BASELINE and live:
                    fixed = topsis_select(live, self._rows(sources, "interval"), qos)
                needs.append(_Need(mk, live, sources, profile, fixed))
            starved = [need.modality for need in needs if not need.live]
            left_ms, right_ms = svc.k_l * svc.delta_ms, svc.k_r * svc.delta_ms
            self._plans.append(_Plan(
                spec=svc,
                left_ms=left_ms,
                right_ms=right_ms,
                window=windows.setdefault((scope, left_ms, right_ms, svc.delta_ms),
                                          len(windows)),
                cache=self._caches.setdefault(scope, FeatureCache()),
                needs=tuple(needs),
                error=f"no live sensors for modality {starved[0]!r}" if starved else None,
            ))
        # the end of the last reliability close, the start of the open interval
        self._closed_ms = 0
        # keys evicted so far; none can recur while cycle times increase
        self._retired_keys = 0
        self._last_t_ms: int | None = None
        # this cycle's work, cleared at the start of every cycle: rankings
        # keyed by profile number, fused windows by (window number, sources)
        self._cycle_memo: dict[int | tuple, object] = {}

        self.tick_ms = math.gcd(self.reliability_interval_ms, *granularity_ms.values(),
                                *(svc.period_ms for svc in self.services))

    # -- state assembly ----------------------------------------------------

    @staticmethod
    def _rows(sources: Sequence[_SensorDyn], beta_source: str) -> list[tuple[float, ...]]:
        """The ranking rows of ``sources``, one tuple of five floats each."""
        if beta_source == "cumulative":
            rows = [(dyn.alpha, dyn.rel.beta_cumulative) + dyn.static for dyn in sources]
        else:
            rows = [(dyn.alpha, dyn.rel.beta) + dyn.static for dyn in sources]
        # alpha is in [0, 1] unless a vote's Kalman estimate went through inf
        # to NaN; a later vote may replace it, so only a ranking refuses it
        for row in rows:
            if row[0] != row[0]:
                raise ValueError("state entries must lie in [0, 1]")
        return rows

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

    def _vote(self, voters: Sequence[tuple[SensorStream, _SensorDyn]], granularity_ms: int,
              t_ms: int) -> None:
        start_ms = t_ms - granularity_ms
        present: list[_SensorDyn] = []
        raw: list[float] = []
        for stream, dyn in voters:
            latest = stream.latest_in(start_ms, t_ms)
            if latest is not None:
                present.append(dyn)
                raw.append(latest[1])
        self.counters.votes += 1
        if len(present) >= 2:
            # the readings ascend by id and SensorStream validated them; the
            # optimal set's size is clamped to the sensors actually reporting
            alphas, top = vote(raw, self.voting, self.kalman)
            for dyn, alpha in zip(present, alphas):
                dyn.alpha = alpha
            present = [present[i] for i in top]
        elif present:
            # voting formulas are undefined for a single reporter
            present[0].alpha = 1.0
        # only optimal-set appearances earn reliability credit
        for dyn in present:
            dyn.rel.q += 1

    def _close_reliability(self, t_ms: int) -> None:
        close_interval(self._reliability, self._closed_ms, t_ms)
        self._closed_ms = t_ms

    # -- service activation --------------------------------------------------

    def _due_plans(self, t_ms: int) -> list[_Plan]:
        # a service waits for its first full window
        return [plan for plan in self._plans
                if t_ms > 0 and t_ms % plan.spec.period_ms == 0 and t_ms >= plan.left_ms]

    def _select(self, plan: _Plan, need: _Need, t_ms: int, trace: list[TraceRow]
                ) -> tuple[str, ...]:
        """The sensors ``need`` selects at ``t_ms``; their ranking rows are
        appended to ``trace``."""
        if self.mode is Mode.NO_SELECTION_FUSED:
            return need.live
        qos = plan.spec.qos
        if need.fixed is not None:
            order, ranked = need.fixed
        else:
            # the whole order is ranked once and each service takes its prefix
            ranking = self._cycle_memo.get(need.profile)
            if ranking is None:
                ranking = self._cycle_memo[need.profile] = rank_rows(
                    need.live, self._rows(need.sources, qos.beta_source), qos)
            order, ranked = ranking
        # the service cuts its own prefix; a count beyond the cohort keeps all
        count = qos.select_count
        service_id = qos.service_id
        trace.extend(TraceRow(t_ms, service_id, sid, d_m, d_a, d_ma, rank, rank <= count)
                     for sid, d_m, d_a, d_ma, rank in ranked)
        return order[:count]

    def _fuse(
        self, delta_ms: int, t_a_ms: int, t_b_ms: int, sources: tuple[str, ...]
    ) -> tuple[FusedStream, int]:
        """The fused window of ``sources`` on a grid of ``delta_ms`` and its
        count of samples inside ``]t_a, t_b]``; the fused stream's
        ``source_ids`` are ``sources``.

        A source's window is the samples :func:`associate` keeps,
        ``]t_a - tol, t_b + tol]``, bisected once at each end, so the cost
        stays with the window, not with the length of the stream.
        """
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

    def _activate(self, plan: _Plan, t_ms: int, result: CycleResult) -> None:
        t_a_ms = t_ms - plan.left_ms
        t_b_ms = t_ms + plan.right_ms
        chosen: list[tuple[str, ...]] = []
        data: dict[Modality, FusedStream] = {}
        for need in plan.needs:
            selected = self._select(plan, need, t_ms, result.trace)
            chosen.append(selected)
            # the sources fix the modality, and the grid step fixes the
            # ticks and the gap
            key = (plan.window, tuple(sorted(selected)))
            fused = self._cycle_memo.get(key)
            if fused is None:
                fused = self._cycle_memo[key] = self._fuse(plan.spec.delta_ms, t_a_ms, t_b_ms,
                                                           key[1])
            data[need.modality] = fused[0]
            self.counters.points_processed += fused[1]
        components: dict[str, float] = {}
        missing: list[str] = []
        svc = plan.spec
        for fn in svc.feature_functions:
            value = compute_feature(fn, t_a_ms, t_b_ms, data, plan.cache)
            if value is None:
                missing.append(fn.fid)
            else:
                components[fn.fid] = value
        result.features[svc.service_id] = FeatureVector(
            service_id=svc.service_id,
            t_ms=t_ms,
            components=components,
            provenance=tuple(sorted(set().union(*chosen))) + svc.features,
            missing=tuple(missing),
        )

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
        if t_ms > 0:
            for granularity_ms, voters in self._votes:
                if t_ms % granularity_ms == 0:
                    self._vote(voters, granularity_ms, t_ms)
            if self._reliability and t_ms % self.reliability_interval_ms == 0:
                self._close_reliability(t_ms)
        result = CycleResult()
        for plan in self._due_plans(t_ms):
            if plan.error is None:
                self._activate(plan, t_ms, result)
            else:
                result.errors[plan.spec.service_id] = plan.error
        # every later window ends at or after its own, later, cycle time
        self._retired_keys += len(
            set().union(*(cache.evict_before(t_ms) for cache in self._caches.values()))
        )
        return result
