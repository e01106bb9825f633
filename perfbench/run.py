#!/usr/bin/env python3
"""Closed-loop benchmark of the edgeprep preprocessing cycle.

One caller in one process drives ``Pipeline.run_cycle`` on a simulated
clock advanced tick by tick; each cycle starts when the previous one
returns.  A pass runs one workload over its whole horizon with a fresh
pipeline, and passes repeat until ``--seconds`` have been spent (at least
two).  Each cycle metric is taken within each pass, and the median over the
passes is reported.  Peak memory is read from a separate process that sets
the workload up once and runs one pass, so it is the program's own figure.

    python3 perfbench/run.py --workload fault_long --seed 1 --seconds 50 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with tracing off.
``--trace 1`` runs untraced and traced passes and prints the per-layer
metrics from the spans (see tracer.py).  The output checks run on every
invocation, outside the timed region.  The last line of standard output
is one JSON object: ``correct``, ``attempted`` and ``failed`` activations,
and ``metrics``.  See README.md for the definitions.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

#: set-ups timed before each pass, so that they spread over the run
SETUPS_PER_PASS = 3
#: the tail is the highest percentile that still has this many cycles beyond it
TAIL_BEYOND = 10
#: the most a faulty sensor may be selected inside its fault windows, as a
#: share of the rate at which a sensor picked at random would be
MAX_SHARE_OF_CHANCE = 0.2


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the horizon, for the smoke check")
    parser.add_argument("--peak-rss", action="store_true",
                        help="set up once, run one pass over the CSV the parent "
                             "run wrote, and print this process's peak RSS in MB")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    if not (SRC / "edgeprep" / "__init__.py").is_file():
        print(f"perfbench: edgeprep sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    args = parse_args(argv, workloads.NAMES)
    wl = workloads.build(args.workload, args.seed, args.tiny)
    OUT.mkdir(exist_ok=True)
    csv_path = OUT / f"{wl.name}-s{wl.seed}.csv"
    if args.peak_rss:
        print(Bench(wl, csv_path).peak_rss_mb())
        return 0
    try:
        points = wl.write_csv(csv_path)
        deadline = time.perf_counter() + args.seconds
        peak_rss_mb = None if args.trace else child_peak_rss_mb(args)
        result = Bench(wl, csv_path).measure(deadline, bool(args.trace), peak_rss_mb)
    finally:
        csv_path.unlink(missing_ok=True)
    print(f"input: {points} points in {csv_path.name}")
    for line in result.pop("lines"):
        print(line)
    print(json.dumps(result))
    return 0


def child_peak_rss_mb(args) -> float:
    """Peak RSS of a fresh process that runs the workload once, untraced."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--peak-rss"]
    if args.tiny:
        command.append("--tiny")
    proc = subprocess.run(command, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"peak-RSS run failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


def _vm_hwm_mb() -> float:
    # VmHWM belongs to this process image alone; ru_maxrss would also carry
    # the parent's peak, which the kernel hands on across fork and exec
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _tail(samples: list[int]) -> float:
    """The cycle time with exactly TAIL_BEYOND cycles beyond it."""
    return sorted(samples)[len(samples) - TAIL_BEYOND - 1]


def _cycle_stats(samples: list[int]) -> dict[str, float]:
    """Cycle metrics of one pass, from its cycle times in ns."""
    late = samples[len(samples) - max(1, len(samples) // 10):]
    return {
        "cycle_ms_mean": sum(samples) / len(samples) / 1e6,
        "cycle_ms_tail": _tail(samples) / 1e6,
        "cycle_ms_late": sum(late) / len(late) / 1e6,
    }


class Observer:
    """What the output checks need from one pass, taken between cycles.

    Each cycle's result is reduced to strings and counts and then dropped,
    so the benchmark keeps no object graph alive for the garbage collector
    to walk while later cycles are timed.  Only the first pass keeps its
    feature vectors and errors: the digest holds every later pass to them.
    """

    def __init__(self, faults, keep_outputs: bool):
        self.digest = hashlib.sha256()
        self.served: Counter = Counter()
        self.keep_outputs = keep_outputs
        self.errors: set[tuple[int, str]] = set()
        self.features: dict[tuple[int, str], str] = {}
        self.faults: dict[str, list] = {}
        for fault in faults:
            self.faults.setdefault(fault.sensor_id, []).append(fault)
        # faulty sensor -> [rows selected, rows] inside its fault windows
        self.in_fault = {sid: [0, 0] for sid in self.faults}

    def __call__(self, t_ms: int, result) -> None:
        for sid in sorted(result.features):
            fv = result.features[sid]
            line = repr((sorted((k, repr(v)) for k, v in fv.components.items()),
                         fv.provenance, fv.missing))
            if self.keep_outputs:
                self.features[(t_ms, sid)] = line
            self.digest.update(f"{t_ms} {sid} {line}\n".encode())
        for sid in sorted(result.errors):
            if self.keep_outputs:
                self.errors.add((t_ms, sid))
            self.digest.update(f"{t_ms} {sid} error {result.errors[sid]}\n".encode())
        self.served.update(result.features.keys())
        self.served.update(result.errors.keys())
        for row in result.trace:
            self.digest.update(repr((row.t_ms, row.service_id, row.sensor_id, row.d_m,
                                     row.d_a, row.d_ma, row.rank, row.selected)).encode())
            for fault in self.faults.get(row.sensor_id, ()):
                if fault.active(row.t_ms):
                    counts = self.in_fault[row.sensor_id]
                    counts[0] += row.selected
                    counts[1] += 1


class Bench:
    def __init__(self, wl, csv_path: Path):
        from edgeprep.harness import ingest_csv
        from edgeprep.pipeline import Mode, Pipeline

        self.wl = wl
        self.csv_path = csv_path
        self.ingest_csv = ingest_csv
        self.Pipeline = Pipeline
        self.Mode = Mode
        self.times = wl.cycle_times()
        self.streams = self.pipeline = None
        self.setups: list[tuple[float, float]] = []  # (ingest s, init s)

    def new_pipeline(self, mode=None):
        return self.Pipeline(self.wl.sensors, self.wl.services, self.streams,
                             mode=mode or self.Mode.UNIFIED,
                             reliability_interval_s=self.wl.reliability_interval_s)

    def set_up(self) -> None:
        """Drop the previous input and pipeline, then ingest the CSV and
        build a pipeline, timing both."""
        self.streams = self.pipeline = None
        gc.collect()
        t0 = time.perf_counter()
        self.streams = self.ingest_csv(self.csv_path)
        t1 = time.perf_counter()
        self.pipeline = self.new_pipeline()
        t2 = time.perf_counter()
        self.setups.append((t1 - t0, t2 - t1))

    def peak_rss_mb(self) -> float:
        self.set_up()
        for t_ms in self.times:
            self.pipeline.run_cycle(t_ms)
        return _vm_hwm_mb()

    def setup_metrics(self) -> dict[str, float]:
        return {
            "setup_s": statistics.median(i + p for i, p in self.setups),
            "harness.ingest.ms": statistics.median(i for i, _ in self.setups) * 1e3,
            "pipeline.init.ms": statistics.median(p for _, p in self.setups) * 1e3,
            "harness.ingest.points": sum(len(s) for s in self.streams.values()),
        }

    def run_pass(self, keep_outputs: bool, tracer=None):
        """One pass over the horizon, after SETUPS_PER_PASS timed set-ups;
        returns the cycle times in ns and the observed outputs.  The pass's
        pipeline stays in ``self.pipeline`` until the next set-up."""
        for _ in range(SETUPS_PER_PASS):
            self.set_up()
        pipeline = self.pipeline
        step = pipeline.run_cycle
        if tracer is not None:
            def step(t_ms):
                return tracer.run_cycle(pipeline, t_ms)
        observe = Observer(self.wl.faults, keep_outputs)
        clock = time.perf_counter_ns
        samples = []
        gc.collect()  # every pass starts from the same heap
        for t_ms in self.times:
            start = clock()
            result = step(t_ms)
            samples.append(clock() - start)
            observe(t_ms, result)
        return samples, observe

    def measure(self, deadline: float, traced: bool, peak_rss_mb: float | None) -> dict:
        import tracer as tracing

        passes, observed, layers, traced_means = [], [], [], []
        while (len(passes) + len(layers) < 2 or (traced and not layers)
               or time.perf_counter() < deadline):
            keep_outputs = not observed
            if traced and len(layers) < len(passes):
                # traced and untraced passes alternate, so that both meet
                # the same load on the host
                tracer = tracing.Tracer()
                with tracing.traced(tracer):
                    samples, observe = self.run_pass(keep_outputs, tracer)
                layers.append(layer_metrics(tracer, self.pipeline))
                traced_means.append(statistics.fmean(samples) / 1e6)
            else:
                samples, observe = self.run_pass(keep_outputs)
                passes.append(_cycle_stats(samples))
            observed.append(observe)
        setup = self.setup_metrics()
        if traced:
            tracer.write(OUT / f"spans-{self.wl.name}-s{self.wl.seed}.csv")

        n = len(self.times)
        lines = [f"workload: {self.wl.name} seed={self.wl.seed} "
                 f"horizon={self.wl.horizon_ms / 1000:g}s tick={self.wl.tick_ms()}ms "
                 f"cycles/pass={n} passes={len(passes)} traced_passes={len(layers)}"]
        checks, failed, attempted = self.check(observed, lines)
        # the median over passes keeps a burst of load on the host during
        # one pass out of the figures
        e2e = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
        lines.append(f"cycle_ms_tail is p{100.0 * (n - TAIL_BEYOND) / n:.2f} "
                     f"of {n} cycles per pass ({TAIL_BEYOND} beyond it)")
        lines.append(f"failed_activation_ratio: {failed}/{attempted} = "
                     f"{failed / attempted:.4f}")
        if traced:
            # one whole traced pass, the median by run_cycle time, so that its
            # self times add up to its run_cycle time
            layers.sort(key=lambda layer: layer["pipeline.cycle.ms"])
            metrics = layers[(len(layers) - 1) // 2]
            metrics["trace.overhead_ms_per_cycle"] = (
                statistics.median(traced_means)
                - e2e["cycle_ms_mean"])
            for name in ("harness.ingest.ms", "harness.ingest.points", "pipeline.init.ms"):
                metrics[name] = setup[name]
            self_sum = sum(metrics[name] for name in SELF_TIME_METRICS)
            lines.append(f"layer self times + pipeline.cycle.self_ms = {self_sum:.3f} ms; "
                         f"traced run_cycle total = {metrics['pipeline.cycle.ms']:.3f} ms")
            metrics = {name: {"value": metrics[name], "unit": unit}
                       for name, unit in PER_LAYER}
        else:
            e2e["setup_s"] = setup["setup_s"]
            e2e["peak_rss_mb"] = peak_rss_mb
            e2e["ok_activation_ratio"] = (attempted - failed) / attempted
            metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
        for name, metric in metrics.items():
            lines.append(f"{name}: {metric['value']:.6g} {metric['unit']}")
        return {"lines": lines, "correct": all(checks.values()), "attempted": attempted,
                "failed": failed, "metrics": metrics}

    def check(self, observed, lines):
        """Output checks; returns (named verdicts, failed, attempted)."""
        wl = self.wl
        first = observed[0]
        due = wl.activations_due()
        checks = {
            "tick": self.pipeline.tick_ms == wl.tick_ms(),
            "activation_counts": all(obs.served == due for obs in observed),
            "deterministic": len({obs.digest.hexdigest() for obs in observed}) == 1,
        }
        failed = set(first.errors)
        if len(wl.services) > 1:  # with one service both modes are one run
            reference = Observer((), keep_outputs=True)
            per_service = self.new_pipeline(self.Mode.PER_SERVICE)
            for t_ms in self.times:
                reference(t_ms, per_service.run_cycle(t_ms))
            expected, actual = reference.features, first.features
            mismatched = {key for key in expected.keys() | actual.keys()
                          if expected.get(key) != actual.get(key)}
            failed |= mismatched
            lines.append(f"unified vs per_service: {len(mismatched)} of "
                         f"{len(expected)} activations differ")
        if wl.faults:
            # selected share inside the fault windows / share by chance
            worst = max(selected / rows / wl.selection_chance(sid)
                        for sid, (selected, rows) in first.in_fault.items() if rows)
            checks["fault_avoidance"] = worst <= MAX_SHARE_OF_CHANCE
            lines.append(f"faulty sensors' selection inside fault windows: at most "
                         f"{worst:.4f} of chance over {len(first.in_fault)} sensors")
        lines.append(f"digest: {first.digest.hexdigest()}")
        lines.append("checks: " + " ".join(
            f"{name}={'PASS' if ok else 'FAIL'}" for name, ok in checks.items()))
        return checks, len(failed), sum(due.values())


END_TO_END = (
    ("setup_s", "s"),
    ("cycle_ms_mean", "ms"),
    ("cycle_ms_tail", "ms"),
    ("cycle_ms_late", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_activation_ratio", "ratio"),
)

PER_LAYER = (
    ("harness.ingest.ms", "ms"),
    ("harness.ingest.points", "count"),
    ("pipeline.init.ms", "ms"),
    ("model.latest_in.calls", "count"),
    ("model.latest_in.ms", "ms"),
    ("voting.calls", "count"),
    ("voting.ms", "ms"),
    ("voting.membership.ms", "ms"),
    ("voting.cohort_size.mean", "sensors"),
    ("reliability.close.calls", "count"),
    ("reliability.close.ms", "ms"),
    ("reliability.history.len", "count"),
    ("ranking.calls", "count"),
    ("ranking.ms", "ms"),
    ("ranking.sensors_scored", "count"),
    ("pipeline.associate.calls", "count"),
    ("pipeline.associate.ms", "ms"),
    ("pipeline.associate.points_in", "count"),
    ("pipeline.associate.keep_ratio", "ratio"),
    ("fusion.align.ms", "ms"),
    ("fusion.align.cells", "count"),
    ("fusion.kalman.ms", "ms"),
    ("pipeline.feature.calls", "count"),
    ("pipeline.feature.ms", "ms"),
    ("pipeline.cache.hits", "count"),
    ("pipeline.cache.misses", "count"),
    ("pipeline.cache.hit_ratio", "ratio"),
    ("pipeline.cache.entries", "count"),
    ("pipeline.cache.keys_seen", "count"),
    ("pipeline.cycle.self_ms", "ms"),
    ("pipeline.cycle.ms", "ms"),
    ("trace.overhead_ms_per_cycle", "ms"),
)

#: the self times that add up to the traced run_cycle time
SELF_TIME_METRICS = (
    "model.latest_in.ms", "voting.ms", "reliability.close.ms", "ranking.ms",
    "pipeline.associate.ms", "fusion.align.ms", "fusion.kalman.ms",
    "pipeline.feature.ms", "pipeline.cycle.self_ms",
)


def layer_metrics(tracer, pipeline) -> dict[str, float]:
    """Per-layer figures of one traced pass; times are ms over the pass."""
    self_ms = {name: ns / 1e6 for name, ns in tracer.self_ns().items()}
    calls = tracer.calls()
    counts = tracer.counts
    voting_ms = sum(ms for name, ms in self_ms.items() if name.startswith("voting."))
    points_in = counts["pipeline.associate.points_in"]
    hits, misses = pipeline.cache_hits, pipeline.feature_invocations
    # a read-only look at private state
    history = sum(len(dyn.rel.lambda_history) for dyn in pipeline._dyn.values())
    cycle_total = sum((end - start) for name, start, end, _, _ in tracer.spans
                      if name == "pipeline.cycle") / 1e6
    return {
        "model.latest_in.calls": calls["model.latest_in"],
        "model.latest_in.ms": self_ms.get("model.latest_in", 0.0),
        "voting.calls": calls["voting.normalize"],
        "voting.ms": voting_ms,
        "voting.membership.ms": self_ms.get("voting.membership", 0.0),
        "voting.cohort_size.mean": (counts["voting.cohort_size"]
                                    / max(1, calls["voting.membership"])),
        "reliability.close.calls": calls["reliability.close"],
        "reliability.close.ms": self_ms.get("reliability.close", 0.0),
        "reliability.history.len": history,
        "ranking.calls": calls["ranking.rank"],
        "ranking.ms": self_ms.get("ranking.rank", 0.0),
        "ranking.sensors_scored": counts["ranking.sensors_scored"],
        "pipeline.associate.calls": calls["pipeline.associate"],
        "pipeline.associate.ms": self_ms.get("pipeline.associate", 0.0),
        "pipeline.associate.points_in": points_in,
        "pipeline.associate.keep_ratio": (counts["pipeline.associate.points_kept"]
                                          / points_in if points_in else 0.0),
        "fusion.align.ms": self_ms.get("fusion.align", 0.0),
        "fusion.align.cells": counts["fusion.align.cells"],
        "fusion.kalman.ms": self_ms.get("fusion.kalman", 0.0),
        "pipeline.feature.calls": calls["pipeline.feature"],
        "pipeline.feature.ms": self_ms.get("pipeline.feature", 0.0),
        "pipeline.cache.hits": hits,
        "pipeline.cache.misses": misses,
        "pipeline.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "pipeline.cache.entries": sum(len(cache) for cache in pipeline.caches()),
        "pipeline.cache.keys_seen": pipeline.distinct_feature_keys,
        "pipeline.cycle.self_ms": self_ms.get("pipeline.cycle", 0.0),
        "pipeline.cycle.ms": cycle_total,
    }


if __name__ == "__main__":
    sys.exit(main())
