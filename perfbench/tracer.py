"""Spans around the calls the pipeline makes into each layer.

The tracer replaces the public functions the pipeline calls, by name, in
``edgeprep.pipeline``'s namespace (and ``SensorStream.latest_in`` on its
class) with wrappers that record one span per call: name, start, end,
parent span and the cycle (request) id, which is the cycle's ``t_ms``.
Counts of work are taken at the same boundaries.  Spans stay in memory
until the run ends; per-layer self times are derived from them afterwards.
A name the package no longer defines raises ``KeyError``, so a rename in the
package shows here instead of reading as a faster layer.
"""

from __future__ import annotations

import csv
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import edgeprep.pipeline as pipeline_module
from edgeprep.model import SensorStream

ROOT = "pipeline.cycle"


class Tracer:
    def __init__(self) -> None:
        # one span per call: [name, start_ns, end_ns, parent index, cycle id]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.cycle_id = 0
        self._stack = [-1]

    def wrap(self, name, fn, count=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1], self.cycle_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def run_cycle(self, pipeline, t_ms: int):
        self.cycle_id = t_ms
        return self.wrap(ROOT, pipeline.run_cycle)(t_ms)

    def write(self, path: Path) -> None:
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(("name", "start_ns", "end_ns", "parent", "cycle_t_ms"))
            writer.writerows(self.spans)

    def self_ns(self) -> Counter:
        """Self time per span name: duration minus the direct children's."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def calls(self) -> Counter:
        return Counter(span[0] for span in self.spans)


def _count_membership(counts, args, result):
    counts["voting.cohort_size"] += result.n


def _count_ranking(counts, args, result):
    counts["ranking.sensors_scored"] += len(args[0])


def _count_associate(counts, args, result):
    counts["pipeline.associate.points_in"] += len(args[0])
    counts["pipeline.associate.points_kept"] += len(result[1])


def _count_align(counts, args, result):
    counts["fusion.align.cells"] += result.values.size


# (owner, attribute, span name, count hook)
TARGETS = (
    (SensorStream, "latest_in", "model.latest_in", None),
    (pipeline_module, "normalize", "voting.normalize", None),
    (pipeline_module, "membership_matrix", "voting.membership", _count_membership),
    (pipeline_module, "cumulative_scores", "voting.cumulative", None),
    (pipeline_module, "select_optimal", "voting.select", None),
    (pipeline_module, "assign_accuracy", "voting.accuracy", None),
    (pipeline_module, "close_interval", "reliability.close", None),
    (pipeline_module, "rank_and_select", "ranking.rank", _count_ranking),
    (pipeline_module, "associate", "pipeline.associate", _count_associate),
    (pipeline_module, "align", "fusion.align", _count_align),
    (pipeline_module, "kalman_fuse_streams", "fusion.kalman", None),
    (pipeline_module, "compute_feature", "pipeline.feature", None),
)


@contextmanager
def traced(tracer: Tracer):
    """Route the pipeline's layer calls through ``tracer`` while active."""
    saved = []
    try:
        for owner, attr, name, count in TARGETS:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, count))
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
