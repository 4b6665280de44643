"""Benchmark-side spans, the per-layer metrics and the self-time breakdown.

Spans are recorded by the benchmark around calls into the program's
public functions (the program's own tracing is not used).  They stay in
memory as plain dicts and are written out once, at the end of a round.

A span is ``{"name", "start", "end", "parent", "attrs"}``; ``parent`` is
the index of the enclosing span in the same list, or ``None`` for a
root, and ``attrs`` holds counts the program reported for that call.
The generator's own stage clocks (``TestSuite.stage_times``) become
child spans of their ``generate`` span, placed at its start since only
their durations are known.  Times come from :func:`time.monotonic`,
which on Linux reads ``CLOCK_MONOTONIC`` and is therefore comparable
between the client and the service process of the ``grading`` workload.

A layer's self time is the summed duration of its spans minus the part
covered by their child spans.  Over a round, the self times of every
layer plus the unattributed remainder (round wall time minus the root
spans) add up to the round's wall time exactly.
"""

from __future__ import annotations

import bisect
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

#: Span name -> the layer its self time is charged to.
LAYER_OF = {
    "parse": "sql",
    "analyze": "analyze",
    "generate": "generator",
    "build": "generator",
    "preprocess": "generator",
    "search": "generator",
    "assemble": "generator",
    "enumerate": "mutation",
    "evaluate": "killcheck",
    "crosscheck": "backends",
    "request": "service",
}

LAYERS = ("sql", "analyze", "generator", "mutation", "killcheck",
          "backends", "service")

#: ``TestSuite.stage_times`` keys, each recorded as a child span.
STAGES = ("analyze", "build", "preprocess", "search", "assemble")


class Recorder:
    """In-memory span recorder; spans nest per thread."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str):
        """Time the block; yields the span's index for :meth:`note`."""
        stack = self._local.__dict__.setdefault("stack", [])
        record = {
            "name": name,
            "start": time.monotonic(),
            "end": None,
            "parent": stack[-1] if stack else None,
            "attrs": {},
        }
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield index
        finally:
            stack.pop()
            record["end"] = time.monotonic()

    def note(self, index: int, **attrs) -> None:
        self.spans[index]["attrs"].update(attrs)

    def stages(self, index: int, suite) -> None:
        """The generator's stage clocks and counts for span ``index``."""
        start = self.spans[index]["start"]
        skeleton = suite.health.skeleton_cache
        self.note(
            index,
            datasets=len(suite.datasets),
            skeleton_hits=skeleton.get("hits", 0),
            skeleton_lookups=skeleton.get("hits", 0) + skeleton.get("misses", 0),
        )
        with self._lock:
            for stage in STAGES:
                self.spans.append({
                    "name": stage,
                    "start": start,
                    "end": start + suite.stage_times.get(stage, 0.0),
                    "parent": index,
                    "attrs": {},
                })


def traced(recorder: Recorder, name: str, function, counts=None):
    """``function`` with a span around every call; ``counts(recorder,
    index, result, args)`` notes what the program reported."""
    def call(*args, **kwargs):
        with recorder.span(name) as index:
            result = function(*args, **kwargs)
            if counts is not None:
                counts(recorder, index, result, args)
        return result
    return call


def suite_counts(recorder: Recorder, index: int, suite, args) -> None:
    recorder.stages(index, suite)


def space_counts(recorder: Recorder, index: int, space, args) -> None:
    recorder.note(index, mutants=len(space.mutants),
                  join_mutants=len(space.by_kind("join")))


def _cache_attrs(stats: dict | None) -> dict:
    stats = stats or {}
    return {
        "subplan_hits": stats.get("hits", 0),
        "subplan_misses": stats.get("misses", 0),
        "subplan_bytes": stats.get("bytes", 0),
    }


def report_counts(recorder: Recorder, index: int, report, args) -> None:
    space = args[0]
    recorder.note(
        index,
        executions=(len(space.mutants) + 1) * report.dataset_count,
        **_cache_attrs(report.cache_stats),
    )


def crosscheck_counts(recorder: Recorder, index: int, executions, args) -> None:
    # cross_check_space(space, databases, primary, reference, label, cache)
    recorder.note(index, executions=executions,
                  **_cache_attrs(args[5].stats()))


class Layers:
    """The program's layer calls, each timed when a :class:`Recorder` is
    given.  Without one they are the plain functions, so untraced rounds
    do the same work with no timing around the layers."""

    def __init__(self, recorder: Recorder | None = None) -> None:
        from repro.core.generator import XDataGenerator
        from repro.mutation.space import enumerate_mutants
        from repro.sql import parse_query
        from repro.testing.conformance import cross_check_space
        from repro.testing.killcheck import evaluate_suite

        self.recorder = recorder
        self.parse = parse_query
        self.generate = XDataGenerator.generate
        self.enumerate = enumerate_mutants
        self.evaluate = evaluate_suite
        self.crosscheck = cross_check_space
        if recorder is not None:
            self.parse = traced(recorder, "parse", self.parse)
            self.generate = traced(recorder, "generate", self.generate,
                                   suite_counts)
            self.enumerate = traced(recorder, "enumerate", self.enumerate,
                                    space_counts)
            self.evaluate = traced(recorder, "evaluate", self.evaluate,
                                   report_counts)
            self.crosscheck = traced(recorder, "crosscheck", self.crosscheck,
                                     crosscheck_counts)


def adopt(spans: list[dict], foreign: list[dict]) -> list[dict]:
    """Append ``foreign`` spans (recorded in another process) to ``spans``.

    Foreign roots are parented to the root of ``spans`` that was the
    latest to start before them; foreign children keep their parents,
    re-indexed.  ``spans`` roots must not overlap (a closed-loop client
    has one request in flight), so that root contains them.
    """
    merged = list(spans)
    roots = sorted(
        (s["start"], i) for i, s in enumerate(spans) if s["parent"] is None
    )
    starts = [start for start, _ in roots]
    offset = len(merged)
    for span in foreign:
        copy = dict(span)
        if span["parent"] is not None:
            copy["parent"] = span["parent"] + offset
        else:
            position = bisect.bisect_right(starts, span["start"]) - 1
            copy["parent"] = roots[position][1] if position >= 0 else None
        merged.append(copy)
    return merged


def total(spans: list[dict], name: str) -> float:
    """Summed duration of every span called ``name``."""
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def breakdown(spans: list[dict], wall_s: float) -> dict:
    """Per-layer self time and share of ``wall_s``, plus the remainder."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["end"] - span["start"]
    self_s = {layer: 0.0 for layer in LAYERS}
    roots = 0.0
    for index, span in enumerate(spans):
        duration = span["end"] - span["start"]
        self_s[LAYER_OF[span["name"]]] += duration - covered[index]
        if span["parent"] is None:
            roots += duration
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.share_pct"] = 100.0 * self_s[layer] / wall_s
    out["trace.unattributed_s"] = wall_s - roots
    out["trace.unattributed_pct"] = 100.0 * (wall_s - roots) / wall_s
    out["trace.wall_s"] = wall_s
    return out


def layer_metrics(spans: list[dict], wall_s: float) -> dict:
    """Every span-derived per-layer metric of one traced round."""
    sums: dict = defaultdict(float)
    for span in spans:
        for key, value in span["attrs"].items():
            sums[span["name"], key] += value
    evaluate_s = total(spans, "evaluate")
    crosscheck_s = total(spans, "crosscheck")
    hits = sums["evaluate", "subplan_hits"] + sums["crosscheck", "subplan_hits"]
    misses = (sums["evaluate", "subplan_misses"]
              + sums["crosscheck", "subplan_misses"])
    out = {
        "sql.parse_s": total(spans, "parse"),
        "analyze.analyze_s": total(spans, "analyze"),
        "generator.generate_s": total(spans, "generate"),
        "generator.datasets": sums["generate", "datasets"],
        "generator.skeleton_hit_rate": _ratio(
            sums["generate", "skeleton_hits"],
            sums["generate", "skeleton_lookups"],
        ),
        "mutation.enumerate_s": total(spans, "enumerate"),
        "mutation.mutants": sums["enumerate", "mutants"],
        "mutation.join_mutants": sums["enumerate", "join_mutants"],
        "killcheck.evaluate_s": evaluate_s,
        "killcheck.executions": sums["evaluate", "executions"],
        "killcheck.execs_per_s": _ratio(
            sums["evaluate", "executions"], evaluate_s
        ),
        "engine.subplan_hit_rate": _ratio(hits, hits + misses),
        "engine.subplan_bytes": (sums["evaluate", "subplan_bytes"]
                                 + sums["crosscheck", "subplan_bytes"]),
        "backends.crosscheck_s": crosscheck_s,
        "backends.executions": sums["crosscheck", "executions"],
        "backends.execs_per_s": _ratio(
            sums["crosscheck", "executions"], crosscheck_s
        ),
    }
    for stage in STAGES[1:]:
        out[f"generator.{stage}_s"] = total(spans, stage)
    out.update(breakdown(spans, wall_s))
    return out
