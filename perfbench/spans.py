"""Spans around the calls into each PRoST layer, recorded from outside.

The traced run wraps public functions of the program (and the Parquet
writer of PySpark, to split a store load into its VP and PT writes) in
place, records one span per call, and restores the originals when it
ends. Spans stay in memory; the benchmark turns them into per-layer
metrics when the run is over. The untraced run installs nothing.
"""
from __future__ import annotations

import functools
import os
import re
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable


class Tracer:
    """Records ``(layer, sample key, seconds)`` spans while installed.

    ``key`` names the sample the benchmark is running (a query name and
    sweep, or a load repetition); spans recorded while it is ``None``
    (the correctness pass, the warm-up) are dropped.
    """

    def __init__(self) -> None:
        self.key: tuple | None = None
        self.spans: dict[tuple[str, tuple], float] = defaultdict(float)
        self.results: dict[tuple[str, tuple], object] = {}
        self._restore: list[tuple[object, str, object]] = []

    def record(self, layer: str, seconds: float, result: object = None) -> None:
        if self.key is not None:
            self.spans[(layer, self.key)] += seconds
            if result is not None:
                self.results[(layer, self.key)] = result

    @contextmanager
    def sample(self, key: tuple):
        self.key = key
        try:
            yield
        finally:
            self.key = None

    def wrap(
        self,
        owner: object,
        attr: str,
        layer: str | Callable[..., str],
        keep_result: bool = False,
    ) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span.

        *layer* is the span name, or a function of the call's arguments
        that returns it.
        """
        original = owner.__dict__[attr] if attr in vars(owner) else getattr(owner, attr)
        target = getattr(owner, attr)
        tracer = self

        @functools.wraps(target)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            out = target(*args, **kwargs)
            name = layer(*args, **kwargs) if callable(layer) else layer
            tracer.record(name, time.perf_counter() - t0, out if keep_result else None)
            return out

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def durations(self, layer: str) -> dict[tuple, float]:
        """Seconds per sample key for one layer."""
        return {k: v for (name, k), v in self.spans.items() if name == layer}


def _parquet_write_layer(writer, path, *args, **kwargs) -> str:
    return "write." + os.path.basename(os.path.normpath(str(path)))


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer the benchmark reports."""
    from pyspark.sql.readwriter import DataFrameWriter

    import repro.baselines.s2rdf as s2rdf
    import repro.core.executor as executor
    import repro.core.prost as prost
    from repro.core.stats import GraphStats

    tracer.wrap(GraphStats, "compute", "stats.compute")
    tracer.wrap(DataFrameWriter, "parquet", _parquet_write_layer)
    for module in (prost, s2rdf):
        tracer.wrap(module, "parse", "parser.parse")
        tracer.wrap(module, "build_join_tree", "jointree.plan", keep_result=True)
    tracer.wrap(executor, "build_join_tree", "jointree.plan", keep_result=True)
    tracer.wrap(executor, "execute_tree", "executor.build")


_OPERATOR = re.compile(r"^[\s:+\-|]*(?:\*\(\d+\)\s)?(\w+)")


def plan_operators(df) -> dict[str, int]:
    """Operator counts of the physical plan Spark builds for *df*."""
    plan = df._jdf.queryExecution().executedPlan().toString()
    counts: dict[str, int] = defaultdict(int)
    for line in plan.splitlines():
        m = _OPERATOR.match(line)
        if m:
            counts[m.group(1)] += 1
    return {
        "exchanges": counts["Exchange"],
        "sort_merge_joins": counts["SortMergeJoin"],
        "generates": counts["Generate"],
    }


def spark_work(sc, group: str) -> dict[str, int]:
    """Jobs, stages and tasks Spark ran under one job group."""
    tracker = sc.statusTracker()
    jobs = tracker.getJobIdsForGroup(group)
    stages = [s for j in jobs if (info := tracker.getJobInfo(j)) for s in info.stageIds]
    tasks = sum(info.numTasks for s in stages if (info := tracker.getStageInfo(s)))
    return {"jobs": len(jobs), "stages": len(stages), "tasks": tasks}
