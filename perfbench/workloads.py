"""Set-up, correctness pass and timed loops of the PRoST benchmark.

One closed-loop client in one driver process: every sample starts from
SPARQL text, so parse, Join-Tree planning and the driver-side DataFrame
build are timed together with Spark's execution, and every sample writes
all projected columns to Spark's ``noop`` sink (``count()`` would let
Catalyst prune columns and compute less than the answer).
"""
from __future__ import annotations

import itertools
import os
import shlex
import shutil
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from spans import Tracer, install, plan_operators, spark_work

#: WatDiv-lite scale of every workload (about 20 K triples)
SCALE = 0.5
CORES = min(4, os.cpu_count() or 1)
DRIVER_MEMORY = "2g"
SESSION_CONF = {
    "spark.sql.shuffle.partitions": "64",
    "spark.sql.autoBroadcastJoinThreshold": "-1",
    "spark.sql.execution.arrow.pyspark.enabled": "true",
}
#: noop sweeps (loads, on ``load``) after the correctness pass. The JIT
#: compiler keeps working for more than eight sweeps (sweep time still
#: falls from 7.8 s to 4.4 s), which no run can afford; a fixed count
#: puts every run at the same point of that curve.
WARMUP = 1
#: three samples per query, so one slow sweep does not move its median
MIN_SWEEPS = 3
MIN_LOADS = 3

QUERY_WORKLOADS = {"query-mixed": "mixed", "query-vp": "vp", "comparators": "s2rdf"}
WORKLOADS = (*QUERY_WORKLOADS, "load")


@dataclass
class Run:
    """Everything one benchmark run measured, before metrics are derived."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    record: dict = field(default_factory=dict)
    phases: dict[str, float] = field(default_factory=dict)
    load_s: list[float] = field(default_factory=list)
    store_bytes: int = 0
    n_triples: int = 0
    #: query name -> reason its answer is not the reference answer
    bad: dict[str, str] = field(default_factory=dict)
    rows: dict[str, int] = field(default_factory=dict)
    #: query name -> warm latencies (seconds) of correct, untraced samples
    samples: dict[str, list[float]] = field(default_factory=dict)
    traced: dict[str, list[float]] = field(default_factory=dict)
    measured_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    plan_ops: dict[str, dict[str, int]] = field(default_factory=dict)
    work: dict[str, list[dict[str, int]]] = field(default_factory=dict)
    store_shape: dict[str, float] = field(default_factory=dict)
    tracer: Tracer | None = None


def timed(fn: Callable[[], object]) -> tuple[float, object]:
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def dir_size(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def start_session(work: Path):
    """A local Spark session with the settings every run is measured at.

    Spark's scratch space, the JVM's temporary files and the warehouse
    all live under *work*, so a run writes nothing outside its checkout.
    """
    tmp = work / "tmp"
    tmp.mkdir(parents=True)
    os.environ["SPARK_LOCAL_DIRS"] = str(work / "spark-local")
    os.environ["PYSPARK_SUBMIT_ARGS"] = shlex.join(
        [
            "--master", f"local[{CORES}]",
            "--driver-memory", DRIVER_MEMORY,
            "--driver-java-options", f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData",
            "--conf", "spark.driver.host=127.0.0.1",
            "--conf", "spark.ui.enabled=false",
            "--conf", "spark.ui.showConsoleProgress=false",
            "--conf", f"spark.sql.warehouse.dir={work / 'warehouse'}",
            "pyspark-shell",
        ]
    )
    from pyspark.sql import SparkSession

    builder = SparkSession.builder.appName("perfbench")
    for key, value in SESSION_CONF.items():
        builder = builder.config(key, value)
    spark = builder.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_session(spark) -> None:
    """Stop Spark and wait until the JVM it launched has exited."""
    gateway = spark.sparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    gateway.shutdown()
    if proc is not None:
        proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except Exception:
            proc.kill()
            proc.wait()


def run_record(spark, run: Run) -> dict:
    """Settings that make a result reproducible from the record alone."""
    import duckdb
    import pyspark

    conf = spark.sparkContext.getConf()
    return {
        "workload": run.workload,
        "seed": run.seed,
        "scale": SCALE,
        "seconds": run.seconds,
        "trace": int(run.trace),
        "spark_version": pyspark.__version__,
        "master": spark.sparkContext.master,
        "cores": CORES,
        "nproc": os.cpu_count(),
        "driver_memory": conf.get("spark.driver.memory"),
        "shuffle_partitions": spark.conf.get("spark.sql.shuffle.partitions"),
        "broadcast_threshold": spark.conf.get("spark.sql.autoBroadcastJoinThreshold"),
        "aqe": spark.conf.get("spark.sql.adaptive.enabled"),
        "arrow": spark.conf.get("spark.sql.execution.arrow.pyspark.enabled"),
        "parquet_flush": "Spark default Parquet write, no explicit fsync",
        "python": sys.version.split()[0],
        "duckdb": duckdb.__version__,
        "client": "one closed-loop client, one driver process",
    }


# ----------------------------------------------------------------------
# set-up


def load_store(spark, triples, engine: str, path: Path, run: Run, key: tuple):
    """One store load; the span key lets the traced run split it by layer."""
    from repro.baselines.s2rdf import S2RDFStore
    from repro.core.prost import Prost

    cls = S2RDFStore if engine == "s2rdf" else Prost
    with run.tracer.sample(key) if run.tracer else nullcontext():
        return timed(lambda: cls.load(spark, triples, path=str(path)))


def query_fn(store, engine: str) -> Callable[[str], object]:
    if engine == "s2rdf":
        return store.query
    return lambda sparql: store.query(sparql, mode=engine)


def check_answers(run: Run, query, triples_pd) -> float:
    """Compare every query's full answer with the DuckDB reference.

    Returns the engine's share of the time; the reference side is not
    set-up of the program and is recorded apart.
    """
    from repro.oracle import assert_equivalent_pd
    from repro.sparql.parser import parse
    from repro.sparql.reference import bgp_to_sql
    from repro.sparql.watdiv_queries import QUERIES

    engine_s = oracle_s = 0.0
    for name, sparql in QUERIES.items():
        t0 = time.perf_counter()
        try:
            got = query(sparql).toPandas()
        except Exception as exc:  # a failing query is a failed operation
            run.bad[name] = f"raised {type(exc).__name__}: {exc}"
            continue
        finally:
            engine_s += time.perf_counter() - t0
        t1 = time.perf_counter()
        try:
            assert_equivalent_pd(got, bgp_to_sql(parse(sparql)), triples=triples_pd)
        except AssertionError as exc:
            run.bad[name] = f"answer differs from the DuckDB reference: {exc}"
        oracle_s += time.perf_counter() - t1
        run.rows[name] = len(got)
    run.phases["oracle_s"] = oracle_s
    return engine_s


def noop_write(df) -> None:
    df.write.format("noop").mode("overwrite").save()


def warm_up(op: Callable[[], tuple[float, object]]) -> list[float]:
    """Run *op* WARMUP times; returns the time of each call."""
    return [op()[0] for _ in range(WARMUP)]


# ----------------------------------------------------------------------
# timed loops


def sweep(run: Run, query, sc, traced: bool, i: int) -> tuple[float, dict]:
    """All 20 queries once; query name -> seconds, or the exception raised."""
    from repro.sparql.watdiv_queries import QUERIES

    out: dict[str, float | Exception] = {}
    t_sweep = time.perf_counter()
    for name, sparql in QUERIES.items():
        try:
            if traced:
                out[name] = traced_sample(run, sc, query, name, sparql, i)
            else:
                t0 = time.perf_counter()
                noop_write(query(sparql))
                out[name] = time.perf_counter() - t0
        except Exception as exc:  # a failed operation; the loop goes on
            out[name] = exc
    return time.perf_counter() - t_sweep, out


def commit(run: Run, out: dict, traced: bool) -> None:
    """Count a measured sweep; only correct answers leave a time."""
    for name, value in out.items():
        run.attempted += 1
        if isinstance(value, Exception):
            run.failed += 1
            run.bad.setdefault(name, f"raised {type(value).__name__}: {value}")
        elif name in run.bad:
            run.failed += 1
        else:
            (run.traced if traced else run.samples).setdefault(name, []).append(value)


def traced_sample(run: Run, sc, query, name: str, sparql: str, i: int) -> float:
    tracer = run.tracer
    group = f"perfbench-{name}-{i}"
    sc.setJobGroup(group, name)
    with tracer.sample((name, i)):
        t0 = time.perf_counter()
        df = query(sparql)
        t1 = time.perf_counter()
        noop_write(df)
        t2 = time.perf_counter()
        tracer.record("query.call", t1 - t0)
        tracer.record("executor.exec", t2 - t1)
    sc.setLocalProperty("spark.jobGroup.id", None)
    run.work.setdefault(name, []).append(spark_work(sc, group))
    if name not in run.plan_ops:
        run.plan_ops[name] = plan_operators(df)
    return t2 - t0


# ----------------------------------------------------------------------
# workloads


def run_workload(run: Run, root: Path) -> None:
    """Set up, check and time one workload; fills *run* in place."""
    work = root / ".bench_work" / f"{run.workload}-{run.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    spark = None
    try:
        t_start = time.perf_counter()
        spark = start_session(work)
        run.phases["session_s"] = time.perf_counter() - t_start
        run.record = run_record(spark, run)
        if run.trace:
            run.tracer = Tracer()
            install(run.tracer)
        triples_pd, triples = make_graph(spark, run)
        if run.workload == "load":
            load_workload(spark, triples, triples_pd, run, work)
        else:
            query_workload(spark, triples, triples_pd, run, work)
    finally:
        if run.tracer is not None:
            run.tracer.uninstall()
        if spark is not None:
            stop_session(spark)
        shutil.rmtree(work, ignore_errors=True)


def make_graph(spark, run: Run):
    """The seed's WatDiv-lite graph, cached and materialised in Spark."""
    from repro.rdf.triples import to_spark
    from repro.rdf.watdiv import watdiv_pandas

    run.phases["rdf.generate_s"], triples_pd = timed(
        lambda: watdiv_pandas(scale=SCALE, seed=run.seed)
    )

    def lift():
        df = to_spark(spark, triples_pd).cache()
        df.count()
        return df

    run.phases["rdf.to_spark_s"], triples = timed(lift)
    run.n_triples = len(triples_pd)
    return triples_pd, triples


def query_workload(spark, triples, triples_pd, run: Run, work: Path) -> None:
    engine = QUERY_WORKLOADS[run.workload]
    path = work / "store"
    secs, store = load_store(spark, triples, engine, path, run, ("load", 0))
    run.load_s.append(secs)
    run.store_bytes = dir_size(path)
    if run.trace and engine != "s2rdf":
        run.store_shape = store_shape(store.store, path)
    query = query_fn(store, engine)
    sc = spark.sparkContext
    run.phases["correctness_engine_s"] = check_answers(run, query, triples_pd)
    warm = warm_up(lambda: sweep(run, query, sc, False, -1))
    run.record["warmup_sweeps_s"] = [round(t, 3) for t in warm]
    run.phases["warmup_s"] = sum(warm)
    run.phases["setup_s"] = (
        run.phases["session_s"]
        + run.phases["rdf.generate_s"]
        + run.phases["rdf.to_spark_s"]
        + run.load_s[0]
        + run.phases["correctness_engine_s"]
        + run.phases["warmup_s"]
    )
    n = max(MIN_SWEEPS, round(run.seconds / warm[-1]))
    # traced and untraced sweeps alternate U T T U ..., so neither kind
    # runs later on the JIT's warm-up curve than the other
    for i in range(n):
        for traced in ((False, True) if i % 2 == 0 else (True, False)) if run.trace else (False,):
            secs, out = sweep(run, query, sc, traced, i)
            commit(run, out, traced)
            if not traced:
                run.measured_s += secs
                run.record.setdefault("measured_sweeps_s", []).append(round(secs, 3))


def load_workload(spark, triples, triples_pd, run: Run, work: Path) -> None:
    """Repeated ``Prost.load`` from the cached triples into fresh dirs."""
    expected = sorted(triples_pd[["s", "p", "o"]].itertuples(index=False, name=None))
    counter = itertools.count()

    def one_load() -> tuple[float, tuple[bool, int]]:
        i = next(counter)
        path = work / f"store{i}"
        secs, prost = load_store(spark, triples, "prost", path, run, ("load", i))
        size = dir_size(path)
        got = prost.store.triples_back().toPandas()
        ok = sorted(got[["s", "p", "o"]].itertuples(index=False, name=None)) == expected
        if run.trace and not run.store_shape:
            run.store_shape = store_shape(prost.store, path)
        shutil.rmtree(path)
        return secs, (ok, size)

    warm = warm_up(one_load)
    run.record["warmup_loads_s"] = [round(t, 3) for t in warm]
    run.phases["warmup_s"] = sum(warm)
    run.phases["setup_s"] = (
        run.phases["session_s"]
        + run.phases["rdf.generate_s"]
        + run.phases["rdf.to_spark_s"]
        + run.phases["warmup_s"]
    )
    while run.attempted < MIN_LOADS or run.measured_s < run.seconds:
        secs, (ok, size) = one_load()
        run.attempted += 1
        run.measured_s += secs
        if ok:
            run.load_s.append(secs)
            run.store_bytes = size
        else:
            run.failed += 1
            run.bad["load"] = "VP round trip differs from the generated graph"


def store_shape(store, path: Path) -> dict[str, float]:
    """PT width, NULL density and read-back partitioning of a PRoST store."""
    from pyspark.sql import functions as F

    pt = store.property_table
    types = dict(pt.dtypes)
    cols = [c for c in pt.columns if c != "s"]
    # a multi-valued column holds an empty list where the subject lacks it
    absent = [
        F.sum(
            F.when(
                F.col(c).isNull() | (F.size(c) == 0)
                if types[c].startswith("array")
                else F.col(c).isNull(),
                1,
            ).otherwise(0)
        )
        for c in cols
    ]
    row = pt.agg(F.count(F.lit(1)).alias("n"), *absent).collect()[0]
    n_rows = row[0]
    return {
        "loader.vp_bytes": dir_size(path / "vp"),
        "loader.pt_bytes": dir_size(path / "pt"),
        "loader.pt_columns": len(cols),
        "loader.pt_null_fraction": sum(row[1:]) / max(1, n_rows * len(cols)),
        "loader.pt_partitions_read": pt.rdd.getNumPartitions(),
    }
