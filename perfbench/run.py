#!/usr/bin/env python3
"""PRoST benchmark: WatDiv-lite workloads, every answer checked first.

One run, from the repository root::

    python3 perfbench/run.py --workload query-mixed --seed 1 --seconds 10 --trace 0

prints a report, a ``RECORD`` line with the run record, and as its last
line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. All workloads, untraced and traced, with the
Figure 2 comparison and the tracing overhead::

    python3 perfbench/run.py --all --seed 1 --seconds 10
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

GROUPS = ("C", "F", "L", "S")


def ms(seconds: float) -> float:
    return 1000.0 * seconds


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def median_by_query(samples: dict[str, list[float]]) -> dict[str, float]:
    return {name: statistics.median(v) for name, v in samples.items() if v}


def end_to_end(run) -> dict[str, tuple[float, str]]:
    """The numbers a user of PRoST waits for, with their units."""
    metrics = {
        "setup_s": (run.phases["setup_s"], "s"),
        "load_s": (statistics.median(run.load_s), "s"),
        "store_bytes_per_triple": (run.store_bytes / run.n_triples, "B/triple"),
    }
    if run.workload == "load":
        return metrics
    from repro.sparql.watdiv_queries import GROUPS as QUERY_GROUPS

    flat = [s for v in run.samples.values() for s in v]
    per_query = median_by_query(run.samples)
    # reported, not gated: the median falls between clusters of queries
    # that the seed moves across it (F1's answer is empty for some seeds)
    run.record["query_p50_ms"] = ms(statistics.median(flat))
    metrics["query_p90_ms"] = (ms(percentile(flat, 90)), "ms")
    metrics["queries_per_s"] = (len(flat) / run.measured_s, "1/s")
    for g in GROUPS:
        group = [per_query[q] for q in QUERY_GROUPS[g] if q in per_query]
        metrics[f"group_{g}_ms"] = (ms(statistics.fmean(group)), "ms")
    return metrics


def per_layer(run) -> dict[str, tuple[float, str]]:
    """Numbers of single layers, from the spans of a traced run."""
    tracer = run.tracer
    metrics = {
        "rdf.generate_s": (run.phases["rdf.generate_s"], "s"),
        "rdf.to_spark_s": (run.phases["rdf.to_spark_s"], "s"),
    }

    def load_span(layer: str) -> float:
        """Median over the loads, without the first when it was a warm-up."""
        spans = tracer.durations(layer)
        times = [spans[k] for k in sorted(k for k in spans if k[0] == "load")]
        return statistics.median(times[1:] or times)

    metrics["stats.compute_s"] = (load_span("stats.compute"), "s")
    if run.workload != "comparators":
        metrics["loader.vp_write_s"] = (load_span("write.vp"), "s")
        metrics["loader.pt_write_s"] = (load_span("write.pt"), "s")
        units = {"bytes": "B", "columns": "count", "fraction": "ratio", "read": "count"}
        for name, value in run.store_shape.items():
            metrics[name] = (value, units[name.rsplit("_", 1)[1]])
    if run.workload == "load":
        return metrics

    per_query = {layer: per_sample_medians(tracer, layer) for layer in (
        "parser.parse", "jointree.plan", "executor.build", "executor.exec", "query.call"
    )}
    traced = median_by_query(run.traced)
    untraced = median_by_query(run.samples)
    names = sorted(untraced)

    def mean_ms(values: dict[str, float]) -> float:
        return ms(statistics.fmean(values[q] for q in names))

    if run.workload == "comparators":
        build = {
            q: per_query["query.call"][q] - per_query["parser.parse"][q] - per_query["jointree.plan"][q]
            for q in names
        }
        prefix = "s2rdf"
    else:
        build = per_query["executor.build"]
        prefix = "executor"
    metrics["parser.parse_ms"] = (mean_ms(per_query["parser.parse"]), "ms")
    metrics["jointree.plan_ms"] = (mean_ms(per_query["jointree.plan"]), "ms")
    trees = [tracer.results[("jointree.plan", (q, 0))] for q in names]
    kinds = [type(n).__name__ for t in trees for n in t.execution_order]
    metrics["jointree.pt_nodes"] = (kinds.count("PTNode"), "count")
    metrics["jointree.vp_nodes"] = (kinds.count("VPNode"), "count")
    metrics[f"{prefix}.build_ms"] = (mean_ms(build), "ms")
    metrics[f"{prefix}.exec_ms"] = (mean_ms(per_query["executor.exec"]), "ms")
    ops = ("exchanges",) if prefix == "s2rdf" else ("exchanges", "sort_merge_joins", "generates")
    for op in ops:
        metrics[f"{prefix}.{op}"] = (sum(run.plan_ops[q][op] for q in names), "count")
    if prefix == "executor":
        metrics["executor.result_rows"] = (sum(run.rows[q] for q in names), "count")
    for what in ("jobs", "stages", "tasks"):
        total = sum(statistics.median(w[what] for w in run.work[q]) for q in names)
        metrics[f"spark.{what}"] = (total, "count")
    for q in names:
        metrics[f"q.{q}_ms"] = (ms(untraced[q]), "ms")
    parts = {
        q: [per_query["parser.parse"][q], per_query["jointree.plan"][q], build[q],
            per_query["executor.exec"][q]]
        for q in names
    }
    run.record["spans_ms"] = {q: [ms(untraced[q])] + [ms(t) for t in parts[q]] for q in names}
    spans = sum(sum(p) for p in parts.values())
    base = sum(untraced[q] for q in names)
    metrics["trace.overhead_pct"] = (100.0 * (sum(traced[q] for q in names) - base) / base, "%")
    metrics["trace.span_sum_pct"] = (100.0 * spans / base, "%")
    return metrics


def per_sample_medians(tracer, layer: str) -> dict[str, float]:
    """Query name -> median seconds of *layer* over its traced samples."""
    by_query: dict[str, list[float]] = {}
    for (name, _sweep), secs in tracer.durations(layer).items():
        if name != "load":
            by_query.setdefault(name, []).append(secs)
    return median_by_query(by_query)


def report(run, metrics: dict[str, tuple[float, str]]) -> None:
    p = run.phases
    print(f"== {run.workload}  seed={run.seed}  scale={run.record['scale']}  "
          f"trace={int(run.trace)}  triples={run.n_triples} ==")
    setup = (f"set-up: session {p['session_s']:.2f} s, generate {p['rdf.generate_s']:.2f} s, "
             f"to_spark {p['rdf.to_spark_s']:.2f} s, ")
    if run.workload == "load":
        print(setup + f"warm-up loads {run.record['warmup_loads_s']} s")
        print(f"samples: {len(run.load_s)} timed loads in {run.measured_s:.1f} s: "
              f"{[round(t, 2) for t in run.load_s]} s")
    else:
        n = sum(len(v) for v in run.samples.values())
        print(setup + f"load {run.load_s[0]:.2f} s, correctness {p['correctness_engine_s']:.2f} s "
              f"(+{p['oracle_s']:.2f} s DuckDB reference, not set-up), "
              f"warm-up {run.record['warmup_sweeps_s']} s")
        print(f"samples: {n} warm untraced queries in sweeps of {run.record['measured_sweeps_s']} s;"
              f" p90 has {n - int(0.9 * n)} samples above it")
        if "query_p50_ms" in run.record:
            print(f"query_p50_ms (not gated): {run.record['query_p50_ms']:.4f} ms")
        print("per-query median ms: " + "  ".join(
            f"{q} {ms(t):.0f}" for q, t in median_by_query(run.samples).items()))
    if "spans_ms" in run.record:
        print("per query: untraced ms vs. parse + plan + build + exec ms of traced samples")
        for q, (total, *parts) in run.record["spans_ms"].items():
            print(f"  {q:4s} {total:8.1f} vs. " + " + ".join(f"{t:.1f}" for t in parts)
                  + f" = {sum(parts):.1f}")
    print(f"error_rate: {run.failed / max(1, run.attempted):.4f} "
          f"({run.failed} of {run.attempted} operations failed)")
    for name, reason in run.bad.items():
        print(f"FAILED {name}: {reason.splitlines()[0]}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.4f} {unit}")


def run_one(args) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no PRoST sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import Run, run_workload

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    run_workload(run, ROOT)
    metrics = per_layer(run) if run.trace else end_to_end(run)
    report(run, metrics)
    record = dict(run.record, phases=run.phases, load_s=run.load_s, bad=run.bad,
                  rows=run.rows, per_query_ms={q: ms(t) for q, t in median_by_query(run.samples).items()})
    print("RECORD " + json.dumps(record))
    print(json.dumps({
        "correct": run.failed == 0 and not run.bad,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload untraced then traced, each in its own process."""
    from workloads import WORKLOADS

    results: dict[tuple[str, int], tuple[dict, dict]] = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
            lines = out.stdout.splitlines()
            if out.returncode != 0 or not lines:
                print(out.stdout + out.stderr[-4000:])
                return out.returncode or 1
            print("\n".join(l for l in lines[:-1] if not l.startswith("RECORD ")))
            record = json.loads(next(l[7:] for l in lines if l.startswith("RECORD ")))
            results[(workload, trace)] = (record, json.loads(lines[-1]))

    print("\n== end-to-end metrics (untraced runs) ==")
    ok = True
    for workload in WORKLOADS:
        record, result = results[(workload, 0)]
        ok &= result["correct"]
        rate = result["failed"] / max(1, result["attempted"])
        print(f"{workload}: correct={result['correct']} error_rate={rate:.4f}")
        for name, m in result["metrics"].items():
            print(f"  {name:28s} {m['value']:14.4f} {m['unit']}")

    print("\n== Figure 2: per-query median ms, mixed vs VP-only (report, not a gate) ==")
    mixed = results[("query-mixed", 0)][0]["per_query_ms"]
    vp = results[("query-vp", 0)][0]["per_query_ms"]
    for q in mixed:
        flag = "" if mixed[q] < vp.get(q, float("inf")) else "   <-- mixed not below VP-only"
        print(f"  {q:4s} mixed {mixed[q]:8.1f}  vp {vp.get(q, float('nan')):8.1f}"
              f"  ratio {vp.get(q, float('nan')) / mixed[q]:5.2f}{flag}")

    print("\n== tracing overhead (traced vs untraced sweeps of the same run) ==")
    for workload in WORKLOADS:
        m = results[(workload, 1)][1]["metrics"]
        if "trace.overhead_pct" in m:
            print(f"  {workload:12s} overhead {m['trace.overhead_pct']['value']:6.2f} %  "
                  f"spans cover {m['trace.span_sum_pct']['value']:6.2f} % of untraced latency")
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    args = ap.parse_args()
    sys.path.insert(0, str(HERE))
    if args.all:
        return run_all(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
