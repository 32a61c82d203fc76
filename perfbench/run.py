#!/usr/bin/env python3
"""Fit benchmark for JoinBoost-on-Spark: one workload per invocation.

Run from the repository root:

    python3 perfbench/run.py --workload favorita_gbm --seed 1 --seconds 5 --trace 0

One process, one caller, concurrency 1 (a closed loop): each ``fit()``
starts after the previous one returns. A run

1. starts a local SparkSession with the pinned configuration below;
2. builds the workload's data ``SETUPS`` times from ``--seed``
   (``setup_s`` is the median builder call);
3. fits once on the fresh session (``cold_fit_s``), then repeats the fit
   until ``--seconds`` have passed (``fit_s`` is the median warm fit);
4. with ``--trace 1``, makes one more fit that no metric counts, then
   pairs each warm fit with one traced by the layer wrappers of
   ``tracer.py`` and reports per-layer metrics instead;
5. checks every returned model against the materialized join (outside
   the timed region), stops Spark and waits for its JVM to exit.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A failed fit or
check makes the exit code non-zero. Spark's scratch files go under
``.bench_build/perfbench`` in the working directory.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from tracer import Tracer, cross_check, layer_metrics

ROOT = Path.cwd()
WORK = ROOT / ".bench_build" / "perfbench"
CORES = min(4, os.cpu_count() or 1)
SETUPS = 10  # builder calls per run; setup_s is their median
# warm fits per run, at least (and as many traced ones). The first warm
# fit still runs slower than later ones, so a run should make the same
# number of fits every time: with --seconds 5, two fits of every
# workload outlast it, and a third is made only when two took under 5 s.
MIN_WARM = 2
SESSION = {
    "spark.master": f"local[{CORES}]",
    "spark.driver.memory": "2g",
    "spark.sql.shuffle.partitions": "8",
    "spark.sql.execution.arrow.pyspark.enabled": "true",
    "spark.sql.autoBroadcastJoinThreshold": "-1",
    "spark.ui.enabled": "false",
    "spark.ui.showConsoleProgress": "false",
    "spark.driver.host": "127.0.0.1",
    "spark.sql.warehouse.dir": str(WORK / "warehouse"),
}


def _prepare_environment() -> None:
    """Point every scratch file of Python, the JVM and Spark into WORK."""
    if not (ROOT / "src" / "repro" / "core" / "gbm.py").is_file():
        sys.exit(f"perfbench: no src/repro under {ROOT}; run from the repository root")
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(WORK / "spark-local")
    os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}"
    confs = " ".join(
        f"--conf {k}={v}" for k, v in SESSION.items()
        if k not in ("spark.master", "spark.driver.memory")
    )
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master {SESSION['spark.master']} "
        f"--driver-memory {SESSION['spark.driver.memory']} {confs} pyspark-shell"
    )
    sys.path.insert(0, str(ROOT / "src"))


def _start_spark():
    from pyspark.sql import SparkSession

    spark = SparkSession.builder.appName("perfbench").getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def _stop_spark(spark) -> None:
    """Stop Spark and wait until its JVM has exited."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the JVM exits on EOF of its stdin
        try:
            proc.wait(timeout=60)
        except Exception:
            proc.kill()
            proc.wait()


class JobCounter:
    """Spark jobs started between two marks, read from the StatusTracker.

    Job ids are allocated consecutively, so the jobs a fit ran are the id
    range between its start and end marks. This counts jobs of every
    thread (RF's pool threads included) without relying on job groups.
    """

    def __init__(self, sc) -> None:
        self.sc = sc
        self.next_id = 0
        self.mark()

    def mark(self) -> int:
        """Advance past every job started so far; return how many that was."""
        self.sc._jsc.sc().listenerBus().waitUntilEmpty()
        tracker = self.sc.statusTracker()
        start = self.next_id
        while tracker.getJobInfo(self.next_id) is not None:
            self.next_id += 1
        return self.next_id - start


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _mb(kib: int) -> float:
    return kib / 1024.0


class Bench:
    """State of one run: the fits made so far and what went wrong."""

    def __init__(self, wl, jobs: JobCounter, tracer) -> None:
        self.wl, self.jobs, self.tracer = wl, jobs, tracer
        self.fits: list = []
        self.attempted = 0
        self.raised = 0
        self.errors: list = []

    def fit(self, data, traced: bool = False):
        """One timed ``fit()``; returns ``(Fit or None, seconds, spark jobs, layers)``.

        A traced fit installs the layer wrappers for the fit alone, so
        untraced fits run the program unchanged; ``layers`` holds its
        per-layer metrics. The untimed ``after_fit`` runs after that.
        """
        tr = self.tracer
        self.attempted += 1
        self.jobs.mark()
        if traced:
            tr.install()
            tr.start()
        t0 = time.perf_counter()
        try:
            f = self.wl.fit(data)
        except Exception:
            f = None
            self.raised += 1
            self.errors.append(f"fit {self.attempted} raised:\n{traceback.format_exc()}")
        finally:
            dt = time.perf_counter() - t0
            if traced:
                tr.stop()
                tr.uninstall()
        n_jobs = self.jobs.mark()
        if f is None:
            return None, dt, n_jobs, None
        layers = None
        if traced:
            layers = layer_metrics(tr, getattr(f.model, "n_jobs", 1))
            layers["spark.jobs"] = float(n_jobs)
            self.errors.extend(f"fit {self.attempted}: {e}" for e in cross_check(tr, layers))
        self.wl.after_fit(f)
        self.fits.append(f)
        return f, dt, n_jobs, layers

    def check(self, data) -> list:
        """Check every returned model; returns their rmse on ``R⋈``."""
        ref = self.wl.reference(data)
        rmses = []
        for i, f in enumerate(self.fits):
            rmse, errs = self.wl.check(ref, f)
            self.errors.extend(f"fit {i + 1}: {e}" for e in errs)
            self.raised += bool(errs)
            rmses.append(rmse)
        return rmses


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _prepare_environment()
    # the metrics to report in this mode, with their units
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]

    t_run = time.perf_counter()
    spark = _start_spark()
    phases = {"spark_start": time.perf_counter() - t_run}
    spark_version = spark.version
    bench = Bench(wl, JobCounter(spark.sparkContext), Tracer())
    setup_s, rmses = [], []
    warm: list = []  # (seconds, spark jobs, Fit) of each warm untraced fit
    traced: list = []  # (seconds, spark jobs, layer metrics) of each traced fit
    cold_s, cold_jobs, driver_rss_mb = 0.0, 0, 0.0

    try:
        for _ in range(SETUPS):
            t0 = time.perf_counter()
            data = wl.build(spark, args.seed)
            setup_s.append(time.perf_counter() - t0)

        _, cold_s, cold_jobs, _ = bench.fit(data)
        if args.trace:
            # the first warm fit is still the slowest; left out of both
            # sides, it cannot make tracing look cheaper than it is
            bench.fit(data)
        # warm fits for --seconds; with --trace 1 each untraced fit is
        # paired with a traced one, in the order U T, T U, U T, ... so
        # that the JVM's continuing warm-up does not bias either side
        t_measure = time.perf_counter()
        while len(warm) < MIN_WARM or time.perf_counter() - t_measure < args.seconds:
            order = [False, True] if len(warm) % 2 == 0 else [True, False]
            for is_traced in order if args.trace else [False]:
                f, dt, n_jobs, layers = bench.fit(data, traced=is_traced)
                if f is None:
                    break
                if is_traced:
                    traced.append((dt, n_jobs, layers))
                else:
                    warm.append((dt, n_jobs, f))
            if f is None:
                break
        driver_rss_mb = _mb(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        t0 = time.perf_counter()
        rmses = bench.check(data)
        phases["check"] = time.perf_counter() - t0
    except Exception:
        bench.errors.append(f"benchmark raised:\n{traceback.format_exc()}")
    finally:
        t0 = time.perf_counter()
        _stop_spark(spark)
        phases["stop"] = time.perf_counter() - t0
        phases["run"] = time.perf_counter() - t_run
    # the JVM has been waited for, so it counts among this process's children
    jvm_rss_mb = _mb(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    warm_s = [dt for dt, _, _ in warm]
    traced_s = [dt for dt, _, _ in traced]
    if args.trace:
        layers = [m for _, _, m in traced]
        metrics = {k: _median([m[k] for m in layers]) for k in (layers[0] if layers else ())}
        if layers:
            # the program's own logged total against measured wall time,
            # taken on untraced fits
            metrics["gbm.log_gap_s"] = _median([
                dt - f.result.total_seconds()
                for dt, _, f in warm if hasattr(f.result, "total_seconds")
            ])
            metrics["spark.jvm_peak_rss_mb"] = jvm_rss_mb
            metrics["trace.overhead_s"] = _median(traced_s) - _median(warm_s)
    else:
        metrics = {
            "fit_s": _median(warm_s),
            "cold_fit_s": cold_s,
            "setup_s": _median(setup_s),
            "driver_peak_rss_mb": driver_rss_mb,
            "train_rmse": _median(rmses),
        }
    if metrics and set(metrics) != set(units):
        bench.errors.append(
            f"metrics {sorted(set(metrics) ^ set(units))} are not both measured and listed"
        )
    for e in bench.errors:
        print(f"perfbench: FAILED: {e}", file=sys.stderr)
    attempted = max(bench.attempted, 1)
    failed = min(attempted, max(bench.raised, 1 if bench.errors else 0))
    detail = {
        "workload": wl.name,
        "seed": args.seed,
        "session": SESSION,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "spark": spark_version,
        "setup_s": setup_s,
        "cold_fit_s": cold_s,
        "warm_fit_s": warm_s,
        "traced_fit_s": traced_s,
        "spark_jobs": {
            "cold": cold_jobs,
            "warm": [n for _, n, _ in warm],
            "traced": [n for _, n, _ in traced],
        },
        "failed_ratio": failed / attempted,
        "phases_s": phases,
    }
    print("perfbench: " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": not bench.errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            k: {"value": v, "unit": units[k]} for k, v in sorted(metrics.items()) if k in units
        },
    }))
    return 1 if bench.errors else 0


if __name__ == "__main__":
    sys.exit(main())
