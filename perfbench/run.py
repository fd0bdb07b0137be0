"""Repository benchmark: end-to-end metrics of the Rumble engine on three
seeded workloads, or (``--trace 1``) per-layer metrics of the same
workloads.

Run from the repository root::

    python3 perfbench/run.py --workload confusion-scan --seed 1 --seconds 5 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See
``perfbench/README.md`` for the metrics and how each is measured.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shlex
import statistics
import sys
import threading
import time
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")

#: Times the session is set up in a timed run; ``setup_s`` is the median.
SETUPS = 3
#: Size of the input the set-up's warm-up query runs on.
WARM_UP_OBJECTS = 1000
DRIVER_MEMORY = "2g"
SHUFFLE_PARTITIONS = 8


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _prepare_environment() -> None:
    """Point the driver and Spark's Python workers at ``src`` and keep
    every file Spark writes inside the benchmark's own directory. Must
    run before pyspark starts its JVM."""
    if not os.path.isfile(os.path.join(SRC, "repro", "core", "engine.py")):
        _fail(f"engine sources not found under {SRC}")
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = SRC + (
        os.pathsep + os.environ["PYTHONPATH"] if os.environ.get("PYTHONPATH") else "")
    os.environ["PYSPARK_PYTHON"] = sys.executable
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    os.environ["SPARK_LOCAL_DIRS"] = os.path.join(WORK, "spark-local")
    cores = max(1, min(4, os.cpu_count() or 1))
    # Both JVMs (spark-submit's launcher and the driver) keep their temp
    # files here; -XX:-UsePerfData stops the hsperfdata file in /tmp.
    java_opts = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["SPARK_LAUNCHER_OPTS"] = java_opts
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{cores}] --driver-memory {DRIVER_MEMORY} "
        f"--driver-java-options {shlex.quote(java_opts)} "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "pyspark-shell"
    )


def start_session(event_log_dir: str | None = None):
    from pyspark.sql import SparkSession

    b = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", str(SHUFFLE_PARTITIONS))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", "-1")
        .config("spark.ui.showConsoleProgress", "false")
    )
    if event_log_dir:
        os.makedirs(event_log_dir, exist_ok=True)
        b = b.config("spark.eventLog.enabled", "true").config(
            "spark.eventLog.dir", "file://" + event_log_dir).config(
            "spark.eventLog.compress", "false").config(
            "spark.eventLog.rolling.enabled", "false")
    spark = b.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def shutdown_jvm() -> None:
    """Close the JVM pyspark started and wait until it has exited (it ends
    when its stdin closes; Spark's Python workers end with the context)."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    if gateway is None:
        return
    gateway.shutdown()
    SparkContext._gateway = SparkContext._jvm = None
    gateway.proc.stdin.close()
    gateway.proc.wait(timeout=60)


# ---------------------------------------------------------------------------
# one query
# ---------------------------------------------------------------------------

class Outcome(NamedTuple):
    query: str
    seconds: float
    ok: bool
    error: str = ""


def run_query(rumble, q, reference) -> Outcome:
    """Send one query through ``Rumble.run`` and check its result."""
    t0 = time.perf_counter()
    try:
        res = rumble.run(q.jsoniq, q.cap)
    except Exception as exc:  # a failed query is counted, not fatal
        return Outcome(q.name, time.perf_counter() - t0, False,
                       f"{type(exc).__name__}: {str(exc)[:200]}")
    dt = time.perf_counter() - t0
    if q.canon(res) != reference:
        return Outcome(q.name, dt, False, "wrong result")
    return Outcome(q.name, dt, True)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

class Bench:
    """One benchmark process: the workload, its input and references,
    and the live session."""

    def __init__(self, workload_name: str, seed: int, objects: int | None):
        from workloads import DEFAULT_OBJECTS, dataset_of

        self.workload_name = workload_name
        self.seed = seed
        self.dataset = dataset_of(workload_name)
        self.n = objects or DEFAULT_OBJECTS[self.dataset]
        self.spark = None
        self.rumble = None
        self.workload = None
        self.refs: dict = {}
        self.path = self.warm_path = ""
        self.warm_n = 0
        self.setup_steps: list[dict] = []

    def setup(self, event_log_dir: str | None = None) -> float:
        """Start the session, generate or load the input, compute the
        reference answers and run one checked warm-up query."""
        import workloads as W
        from repro.core import Rumble

        t = [time.perf_counter()]
        self.spark = start_session(event_log_dir)
        self.rumble = Rumble(self.spark)
        t.append(time.perf_counter())
        data = os.path.join(HERE, ".data")
        self.path = W.dataset_path(data, self.dataset, self.n, self.seed)
        self.workload = W.workload(self.workload_name, self.path)
        self.warm_n = min(WARM_UP_OBJECTS, self.n)
        self.warm_path = W.dataset_path(data, self.dataset, self.warm_n, self.seed)
        t.append(time.perf_counter())
        self.refs = W.references(self.dataset, self.path)
        warm_refs = W.references(self.dataset, self.warm_path)
        t.append(time.perf_counter())
        # The warm-up starts the Python workers and compiles the query's
        # plans on a small input of the same kind and seed, so that set-up
        # time stays apart from per-object query time.
        first = W.workload(self.workload_name, self.warm_path).queries[0]
        warm = run_query(self.rumble, first, warm_refs[first.name])
        if not warm.ok:
            _fail(f"warm-up query {first.name} failed: {warm.error}")
        t.append(time.perf_counter())
        self.setup_steps.append(dict(zip(
            ("session", "input", "references", "warm_up"),
            (b - a for a, b in zip(t, t[1:])))))
        return t[-1] - t[0]

    def stop(self) -> None:
        if self.spark is not None:
            self.spark.stop()
            self.spark = None

    def input_records(self) -> list[dict]:
        """Seed, object count and byte size of the timed and warm-up inputs."""
        return [{"use": use, "kind": self.dataset, "seed": self.seed,
                 "objects": n, "bytes": os.path.getsize(p)}
                for use, n, p in (("timed", self.n, self.path),
                                  ("warm-up", self.warm_n, self.warm_path))]


# ---------------------------------------------------------------------------
# timed phase
# ---------------------------------------------------------------------------

def _descendants(root_pid: int) -> set[int]:
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        children.setdefault(ppid, []).append(int(name))
    out, frontier = {root_pid}, [root_pid]
    while frontier:
        for c in children.get(frontier.pop(), ()):
            if c not in out:
                out.add(c)
                frontier.append(c)
    return out


def _python_pids(root_pid: int) -> list[int]:
    """The driver plus Spark's Python workers (descendants of the JVM
    whose executable is Python)."""
    out = []
    for pid in _descendants(root_pid):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                exe = f.read().split(b"\0", 1)[0]
        except OSError:
            continue
        if pid == root_pid or b"python" in os.path.basename(exe):
            out.append(pid)
    return out


def _rss_bytes(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return 0


class RssSampler:
    """Peak of the summed RSS of the driver and Spark's Python workers,
    sampled every 50 ms on a background thread."""

    def __init__(self, interval: float = 0.05):
        self.interval = interval
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        me = os.getpid()
        pids: list[int] = []
        last_scan = 0.0
        while not self._stop.is_set():
            now = time.monotonic()
            if now - last_scan > 1.0:
                pids, last_scan = _python_pids(me), now
            self.peak = max(self.peak, sum(_rss_bytes(p) for p in pids))
            self._stop.wait(self.interval)

    def reset(self) -> None:
        self.peak = 0

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=5)


def timed_phase(bench: Bench, seconds: float) -> dict:
    """Closed loop, one client: whole passes over the workload's queries,
    each query sent when the previous one has returned, until
    ``seconds`` have elapsed. Returns the per-pass and per-query
    samples."""
    from repro.workloads.harness import process_tree_cpu_seconds

    passes = []
    per_query: dict[str, list[float]] = {q.name: [] for q in bench.workload.queries}
    outcomes: list[Outcome] = []
    t_start = time.perf_counter()
    with RssSampler() as rss:
        while not passes or time.perf_counter() - t_start < seconds:
            rss.reset()
            cpu0 = process_tree_cpu_seconds()
            t0 = time.perf_counter()
            for q in bench.workload.queries:
                o = run_query(bench.rumble, q, bench.refs[q.name])
                outcomes.append(o)
                per_query[q.name].append(o.seconds)
                if not o.ok:
                    print(f"perfbench: {q.name} failed: {o.error}", file=sys.stderr)
            wall = time.perf_counter() - t0
            cpu = process_tree_cpu_seconds() - cpu0
            if not passes:
                persisted = bench.spark.sparkContext._jsc.getPersistentRDDs().size()
            objects = bench.n * len(bench.workload.queries)
            passes.append({"wall": wall, "cpu": cpu, "objects": objects,
                           "rss": rss.peak})
    return {"passes": passes, "per_query": per_query, "outcomes": outcomes,
            "persisted_after_first_pass": persisted}


def gmean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def end_to_end_metrics(setups: list[float], phase: dict) -> dict:
    passes = phase["passes"]
    med = statistics.median
    return {
        "setup_s": (med(setups), "s"),
        "objects_per_s": (med(p["objects"] / p["wall"] for p in passes), "1/s"),
        "query_s_gmean": (gmean([med(v) for v in phase["per_query"].values()]), "s"),
        "cpu_s_per_mobj": (med(p["cpu"] / p["objects"] * 1e6 for p in passes), "s/Mobj"),
        "peak_rss_mb": (med(p["rss"] / 1e6 for p in passes), "MB"),
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    """Print every metric with its unit, then ``failed_frac`` (kept out of
    the result object because it is 0 on a correct engine), then the
    result object as the last line."""
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"failed_frac = {failed / attempted:.6g} 1")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--objects", type=int, default=None,
                    help="input size in objects (default: the workload's pinned size)")
    args = ap.parse_args(argv)

    _prepare_environment()
    import workloads as W

    if args.workload not in W.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {', '.join(W.WORKLOADS)}")
    bench = Bench(args.workload, args.seed, args.objects)
    try:
        if args.trace:
            import tracing as T

            result = T.traced_run(bench, args.seconds)
        else:
            setups = []
            for i in range(SETUPS):
                setups.append(bench.setup())
                if i < SETUPS - 1:
                    bench.stop()
            phase = timed_phase(bench, args.seconds)
    finally:
        bench.stop()
        shutdown_jvm()

    if args.trace:
        print("inputs: " + json.dumps(bench.input_records()))
        emit(result["failed"] == 0, result["attempted"], result["failed"],
             result["metrics"])
        return
    metrics = end_to_end_metrics(setups, phase)
    outcomes = phase["outcomes"]
    failed = sum(not o.ok for o in outcomes)
    print("inputs: " + json.dumps(bench.input_records()))
    print("passes: " + json.dumps({
        "setups_s": setups, "setup_steps_s": bench.setup_steps, "passes": phase["passes"],
        "per_query_s": phase["per_query"],
        "persisted_after_first_pass": phase["persisted_after_first_pass"]}))
    emit(failed == 0, len(outcomes), failed, metrics)


if __name__ == "__main__":
    main()
