"""Traced run of the repository benchmark: per-layer metrics.

Every layer is measured from outside the engine, by wrapping calls into
each module's public functions for the length of one traced pass:

* front end: ``jsoniq.parse``, ``jsoniq.check``, ``translator.translate``
  (as called by ``Rumble.compile``);
* ``Rumble.run``, every ``RuntimeIterator`` subclass's ``get_rdd``,
  ``ForClauseIterator.start_df``, each clause's ``apply_df``,
  ``FLWORIterator.rdd_count`` and ``FLWORIterator.supports_rdd``;
* the Spark actions the engine calls (``RDD.collect/take/count/sum/
  reduce``, ``DataFrame.count/first/collect``), outermost call only.

Each wrapper records a span (name, start, end, parent, query id). After
each traced query, the tuple frames and RDDs those calls returned are
forced again one by one, so that every layer gets a self time:

* a FLWOR prefix (``start_df``, then each ``apply_df`` in turn) is
  forced with ``df.write.format("noop")``, which evaluates every column
  (``count()`` would let Catalyst prune unused UDF columns), while an
  observation on the same job counts its rows; a clause's
  self time is its ``apply_df`` call (eager work such as order-by's
  type-check job) plus the difference between consecutive forced times;
* an RDD returned by ``get_rdd`` is forced with ``count()``; its self
  time is that minus its children's;
* ``engine.collect_s`` is a collect/take action minus the forced time
  of the RDD it collected, ``functions.rdd_agg_s`` an aggregating
  action minus the forced time of its input.

Whatever part of ``Rumble.run`` these leave over is reported per query
as ``trace.unattributed_s.<query>``.
"""
from __future__ import annotations

import collections
import functools
import glob
import json
import os
import statistics
import sys
import time

CLAUSE_KINDS = ("for", "let", "where", "group", "order", "count")
_KIND_OF = {
    "ForClauseIterator": "for",
    "LetClauseIterator": "let",
    "WhereClauseIterator": "where",
    "GroupByClauseIterator": "group",
    "OrderByClauseIterator": "order",
    "CountClauseIterator": "count",
}
_RDD_ACTIONS = ("collect", "take", "count", "sum", "reduce")
_DF_ACTIONS = ("count", "first", "collect")
_COLLECTING = {"collect", "take", "first"}


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "query", "obj", "args",
                 "result", "forced")

    def __init__(self, sid, name, start, parent, query, obj, args):
        self.id, self.name, self.start, self.parent = sid, name, start, parent
        self.query, self.obj, self.args = query, obj, args
        self.end = start
        self.result = None
        self.forced: float | None = None

    @property
    def dur(self) -> float:
        return self.end - self.start

    def record(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "query": self.query}


class Tracer:
    """Installs timing wrappers around the engine's public functions and
    keeps the spans in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.query: str | None = None
        self.recording = False
        self.fallbacks: set[int] = set()
        self._stack: list[Span] = []
        self._in_action = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------
    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap(self, owner, attr: str, name: str, *, action: bool = False) -> None:
        fn = owner.__dict__[attr]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording or (action and tracer._in_action):
                return fn(*args, **kwargs)
            parent = tracer._stack[-1].id if tracer._stack else None
            span = Span(len(tracer.spans), name, 0.0, parent, tracer.query,
                        args[0] if args else None, args)
            tracer.spans.append(span)
            tracer._stack.append(span)
            tracer._in_action += action
            span.start = time.perf_counter()
            try:
                span.result = fn(*args, **kwargs)
                return span.result
            finally:
                span.end = time.perf_counter()
                tracer._in_action -= action
                tracer._stack.pop()

        self._set(owner, attr, wrapper)

    def install(self) -> None:
        from pyspark.core.rdd import RDD
        from pyspark.sql import DataFrame

        from repro.core import engine, translator  # noqa: F401  (loads every iterator)
        from repro.core.flwor import clauses as C
        from repro.core.flwor.flwor_iterator import FLWORIterator
        from repro.core.iterators.base import RuntimeIterator

        self.wrap(engine, "parse", "jsoniq.parse")
        self.wrap(engine, "check", "jsoniq.check")
        self.wrap(engine, "translate", "translator.translate")
        self.wrap(engine.Rumble, "run", "engine.run")
        self.wrap(C.ForClauseIterator, "start_df", "clauses.start_df")
        for cls in _subclasses(C.ClauseIterator):
            if "apply_df" in cls.__dict__:
                self.wrap(cls, "apply_df", f"clauses.{cls.__name__}.apply_df")
        for cls in _subclasses(RuntimeIterator):
            if "get_rdd" in cls.__dict__:
                self.wrap(cls, "get_rdd", f"get_rdd.{cls.__module__}.{cls.__name__}")
        self.wrap(FLWORIterator, "rdd_count", "flwor_iterator.rdd_count")
        for a in _RDD_ACTIONS:
            self.wrap(RDD, a, f"spark.rdd.{a}", action=True)
        for a in _DF_ACTIONS:
            self.wrap(DataFrame, a, f"spark.df.{a}", action=True)

        supports = FLWORIterator.__dict__["supports_rdd"]
        tracer = self

        def supports_rdd(it, ctx):
            ok = supports(it, ctx)
            if tracer.recording and not ok:
                tracer.fallbacks.add(id(it))
            return ok

        self._set(FLWORIterator, "supports_rdd", supports_rdd)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)


def _subclasses(cls) -> list[type]:
    out, todo = [], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            out.append(sub)
            todo.append(sub)
    return out


# ---------------------------------------------------------------------------
# forcing captured frames and RDDs
# ---------------------------------------------------------------------------

def _force(df) -> tuple[float, int]:
    """Seconds to evaluate every column of ``df`` with a noop write, and
    its row count from an observation on the same job."""
    from pyspark.sql import Observation, functions as F

    obs = Observation()
    t0 = time.perf_counter()
    df.observe(obs, F.count(F.lit(1)).alias("rows")).write.format("noop").mode(
        "overwrite").save()
    return time.perf_counter() - t0, obs.get["rows"]


def _count_s(rdd) -> tuple[float, int]:
    t0 = time.perf_counter()
    n = rdd.count()
    return time.perf_counter() - t0, n


def _udf_cells(clause, tin, rows_in: int) -> int:
    """Cells decoded by the clause's UDFs: rows in × the columns each
    UDF is handed (every UDF receives every tuple column)."""
    kind = _KIND_OF.get(type(clause).__name__)
    ncols = len(tin.columns)
    if kind in ("for", "let", "where"):
        return rows_in * ncols
    if kind == "order":
        return rows_in * ncols * len(clause.specs)
    if kind == "group":
        cols = set(tin.columns)
        cells = 0
        for var, expr in clause.keys:
            if expr is not None:  # `$k := e` is a let UDF first
                cells += rows_in * len(cols)
                cols.add(var)
        keys = {v for v, _ in clause.keys}
        cells += len(keys) * rows_in * len(cols)  # one key UDF per key
        merged = [v for v in cols - keys
                  if clause.aggregations.get(v, "materialize") == "materialize"]
        return cells + rows_in * len(merged)  # merge UDF decodes each cell
    return 0


def decompose(spans: list[Span]) -> dict:
    """Per-layer self times of one traced query from its spans."""
    by_id = {s.id: s for s in spans}
    kids: dict[int | None, list[Span]] = collections.defaultdict(list)
    for s in spans:
        kids[s.parent].append(s)

    def inside(s: Span, prefix: tuple[str, ...]) -> bool:
        p = s.parent
        while p is not None:
            if by_id[p].name.startswith(prefix):
                return True
            p = by_id[p].parent
        return False

    out = collections.Counter()
    df_forced: dict[int, float] = {}  # id(DataFrame) -> forced seconds

    # FLWOR chains: start_df, then each top-level apply_df on its output.
    for start in [s for s in spans if s.name == "clauses.start_df"]:
        tf = start.result
        forced, rows = _force(tf.df)
        df_forced[id(tf.df)] = forced
        out["input.bootstrap_s"] += start.dur + forced
        out["input.objects"] += rows
        while True:
            nxt = [s for s in spans if s.name.endswith(".apply_df")
                   and len(s.args) > 1 and s.args[1] is tf
                   and not inside(s, ("clauses.",))]
            if not nxt:
                break
            s = nxt[0]
            prev_forced, rows_in = forced, rows
            forced, rows = _force(s.result.df)
            df_forced[id(s.result.df)] = forced
            kind = _KIND_OF.get(type(s.obj).__name__, type(s.obj).__name__)
            out[f"clauses.{kind}.self_s"] += max(0.0, s.dur + forced - prev_forced)
            out[f"clauses.{kind}.rows_in"] += rows_in
            out[f"clauses.{kind}.rows_out"] += rows
            if kind == "order":
                out["clauses.order.typecheck_s"] += s.dur
            out["frame.udf_cells_decoded"] += _udf_cells(s.obj, tf, rows_in)
            tf = s.result
        start.forced = forced  # the whole tuple stream, for the return

    # RDDs returned by get_rdd, innermost first.
    rdd_spans = sorted((s for s in spans if s.name.startswith("get_rdd.")),
                       key=lambda s: -s.start)
    for s in rdd_spans:
        s.forced, n = _count_s(s.result)
        # json-file() read outside a FLWOR (RDD path, local fallback).
        if ".input." in s.name and not inside(s, ("clauses.",)):
            out["input.objects"] += n
    for s in rdd_spans:
        child = [c for c in kids[s.id] if c.forced is not None]
        self_s = max(0.0, s.forced - sum(c.forced for c in child))
        if ".flwor_iterator." in s.name:
            out["flwor_iterator.return_s"] += self_s
        elif ".navigation." in s.name:
            out["navigation.self_s"] += self_s
        elif ".input." in s.name:
            out["input.bootstrap_s"] += self_s
        elif ".functions." in s.name:
            out["functions.rdd_agg_s"] += self_s
    # Actions the engine ran itself (not inside a clause or get_rdd call).
    last_rdd = None
    for s in sorted(spans, key=lambda s: s.start):
        if s.name.startswith("get_rdd.") and not inside(s, ("get_rdd.",)):
            last_rdd = s
        if not s.name.startswith("spark.") or inside(s, ("clauses.", "get_rdd.")):
            continue
        source = next((r for r in rdd_spans if r.result is s.obj), None)
        if source is not None:
            base = source.forced
        elif id(s.obj) in df_forced:
            base = df_forced[id(s.obj)]
        else:
            base = last_rdd.forced if last_rdd is not None else 0.0
        extra = max(0.0, s.dur - base)
        if s.name.rsplit(".", 1)[1] in _COLLECTING:
            out["engine.collect_s"] += extra
        else:
            out["functions.rdd_agg_s"] += extra

    for s in spans:
        if s.name in ("jsoniq.parse", "jsoniq.check", "translator.translate"):
            out[s.name + "_ms"] += s.dur * 1e3
    return out


_ATTRIBUTED = (
    "input.bootstrap_s", "flwor_iterator.return_s", "navigation.self_s",
    "functions.rdd_agg_s", "engine.collect_s",
) + tuple(f"clauses.{k}.self_s" for k in CLAUSE_KINDS)


# ---------------------------------------------------------------------------
# Spark-side counts
# ---------------------------------------------------------------------------

def job_counts(sc, group: str) -> tuple[int, int, int]:
    """(jobs, stages run, tasks completed) of one job group."""
    st = sc.statusTracker()
    jobs = st.getJobIdsForGroup(group)
    stages = set()
    for j in jobs:
        info = st.getJobInfo(j)
        if info is not None:
            stages.update(info.stageIds)
    ran, tasks = 0, 0
    for sid in stages:
        info = st.getStageInfo(sid)
        if info is not None and info.numCompletedTasks > 0:
            ran += 1
            tasks += info.numCompletedTasks
    return len(jobs), ran, tasks


def event_log_totals(path: str, groups: set[str]) -> dict[str, float]:
    """Executor CPU, JVM GC and shuffle-write totals of the tasks run for
    ``groups``, from a Spark event log."""
    stage_group: dict[int, str] = {}
    cpu_ns = gc_ms = shuffle = 0
    with open(path, encoding="utf-8") as f:
        for line in f:
            ev = json.loads(line)
            kind = ev.get("Event")
            if kind == "SparkListenerJobStart":
                g = (ev.get("Properties") or {}).get("spark.jobGroup.id")
                for sid in ev.get("Stage IDs", ()):
                    stage_group.setdefault(sid, g)
            elif kind == "SparkListenerTaskEnd":
                if stage_group.get(ev.get("Stage ID")) not in groups:
                    continue
                m = ev.get("Task Metrics") or {}
                cpu_ns += m.get("Executor CPU Time", 0)
                gc_ms += m.get("JVM GC Time", 0)
                shuffle += (m.get("Shuffle Write Metrics") or {}).get(
                    "Shuffle Bytes Written", 0)
    return {"spark.executor_cpu_s": cpu_ns / 1e9, "spark.jvm_gc_s": gc_ms / 1e3,
            "spark.shuffle_write_mb": shuffle / 1e6}


# ---------------------------------------------------------------------------
# items codec micro-timings on the workload's own cells
# ---------------------------------------------------------------------------

def items_timings(path: str, dataset: str, sample: int = 2000) -> dict[str, float]:
    from repro.core import items

    cells = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            cells.append("[" + line.strip() + "]")
            if len(cells) == sample:
                break
    key_field = "target" if dataset == "confusion" else "edited"

    def per_call_us(fn, args) -> float:
        runs = []
        for _ in range(5):
            t0 = time.perf_counter()
            for a in args:
                fn(a)
            runs.append((time.perf_counter() - t0) / len(args) * 1e6)
        return statistics.median(runs)

    seqs = [items.loads_seq(c) for c in cells]
    keys = [[s[0][key_field]] for s in seqs]
    return {
        "items.loads_us": per_call_us(items.loads_seq, cells),
        "items.dumps_us": per_call_us(items.dumps_seq, seqs),
        "items.encode_key_us": per_call_us(items.encode_key, keys),
    }


# ---------------------------------------------------------------------------
# the JVM floor: Spark SQL on the confusion queries
# ---------------------------------------------------------------------------

def spark_sql_floor(spark, path: str, workload, refs: dict) -> float | None:
    """Geometric mean over the workload's queries of the median of three
    Spark SQL runs, or None for workloads Spark SQL cannot express."""
    import run as R
    from repro.baselines import spark_sql

    def filter_out():
        df = spark.read.json(path)
        df.createOrReplaceTempView("dataset")
        return [r.asDict() for r in spark.sql(
            "SELECT guess AS g, country AS c, date AS d FROM dataset "
            "WHERE guess = target").collect()]

    runners = {
        "filter": lambda: [spark_sql.filter_count(spark, path)],
        "filter_out": filter_out,
        "group": lambda: spark_sql.group_counts(spark, path),
        "sort": lambda: spark_sql.sort_top(spark, path),
    }
    if not all(q.name in runners for q in workload.queries):
        return None
    medians = []
    for q in workload.queries:
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            res = runners[q.name]()
            times.append(time.perf_counter() - t0)
        if q.canon(res) != refs[q.name]:
            print(f"perfbench: spark-sql baseline {q.name} disagrees with the "
                  "reference", file=sys.stderr)
        medians.append(statistics.median(times))
    return R.gmean(medians)


# ---------------------------------------------------------------------------
# the traced run
# ---------------------------------------------------------------------------

def per_layer_names() -> list[str]:
    names = ["jsoniq.parse_ms", "jsoniq.check_ms", "translator.translate_ms",
             "input.bootstrap_s", "input.objects"]
    for k in CLAUSE_KINDS:
        names += [f"clauses.{k}.self_s", f"clauses.{k}.rows_in", f"clauses.{k}.rows_out"]
    names += ["clauses.order.typecheck_s", "frame.udf_cells_decoded",
              "flwor_iterator.return_s", "navigation.self_s", "functions.rdd_agg_s",
              "items.loads_us", "items.dumps_us", "items.encode_key_us",
              "engine.collect_s", "engine.local_fallbacks",
              "spark.jobs", "spark.stages", "spark.tasks", "spark.shuffle_write_mb",
              "spark.executor_cpu_s", "spark.jvm_gc_s", "spark.jvm_heap_used_mb",
              "spark.persisted_rdds_after",
              "baseline.spark_sql.query_s_gmean", "baseline.floor_ratio",
              "optimizer.off_over_on", "trace.overhead_frac"]
    import workloads as W

    queries = dict.fromkeys(q.name for w in W.WORKLOADS for q in W.workload(w, "").queries)
    return names + [f"trace.unattributed_s.{q}" for q in queries]


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_s") or name.startswith("trace.unattributed_s.") \
            or name == "baseline.spark_sql.query_s_gmean":
        return "s"
    if name.endswith(("_frac", "_ratio", "off_over_on")):
        return "1"
    return "count"


def traced_run(bench, seconds: float) -> dict:
    """Set up once and run the untraced timed phase; then send each query
    untraced and traced back to back (the pair gives the tracing overhead)
    and decompose the traced run; then the group-by queries once with the
    optimizer off, the Spark SQL floor and the items micro-timings.
    Writes the spans to ``perfbench/.work/spans-<workload>-seed<seed>.json``."""
    import run as R
    from repro.core import Rumble, RumbleConfig

    event_dir = os.path.join(R.WORK, "eventlog")
    bench.setup(event_log_dir=event_dir)
    spark = bench.spark
    sc = spark.sparkContext
    app_id = sc.applicationId
    queries = bench.workload.queries
    metrics = {n: 0.0 for n in per_layer_names()}
    outcomes = []
    try:
        phase = R.timed_phase(bench, seconds)
        outcomes += phase["outcomes"]
        metrics["spark.persisted_rdds_after"] = phase["persisted_after_first_pass"]
        # Untraced latency of each query, measured right before its traced
        # run (the timed phase above may hold only the first, colder pass).
        untraced: dict[str, float] = {}

        tracer = Tracer()
        tracer.install()
        traced_wall = paired_untraced_wall = 0.0
        per_query = {}
        try:
            for q in queries:
                o = R.run_query(bench.rumble, q, bench.refs[q.name])
                outcomes.append(o)
                untraced[q.name] = o.seconds
                sc.setJobGroup(f"traced:{q.name}", q.name)
                tracer.query, tracer.recording = q.name, True
                n0 = len(tracer.spans)
                o = R.run_query(bench.rumble, q, bench.refs[q.name])
                tracer.recording = False
                outcomes.append(o)
                spans = tracer.spans[n0:]
                if not o.ok:  # counted as failed; nothing to decompose
                    continue
                run_s = sum(s.dur for s in spans if s.name == "engine.run")
                traced_wall += run_s
                paired_untraced_wall += untraced[q.name]
                sc.setJobGroup("perfbench-decompose", "decompose")
                layers = decompose(spans)
                front = sum(layers[k] for k in ("jsoniq.parse_ms", "jsoniq.check_ms",
                                                "translator.translate_ms")) / 1e3
                layers[f"trace.unattributed_s.{q.name}"] = run_s - front - sum(
                    layers[k] for k in _ATTRIBUTED)
                per_query[q.name] = dict(layers)
                for k, v in layers.items():
                    if k in metrics:
                        metrics[k] += v
                jobs, stages, tasks = job_counts(sc, f"traced:{q.name}")
                per_query[q.name].update(
                    {"spark.jobs": jobs, "spark.stages": stages, "spark.tasks": tasks})
                metrics["spark.jobs"] += jobs
                metrics["spark.stages"] += stages
                metrics["spark.tasks"] += tasks
                # Frames and RDDs kept by the spans would pin their plans.
                for s in spans:
                    s.obj = s.args = s.result = None
        finally:
            tracer.recording = False
            tracer.uninstall()
        metrics["engine.local_fallbacks"] = len(tracer.fallbacks)
        for name in ("jsoniq.parse_ms", "jsoniq.check_ms", "translator.translate_ms"):
            metrics[name] /= len(queries)
        if paired_untraced_wall:
            metrics["trace.overhead_frac"] = traced_wall / paired_untraced_wall - 1
        rt = spark._jvm.java.lang.Runtime.getRuntime()
        metrics["spark.jvm_heap_used_mb"] = (rt.totalMemory() - rt.freeMemory()) / 1e6

        # The §4.7 rewrites only touch group by, so only those queries run
        # again with the optimizer off.
        sc.setJobGroup("perfbench-optimizer-off", "optimizer off")
        off = Rumble(spark, RumbleConfig(enable_optimizations=False))
        grouping = [q for q in queries if "group by" in q.jsoniq]
        off_s = []
        for q in grouping:
            o = R.run_query(off, q, bench.refs[q.name])
            outcomes.append(o)
            off_s.append(o.seconds)
        if grouping:
            metrics["optimizer.off_over_on"] = R.gmean(off_s) / R.gmean(
                untraced[q.name] for q in grouping)
        on_gmean = R.gmean(untraced[q.name] for q in queries)

        sc.setJobGroup("perfbench-spark-sql", "spark sql floor")
        floor = spark_sql_floor(spark, bench.path, bench.workload, bench.refs)
        if floor is not None:
            metrics["baseline.spark_sql.query_s_gmean"] = floor
            metrics["baseline.floor_ratio"] = on_gmean / floor
        metrics.update(items_timings(bench.path, bench.dataset))
    finally:
        bench.stop()

    logs = glob.glob(os.path.join(event_dir, f"*{app_id}*"))
    if len(logs) != 1 or not os.path.isfile(logs[0]):
        raise RuntimeError(f"expected one event log file for {app_id}, found {logs}")
    metrics.update(event_log_totals(logs[0], {f"traced:{q.name}" for q in queries}))
    os.remove(logs[0])

    out_path = os.path.join(R.WORK, f"spans-{bench.workload_name}-seed{bench.seed}.json")
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump({"spans": [s.record() for s in tracer.spans],
                   "per_query": per_query}, f, indent=1)
    print(f"spans: {out_path}")
    print("per_query: " + json.dumps(per_query))
    failed = sum(not o.ok for o in outcomes)
    return {"attempted": len(outcomes), "failed": failed,
            "metrics": {n: (metrics[n], unit_of(n)) for n in per_layer_names()}}
