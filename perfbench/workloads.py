"""Workloads of the repository benchmark: seeded inputs, the JSONiq
queries each workload sends, and reference answers computed without the
engine.

* ``confusion-scan`` and ``confusion-shuffle`` share one Great Language
  Game confusion file; their references come from DuckDB over that same
  JSON-Lines file.
* ``reddit-messy`` runs over heterogeneous Reddit comments; its
  references come from a plain-Python pass over the parsed objects that
  follows JSONiq semantics (``number()`` of a string is a double or NaN,
  a missing key contributes nothing, ``null`` never equals a string,
  booleans and numbers are distinct grouping keys).
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

#: Input sizes in objects. They keep one run of any workload (three
#: set-ups plus the timed passes) near 40 s on 4 cores; at these sizes a
#: query's time is mostly fixed overhead (2 000 objects already take 1-2 s),
#: so larger inputs would mostly lengthen runs. The Reddit set is half the
#: confusion set because a pass sends six queries, not two.
DEFAULT_OBJECTS = {"confusion": 150_000, "reddit": 75_000}


@dataclass(frozen=True)
class Query:
    """One query of a workload: its JSONiq text, the result cap passed
    to ``Rumble.run`` and the function that canonicalizes a result so
    that it can be compared with the reference."""

    name: str
    jsoniq: str
    canon: Callable[[list], object]
    cap: int | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str  # "confusion" or "reddit"
    queries: tuple[Query, ...]


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def dataset_path(data_dir: str, kind: str, n: int, seed: int) -> str:
    """Generate (once) and return the JSON-Lines file for ``(kind, n,
    seed)``. The file name carries all three, so another seed never
    reuses a cached file, and the file is renamed into place only when
    complete, so an interrupted run never leaves a truncated input."""
    from repro import synth_data

    path = os.path.join(data_dir, f"{kind}_n{n}_seed{seed}.json")
    if not os.path.exists(path):
        os.makedirs(data_dir, exist_ok=True)
        tmp = f"{path}.{os.getpid()}.tmp"
        writer = {"confusion": synth_data.write_confusion,
                  "reddit": synth_data.write_reddit}[kind]
        writer(tmp, n, seed=seed)
        os.replace(tmp, path)
    return path


# ---------------------------------------------------------------------------
# result canonicalization (shared by engine results and references)
# ---------------------------------------------------------------------------

def _key(value) -> tuple:
    """A sort/compare key that keeps booleans, integers and doubles
    apart (in Python ``True == 1`` and ``1 == 1.0``)."""
    return (type(value).__name__, value)


def _canon_count(res: list) -> object:
    return ("count", [_key(v) for v in res])


def _canon_rows(fields: tuple[str, ...]):
    def canon(res: list) -> object:
        return sorted(tuple(_key(r.get(f)) for f in fields) for r in res)
    return canon


def _canon_ordered(fields: tuple[str, ...]):
    def canon(res: list) -> object:
        return [tuple(_key(r.get(f)) for f in fields) for r in res]
    return canon


def _canon_float_rows(res: list) -> object:
    # reddit_group_subreddit: max() of number() is a double.
    return sorted((_key(r["s"]), _key(r["n"]), ("float", float(r["m"]))) for r in res)


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------

def confusion_queries(path: str) -> dict[str, Query]:
    from repro.workloads import queries as Q

    return {
        "filter": Query("filter", Q.jsoniq_filter(path), _canon_count),
        "filter_out": Query(
            "filter_out",
            f'for $i in json-file("{path}") where $i.guess eq $i.target '
            f'return {{"g": $i.guess, "c": $i.country, "d": $i.date}}',
            _canon_rows(("g", "c", "d"))),
        "group": Query("group", Q.jsoniq_group(path), _canon_rows(("target", "n"))),
        "sort": Query("sort", Q.jsoniq_sort(path),
                      _canon_ordered(("guess", "target", "country", "date")), cap=10),
    }


def reddit_queries(path: str) -> dict[str, Query]:
    from repro.workloads import queries as Q

    src = f'json-file("{path}")'
    return {
        "reddit_filter": Query("reddit_filter", Q.jsoniq_reddit_filter(path), _canon_count),
        "reddit_group_subreddit": Query(
            "reddit_group_subreddit",
            f"for $c in {src} group by $s := $c.subreddit "
            f'return {{"s": $s, "n": count($c), '
            f'"m": max(for $x in $c return number($x.score))}}',
            _canon_float_rows),
        "reddit_group_edited": Query(
            "reddit_group_edited",
            f"for $c in {src} group by $e := $c.edited "
            f'return {{"e": $e, "n": count($c)}}',
            _canon_rows(("e", "n"))),
        "reddit_gilded_sum": Query(
            "reddit_gilded_sum", f"sum({src}.gilded)", _canon_count),
        "reddit_count_clause": Query(
            "reddit_count_clause",
            f"for $c in {src} where $c.year ge 2014 count $i where $i le 100 "
            f'return {{"i": $i, "a": $c.author}}',
            _canon_ordered(("i", "a"))),
        "reddit_let_first": Query(
            "reddit_let_first",
            f"let $d := {src} return count($d[$$.year eq 2009])",
            _canon_count),
    }


def workload(name: str, path: str) -> Workload:
    if name == "confusion-scan":
        q = confusion_queries(path)
        return Workload(name, "confusion", (q["filter"], q["filter_out"]))
    if name == "confusion-shuffle":
        q = confusion_queries(path)
        return Workload(name, "confusion", (q["group"], q["sort"]))
    if name == "reddit-messy":
        return Workload(name, "reddit", tuple(reddit_queries(path).values()))
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("confusion-scan", "confusion-shuffle", "reddit-messy")


def dataset_of(name: str) -> str:
    return "reddit" if name == "reddit-messy" else "confusion"


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

#: DuckDB form of ``filter_out`` (the confusion data is homogeneous, so
#: SQL equality has JSONiq ``eq`` semantics on it).
DUCKDB_FILTER_OUT = (
    "SELECT guess AS g, country AS c, date AS d FROM confusion WHERE guess = target"
)


def confusion_references(path: str) -> dict[str, object]:
    """Canonical answers of the confusion queries, from DuckDB."""
    import duckdb

    from repro.workloads import queries as Q

    con = duckdb.connect()
    try:
        quoted = "'" + path.replace("'", "''") + "'"
        con.execute(
            f"CREATE TABLE confusion AS SELECT * FROM read_json({quoted}, "
            "format='newline_delimited', columns={'guess': 'VARCHAR', "
            "'target': 'VARCHAR', 'country': 'VARCHAR', 'date': 'VARCHAR'})")

        def rows(sql: str, names: tuple[str, ...]) -> list[dict]:
            return [dict(zip(names, r)) for r in con.execute(sql).fetchall()]

        n = con.execute(Q.DUCKDB_FILTER).fetchone()[0]
        return {
            "filter": _canon_count([int(n)]),
            "filter_out": _canon_rows(("g", "c", "d"))(
                rows(DUCKDB_FILTER_OUT, ("g", "c", "d"))),
            "group": _canon_rows(("target", "n"))(
                rows(Q.DUCKDB_GROUP, ("target", "n"))),
            "sort": _canon_ordered(("guess", "target", "country", "date"))(
                rows(Q.DUCKDB_SORT + " LIMIT 10", ("guess", "target", "country", "date"))),
        }
    finally:
        con.close()


def _number(v) -> float:
    """JSONiq ``number()`` of one atomic item: a double, NaN when a
    string does not parse."""
    try:
        return float(v)
    except (TypeError, ValueError):
        return math.nan


def _jsoniq_max(values: list[float]) -> float:
    return math.nan if any(math.isnan(v) for v in values) else max(values)


def reddit_references(path: str) -> dict[str, object]:
    """Canonical answers of the Reddit queries, from one plain-Python
    pass over the parsed objects (file order is the tuple order the
    count clause numbers)."""
    n_mod = 0
    by_sub: dict[str, list[float]] = {}
    by_edited: dict[tuple, int] = {}  # keyed by _key: true and 1 stay apart
    gilded = 0
    recent_authors: list[str] = []
    n_2009 = 0
    with open(path, encoding="utf-8") as f:
        for line in f:
            if not line.strip():
                continue
            c = json.loads(line)
            # `distinguished eq "moderator"`: null (or missing) is never
            # equal to a string.
            if c.get("distinguished") == "moderator" and _number(c["score"]) >= 100:
                n_mod += 1
            by_sub.setdefault(c["subreddit"], []).append(_number(c["score"]))
            k = _key(c["edited"])
            by_edited[k] = by_edited.get(k, 0) + 1
            if "gilded" in c:
                gilded += c["gilded"]
            if c["year"] >= 2014 and len(recent_authors) < 100:
                recent_authors.append(c["author"])
            if c["year"] == 2009:
                n_2009 += 1
    return {
        "reddit_filter": _canon_count([n_mod]),
        "reddit_group_subreddit": _canon_float_rows(
            [{"s": s, "n": len(v), "m": _jsoniq_max(v)} for s, v in by_sub.items()]),
        "reddit_group_edited": _canon_rows(("e", "n"))(
            [{"e": k[1], "n": n} for k, n in by_edited.items()]),
        "reddit_gilded_sum": _canon_count([gilded]),
        "reddit_count_clause": _canon_ordered(("i", "a"))(
            [{"i": i, "a": a} for i, a in enumerate(recent_authors, start=1)]),
        "reddit_let_first": _canon_count([n_2009]),
    }


def references(dataset: str, path: str) -> dict[str, object]:
    if dataset == "confusion":
        return confusion_references(path)
    return reddit_references(path)
