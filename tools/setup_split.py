#!/usr/bin/env python3
"""Where one set-up of an end-to-end workload goes.

    python3 tools/setup_split.py --workload capture_saturated [--smoke]

repeats the set-up ``benchmarks/e2e/workloads.py`` times as ``setup_s`` —
generate the inputs, open the stores (and connect the gateway clients, or
populate for the audit) — and prints it split by component, so a
``setup_s`` claim is sized from a table.  Every figure is the median of the
repeats at reference host speed: each timed interval goes through the
driver's own ``harness.SetupTimer`` (a ``cpu_probe_ms()`` before and after,
outside the interval).  The driver's functions are imported and called as
they are; nothing is written but a scratch store, which is removed.

``draw ops`` replays the op stream the driver drew (same workload
arguments, same number of ops consumed) with nothing done per op;
``collector, full passes`` is what the garbage collector's oldest-generation
passes took inside ``generate_inputs``; ``build + seal + sign`` is
``generate_inputs`` minus those two; the ``seal()`` and ``sign_with()``
rows re-run those two calls over fresh copies of the driver's transactions
(and check they come out with the driver's hashes and tags).  Works
unchanged on a tree whose ``generate`` returns a list.

For ``audit_restart`` the ``populate`` row is split again, from inside the
one populate the row times (the probes add well under a millisecond):
``ingest_records`` / seal rounds / checkpoint by wrapping those three calls
on the deployment's own objects; fsyncs from what the program publishes
(``persist_fsyncs_total``, ``persist_fsync_seconds``); sqlite by statement
kind from a ``sqlite3.connect(factory=...)`` subclass this script installs
while the stores open.  Both are wall time inside the calls, so under an
engine that seals shards on threads they also count the other threads'
GIL holds; the header line names the engine the deployment ran
(``engine=``).  ``on MemoryStorage`` is the same populate on a
deployment with no store directory: what the durable rows sit on.  Last,
the populated store's bytes per event by file — blocks log, records log,
``index.db`` with its WAL — taken after a checkpoint that ends
the populate (outside the timed interval), so a storage change is sized
from a table too; then every store's ``index.db`` again, ``VACUUM``ed
into a copy (no free pages, no WAL) and split by sqlite table with
``dbstat`` (an index counts under its own name), summed over the stores.
Bytes are counted, so they repeat exactly for a seed.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import re
import shutil
import sqlite3
import sys
import tempfile
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from itertools import islice
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parents[1]
SEED = 1                        # the tables in ROADMAP.md are at this seed
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "e2e")]

import deployment as driver  # noqa: E402 - benchmarks/e2e, by path
import workloads  # noqa: E402
from harness import SetupTimer  # noqa: E402
from repro.chain import Transaction  # noqa: E402
from repro.crypto.signatures import KeyPair  # noqa: E402
from repro.obs.runtime import telemetry  # noqa: E402
from repro.workloads import MultiTenantShardWorkload  # noqa: E402


class RecordedWorkload(MultiTenantShardWorkload):
    """The driver's workload, remembering how it was built, what it was
    asked for and how much of that the driver read, so the same stretch of
    the stream can be drawn again on its own."""

    asked: list[dict] = []

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.kwargs = kwargs

    def generate(self, count: int):
        call = {"kwargs": self.kwargs, "count": count, "consumed": 0}
        self.asked.append(call)
        for op in super().generate(count):
            call["consumed"] += 1
            yield op


class FullPasses:
    """A ``gc.callbacks`` entry: seconds the collector spent in passes over
    the oldest generation.  The inputs a set-up builds all survive it, so
    every full pass walks them again; when one fires depends on what was
    allocated before, which is why it gets its own row (and why each replay
    below starts from a collected heap)."""

    def __init__(self) -> None:
        self.seconds = self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if info["generation"] == 2:
            if phase == "start":
                self._started = time.perf_counter()
            else:
                self.seconds += time.perf_counter() - self._started


class TimedConnection(sqlite3.Connection):
    """Calls and seconds per statement kind (``INSERT txs``,
    ``COMMIT``, ``PRAGMA wal_checkpoint``), over every connection opened
    while :func:`sqlite_timed` is in force."""

    spent: dict[str, list] = defaultdict(lambda: [0, 0.0])
    KIND = re.compile(r"\s*(PRAGMA\s+\w+|\w+)"
                      r"(?:[^;]*?\b(?:INTO|FROM)\s+(\w+))?", re.I)

    def _timed(self, kind: str, call, *args):
        t0 = time.perf_counter()
        try:
            return call(*args)
        finally:
            entry = self.spent[kind]
            entry[0] += 1
            entry[1] += time.perf_counter() - t0

    def _kind(self, sql: str) -> str:
        verb, table = self.KIND.match(sql).groups()
        return " ".join(filter(None, (" ".join(verb.split()), table)))

    def execute(self, sql, *args):
        return self._timed(self._kind(sql), super().execute, sql, *args)

    def executemany(self, sql, *args):
        return self._timed(self._kind(sql), super().executemany, sql, *args)

    def commit(self):
        return self._timed("COMMIT", super().commit)

    def __exit__(self, *exc):       # `with conn:` commits without commit()
        return self._timed("COMMIT", super().__exit__, *exc)


@contextmanager
def sqlite_timed():
    connect = sqlite3.connect
    sqlite3.connect = lambda *args, **kwargs: connect(
        *args, factory=TimedConnection, **kwargs)
    try:
        yield
    finally:
        sqlite3.connect = connect


class PopulateProbe:
    """Seconds inside ``ingest_records`` / ``seal_round`` / ``checkpoint``
    of one deployment (instance attributes over the bound methods, so the
    driver's ``_populate`` runs as it is), with what the program counted
    of fsyncs and :class:`TimedConnection` of sqlite in between."""

    def __init__(self, deployment) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        for owner, name in ((deployment.sharded, "ingest_records"),
                            (deployment.pipeline, "seal_round"),
                            (deployment.sharded, "checkpoint")):
            setattr(owner, name, self._wrap(name, getattr(owner, name)))
        TimedConnection.spent.clear()
        self._fsyncs_before = self._fsyncs()

    def _wrap(self, name: str, call):
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return call(*args, **kwargs)
            finally:
                self.seconds[name] += time.perf_counter() - t0
        return timed

    @staticmethod
    def _fsyncs() -> tuple[int, float]:
        registry = telemetry().registry
        return (registry.counter("persist_fsyncs_total").value,
                registry.histogram("persist_fsync_seconds").sum)

    def rows(self) -> dict[str, tuple[float, int | None]]:
        """label -> (seconds, calls); a checkpoint runs inside a seal
        round and is taken out of it."""
        took = self.seconds
        fsyncs, fsync_s = (after - before for after, before
                           in zip(self._fsyncs(), self._fsyncs_before))
        rows = {
            "  ingest_records": (took["ingest_records"], None),
            "  seal rounds": (took["seal_round"] - took["checkpoint"], None),
            "  checkpoint": (took["checkpoint"], None),
            "  of which fsync": (fsync_s, fsyncs),
            "  of which sqlite": (
                sum(s for _, s in TimedConnection.spent.values()),
                sum(n for n, _ in TimedConnection.spent.values())),
        }
        for kind, (calls, seconds) in TimedConnection.spent.items():
            rows[f"    {kind}"] = (seconds, calls)
        return rows


def stored_bytes(store_dir: str) -> dict[str, int]:
    """Bytes of every store under ``store_dir`` by kind of file (each
    log's generation directories count as the log); ``total`` is every
    file."""
    kinds = {"blocks log": "blocks-log", "records log": "records-log",
             "index.db + WAL": "index.db"}
    out = dict.fromkeys([*kinds, "total"], 0)
    for path in Path(store_dir).rglob("*"):
        if path.is_file():
            size = path.stat().st_size
            out["total"] += size
            parts = path.relative_to(store_dir).parts
            for label, prefix in kinds.items():
                if any(part.startswith(prefix) for part in parts):
                    out[label] += size
                    break
    return out


def index_tables(store_dir: str, work_dir: str) -> dict[str, int]:
    """Bytes of every ``index.db`` under ``store_dir``, each ``VACUUM``ed
    into a copy in ``work_dir``: their sum, then by sqlite table or index
    (``dbstat``), largest first."""
    tables: dict[str, int] = defaultdict(int)
    copy = os.path.join(work_dir, "vacuumed-index.db")
    for path in sorted(Path(store_dir).rglob("index.db")):
        source = sqlite3.connect(path)
        try:
            source.execute("VACUUM INTO ?", (copy,))
        finally:
            source.close()
        conn = sqlite3.connect(copy)
        try:
            for name, size in conn.execute(
                    "SELECT name, SUM(pgsize) FROM dbstat GROUP BY name"):
                tables[name] += size
        finally:
            conn.close()
            os.remove(copy)
    out = {"index.db, VACUUMed": sum(tables.values())}
    for name, size in sorted(tables.items(), key=lambda item: -item[1]):
        out[f"  {name}"] = size
    return out


# Printing order; an indented row is part of the row above it.
ROWS = ("draw ops", "build + seal + sign", "  seal()", "  sign_with()",
        "collector, full passes", "open stores", "connect gateway",
        "populate")
SQLITE_KINDS_SHOWN = 8


async def split(name: str, seconds: float, repeats: int, work_dir: str
                ) -> tuple[dict[str, float], dict[str, int | None], int,
                           dict[str, float], str]:
    plan = workloads.PLANS[name]
    driver.MultiTenantShardWorkload = RecordedWorkload
    timers: dict[str, SetupTimer] = defaultdict(SetupTimer)
    calls: dict[str, int | None] = {}       # of the last repeat
    stored: dict[str, list[float]] = defaultdict(list)  # B/event
    passes = FullPasses()
    gc.callbacks.append(passes)
    for rep in range(repeats):
        RecordedWorkload.asked.clear()
        passes.seconds = 0.0
        generated = timers["generate_inputs"]
        with generated.repeat():
            main, tail = workloads._generate(plan, SEED, seconds)
        # At reference speed, like the interval it is part of.
        timers["collector, full passes"].reference_s.append(
            passes.seconds * generated.reference_s[-1] / generated.raw_s[-1])
        gc.collect()
        with timers["draw ops"].repeat():
            for call in RecordedWorkload.asked:
                stream = MultiTenantShardWorkload(**call["kwargs"])
                for _ in islice(stream.generate(call["count"]),
                                call["consumed"]):
                    pass
        events = main.txs + tail.txs
        fresh = [Transaction(tx.sender, tx.kind, dict(tx.payload), tx.nonce,
                             tx.timestamp, tx.fee) for tx in events]
        actors = [record["actor"] for record in main.records + tail.records]
        keys = {actor: KeyPair.generate(actor) for actor in set(actors)}
        pairs = [keys[actor] for actor in actors]   # one per actor, reused
        gc.collect()
        with timers["  seal()"].repeat():
            for tx in fresh:
                tx.seal()
        gc.collect()
        with timers["  sign_with()"].repeat():
            for tx, pair in zip(fresh, pairs):
                tx.sign_with(pair)
        if [(tx.tx_hash, tx.signature) for tx in fresh] \
                != [(tx.tx_hash, tx.signature) for tx in events]:
            raise SystemExit("re-sealed events differ from the driver's")
        del fresh, pairs, keys
        with sqlite_timed() if plan.audit else nullcontext():
            with timers["open stores"].repeat():
                deployment = workloads._open_deployment(work_dir, rep)
        engine = deployment.sharded.engine.name
        if plan.audit:
            probe = PopulateProbe(deployment)
            populated = timers["populate"]
            with populated.repeat():
                workloads._populate(deployment, main)
            for label, (value, count) in probe.rows().items():
                timers[label].reference_s.append(
                    value * populated.reference_s[-1] / populated.raw_s[-1])
                calls[label] = count
            deployment.sharded.checkpoint()
            for label, size in [
                    *stored_bytes(deployment.store_dir).items(),
                    *index_tables(deployment.store_dir, work_dir).items()]:
                stored[label].append(size / len(main))
            in_memory = driver.Deployment(None)
            with timers["  on MemoryStorage"].repeat():
                workloads._populate(in_memory, main)
            in_memory.sharded.close()
        else:
            with timers["connect gateway"].repeat():
                server, clients, _ = await workloads._connect(deployment,
                                                              False)
            await workloads._disconnect(server, clients)
        workloads._discard(deployment)
    gc.callbacks.remove(passes)
    per_repeat = {label: timer.reference_s
                  for label, timer in timers.items()}
    per_repeat["build + seal + sign"] = [
        whole - draw - collector for whole, draw, collector in zip(
            per_repeat.pop("generate_inputs"), per_repeat["draw ops"],
            per_repeat["collector, full passes"])]
    return ({label: median(values) for label, values in per_repeat.items()},
            calls, len(events),
            {label: median(values) for label, values in stored.items()},
            engine)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.PLANS))
    parser.add_argument("--smoke", action="store_true",
                        help="smallest size, two repeats: runs, not numbers")
    args = parser.parse_args()
    if args.smoke:
        seconds, repeats = 0.25, 2
    else:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            seconds = json.load(fh)["run_seconds"]
        repeats = workloads.SETUP_REPEATS

    work_root = ROOT / ".bench_e2e"
    work_root.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="setup-split-", dir=work_root)
    try:
        took, calls, events, stored, engine = asyncio.run(split(
            args.workload, seconds, repeats, work_dir))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass                # another run is using it

    total = sum(value for label, value in took.items()
                if not label.startswith(" "))
    print(f"{args.workload}: one set-up, {events} events, seed {SEED}, "
          f"engine={engine}, median of {repeats} at reference speed")
    print(f"  {'component':26s} {'s':>8s} {'us/event':>9s} {'share':>6s}")
    # The populate split: its rows as the probe ordered them, the sqlite
    # kinds (deepest indent) largest first under the sqlite row.
    detail = [label for label in took
              if label not in ROWS and label.startswith("  ")]
    kinds = sorted((label for label in detail if label.startswith("    ")),
                   key=took.get, reverse=True)[:SQLITE_KINDS_SHOWN]
    detail = [label for label in detail if not label.startswith("    ")]
    if kinds:
        at = detail.index("  of which sqlite") + 1
        detail[at:at] = kinds
    for label in [label for label in ROWS if label in took] + detail:
        value = took[label]
        count = f"  x{calls[label]}" if calls.get(label) else ""
        print(f"  {label:26s} {value:8.3f} {value / events * 1e6:9.2f} "
              f"{value / total:6.0%}{count}")
    print(f"  {'set-up (sum)':26s} {total:8.3f} "
          f"{total / events * 1e6:9.2f}")
    if stored:
        print(f"  {'stored after populate':36s} {'B/event':>8s}")
        for label, value in stored.items():
            print(f"    {label:34s} {value:8.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
