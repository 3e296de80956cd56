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
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import shutil
import sys
import tempfile
import time
from collections import defaultdict
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


# Printing order; an indented row is part of the row above it.
ROWS = ("draw ops", "build + seal + sign", "  seal()", "  sign_with()",
        "collector, full passes", "open stores", "connect gateway",
        "populate")


async def split(name: str, seconds: float, repeats: int,
                work_dir: str) -> tuple[dict[str, float], int]:
    plan = workloads.PLANS[name]
    driver.MultiTenantShardWorkload = RecordedWorkload
    timers: dict[str, SetupTimer] = defaultdict(SetupTimer)
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
        with timers["open stores"].repeat():
            deployment = workloads._open_deployment(work_dir, rep)
        if plan.audit:
            with timers["populate"].repeat():
                workloads._populate(deployment, main)
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
    return {label: median(values)
            for label, values in per_repeat.items()}, len(events)


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
        took, events = asyncio.run(split(
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
          f"median of {repeats} at reference speed")
    print(f"  {'component':22s} {'s':>8s} {'us/event':>9s} {'share':>6s}")
    for label in ROWS:
        if label in took:
            value = took[label]
            print(f"  {label:22s} {value:8.3f} {value / events * 1e6:9.2f} "
                  f"{value / total:6.0%}")
    print(f"  {'set-up (sum)':22s} {total:8.3f} "
          f"{total / events * 1e6:9.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
