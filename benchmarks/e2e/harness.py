"""Measurement helpers shared by the workloads: spans recorded around the
benchmark's own calls into the program, order statistics, host facts.

Nothing here imports the program under test.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
import threading
import time
from contextlib import contextmanager
from pathlib import Path


class Spans:
    """Spans around the driver's calls into public functions (source *a*).

    A span is ``(name, start, end, parent)``; the parent is the span open
    on the same thread when this one started.  Kept in memory; disabled
    spans cost one attribute test, so untraced runs pay nothing.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.rows: list[tuple[str, float, float, str]] = []
        self._open = threading.local()

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        stack = getattr(self._open, "stack", None)
        if stack is None:
            stack = self._open.stack = []
        parent = stack[-1] if stack else ""
        stack.append(name)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.rows.append((name, t0, time.perf_counter(), parent))
            stack.pop()

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.rows if n == name]

    def busy_s(self, name: str) -> float:
        return sum(self.durations(name))

    def coverage(self, name: str) -> float:
        """Share of ``name``'s time covered by its child spans (its self
        time is the rest)."""
        total = self.busy_s(name)
        if total <= 0.0:
            return 0.0
        children = sum(end - start for _, start, end, parent in self.rows
                       if parent == name)
        return children / total


class Tally:
    """Counts what was attempted and what failed, per kind of operation;
    ``failed_ops_ratio`` and the result line's ``correct`` come from it."""

    def __init__(self) -> None:
        self.attempted: dict[str, int] = {}
        self.failed: dict[str, int] = {}

    def add(self, kind: str, attempted: int, failed: int = 0) -> None:
        self.attempted[kind] = self.attempted.get(kind, 0) + attempted
        if failed:
            self.failed[kind] = self.failed.get(kind, 0) + failed

    def check(self, kind: str, ok: bool) -> None:
        self.add(kind, 1, 0 if ok else 1)

    @property
    def total_attempted(self) -> int:
        return sum(self.attempted.values())

    @property
    def total_failed(self) -> int:
        return sum(self.failed.values())


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def median(samples) -> float:
    return statistics.median(samples) if samples else 0.0


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) the way the acceptance rule computes them."""
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def histogram_quantile(snapshot: dict | None, q: float) -> float:
    """Quantile of a registry histogram snapshot, interpolated inside the
    bucket it falls in (the registry publishes cumulative buckets only)."""
    if not snapshot or not snapshot["count"]:
        return 0.0
    target = q * snapshot["count"]
    lower, seen = 0.0, 0
    for bound, cumulative in snapshot["buckets"]:
        if cumulative >= target:
            inside = cumulative - seen
            share = (target - seen) / inside if inside else 1.0
            return lower + share * (bound - lower)
        lower, seen = bound, cumulative
    return lower


def cpu_seconds() -> float:
    """User + system CPU time of this process and of the children it has
    waited for."""
    children = os.times()
    return (time.process_time() + children.children_user
            + children.children_system)


def cpu_probe_ms(repeats: int = 5) -> float:
    """Median time of a fixed slice of interpreter work.  This sandbox
    drifts between two speeds for seconds to minutes at a time while its
    load average stays near zero; the probe, taken when a run starts and
    when it ends, says which one the run saw.  A host fact for every
    metric but ``setup_s`` (see ``SetupTimer``)."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0
        for i in range(50_000):
            acc += i * i % 7
        samples.append(time.perf_counter() - t0)
    return median(samples) * 1e3


class SetupTimer:
    """Times the repeats of a run's set-up; ``setup_s`` is their median
    *at reference host speed*, ``setup_raw_s`` their median as measured.

    ``setup_s`` is the one metric the acceptance driver must gate, and it
    refuses a benchmark whose two ten-run medians of it differ by more
    than 25 %.  Raw set-up time cannot pass that here: over five minutes
    of back-to-back set-ups, consecutive ten-run medians ran 0.20-0.41 s
    and differed by up to 40 %, because the host's speed drifts by up to
    1.7x.  So each repeat is divided by the host's slowdown, from a probe
    taken right before and right after it (outside the timed interval),
    over ``REFERENCE_PROBE_MS``: the same medians then ran 0.18-0.22 s.
    Set-up is single-threaded interpreter work like the probe.  No other
    metric is treated this way.
    """

    # What the probe reads on this sandbox at its fast speed; it only
    # fixes the scale, so that reference speed means the fast one.
    REFERENCE_PROBE_MS = 3.0

    def __init__(self) -> None:
        self.raw_s: list[float] = []
        self.reference_s: list[float] = []

    @contextmanager
    def repeat(self):
        probe_ms = cpu_probe_ms()
        t0 = time.perf_counter()
        yield
        elapsed = time.perf_counter() - t0
        slowdown = (probe_ms + cpu_probe_ms()) / 2 / self.REFERENCE_PROBE_MS
        self.raw_s.append(elapsed)
        self.reference_s.append(elapsed / slowdown)

    def metrics(self) -> dict:
        return {"setup_s": median(self.reference_s),
                "setup_raw_s": median(self.raw_s)}


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _, names in os.walk(path) for name in names
    )


def fsync_probe_ms(directory: str, writes: int = 100,
                   size: int = 4096) -> float:
    """Median of ``writes`` 4 KiB write+fsync pairs in the store's
    filesystem: what a durable commit costs on this host."""
    path = os.path.join(directory, "fsync.probe")
    block = b"\0" * size
    samples = []
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
    try:
        for _ in range(writes):
            t0 = time.perf_counter()
            os.write(fd, block)
            os.fsync(fd)
            samples.append(time.perf_counter() - t0)
    finally:
        os.close(fd)
        os.unlink(path)
    return median(samples) * 1e3


def git_revision(repo_root: Path) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=repo_root,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def host_facts(repo_root: Path, work_dir: str) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_revision": git_revision(repo_root),
        "loadavg_1m": os.getloadavg()[0],
        "fsync_probe_ms": fsync_probe_ms(work_dir),
        "cpu_probe_ms": cpu_probe_ms(),
    }
