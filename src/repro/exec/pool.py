"""Parent-side process pool: worker lifecycle, dispatch, fault handling.

One pipe per worker, **one job in flight per worker** — a second large
job queued behind an unread large response can deadlock both pipe
buffers, so the pool never sends to a busy worker; queued jobs drain as
responses arrive (:func:`multiprocessing.connection.wait`).  Shard
affinity is the caller's concern: :class:`~repro.exec.engine.ProcessRoundEngine`
maps ``shard_id % n_workers`` so a shard's state replica stays warm in
one worker.

Fault model: a worker that dies (killed, OOM, crashed) surfaces as a
broken pipe on send or EOF on receive.  The in-flight job yields
``None`` — the caller falls back to in-process execution — and the
worker slot respawns lazily on next use with a bumped *epoch*, so
callers tracking replica state per ``(worker, epoch)`` know the fresh
process holds nothing.

Workers are daemonic children started via ``fork`` where available
(inherits the key registry and contract classes for free) and ``spawn``
otherwise (the ``runtime_factory`` must then be picklable, i.e.
module-level).
"""

from __future__ import annotations

import multiprocessing as mp
from collections import deque
from multiprocessing import connection as mp_connection
from typing import Iterator, Sequence

from ..errors import ShardError
from ..serialization import canonical_encode
from .worker import worker_main


class _Worker:
    __slots__ = ("process", "conn", "epoch")


class ProcessExecPool:
    """A fixed-width pool of exec worker processes."""

    def __init__(self, n_workers: int, runtime_factory=None,
                 start_method: str | None = None) -> None:
        if n_workers < 1:
            raise ShardError("process pool needs at least one worker")
        methods = mp.get_all_start_methods()
        if start_method is None:
            start_method = "fork" if "fork" in methods else "spawn"
        elif start_method not in methods:
            raise ShardError(
                f"start method {start_method!r} unavailable "
                f"(have {methods})"
            )
        self.start_method = start_method
        self.n_workers = n_workers
        self._ctx = mp.get_context(start_method)
        self._runtime_factory = runtime_factory
        self._workers: dict[int, _Worker] = {}
        self._epochs: dict[int, int] = {}
        self._closed = False
        self.respawns = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def epoch(self, widx: int) -> int:
        """Spawn generation of worker slot ``widx`` (0 = never spawned).
        Bumps on every respawn: state shipped to epoch N is gone in N+1."""
        return self._epochs.get(widx, 0)

    def _ensure_worker(self, widx: int) -> _Worker:
        if self._closed:
            raise ShardError("process pool is closed")
        if not 0 <= widx < self.n_workers:
            raise ShardError(f"no worker slot {widx}")
        worker = self._workers.get(widx)
        if worker is not None:
            return worker
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=worker_main,
            args=(child_conn, self._runtime_factory),
            daemon=True,
            name=f"exec-worker-{widx}",
        )
        process.start()
        child_conn.close()
        worker = _Worker()
        worker.process = process
        worker.conn = parent_conn
        self._epochs[widx] = self._epochs.get(widx, 0) + 1
        worker.epoch = self._epochs[widx]
        if worker.epoch > 1:
            self.respawns += 1
            from ..obs.runtime import telemetry

            telemetry().registry.counter(
                "exec_worker_respawns_total"
            ).inc()
        self._workers[widx] = worker
        return worker

    def _mark_dead(self, widx: int) -> None:
        worker = self._workers.pop(widx, None)
        if worker is None:
            return
        try:
            worker.conn.close()
        except OSError:
            pass
        if worker.process.is_alive():
            worker.process.terminate()
        worker.process.join(timeout=5)

    def kill_worker(self, widx: int) -> None:
        """Fault-injection hook: SIGKILL the worker *without* telling the
        pool — the death is discovered mid-dispatch, exactly like a real
        crash, driving the caller's in-process fallback path."""
        worker = self._workers.get(widx)
        if worker is None:
            worker = self._ensure_worker(widx)
        worker.process.kill()
        worker.process.join(timeout=5)

    def shutdown(self) -> None:
        """Orderly teardown; safe to call twice."""
        self._closed = True
        for widx in list(self._workers):
            worker = self._workers.pop(widx)
            try:
                worker.conn.send_bytes(
                    canonical_encode({"kind": "shutdown"})
                )
            except (BrokenPipeError, OSError):
                pass
            try:
                worker.conn.close()
            except OSError:
                pass
            worker.process.join(timeout=5)
            if worker.process.is_alive():  # pragma: no cover - stuck child
                worker.process.terminate()
                worker.process.join(timeout=5)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def run(
        self, jobs: Sequence[tuple[int, bytes]]
    ) -> Iterator[tuple[int, bytes | None]]:
        """Run ``(worker_index, payload)`` jobs; yield ``(job_index,
        response | None)`` **as responses arrive**, not in submit order —
        the caller commits early finishers while slower workers still
        execute, which is where the parallel win over serial sealing
        comes from.  ``None`` means the worker died on that job."""
        queues: dict[int, deque[tuple[int, bytes]]] = {}
        for index, (widx, payload) in enumerate(jobs):
            queues.setdefault(widx, deque()).append((index, payload))
        inflight: dict[object, tuple[int, int]] = {}
        failed: list[tuple[int, None]] = []

        def dispatch(widx: int) -> None:
            queue = queues.get(widx)
            while queue:
                try:
                    worker = self._ensure_worker(widx)
                except ShardError:
                    index, _ = queue.popleft()
                    failed.append((index, None))
                    continue
                index, payload = queue.popleft()
                try:
                    worker.conn.send_bytes(payload)
                except (BrokenPipeError, OSError):
                    self._mark_dead(widx)
                    failed.append((index, None))
                    continue
                inflight[worker.conn] = (widx, index)
                return

        for widx in list(queues):
            dispatch(widx)
        while inflight or failed:
            while failed:
                yield failed.pop()
            if not inflight:
                break
            for conn in mp_connection.wait(list(inflight)):
                widx, index = inflight.pop(conn)
                try:
                    response = conn.recv_bytes()
                except (EOFError, OSError):
                    self._mark_dead(widx)
                    response = None
                yield (index, response)
                dispatch(widx)
