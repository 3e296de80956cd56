"""Exec worker: the child-process half of the process-pool engine.

A worker is a long-lived child process holding, per shard chain, a
*state replica*: a plain :class:`~repro.chain.state.StateStore` plus a
contract runtime built from the pool's ``runtime_factory``.  It speaks a
tiny request/response protocol over a pipe — every message in both
directions is one canonical-codec payload (see the package docstring for
why the codec doubles as the IPC format):

* ``exec`` — decode a group of block frames, validate and execute them
  against the replica, and return per-block encoded receipts + net state
  deltas + the post-group state root.  The parent applies the deltas;
  the worker never touches durable storage.
* ``ping`` / ``shutdown`` — liveness and orderly teardown.

Replica consistency is checked per job: the parent sends the base height
and state root it executed from, and the worker refuses (``need_state``)
unless its replica matches — the parent then either ships a full state
image with the retry or falls back to in-process execution.  Any
execution error drops the replica (it may hold a half-applied group), so
a later job must re-sync before trusting it.

Workers must open nothing durable.  ``in_worker()`` reports whether the
current process is an exec worker; :class:`~repro.persist.durable.DurableStorage`
refuses to construct when it returns true, which is the guard behind the
"only the parent commits" rule.
"""

from __future__ import annotations

import os
from typing import Any

from ..chain.blockchain import default_executor, execute_block
from ..chain.state import StateStore
from ..obs.runtime import reset_default_telemetry, telemetry
from ..obs.trace import TraceContext
from ..persist.codec import (
    canonical_decode,
    decode_block,
    encode_receipt,
)
from ..serialization import canonical_encode

# Process-local flag: set (only) inside worker_main, inherited by nothing.
_IN_WORKER = False


def in_worker() -> bool:
    """Is the current process an exec worker?  Durable-storage guards
    key off this: workers execute, parents commit."""
    return _IN_WORKER


class _ChainShim:
    """The minimal chain surface :func:`default_executor` dereferences.

    Workers deliberately do not build a full :class:`Blockchain` — the
    chain owns a block store, and a worker must never hold one.
    """

    __slots__ = ("contract_runtime",)

    def __init__(self, contract_runtime) -> None:
        self.contract_runtime = contract_runtime


class _ShardReplica:
    """One chain's executable state inside the worker."""

    __slots__ = ("height", "state", "shim")

    def __init__(self, contract_runtime) -> None:
        self.height = 0
        self.state = StateStore()
        self.shim = _ChainShim(contract_runtime)


def _telemetry_payload() -> dict:
    """This worker's telemetry delta since the last reply: finished
    span rows plus counter increments, both canonical-encodable.  The
    parent merges them (``ProcessRoundEngine._merge_worker_telemetry``)."""
    tel = telemetry()
    return {"spans": tel.tracer.span_rows(drain=True),
            "counters": tel.registry.drain_counter_deltas()}


def _handle_probe_storage(job: dict) -> dict:
    """Test surface: prove the durable-storage fork guard holds inside a
    *real* exec worker (not just a simulated flag flip)."""
    from ..persist.durable import DurableStorage

    try:
        DurableStorage(job["directory"])
    except Exception as exc:  # noqa: BLE001 - the guard *should* raise
        return {"status": "ok",
                "raised": f"{type(exc).__name__}: {exc}"}
    return {"status": "ok", "raised": ""}


def _handle_exec(job: dict, replicas: dict[str, _ShardReplica],
                 runtime_factory) -> dict:
    chain_id = job["chain"]
    base_height = int(job["base_height"])
    base_root = job["base_root"]
    if job.get("keys"):
        # Key material for the signers in this group: deterministic-sim
        # keys registered in the parent after the pool forked would
        # otherwise be unknown here and fail verification spuriously.
        from ..crypto import signatures as sig_mod

        for pub_hex, secret in job["keys"].items():
            sig_mod._KEY_REGISTRY.setdefault(bytes.fromhex(pub_hex), secret)
    if job.get("state") is not None:
        replica = _ShardReplica(
            runtime_factory() if runtime_factory is not None else None
        )
        replica.state.load_entries(
            [(entry[0], entry[1], entry[2]) for entry in job["state"]]
        )
        replica.height = base_height
        replicas[chain_id] = replica
    else:
        replica = replicas.get(chain_id)
    if (replica is None or replica.height != base_height
            or replica.state.state_root() != base_root):
        replicas.pop(chain_id, None)
        return {
            "status": "need_state",
            "have_height": -1 if replica is None else replica.height,
        }
    require_signature = bool(job["require_signatures"])
    receipts_out: list[list[bytes]] = []
    deltas_out: list[list[list[Any]]] = []
    tel = telemetry()
    tracer = tel.tracer
    trace_ctx = TraceContext.from_wire(job.get("trace"))
    txs_executed = 0
    try:
        # The worker-side half of the round trace: parented on the
        # context shipped in the job frame, so the merged span tree
        # chains submit → worker exec → parent commit.
        with tracer.span("exec.apply_blocks", parent=trace_ctx) as span:
            span.set_attr("chain", chain_id)
            span.set_attr("blocks", len(job["blocks"]))
            for frame in job["blocks"]:
                block = decode_block(frame)
                block.verify_structure()
                for tx in block.transactions:
                    tx.validate(require_signature=require_signature)
                # No per-block rollback: any failure drops the whole
                # replica below.  The snapshot only scopes the delta.
                snap = replica.state.snapshot()
                receipts_out.append([
                    encode_receipt(receipt) for receipt in execute_block(
                        block, replica.state, default_executor,
                        replica.shim)
                ])
                deltas_out.append(
                    [[ns, key, present, value]
                     for ns, key, present, value
                     in replica.state.drain_snapshot_delta(snap)]
                )
                replica.height = block.height
                txs_executed += len(block.transactions)
    except BaseException as exc:  # noqa: BLE001 - reported, not fatal
        # Earlier blocks of the group already mutated the replica; drop
        # it so the next job re-syncs rather than executing on a state
        # the parent never saw.
        replicas.pop(chain_id, None)
        return {"status": "error",
                "error": f"{type(exc).__name__}: {exc}"}
    finally:
        registry = tel.registry
        registry.counter("exec_worker_blocks_total").inc(len(receipts_out))
        registry.counter("exec_worker_txs_total").inc(txs_executed)
    return {
        "status": "ok",
        "receipts": receipts_out,
        "deltas": deltas_out,
        "state_root": replica.state.state_root(),
        "height": replica.height,
    }


def worker_main(conn, runtime_factory=None) -> None:
    """Serve jobs on ``conn`` until EOF or a ``shutdown`` message."""
    global _IN_WORKER
    _IN_WORKER = True
    # The fork copied the parent's registry mid-flight; worker counters
    # must start at zero so the deltas shipped back with each reply (see
    # _telemetry_payload) are the worker's own.
    reset_default_telemetry()
    replicas: dict[str, _ShardReplica] = {}
    while True:
        try:
            message = conn.recv_bytes()
        except (EOFError, OSError):
            break
        try:
            job = canonical_decode(message)
            kind = job.get("kind")
            if kind == "shutdown":
                try:
                    conn.send_bytes(canonical_encode({"status": "ok"}))
                except (BrokenPipeError, OSError):
                    pass
                break
            if kind == "ping":
                response = {"status": "ok", "pid": os.getpid()}
            elif kind == "exec":
                response = _handle_exec(job, replicas, runtime_factory)
                response["telemetry"] = _telemetry_payload()
            elif kind == "probe_storage":
                response = _handle_probe_storage(job)
            else:
                response = {"status": "error",
                            "error": f"unknown job kind {kind!r}"}
        except BaseException as exc:  # noqa: BLE001 - never kill the loop
            response = {"status": "error",
                        "error": f"{type(exc).__name__}: {exc}"}
        try:
            conn.send_bytes(canonical_encode(response))
        except (BrokenPipeError, OSError):
            break
    conn.close()
