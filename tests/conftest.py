"""Shared fixtures."""

from __future__ import annotations

import os
import sqlite3

import pytest

from repro.chain import Blockchain, ChainParams, Transaction, TxKind
from repro.clock import SimClock
from repro.obs.runtime import reset_default_telemetry
from repro.provenance.anchor import AnchorService
from repro.provenance.capture import CaptureSink
from repro.serialization import canonical_encode
from repro.storage.provdb import ProvenanceDatabase


@pytest.fixture
def traced_telemetry():
    """A fresh process telemetry sampling *every* root; replaced by a
    default-rate one after the test."""
    yield reset_default_telemetry(sample_every=1)
    reset_default_telemetry()


@pytest.fixture
def clock() -> SimClock:
    return SimClock()


@pytest.fixture
def chain() -> Blockchain:
    return Blockchain(ChainParams(chain_id="test-chain"))


@pytest.fixture
def funded_chain() -> Blockchain:
    chain = Blockchain(ChainParams(chain_id="funded"))
    for account in ("alice", "bob", "carol"):
        chain.state.credit(account, 1_000)
    return chain


@pytest.fixture
def database() -> ProvenanceDatabase:
    return ProvenanceDatabase()


@pytest.fixture
def sink(database) -> CaptureSink:
    return CaptureSink(database)


@pytest.fixture
def anchored_sink(chain, database):
    service = AnchorService(chain, batch_size=4)
    return CaptureSink(database, service), service


def data_tx(i: int = 0, sender: str = "alice") -> Transaction:
    """A small helper used across chain tests."""
    return Transaction(sender=sender, kind=TxKind.DATA,
                       payload={"key": f"k{i}", "value": i})


@pytest.fixture
def make_tx():
    return data_tx


def parent_checkpoint(directory, height: int, block_hash: bytes) -> None:
    """Make a closed store read as the checkpointing build (6a4eae8) left
    it: format 6, its state rows claiming ``height`` and bound to
    ``block_hash`` by the meta key that build wrote with each image."""
    conn = sqlite3.connect(os.path.join(str(directory), "index.db"))
    with conn:
        conn.executemany(
            "INSERT OR REPLACE INTO meta(key, value) VALUES (?,?)",
            [("state_snapshot_height", canonical_encode(height)),
             ("state_snapshot_block_hash", canonical_encode(block_hash))])
    conn.execute("PRAGMA user_version = 6")
    conn.close()
