"""The compressed frames a store written by the former zlib write mode
holds are still read.

Frames are written raw only, but the reader still inflates flagged
frames: such a store reopens with zero replay and verifies deep, the
next append is raw, and a damaged compressed frame is dropped like any
torn write.
"""

from __future__ import annotations

import os
import struct
import zlib

import pytest

from repro.chain import Blockchain, ChainParams, Transaction, TxKind
from repro.persist import DurableStorage
from repro.persist.segment import SegmentLog


def grow(chain: Blockchain, blocks: int) -> None:
    for _ in range(blocks):
        height = chain.height + 1
        txs = [
            Transaction("alice", TxKind.DATA,
                        {"key": f"b{height}t{j}",
                         "value": f"payload-{height}-{j}" * 4}).seal()
            for j in range(3)
        ]
        chain.append_block(chain.build_block(txs, timestamp=height))


def reopen_and_verify(directory: str, expect: dict) -> None:
    _, chain = open_chain(directory)
    assert chain.blocks_replayed_on_open == 0
    assert chain.height == expect["height"]
    assert chain.head.block_hash == expect["head"]
    assert chain.state.state_root() == expect["root"]
    for height in range(1, chain.height + 1):
        assert chain.block_at(height).height == height
    chain.verify(deep=True)
    chain.close()


_FLAG_COMPRESSED = 0x8000_0000


def zlib_frame(payload: bytes) -> bytes:
    """A frame as the former ``codec="zlib"`` writer laid it down: the
    length word flagged in bit 31, the deflated body, the CRC-32 of the
    stored (deflated) bytes."""
    stored = zlib.compress(payload, 6)
    assert len(stored) < len(payload)
    return (struct.pack("<I", len(stored) | _FLAG_COMPRESSED) + stored
            + struct.pack("<I", zlib.crc32(stored)))


def open_chain(directory: str) -> tuple[DurableStorage, Blockchain]:
    storage = DurableStorage(directory)
    return storage, Blockchain(ChainParams(chain_id="frames"),
                               store=storage.blocks)


def frame_of(storage: DurableStorage, height: int) -> tuple[str, int, int]:
    """``(segment file, offset, length)`` of a hot block's frame."""
    segment, offset, length = storage._conn.execute(
        "SELECT segment, offset, length FROM blocks WHERE height = ?",
        (height,)).fetchone()
    return (os.path.join(storage.block_log.directory,
                         f"seg-{segment:08d}.log"), offset, length)


def is_compressed(storage: DurableStorage, height: int) -> bool:
    path, offset, _ = frame_of(storage, height)
    with open(path, "rb") as fh:
        fh.seek(offset)
        (word,) = struct.unpack("<I", fh.read(4))
    return bool(word & _FLAG_COMPRESSED)


class TestCompressedFramesStillRead:
    """Heights 1..4 framed raw, 5..7 framed by the former zlib writer."""

    RAW, ZLIB = range(1, 5), range(5, 8)

    @pytest.fixture
    def legacy(self, tmp_path, monkeypatch):
        directory = str(tmp_path / "store")
        storage, chain = open_chain(directory)
        grow(chain, len(self.RAW))
        monkeypatch.setattr(SegmentLog, "_frame", staticmethod(zlib_frame))
        grow(chain, len(self.ZLIB))
        monkeypatch.undo()
        chain.checkpoint()
        expect = {"height": chain.height, "head": chain.head.block_hash,
                  "root": chain.state.state_root()}
        assert [is_compressed(storage, h) for h in (*self.RAW, *self.ZLIB)
                ] == [False] * 4 + [True] * 3
        chain.close()
        return directory, expect

    def test_store_reopens_and_verifies_deep(self, legacy):
        directory, expect = legacy
        reopen_and_verify(directory, expect)
        storage = DurableStorage(directory)
        assert storage.recovered_blocks == 0
        storage.close()

    def test_next_append_is_raw(self, legacy):
        directory, expect = legacy
        storage, chain = open_chain(directory)
        grow(chain, 1)
        assert not is_compressed(storage, expect["height"] + 1)
        assert all(is_compressed(storage, h) for h in self.ZLIB)
        chain.close()
        storage, chain = open_chain(directory)
        assert chain.height == expect["height"] + 1
        chain.verify(deep=True)
        chain.close()

    @pytest.mark.parametrize("damage", ["crc", "deflate"])
    def test_damaged_compressed_tail_is_dropped(self, legacy, damage):
        directory, expect = legacy
        storage = DurableStorage(directory)
        path, offset, length = frame_of(storage, expect["height"])
        storage.close()
        with open(path, "rb+") as fh:
            fh.seek(offset + 4)
            body = fh.read(length - 8)
            if damage == "crc":
                # A flipped body byte: the CRC, checked before inflating,
                # no longer matches.
                fh.seek(offset + 4)
                fh.write(bytes([body[0] ^ 0xFF]))
            else:
                # A CRC-valid body that is not a deflate stream.
                fh.seek(offset + 4)
                garbage = b"\x00" * len(body)
                fh.write(garbage + struct.pack("<I", zlib.crc32(garbage)))

        storage, chain = open_chain(directory)
        assert storage.recovered_blocks == 1
        assert chain.height == expect["height"] - 1
        # The log is cut at the dropped frame: nothing after it is kept.
        assert os.path.getsize(path) == offset
        chain.verify(deep=True)
        grow(chain, 1)
        assert not is_compressed(storage, expect["height"])
        chain.close()
