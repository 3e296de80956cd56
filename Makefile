# Development entry points.  PYTHONPATH is set so the src layout works
# without an editable install.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-persist test-sync test-exec test-obs test-chaos \
        test-crash test-gateway test-codec test-transport bench-smoke bench-hotpath bench-shard \
        bench-persist bench-ingest bench-sync bench-exec bench-obs \
        bench-gateway bench-all bench-e2e bench-e2e-compare bench-ab \
        setup-split lint-private lint-layers loc check

# Tier-1 verification: the full test suite.
test:
	$(PYTHON) -m pytest -x -q

# Durable-storage suite only: codec, segment log, crash recovery,
# backend equivalence, reorg truncation, sharded restarts.
test-persist:
	$(PYTHON) -m pytest tests/test_persist.py tests/test_storage.py -q

# Snapshot-sync suite only: chunk/manifest codec, verified catch-up,
# byzantine rejection matrix, crash-resume, faulty-network convergence.
test-sync:
	$(PYTHON) -m pytest tests/test_sync.py tests/test_network.py -q

# Execution-engine + tiering suite only: executor parity, worker-death
# fallback, fork guards, compaction/archival crash points, compressed
# frames an older store holds (read, never written).
test-exec:
	$(PYTHON) -m pytest tests/test_exec.py tests/test_tiering.py -q

# Observability suite only: metrics registry, span tracing (incl.
# cross-process propagation + worker-kill fallback), accessor
# regressions, the ops op over SimNet.
test-obs:
	$(PYTHON) -m pytest tests/test_obs.py -q

# Gateway suite only: framed wire codec, handshake, wire backpressure
# (RETRY_AFTER + pause), byte-identical commitments vs in-process,
# disconnect handling, graceful drain under load.
test-gateway:
	$(PYTHON) -m pytest tests/test_gateway.py -q

# Canonical-codec suite only: fast path vs the ladder oracle, spliced
# frames vs mapping-path frames, encode-once record ingest, strict
# fail-closed decoding, golden vectors; shape plan, one-pass seal and
# slice-pinning decode vs the re-encode oracle (counted guards, a store
# written by the parent commit); plus the storage codec tests.
test-codec:
	$(PYTHON) -m pytest tests/test_codec_fastpath.py tests/test_serialization.py \
	    tests/test_onepass_codec.py -q
	$(PYTHON) -m pytest tests/test_persist.py -k codec -q

# Transport suite: one grammar over two carriers — SimNet/TCP parity
# (byte-identical replies, byte-identical synced stores), generated
# hostile requests (exactly one error frame, nothing escapes), plus the
# suites of everything that speaks the grammar.
test-transport:
	$(PYTHON) -m pytest tests/test_transport.py tests/test_sync.py \
	    tests/test_gateway.py tests/test_chainnode.py -q

# Chaos suite: the 2PC crash matrix (coordinator killed at every WAL
# step boundary), lock-lease/fencing coverage, the round-engine contract
# matrix (executor x quarantine under an injected shard fault), plus the
# seeded chaos harness run twice per seed — same seed must produce the
# same report signature, or the run fails.
test-chaos:
	$(PYTHON) -m pytest tests/test_chaos.py tests/test_engines.py -q
	$(PYTHON) -m repro.chaos --seeds 11,23,47

# Crash suite: the kill-at-every-round matrix (crash 0..16 rounds past a
# checkpoint, a 2PC handoff in flight, a log fault inside an anchor
# block's frame, a fresh replica, a forged proof row, a store written by
# the parent, the counted fsync/COMMIT guards) plus the seeded chaos
# harness — no evidence lost, nothing anchored twice.
test-crash:
	$(PYTHON) -m pytest tests/test_crash_matrix.py -q
	$(PYTHON) -m repro.chaos --seeds 11,23,47

# Fast CI-friendly run of the hot-path benchmark (small sizes).
bench-smoke:
	$(PYTHON) benchmarks/bench_perf_hotpath.py --smoke

# Full hot-path benchmark; writes BENCH_perf_hotpath.json and asserts
# the acceptance floors (verify >= 5x, reorg >= 10x).
bench-hotpath:
	$(PYTHON) benchmarks/bench_perf_hotpath.py

# Full shard-scaling benchmark; writes BENCH_shard_scaling.json and
# asserts the acceptance floor (>= 2.5x aggregate ingest at 4 shards).
bench-shard:
	$(PYTHON) benchmarks/bench_shard_scaling.py

# Full persistence benchmark; writes BENCH_persist.json and asserts the
# acceptance floor (reopen-from-snapshot >= 5x vs genesis replay).
bench-persist:
	$(PYTHON) benchmarks/bench_persist.py

# Full ingestion benchmark; writes BENCH_ingest.json and asserts the
# acceptance floors (pipelined sustained ingest >= 2x synchronous,
# record group-commit >= 2x per-append).
bench-ingest:
	$(PYTHON) benchmarks/bench_ingest.py

# Full snapshot-sync benchmark; writes BENCH_sync.json and asserts the
# acceptance floor (replica catch-up >= 3x vs genesis replay at 2k
# blocks; see SPEEDUP_FLOOR in the script for where 3x comes from).
bench-sync:
	$(PYTHON) benchmarks/bench_sync.py

# Full execution-engine benchmark; writes BENCH_exec.json and asserts
# the acceptance floors (process sealing >= min(2.0, 0.9 x this
# machine's raw multiprocessing budget); tiering reclaim >= 30%).
bench-exec:
	$(PYTHON) benchmarks/bench_exec.py

# Full observability-overhead benchmark; writes BENCH_obs.json and
# asserts the acceptance floor (instrumented hot-path submit throughput
# >= 0.95x uninstrumented — telemetry overhead <= 5%).
bench-obs:
	$(PYTHON) benchmarks/bench_obs.py

# Full gateway benchmark; writes BENCH_gateway.json and asserts the
# acceptance floors (1000 socket clients >= 0.5x in-process throughput,
# submit ack p99 within 3x fair share, zero loss under a QueueFull
# storm).
bench-gateway:
	$(PYTHON) benchmarks/bench_gateway.py

# Every BENCH_*.json producer at full size, floors asserted — a perf
# regression anywhere fails this target.
bench-all: bench-hotpath bench-shard bench-persist bench-ingest \
           bench-sync bench-exec bench-obs bench-gateway

# The end-to-end benchmark BENCHMARK.json declares (benchmarks/e2e):
# one run into OUT, and the parent-vs-candidate comparison of two runs'
# outputs (BASE, CAND).
bench-e2e:
	python3 benchmarks/e2e/run.py --out $(OUT)

bench-e2e-compare:
	python3 benchmarks/e2e/compare.py $(BASE) $(CAND)

# Interleaved A/B pairs of one e2e workload: revision BASE against the
# working tree, each in its own temporary checkout running its own
# unmodified benchmarks/e2e/run.py, sides alternating; prints medians,
# quartiles, pairs won and host.cpu_probe_ms per side.
PAIRS ?= 10
bench-ab:
	python3 benchmarks/ab_pairs.py --base $(BASE) --workload $(WORKLOAD) \
	    --pairs $(PAIRS)

# One set-up of an e2e workload (what setup_s times) split by component
# — draw ops / build + seal + sign / collector / open stores / populate —
# median of 5 at reference host speed; prints a table, writes nothing.
# audit_restart's populate is split again: ingest_records / seal rounds /
# checkpoint, fsyncs, sqlite by statement kind, and the same populate on
# MemoryStorage.
setup-split:
	$(PYTHON) tools/setup_split.py --workload $(WORKLOAD)

# No module outside sharding/ may read an underscore attribute of a
# ShardedChain (every facade handle in src/ is named `sharded`), and no
# module outside persist/ may import an underscore name from
# persist.codec: what another package needs is exposed under a public
# name instead.  Nor may the deleted request/response idiom come back:
# object references or self-sized lists in message bodies, req_id
# mailboxes, a second (blocking) frame reader.  Nor may chain/ or exec/
# ask a store what it can do (a hasattr/getattr capability probe), nor
# sync/ probe a store: every store implements the one
# append_blocks(pairs, fsync, encoded, derived) write and the one
# raw_block_items(start, count) tail read.  Nor may proof state be
# checkpointed again: no dump_state /
# restore_state twin and no put_meta( of a whole service under
# provenance/, sharding/ or sync/ — what a block creates commits with
# that block as its derived row (the put_meta( calls allowed by name are
# the facade's layout row and the 2PC WAL, both written to sharded.meta,
# and the sync client's resume marker).  Nor may the storage forks come
# back: every stack under sharding/ opens on a Storage bundle (no
# `storage is None` branch, no in-memory meta twin, no meta passthrough
# on the facade), and persist/durable.py keeps one recovery walk, one
# LRU and a compaction routine that does not branch on the table name.
# Nor may the anchoring mechanism be written twice: only
# chain/anchoring.py compares an anchor payload's merkle_root, and
# neither level keeps a locator or tree list of its own.  Nor may a
# signature verdict be kept anywhere but on the sealed transaction it is
# about: no global verify memo, no lock or LRU beside it, no
# recompute-every-read lever.  Nor may the cold tier leave the segment
# log again: no file CAS under persist/, and the old archive key column
# is read only by the one-time upgrade of a store archived that way.
# Nor may a store format be probed or stamped outside the one upgrade
# site: the markers of older formats are named only in persist/durable.py,
# and sqlite's user_version is written at exactly one place.  Nor may the
# storage layer grow a second write path or an unset setting back: no
# write codec, no second frame writer or crash hook in the segment log,
# no records-compaction switch, no second tamper hook on the memory store.
lint-private:
	@! grep -rnE '\bsharded\._[a-z]' src/repro --include='*.py' \
	    | grep -v '^src/repro/sharding/'
	@! grep -rlPz \
	    'from [.\w]*persist\.codec import (?:[^(\n]*|\([^)]*)\b_\w' \
	    src/repro --include='*.py' | grep -v '^src/repro/persist/'
	@! grep -rnE '_bundle_ref|SizedList|"req_id"|read_frame_sync' \
	    src/repro --include='*.py'
	@! grep -rnE '\b(hasattr|getattr)\(' src/repro/chain src/repro/exec \
	    --include='*.py'
	@! grep -rnE '\b(hasattr|getattr)\((store|self\.\w*store)\b' \
	    src/repro/sync --include='*.py'
	@! grep -rnE 'payload(\.get\(|\[)"merkle_root"' src/repro/chain \
	    src/repro/provenance src/repro/sharding src/repro/sync \
	    --include='*.py' | grep -v '^src/repro/chain/anchoring\.py:'
	@! grep -nE '\b_(locator|trees)\b' src/repro/provenance/anchor.py \
	    src/repro/sharding/beacon.py
	@! grep -rnE '\b(dump|restore)_state\b' src/repro/provenance \
	    src/repro/sharding src/repro/sync --include='*.py'
	@! grep -rnE '\bput_meta\(' src/repro/provenance src/repro/sharding \
	    src/repro/sync --include='*.py' \
	    | grep -vE 'storage\.put_meta\(_BASE_META_KEY|meta\.put_meta\(self\._(T_PREFIX|(LAYOUT_META|EPOCH|SEQ|ACTIVE)_KEY)'
	@! grep -rnE 'storage is None|_beacon_storage|_meta_mem|def (put|get)_meta\b' \
	    src/repro/sharding --include='*.py'
	@test "$$(grep -cE 'def _recover|OrderedDict\(\)' src/repro/persist/durable.py)" = 2
	@! grep -nE '_compact_log|table *==|== *"(blocks|records)"' \
	    src/repro/persist/durable.py
	@! grep -rnE 'HASH_CACHING_ENABLED|_VERIFY_CACHE|_VERIFIED_SIGNATURES' \
	    src benchmarks tests --include='*.py'
	@! grep -nE 'threading\.(Lock|RLock)|OrderedDict' \
	    src/repro/crypto/signatures.py src/repro/chain/transaction.py
	@! grep -rnE 'FileCAS|_cas_fetch|attach_cas' src/repro/persist \
	    --include='*.py'
	@! grep -rn 'cas_key' src/repro --include='*.py' \
	    | grep -v '^src/repro/persist/durable\.py:'
	@test -z "$$(awk '/^(class|def) |^    def /{f=$$0} \
	    /cas_key/ && f !~ /def _upgrade_archive\(/' \
	    src/repro/persist/durable.py)"
	@! grep -rnE 'anchor_state|beacon_state|facade_state|blocks_archived' \
	    src/repro --include='*.py' | grep -v '^src/repro/persist/durable\.py:'
	@! grep -rn 'supersede_meta' src --include='*.py'
	@test "$$(grep -rnE 'user_version *=' src/repro --include='*.py' \
	    | wc -l)" = 1
	@! grep -rnE 'SegmentCodec|\bcodec=|compact_records|location_of_id|replace_at|def __setitem__' \
	    src/repro/persist src/repro/sharding --include='*.py'
	@test "$$(grep -cE 'raise CrashPoint\(|def _frame\(' \
	    src/repro/persist/segment.py)" = 2

# The production path (gateway, ingest, sharding, exec, persist, chain,
# ...) may not import the survey packages — the surveyed systems, domains
# and mechanisms that reproduce the paper's figures; repro/__init__.py
# re-exports them lazily.  Nor may persist/ import sharding/, sync/ or
# storage/ (storage sits under the facade, never beside it), at module
# or function level; nor may any production package import repro.storage,
# which is only the survey-facing name of persist's CAS and record
# database plus the cloud object store.  Nor may the anchoring core
# (chain/anchoring.py) import a level that stands on it.
PRODUCTION := chain persist sharding sync ingest gateway exec
SURVEY := systems|domains|crosschain|consensus|privacy|access|analysis
lint-layers:
	@! grep -rnE '^\s*(from|import)\s+((\.+|repro\.)($(SURVEY))\b|\.+\s+import\s.*\b($(SURVEY))\b)' \
	    src/repro --include='*.py' | grep -vE '^src/repro/($(SURVEY))/'
	@! grep -rnE '^\s*(from|import)\s+((\.+|repro\.)(sharding|sync|storage)\b|\.+\s+import\s.*\b(sharding|sync|storage)\b)' \
	    src/repro/persist --include='*.py'
	@! grep -rnE '^\s*(from|import)\s+((\.+|repro\.)storage\b|\.+\s+import\s.*\bstorage\b)' \
	    $(addprefix src/repro/,$(PRODUCTION)) --include='*.py'
	@! grep -nE '^\s*(from|import)\s+((\.+|repro\.)(provenance|sharding|sync)\b|\.+\s+import\s.*\b(provenance|sharding|sync)\b)' \
	    src/repro/chain/anchoring.py

# Total and code-only (no blanks, comments or docstrings) line counts of
# src/repro — the figure simplicity PRs report against.
loc:
	@$(PYTHON) tools/loc.py src/repro

# CI-style verification in one command: tier-1 tests, the crash suite
# (kill matrix + the seeded chaos smoke: 3 fault plans, each run twice —
# deterministic per seed), the private-attribute and layering lints, plus
# a smoke pass of each perf benchmark (same code paths, small sizes, no
# floors) and of the set-up split.
check: test test-codec test-transport test-crash lint-private lint-layers
	$(PYTHON) benchmarks/bench_perf_hotpath.py --smoke
	$(PYTHON) benchmarks/bench_shard_scaling.py --smoke
	$(PYTHON) benchmarks/bench_persist.py --smoke
	$(PYTHON) benchmarks/bench_ingest.py --smoke
	$(PYTHON) benchmarks/bench_sync.py --smoke
	$(PYTHON) benchmarks/bench_exec.py --smoke
	$(PYTHON) benchmarks/bench_obs.py --smoke
	$(PYTHON) benchmarks/bench_gateway.py --smoke
	$(PYTHON) tools/setup_split.py --workload capture_saturated --smoke
	$(PYTHON) tools/setup_split.py --workload audit_restart --smoke
