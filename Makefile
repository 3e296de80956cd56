# Development entry points.  PYTHONPATH is set so the src layout works
# without an editable install.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-persist test-sync test-exec test-obs test-chaos \
        test-crash test-gateway test-codec test-transport test-verify bench-smoke bench-hotpath bench-shard \
        bench-persist bench-ingest bench-sync bench-exec bench-obs \
        bench-gateway bench-all bench-e2e bench-e2e-compare bench-ab \
        setup-split lint-private lint-layers loc census check

# Tier-1 verification: the full test suite.
test:
	$(PYTHON) -m pytest -x -q

# Durable-storage suite only: codec, segment log, crash recovery,
# backend equivalence, sync's truncation, sharded restarts, and the record
# rule at every door (a bad record writes nothing; a reopen never raises).
test-persist:
	$(PYTHON) -m pytest tests/test_persist.py tests/test_storage.py \
	    tests/test_record_rule.py -q

# Snapshot-sync suite only: chunk/manifest codec, verified catch-up,
# byzantine rejection matrix, crash-resume, faulty-network convergence.
test-sync:
	$(PYTHON) -m pytest tests/test_sync.py tests/test_network.py -q

# Execution-engine suite only: executor parity, worker-death fallback,
# fork guards, plus the compressed frames an older store holds (read,
# never written).
test-exec:
	$(PYTHON) -m pytest tests/test_exec.py tests/test_compressed_frames.py -q

# Observability suite only: metrics registry, span tracing (incl. the
# process engine's exec span recorded in the parent + worker-kill
# fallback), accessor regressions, the ops op over SimNet.
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
# matrix (every executor, faulted and fault-free), plus the
# seeded chaos harness run twice per seed — same seed must produce the
# same report signature, or the run fails.
test-chaos:
	$(PYTHON) -m pytest tests/test_chaos.py tests/test_engines.py -q
	$(PYTHON) -m repro.chaos --seeds 11,23,47

# Crash suite: the kill-at-every-round matrix (crash 0..16 rounds past a
# checkpoint — no block replayed, heads and state roots as before — a
# 2PC handoff in flight, a log fault inside an anchor block's frame, a
# fresh replica, a forged proof row, a store written by the parent, the
# counted fsync/COMMIT/open/checkpoint guards, the format steps 2 → 3,
# 3 → 4, 4 → 5, 5 → 6 and 6 → 7 killed at every statement, raw tail
# items and caught-up replicas pinned to the parent's bytes) plus the
# seeded chaos harness — no evidence lost, nothing anchored twice.
test-crash:
	$(PYTHON) -m pytest tests/test_crash_matrix.py -q
	$(PYTHON) -m repro.chaos --seeds 11,23,47

# Verifier suite: Merkle path shape, the tamper matrix and the pinned
# evidence of both anchoring levels, the byzantine sync offers, and the
# import closure of repro/verify.py (no module that writes evidence).
test-verify:
	$(PYTHON) -m pytest tests/test_merkle.py tests/test_anchoring.py \
	    tests/test_verify_closure.py -q
	$(PYTHON) -m pytest tests/test_sync.py -k Byzantine -q

# Fast CI-friendly run of the hot-path benchmark (small sizes).
bench-smoke:
	$(PYTHON) benchmarks/bench_perf_hotpath.py --smoke

# Full hot-path benchmark; writes BENCH_perf_hotpath.json and asserts
# the acceptance floor (verify >= 5x).
bench-hotpath:
	$(PYTHON) benchmarks/bench_perf_hotpath.py

# Full shard-scaling benchmark; writes BENCH_shard_scaling.json and
# asserts the acceptance floor (>= 2.5x aggregate ingest at 4 shards).
bench-shard:
	$(PYTHON) benchmarks/bench_shard_scaling.py

# Full persistence benchmark; writes BENCH_persist.json and asserts the
# acceptance floor (reopen from the state rows >= 5x vs genesis replay).
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
# the acceptance floor (process sealing >= min(2.0, 0.9 x this
# machine's raw multiprocessing budget)).
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
# mailboxes, a second (blocking) frame reader — nor a one-way topic
# (tx, block, gossip, consensus) carry a transaction or block by
# reference: SimNet delivers decoded copies, so nodes share bytes.  Nor may chain/ or exec/
# ask a store what it can do (a hasattr/getattr capability probe), nor
# sync/ probe a store: every store implements the one
# append_blocks(blocks, fsync, encoded, derived) write and the one
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
# LRU and one log rewrite (the fold of a cold tier an older build left)
# that does not branch on the table name.
# Nor may the anchoring mechanism be written twice: only the verifier
# (verify.py) compares an anchor payload's merkle_root, and neither
# level keeps a locator or tree list of its own.  Nor may a
# signature verdict be kept anywhere but on the sealed transaction it is
# about: no global verify memo, no lock or LRU beside it, no
# recompute-every-read lever.  Nor may a cold tier come back (blocks
# stay where they are written, so every full node serves every height):
# no file CAS under persist/, the old archive key column is read only by
# the one-time upgrade of a store archived that way, the cold_blocks
# table and log are named only by that step and the step 5 → 6 that
# folds them into the block log, and no tiering pass, archival,
# compaction, disk-usage probe or cold-history refusal comes back —
# anywhere in src, tests, benchmarks, examples or tools.
# Nor may a store format be probed or stamped outside the one upgrade
# site: the markers of older formats are named only in persist/durable.py,
# and sqlite's user_version is written at exactly one place.  Nor may the
# storage layer grow a second write path or an unset setting back: no
# write codec, no second frame writer or crash hook in the segment log,
# no records-compaction switch, no second tamper hook on the memory store.
# Nor may a transaction's receipt get a second row again: no SQL names
# the old receipts table outside the one step that folds it into txs.
# Nor may a receipt be stored at all again (format 5): no receipt column
# outside that same step, no receipts view of a store or a chain, and no
# receipt decoder — anywhere in src, tests, benchmarks, examples or
# tools (the chain.receipts module, AnchorReceipt and anchor.receipt_for
# stay).
# Nor may a job frame carry a secret: exec/ never reads the key registry.
# Nor may the facade grow back the settings nobody set: no seal-width,
# retry-floor or probe-period keyword or attribute outside the frozen e2e
# benchmark (a test may still name one as a string, to see it refused),
# and no "auto" engine under sharding/ — rounds seal inline unless a
# caller names an engine.  Nor may a failed shard be tolerated again:
# no quarantine mode, failure roster, streak or probe round under
# sharding/ — a failed shard fails the round.  Nor may an anchoring
# level prove or check twice: no level looks an anchor transaction up
# in the transaction index (it reads the block its receipt names), and
# the full-node verify twins and the second record-level proof type stay
# gone — one proof per level, checked against a block header.  Nor may a
# stored record be rewritten: no repoint( of an index row, no .replace(
# on a record store and no annotate( under src/ or examples/, and no
# compact(which= target anywhere — records are append-only, and so are
# blocks: nothing compacts a log.  Nor may a door grow its
# own record check back: a "record lacks" or "needs a record_id" refusal
# is written only by the one record rule (persist/codec.py), and neither
# persist/provdb.py nor the facade's _route_records coerces a record
# field with int( or str( — a record that passed the rule needs none,
# and one that did not is never stored.  Nor may admission leave the
# shard's edge again: no add_batch anywhere, no mempool.add( under
# sharding/ outside Shard (whose admit() is the one way in), ingest/
# never names a mempool, and the record rule's batch form runs only at
# the three doors that own a batch (provdb, the facade, sync's install).
# Nor may a sealed block be replaced again: no reorg, no undo journal
# kept past its commit group, and no subscriber that forgets what a
# sealed block anchored — anywhere in src, tests, benchmarks, examples
# or tools.  Nor may a ChainNode keep a chain replica again: it is a
# SimNet endpoint (frames, served ops, channels, shard_tx), so no
# block push, local submit, gossip join or tx/block topic handler, no
# mempool removal or peek, and neither the id factory nor the hash
# commitment module — anywhere in src, tests, benchmarks, examples or
# tools; and src/repro builds a Mempool( only in Shard.__init__, the one
# door admission goes through.  Nor may the library units that no entry
# point ran come back: the chain-wide event log (a contract's events ride
# on its receipt), the token, voting and access-control demo contracts,
# the stepping clock, the arrival process, the cloud-ops and supply-chain
# workloads, and the cloud store's per-user hash chains with their audit
# — anywhere in src, tests, benchmarks, examples or tools.  Nor may the
# state image be checkpointed again: the state rows commit with each
# block group, so no state snapshot store (interface or durable twin),
# no chain keyword or method that saves an image, and no block hash
# binding an image to its block — anywhere in src, tests, benchmarks,
# examples or tools, but in the format step 6 → 7 that checks and drops
# the binding an older build left and the test helper that writes one.
# Nor may telemetry reach a layer by a second route: every layer reports
# to the process default, so no `telemetry=` keyword, no `.telemetry`
# attribute and no `Telemetry(` outside obs/runtime.py (isolation is
# `reset_default_telemetry`), and no JSON-lines exporter.  Nor may
# telemetry leave its process again: an exec worker returns results, not
# spans or counter deltas, so no wire form of a trace context or span, no
# span-row drain or merge, no counter-delta drain or merge and no
# cross-process span-id prefix or at-fork hook — anywhere in src, tests,
# benchmarks, examples or tools.  Nor may a commit group keep undo
# information per block again: a store commits a group whole, so the
# chain opens one snapshot per group and an exec worker ships one net
# delta per job — no drain of a per-block delta and no release below the
# top frame anywhere in src, tests, benchmarks, examples or tools, and
# no per-block "deltas" reply under exec/.  Nor may a second spelling of
# an operation come back where the census cut it: each FILE:PATTERN below
# names a definition that another public call already does (server.stop
# beside drain, SegmentLog.append beside append_many, Blockchain.is_intact
# beside first_broken_height, ...), and the unique deleted names stay
# unused anywhere in src, tests, benchmarks, examples or tools.
lint-private:
	@! grep -rnE '\bsharded\._[a-z]' src/repro --include='*.py' \
	    | grep -v '^src/repro/sharding/'
	@! grep -rlPz \
	    'from [.\w]*persist\.codec import (?:[^(\n]*|\([^)]*)\b_\w' \
	    src/repro --include='*.py' | grep -v '^src/repro/persist/'
	@! grep -rnE '_(bundle|tx|block)_ref|SizedList|"req_id"|read_frame_sync' \
	    src/repro --include='*.py'
	@! grep -rnE '\b(hasattr|getattr)\(' src/repro/chain src/repro/exec \
	    --include='*.py'
	@! grep -rnE '\b(hasattr|getattr)\((store|self\.\w*store)\b' \
	    src/repro/sync --include='*.py'
	@! grep -rnE 'payload(\.get\(|\[)"merkle_root"' src/repro \
	    --include='*.py' | grep -v '^src/repro/verify\.py:'
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
	@test -z "$$(find src/repro -name '*.py' | xargs awk \
	    'FNR == 1 {f = ""} /^(class|def) |^    def /{f = $$0} \
	    /cold_blocks/ && f !~ /def _upgrade_(archive|cold)\(/ \
	    {print FILENAME ": " $$0}')"
	@! grep -rnE '\b(tier_storage|archive_blocks|ColdHistory|cold_history|disk_usage)\b|def (tier|compact)\(' \
	    src tests benchmarks examples tools --include='*.py'
	@! grep -rnE 'anchor_state|beacon_state|facade_state|blocks_archived' \
	    src/repro --include='*.py' | grep -v '^src/repro/persist/durable\.py:'
	@! grep -rn 'supersede_meta' src --include='*.py'
	@test "$$(grep -rnE 'user_version *=' src/repro --include='*.py' \
	    | wc -l)" = 1
	@! grep -rnE 'SegmentCodec|\bcodec=|compact_records|location_of_id|replace_at|def __setitem__' \
	    src/repro/persist src/repro/sharding --include='*.py'
	@test "$$(grep -cE 'raise CrashPoint\(|def _frame\(' \
	    src/repro/persist/segment.py)" = 2
	@test -z "$$(find src/repro -name '*.py' | xargs awk \
	    'FNR == 1 {f = ""} /^(class|def) |^    def /{f = $$0} \
	    /(FROM|INTO|TABLE|JOIN|ON|UPDATE) +receipts([^_[:alnum:]]|$$)/ \
	    && f !~ /def _upgrade_receipts\(/ {print FILENAME ": " $$0}')"
	@! grep -rnP '_SqliteReceiptsMap|EncodedReceipts|decode_receipt|receipt_from_mapping|receipts_map|chain\.receipts\b(?! import)' \
	    src tests benchmarks examples tools --include='*.py'
	@test -z "$$(find src tests benchmarks examples tools -name '*.py' \
	    | xargs awk 'FNR == 1 {f = ""} /^(class|def) |^    def /{f = $$0} \
	    /receipt BLOB/ && f !~ /def _upgrade_receipts\(/ \
	    {print FILENAME ": " $$0}')"
	@! grep -rnE 'key_material|_KEY_REGISTRY' src/repro/exec --include='*.py'
	@! grep -rnE '(\.|\b)(seal_workers|retry_floor_s|quarantine_probe_every) *[=:]|\.(seal_workers|retry_floor_s|quarantine_probe_every)\b' \
	    src tests examples tools benchmarks --include='*.py' \
	    | grep -v '^benchmarks/e2e/'
	@! grep -rn '"auto"' src/repro/sharding --include='*.py'
	@! grep -rnE 'quarantin|failed_shards|seal_fail_streak|_note_seal_' \
	    src/repro/sharding --include='*.py'
	@! grep -nE 'chain\.(find_transaction|prove_transaction|tx_location)\(' \
	    src/repro/chain/anchoring.py src/repro/provenance/anchor.py \
	    src/repro/sharding/beacon.py src/repro/sharding/query.py
	@! grep -rnE 'def (verify_shard_block|light_bundle|prove_for_light_client)\b|class LightAnchorBundle\b' \
	    src --include='*.py'
	@! grep -rnE '\brepoint\(|\b(records|_?store)\.replace\(|\bannotate\(' \
	    src examples --include='*.py'
	@! grep -rnE 'compact\([^)]*\bwhich *=' \
	    src tests examples tools benchmarks --include='*.py'
	@! grep -rnE 'record lacks|needs a record_id' src/repro --include='*.py' \
	    | grep -v '^src/repro/persist/codec\.py:'
	@! grep -nE '(^|[^_[:alnum:]])(int|str)\(' src/repro/persist/provdb.py
	@test -z "$$(awk '/^(class|def) |^    def /{f=$$0} \
	    /(^|[^_[:alnum:]])(int|str)\(/ && f ~ /def _route_records\(/' \
	    src/repro/sharding/shardchain.py)"
	@! grep -rn 'add_batch' src tests benchmarks examples tools \
	    --include='*.py'
	@test -z "$$(find src/repro/sharding -name '*.py' | xargs awk \
	    'FNR == 1 {c = ""} /^class /{c = $$2} \
	    /mempool\.add\(/ && c !~ /^Shard[(:]/ {print FILENAME ": " $$0}')"
	@! grep -rnE '\.mempool\b|\bMempool\b' src/repro/ingest --include='*.py'
	@! grep -rn 'check_records(' src/repro --include='*.py' \
	    | grep -v 'def check_records(' \
	    | grep -vE '^src/repro/(persist/provdb|sharding/shardchain|sync/client)\.py:'
	@! grep -rnE 'reorg_to|subscribe_reorg|reorg_journal_depth|_block_snaps|forget_above|prune_oldest_snapshot|ForkError|_on_reorg' \
	    src tests benchmarks examples tools --include='*.py'
	@! grep -rnE 'push_block|submit_transaction|join_gossip|_gossip_deliver|_handle_tx\b|_handle_block|peek_batch|IdFactory|HashCommitment|open_commitment|mempool\.remove\(' \
	    src tests benchmarks examples tools --include='*.py'
	@test -z "$$(find src/repro -name '*.py' | xargs awk \
	    'FNR == 1 {c = ""; f = ""} /^class /{c = $$2} \
	    /^(class|def) |^    def /{f = $$0} \
	    /Mempool\(/ && !(c ~ /^Shard[(:]/ && f ~ /def __init__\(/) \
	    {print FILENAME ": " $$0}')"
	@! grep -rnE '\b(EventLog|SimpleToken|ThresholdVoting|AccessControlContract|SteppingClock|ArrivalProcess|CloudOpsWorkload|SupplyChainWorkload|verify_user_log|user_log_head|_user_chains)\b' \
	    src tests benchmarks examples tools --include='*.py'
	@! grep -rnE 'StateSnapshotStore|DurableStateSnapshotStore|save_state_image|snapshot_store' \
	    src tests benchmarks examples tools --include='*.py'
	@test -z "$$(find src tests benchmarks examples tools -name '*.py' \
	    | xargs awk 'FNR == 1 {f = ""} /^(class|def) |^    def /{f = $$0} \
	    /state_snapshot_block_hash/ \
	    && f !~ /def (_upgrade_binding|parent_checkpoint)\(/ \
	    {print FILENAME ": " $$0}')"
	@! grep -rnE '\btelemetry=|\.telemetry\.|self\.telemetry\b|\bTelemetry\(|write_jsonl' \
	    src tests benchmarks examples tools --include='*.py' \
	    | grep -vE '^(src/repro/obs/runtime|benchmarks/_harness)\.py:'
	@! grep -rnE '\b(to_wire|from_wire|span_rows|ingest_rows|drain_counter_deltas|merge_counter_deltas|_PID_PREFIX|register_at_fork|_merge_worker_telemetry|_telemetry_payload)\b' \
	    src tests benchmarks examples tools --include='*.py'
	@! grep -rnE '\b(drain_snapshot_delta|_frame_index)\b' \
	    src tests benchmarks examples tools --include='*.py'
	@! grep -rn '"deltas"' src/repro/exec --include='*.py'
	@for rule in \
	    'gateway/server.py:def (stop|address|active_connections|draining)\b' \
	    'gateway/client.py:def ping\b|\bping = ' \
	    'persist/segment.py:def (append|scan|current_segment|end_location|end_offset)\b' \
	    'provenance/query.py:def (point|point_verified|impact_ids|__len__)\b' \
	    'sharding/query.py:def trace\b' \
	    'chain/blockchain.py:def (__len__|__iter__|is_intact)\b' \
	    'chain/block.py:def (__iter__|size_bytes)\b' \
	    'chain/mempool.py:def __contains__\b' \
	    'chain/anchoring.py:def __len__\b' \
	    'chain/state.py:def __len__\b' \
	    'chain/transaction.py:def to_canonical\b' \
	    'crypto/signatures.py:def (to_canonical|verify_or_raise)\b' \
	    'crypto/distributed_merkle.py:def (add_many|verify_or_raise)\b' \
	    'provenance/anchor.py:def anchored_count\b' \
	    'provenance/capture.py:def pending_count\b' \
	    'sharding/beacon.py:def is_anchored\b' \
	    'sharding/locks.py:def entry\b' \
	    'sharding/twophase.py:def get\b' \
	    'sharding/shardchain.py:def (accepted_total|deferred_total)\b' \
	    'sync/codec.py:def chunk_count\b' \
	    'sync/replica.py:def query\b' \
	    'persist/codec.py:def transaction_to_mapping\b' \
	    'persist/stores.py:def (truncate_above|iter_items|iter_records_raw)\b' \
	    'persist/durable.py:def (iter_items|iter_records_raw)\b' \
	    'persist/provdb.py:def store\b' \
	    'network/simnet.py:def pending\b' \
	    'exec/pool.py:def call\b' \
	    'contracts/contract.py:def describe\b|abi_version' \
	    'contracts/runtime.py:def deployed_class\b' \
	    'chaos/plan.py:def (as_dict|describe)\b' \
	    'chaos/runner.py:def as_dict\b'; do \
	    ! grep -nE "$${rule#*:}" "src/repro/$${rule%%:*}" || exit 1; done
	@! grep -rnE '\b(is_intact|point_verified|impact_ids|active_connections|end_location|current_segment|end_offset|accepted_total|chunk_count|anchored_count|deployed_class|iter_records_raw|verify_or_raise|abi_version|transaction_to_mapping)\b|beacon\.is_anchored\(|locks\.entry\(' \
	    src tests benchmarks examples tools --include='*.py'

# The production path (gateway, ingest, sharding, exec, persist, chain,
# ...) may not import the survey packages — the surveyed systems, domains
# and mechanisms that reproduce the paper's figures; repro/__init__.py
# re-exports them lazily.  Nor may persist/ import sharding/, sync/ or
# storage/ (storage sits under the facade, never beside it), at module
# or function level; nor may any production package import repro.storage,
# which is only the survey-facing name of persist's CAS and record
# database plus the cloud object store.  Nor may the anchoring core
# (chain/anchoring.py) import a level that stands on it.  Nor may the
# verifier (verify.py) import anything but crypto/, serialization,
# errors, the block and transaction types, the codec's decode side and
# the record digest — no module that writes evidence.
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
	@! grep -nE '^\s*(from\s+(\.|repro\b)|import\s+repro\b)' \
	    src/repro/verify.py | grep -vE ':\s*from\s+(\.|repro\.)(crypto(\.\w+)*|serialization|errors|chain\.(block|transaction)|persist\.codec|provenance\.records)\s+import\s'

# Total and code-only (no blanks, comments or docstrings) line counts of
# src/repro — the figure simplicity PRs report against.
loc:
	@$(PYTHON) tools/loc.py src/repro

# Call census: run every entry point (e2e workloads traced and untraced,
# the examples, chaos seeds 11 and 23, the script benches with --smoke,
# the pytest bench modules) under a profile hook and list, per file, the
# functions outside the survey packages that none of them entered.
# Takes several minutes, so it is not part of `make check`.
census:
	$(PYTHON) tools/call_census.py --skip '$(SURVEY)'

# CI-style verification in one command: tier-1 tests, the crash suite
# (kill matrix + the seeded chaos smoke: 3 fault plans, each run twice —
# deterministic per seed), the verifier suite, the private-attribute and
# layering lints, plus
# a smoke pass of each perf benchmark (same code paths, small sizes, no
# floors) and of the set-up split.
check: test test-codec test-transport test-crash test-verify lint-private \
       lint-layers
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
