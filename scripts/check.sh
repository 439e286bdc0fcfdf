#!/usr/bin/env bash
# Full verification: build, vet, race tests, and the repo's own linter.
# CI runs exactly this script; run it before sending a change.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go build =="
go build ./...

echo "== go vet =="
go vet ./...

echo "== gofmt =="
# Every tracked Go file must be gofmt-clean, except the linter's
# deliberately malformed fixtures under internal/lint/testdata/.
unformatted="$(git ls-files -z '*.go' ':!:internal/lint/testdata/**' | xargs -0 gofmt -l)"
if [[ -n "$unformatted" ]]; then
	echo "gofmt: these files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go test -race =="
go test -race ./...

echo "== parallel determinism golden test =="
# The fleet tests pin the next-event index: at workers 1 and 4, in every
# Step mode, each window advances exactly the hosts with work due, the
# index matches every engine after each Step and steering action, and a
# Send outside the host's own callbacks panics.
go test -race -count=2 -run 'TestParallelMatchesSerial|TestRunAllDeterministicAcrossWorkers|TestNextIndexConsistency|TestIdleHostNeverAdvanced|TestSendAtBarrierPanics' \
	./cmd/experiments ./internal/workloads ./internal/fleet

echo "== RNG source determinism golden test =="
# The engine's in-tree lagged Fibonacci source must deliver rand.NewSource's
# stream bit for bit at every seed normalization case, raw and through
# *rand.Rand's derived draws, reseeded mid-stream, with its draw count
# (the checkpoint's RNG position) reset by Seed and advanced per raw value.
go test -race -count=2 -run 'TestSourceMatchesMathRand|TestEngineRandMatchesMathRand|TestRandDrawsCountsAndPreservesStream|TestMulModP' ./internal/sim

echo "== digest determinism golden test =="
# The one FNV-1a helper (internal/fnv1a) must equal hash/fnv at every
# integer width and over bytes and strings. Every digest built on it must
# equal hash/fnv over the bytes it claims to fold: HashSink.Log over each
# record's 40-byte encoding (records using every byte of every field), the
# fleet's per-host and fleet-wide digests on real traffic, the engine's
# events hash and the checkpoint checksum.
go test -race -count=2 -run 'TestUintMatchesFNV|TestBytesAndStringMatchFNV|TestUintRejectsWideValue|TestHashSinkLogMatchesFNV|FuzzHashSinkMatchesFNV|TestHashSinkMatchesBuffer|TestFleetHashSinkMatchesBuffer|TestEventsHashMatchesFNV|TestCheckpointChecksumMatchesFNV' \
	./internal/fnv1a ./internal/trace ./internal/fleet ./internal/sim

echo "== spill-vs-memory determinism golden test =="
# The streaming trace path (v2 spill files) must render byte-identical
# tables and figures to the in-memory path.
go test -race -count=2 -run 'TestSpillMatchesMemory' ./cmd/experiments

echo "== serial-vs-parallel analysis determinism golden test =="
# Pipeline.RunParallel must produce byte-identical reports to Pipeline.Run
# at every worker count, over buffers and v2 streams, including chunk sizes
# that straddle origin frames and timer lifecycles, and on a trace of long
# same-value runs; one incremental Merger over live Partials, fed in random
# interleavings, concurrently with merges, or chunk by chunk with a merge
# after every chunk while per-timer runs are still pending, must equal one
# Run over the concatenated streams at every merge, and must count the
# timer IDs that streams share. A merge with nothing new fed must repeat
# its bytes and leave the Merger's base as it was, a trailing use that
# resolves under another bin must leave no zero-count key, a Partial must
# refuse a second Merger, and the quickselect median behind classification
# must match the sort it replaced. The count table behind every histogram
# must match a map oracle across its growth boundaries and in sums, pack
# every value bin to a key that unpacks to it, and drain in insertion
# order, with a short mean probe where slot order clusters. The serial
# StreamReader's block decode must yield what a Buffer, both FrameDecoder
# cut patterns and a 3-record block yield, at frames of 1, 1023, 1024,
# 1025 and 65,536 records; a frame cut short must report its truncation
# even after an early block's bad origin, on every front end; and the
# record encoder's single tail store must equal the per-field layout.
go test -race -count=2 -run 'TestRunParallelMatchesRunAcrossWorkers|TestRunParallelChunkTorture|TestRunParallelLongRuns|TestForEachChunkMatchesSerial|TestStreamReaderBlocksMatchFrames|TestStreamReaderBlockErrorPrecedence|TestPutRecordMatchesFieldStores|TestPartialMergeMatchesRunInterleaved|TestPartialConcurrentFeedAndSnapshot|TestPartialPrefixOracle|TestMergePartialsCountsTimerIDCollisions|TestMergerRemergeIsStable|TestMergerTrailingUseLeavesNoZeroKey|TestMergerOwnsItsPartials|TestWeightedMedianMatchesSort|TestCountTableMatchesMap|TestCountTableSum|TestValueKeyRoundTrip|TestCountTableDrainProbeBound' \
	./internal/analysis ./internal/trace

echo "== allocation regression (steady-state hot paths must be alloc-free) =="
# Run WITHOUT -race: the race detector instruments allocations and would
# make AllocsPerRun report false positives.
# The jiffies and fleet guards pin the fleet's garbage-free request path: a
# tick that fires and re-arms allocates nothing, a base without NO_HZ keeps
# no dynticks heap, a WithQueue base builds no default wheel, and a warm
# fleet stays under its allocations-per-event bound. The kernel and ktimer
# guards pin the blocking syscalls of both OS personalities: a warm
# select/poll or WaitFor cycle, completed early or expired, allocates
# nothing. The recycling guards pin a paper pass without per-pass garbage:
# 20 write/Close cycles of a default StreamWriter take fewer than 3 chunk
# buffers, even a first serial StreamReader allocates less than one chunk
# buffer, a second parallel StreamReader and a second analysis reuse the
# first one's chunk buffers and arena blocks, a serial StreamReader pass
# allocates its one record block and nothing per block, a warm netsim Send
# plus delivery allocates nothing, and a warm Linux connect/send/close
# cycle stays within its stated bound. The analysis per-timer state (pending runs and cached
# origin row included) stays within its 280-byte size pin. The serve ingest
# decode (a warm FrameDecoder fed a batch of record frames) allocates
# nothing, and neither does a warm Partial's AddChunk right after a Merger
# drained it, nor refilling a count table after its reset.
# The footprint guards pin what a fleet host holds: the timer wheel's list
# heads stay one pointer, with only tv1 inline and each outer level built
# on first use; a jiffies timer stays in the 144-byte size class; and the
# benchmark's 1024-host plane keeps at most 23 KiB of live heap per host.
# The build guards pin what a fleet host costs to boot: building that plane
# makes at most 140 heap allocations per host, and reseeding an engine's
# RNG source makes none. A HashSink folds a record into its digest without
# allocating.
go test -count=1 -run 'TestEngineZeroAllocSteadyState|TestSourceSeedZeroAlloc|TestHashSinkLogZeroAlloc|TestBuildAllocsPerHost|TestEventAllocsPlateau|TestLogZeroAlloc|TestStreamWriterLogZeroAlloc|TestFrameDecoderFeedZeroAlloc|TestStreamReaderForEachChunkZeroAlloc|TestShardRecordZeroAlloc|TestMergerDrainedAddChunkZeroAlloc|TestCountTableResetRefillZeroAlloc|TestShardFoldZeroAlloc|TestStreamTimerSize|TestTickZeroAlloc|TestDynticksHeapOnlyUnderNoHZ|TestWithQueueBuildsNoDefaultWheel|TestSteadyStateAllocsPerEvent|TestSelectZeroAllocSteadyState|TestWaitForZeroAlloc|TestStreamWriterCyclesReuseChunk|TestStreamReadersReuseChunk|TestRunReusesArenaBlocks|TestSendZeroAllocSteadyState|TestConnCycleAllocs|TestHierarchicalWheelFootprint|TestTimerSize|TestHostHeapBudget' \
	./internal/sim ./internal/trace ./internal/analysis ./internal/jiffies ./internal/fleet ./internal/kernel ./internal/ktimer ./internal/netsim ./internal/timerwheel

echo "== benchmark self-tests (tiny workloads, every output check) =="
# _perfbench is its own module; its tests run each workload at --tiny scale.
(cd _perfbench && go test .)

echo "== codec, ingest, merge, RNG and digest fuzz smoke (10s per fuzzer) =="
# FuzzDecodeV2 is differential: StreamReader (at a 3-record read block, so
# frames span many blocks) and FrameDecoder, whole and frame by frame,
# must agree, errors included. FuzzIngest drives the serve ingest handler
# with reordered, duplicate and skipped batches. FuzzMergerViews is
# differential too: three streams fed in fuzz-chosen chunks to one Merger
# merging at fuzz-chosen points must equal Run over the fed prefixes at
# every view. FuzzSourceMatchesMathRand compares the engine's RNG source
# with rand.NewSource at fuzz-chosen seeds over 2,000 rounds of derived
# draws. FuzzHashSinkMatchesFNV compares a HashSink's digest with hash/fnv
# over a fuzz-chosen label and record's bytes.
go test -run '^$' -fuzz 'FuzzDecodeV2$' -fuzztime=10s ./internal/trace
go test -run '^$' -fuzz 'FuzzIngest$' -fuzztime=10s ./internal/serve
go test -run '^$' -fuzz 'FuzzMergerViews$' -fuzztime=10s ./internal/analysis
go test -run '^$' -fuzz 'FuzzReadCheckpoint' -fuzztime=10s ./internal/trace
go test -run '^$' -fuzz 'FuzzDecodeCommands' -fuzztime=10s ./internal/control
go test -run '^$' -fuzz 'FuzzSourceMatchesMathRand$' -fuzztime=10s ./internal/sim
go test -run '^$' -fuzz 'FuzzHashSinkMatchesFNV$' -fuzztime=10s ./internal/trace

echo "== benchmark smoke (1 iteration each) =="
go test -run '^$' -bench . -benchtime=1x ./...

echo "== timerlint (full analyzer suite) =="
go run ./cmd/timerlint ./...

echo "== timerlint allocfree gate (annotated hot paths must have no heap escapes) =="
# Redundant with the full run above, but asserted separately so an alloc
# regression on the engine schedule/expire path, the FNV-1a folds behind
# every digest, the trace record encoder and decode kernels and the
# HashSink record fold, the
# analysis per-record fold, the blocking syscalls (kernel select/poll
# block, expire and complete, the CompleteAfter wake node; ktimer WaitFor,
# the clock-interrupt expiry and the wait DPC) or the workload loop bodies
# that drive them fails with an unmistakable step name.
go run ./cmd/timerlint -run allocfree ./internal/fnv1a ./internal/sim ./internal/trace ./internal/analysis ./internal/kernel ./internal/ktimer ./internal/workloads

echo "== timerlint serve gates (stream ingest + producer sink) =="
# The live service and the HTTP producer sink hold the retry/backoff and
# merge-cadence tunables: magictimeout audits their timeouts.go provenance
# registries, rawsink/goroutinecapture audit the ingest handlers and the
# sink's sender goroutine.
go run ./cmd/timerlint -run rawsink,goroutinecapture,magictimeout ./internal/serve ./internal/trace

echo "== timerlint fleet gates (alloc-free window advance, no shared-state captures) =="
# The fleet's worker-pool closures and the netsim fabric they read are the
# two places a shared-state capture would silently break byte-identical
# traces; goroutinecapture audits them. allocfree covers each host's
# per-window path: the fleet's advance, route and delivery, the two host
# models' request loops, the jiffies mod/del/tick/expire path and the
# timer wheel's list and cascade operations. It also checks netsim's
# per-packet path of the paper workloads: Network.Send, the pooled
# delivery schedule and its bound deliver callback.
go run ./cmd/timerlint -run allocfree,goroutinecapture ./internal/fleet ./internal/netsim ./internal/jiffies ./internal/timerwheel

echo "== timerlint control gates (window-boundary apply path, bounds provenance) =="
# The control plane drains commands at the fleet barrier and stores its
# bounds in timeouts.go: allocfree audits Plane.Advance, applyDue and the
# per-command apply (apply's only allocation is the amortized growth of the
# command log and the patch feed, which escape analysis does not count),
# goroutinecapture audits the plane, magictimeout audits the registry.
go run ./cmd/timerlint -run allocfree,goroutinecapture,magictimeout ./internal/control

echo "== bench counts gate (BENCH_experiments.json is current) =="
# Every field of the -bench report is a count or a digest, a pure function
# of seeds, sizes and the source tree, so a regeneration must match the
# committed file byte for byte, with no tolerance and at any GOMAXPROCS.
bench_dir="$(mktemp -d)"
./scripts/bench.sh "$bench_dir/bench.json" > /dev/null
if ! diff -u BENCH_experiments.json "$bench_dir/bench.json"; then
	echo "BENCH COUNTS MOVED: rerun scripts/bench.sh, commit the new BENCH_experiments.json, and explain the moved count in CHANGES.md" >&2
	rm -rf "$bench_dir"
	exit 1
fi
rm -rf "$bench_dir"
echo "bench counts identical to BENCH_experiments.json"

echo "== fleet serial-vs-parallel determinism gate (64 hosts) =="
# Two separate processes — workers=1 and workers=4 — must print identical
# fleet digests: per-host traces byte-identical regardless of worker count.
# (Each plain multi-worker run also self-checks in-process against a
# workers=1 reference pass and exits 1 on divergence; this gate additionally
# pins serial-only against parallel across process boundaries.)
fleet_args=(-fleet -hosts 64 -fleet-duration 2s)
d1="$(go run ./cmd/experiments "${fleet_args[@]}" -fleet-workers 1 | grep '^fleet digest:' | cut -d' ' -f3)"
d4="$(go run ./cmd/experiments "${fleet_args[@]}" -fleet-workers 4 | grep '^fleet digest:' | cut -d' ' -f3)"
if [[ -z "$d1" || "$d1" != "$d4" ]]; then
	echo "FLEET NONDETERMINISM: workers=1 digest '$d1' != workers=4 digest '$d4'" >&2
	exit 1
fi
echo "fleet digest $d1 identical at workers=1 and workers=4"

echo "== command-replay determinism gate (steered run == recorded replay) =="
# A steered run's recorded command log, replayed from seed in separate
# processes at two other worker counts (1 and 8), must land on the
# identical fleet digest. At the default size that digest must also be
# the pinned golden be705190bd09bb32 (1024 hosts, 1 s, seed 7, steered).
# CONTROL_HOSTS sizes the fleet (default 1024 — the acceptance scale; the
# whole four-run gate pair takes ~12 s on a 2-core machine).
ctl_dir="$(mktemp -d)"
ctl_args=(-fleet -hosts "${CONTROL_HOSTS:-1024}" -fleet-duration 1s -seed 7)
steer_script="10:spike:*:4:200ms,20:kill:ws-0000,25:policy:*:adaptive,30:coalesce:*:100ms,60:restart:ws-0000"
go build -o "$ctl_dir/experiments" ./cmd/experiments
c1="$("$ctl_dir/experiments" "${ctl_args[@]}" -steer "$steer_script" \
	-record-commands "$ctl_dir/cmds.tcmd" -fleet-workers 4 \
	| grep '^fleet digest:' | cut -d' ' -f3)"
c2="$("$ctl_dir/experiments" "${ctl_args[@]}" -replay-commands "$ctl_dir/cmds.tcmd" \
	-fleet-workers 1 | grep '^fleet digest:' | cut -d' ' -f3)"
c3="$("$ctl_dir/experiments" "${ctl_args[@]}" -replay-commands "$ctl_dir/cmds.tcmd" \
	-fleet-workers 8 | grep '^fleet digest:' | cut -d' ' -f3)"
if [[ -z "$c1" || "$c1" != "$c2" || "$c1" != "$c3" ]]; then
	echo "COMMAND REPLAY NONDETERMINISM: steered '$c1' vs replay-w1 '$c2' vs replay-w8 '$c3'" >&2
	rm -rf "$ctl_dir"
	exit 1
fi
if [[ -z "${CONTROL_HOSTS:-}" && "$c1" != "be705190bd09bb32" ]]; then
	echo "CONTROL GOLDEN CHANGED: 1024-host steered digest '$c1' != be705190bd09bb32" >&2
	rm -rf "$ctl_dir"
	exit 1
fi
echo "fleet digest $c1 identical for steered run and both replays"

echo "== checkpoint-resume digest gate (interrupted run == uninterrupted) =="
# The same steered run interrupted at window 40, checkpointed, and resumed
# in a fresh process (different worker count) must finish on the exact
# digest of the uninterrupted run above. Keyframe verification runs inside
# -resume: any divergence between the rebuilt fleet and the checkpoint's
# per-host keyframe is a hard error before the run even continues.
"$ctl_dir/experiments" "${ctl_args[@]}" -steer "$steer_script" \
	-stop-window 40 -checkpoint "$ctl_dir/ck.tckp" -fleet-workers 4 > /dev/null
c4="$("$ctl_dir/experiments" -fleet -resume "$ctl_dir/ck.tckp" -fleet-workers 2 \
	| grep '^fleet digest:' | cut -d' ' -f3)"
rm -rf "$ctl_dir"
if [[ -z "$c4" || "$c4" != "$c1" ]]; then
	echo "CHECKPOINT RESUME DIVERGENCE: resumed digest '$c4' != uninterrupted '$c1'" >&2
	exit 1
fi
echo "fleet digest $c4 identical for checkpoint-resumed and uninterrupted runs"

echo "== live-service loopback gate (serve ingest == offline timerstat) =="
# End-to-end determinism across the network path: start timerstat -serve on
# a loopback port, record a trace while streaming it to the service through
# trace.HTTPSink (timertrace -emit), then the quiesced server's
# /api/summary must be byte-identical to offline `timerstat -json -summary`
# over the recorded file.
gate_dir="$(mktemp -d)"
serve_pid=""
trap 'rm -rf "$gate_dir"; [[ -n "$serve_pid" ]] && kill "$serve_pid" 2>/dev/null || true' EXIT
go build -o "$gate_dir/timerstat" ./cmd/timerstat
go build -o "$gate_dir/timertrace" ./cmd/timertrace
"$gate_dir/timerstat" -serve 127.0.0.1:0 > "$gate_dir/serve.out" 2> "$gate_dir/serve.log" &
serve_pid=$!
for _ in $(seq 50); do
	serve_url="$(sed -n 's#^listening on ##p' "$gate_dir/serve.out")"
	[[ -n "$serve_url" ]] && break
	sleep 0.1
done
if [[ -z "${serve_url:-}" ]]; then
	echo "LOOPBACK GATE: timerstat -serve never reported its address" >&2
	cat "$gate_dir/serve.log" >&2
	exit 1
fi
"$gate_dir/timertrace" -os linux -workload firefox -duration 2m \
	-o "$gate_dir/gate.trace" -emit "$serve_url" > /dev/null
curl -sf "$serve_url/api/summary" > "$gate_dir/served.json"
"$gate_dir/timerstat" -json -summary "$gate_dir/gate.trace" > "$gate_dir/offline.json"
if ! diff -u "$gate_dir/served.json" "$gate_dir/offline.json"; then
	echo "LOOPBACK GATE: live /api/summary != offline timerstat -json -summary" >&2
	exit 1
fi
echo "live service summary byte-identical to offline analysis"

echo "OK"
