#!/usr/bin/env bash
# Regenerate the machine-readable experiments timing report.
#
#   scripts/bench.sh                          # writes BENCH_experiments.json (quick traces)
#   scripts/bench.sh out.json                 # custom output path
#   FULL=1 scripts/bench.sh                   # the paper's full 30-minute traces
#   FLEET_HOSTS=1024 scripts/bench.sh         # bigger -fleet pass (default 64 hosts)
#
# The report records wall-clock per evaluation trace (run + analyze),
# records/sec of analysis throughput, per-table/figure render time, the
# fan-out speedup estimate for this host, v2 stream-codec and analysis
# throughput (encode/decode MB/s plus analyze_mb_per_sec,
# analyze_parallel_mb_per_sec and the per-worker-count
# analyze_worker_mb_per_sec scaling map under "stream"), and the timerlint
# self-run cost (load + per-analyzer wall time and finding counts under
# "lint"). Parallel-analyze numbers are host-dependent: on a single-CPU
# machine parallel equals serial. See EXPERIMENTS.md for how to read it.
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_experiments.json}"
args=(-bench "$out")
if [[ "${FULL:-0}" != "1" ]]; then
	args+=(-quick)
fi

go run ./cmd/experiments "${args[@]}" > /dev/null

# Fleet scenario: hosts, cumulative timers, events/sec, wall ms and
# speedup_vs_workers, merged under the "fleet" key. A plain -fleet run at
# workers > 1 first runs a workers=1 reference pass and enforces digest
# equality with it (exit 1 on divergence), so a bench regeneration doubles
# as a determinism check.
# Default is a 64-host, 5 s pass so bench.sh stays fast; FLEET_HOSTS=1024
# FLEET_DURATION=30s reproduces the full datacenter scenario.
go run ./cmd/experiments -fleet -hosts "${FLEET_HOSTS:-64}" \
	-fleet-duration "${FLEET_DURATION:-5s}" -bench "$out" > /dev/null

# Control plane, run the way check.sh's checkpoint gate runs it: a steered
# fleet run stopped and checkpointed at window 40, then resumed from that
# checkpoint in a fresh process and checkpointed again at its end. The
# resumed run writes the "control" key (resume_fastforward_ms,
# checkpoint_ms, checkpoint_bytes, windows, commands_applied, wall_ms,
# digest). The steering script exercises every command kind, and the
# restart at window 60 crosses the checkpoint as a pending command.
ctl_dir="$(mktemp -d)"
go run ./cmd/experiments -fleet -hosts "${FLEET_HOSTS:-64}" \
	-fleet-duration "${FLEET_DURATION:-5s}" \
	-steer "10:spike:*:4:500ms,20:kill:ws-0000,25:policy:*:adaptive,30:coalesce:*:100ms,60:restart:ws-0000" \
	-stop-window 40 -checkpoint "$ctl_dir/ck.tckp" > /dev/null
go run ./cmd/experiments -fleet -resume "$ctl_dir/ck.tckp" \
	-checkpoint "$ctl_dir/ck_end.tckp" -bench "$out" > /dev/null
rm -rf "$ctl_dir"

# Live trace service: loopback ingest/query throughput (producers x
# readers through real HTTP), merged under the "serve" key. The run also
# re-checks the quiesced server's summary against the offline pipeline and
# exits nonzero on divergence, so the bench doubles as a determinism check.
go run ./cmd/experiments -serve-bench -quick \
	-serve-producers "${SERVE_PRODUCERS:-8}" -serve-readers "${SERVE_READERS:-4}" \
	-bench "$out" > /dev/null

# Lint self-run cost: package-load and per-analyzer wall time plus finding
# counts, merged into the report under its "lint" key. Findings themselves
# gate check.sh, not the bench; a dirty tree still yields a timing report.
go run ./cmd/timerlint -bench "$out" ./... > /dev/null || true
echo "wrote $out"
