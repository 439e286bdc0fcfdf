#!/usr/bin/env bash
# Regenerate the deterministic counts report.
#
#   scripts/bench.sh            # writes BENCH_experiments.json
#   scripts/bench.sh out.json   # custom output path
#
# Every field is a pure function of seeds, sizes and the source tree, so
# a regeneration matches the committed file byte for byte at any
# GOMAXPROCS; scripts/check.sh diffs the two. Host timings live in
# _perfbench (BENCHMARK.json). See EXPERIMENTS.md for how to read it.
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_experiments.json}"

# The paper pass at 2-minute traces: per-trace record counts and the
# SHA-256 of the rendered tables and figures. This run writes the file;
# the runs below merge their keys into it.
go run ./cmd/experiments -quick -bench "$out" > /dev/null

# A plain 64-host, 5 s fleet: the "fleet" key.
go run ./cmd/experiments -fleet -hosts 64 -fleet-duration 5s -bench "$out" > /dev/null

# The control plane, run the way check.sh's checkpoint gate runs it: a
# steered fleet stopped and checkpointed at window 40, then resumed from
# that checkpoint in a fresh process and checkpointed again at its end.
# The resumed run writes the "control" key. The steering script exercises
# every command kind, and the restart at window 60 crosses the checkpoint
# as a pending command.
ctl_dir="$(mktemp -d)"
trap 'rm -rf "$ctl_dir"' EXIT
go run ./cmd/experiments -fleet -hosts 64 -fleet-duration 5s \
	-steer "10:spike:*:4:500ms,20:kill:ws-0000,25:policy:*:adaptive,30:coalesce:*:100ms,60:restart:ws-0000" \
	-stop-window 40 -checkpoint "$ctl_dir/ck.tckp" > /dev/null
go run ./cmd/experiments -fleet -resume "$ctl_dir/ck.tckp" \
	-checkpoint "$ctl_dir/ck_end.tckp" -bench "$out" > /dev/null

# timerlint over the module: the package count and each analyzer's
# suppressed-finding count, under the "lint" key. Unsuppressed findings
# gate check.sh, not this report.
go run ./cmd/timerlint -bench "$out" ./... > /dev/null || true
echo "wrote $out"
