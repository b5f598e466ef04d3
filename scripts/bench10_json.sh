#!/usr/bin/env bash
# Runs the PR-10 distributed-fleet benchmark set — the 2-worker
# incumbent-sharing fleet vs one worker draining the same shards with no
# sharing — plus the full PR-8 racing/cut-bound, PR-5
# pruning/abandonment/disk-warm and PR-1/2/3 hot-loop, session and
# scheduler benchmarks, and emits a BENCH_10-style JSON report on stdout:
# ns/op, B/op, allocs/op and the work-saved accounting per benchmark,
# including the fleet twins' drain times and SA-iteration spends. CI
# uploads the result as an artifact and gates on cmd/bench-compare: the
# fleet must drain the grid >= 1.6x faster than the no-sharing
# independent-shards twin at the identical best, and spend strictly fewer
# total SA iterations (both are also asserted in-bench, so the gate
# double-locks the claims).
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-10x}"
PATTERN='BenchmarkSAOptimize$|BenchmarkEvaluateGroup$|BenchmarkDSESessionSweepCold$|BenchmarkDSESessionSweepWarm$|BenchmarkDSESweepRestarts1$|BenchmarkDSESweepRestarts4$|BenchmarkDSESweepGridFixed$|BenchmarkDSESweepOrdered$|BenchmarkDSESweepPR3Bound$|BenchmarkDSESweepTightBound$|BenchmarkDSESweepHardened$|BenchmarkDSESweepInLoopAbandon$|BenchmarkDSESweepDiskWarm$|BenchmarkDSESweepRacing$|BenchmarkDSESweepCutBound$|BenchmarkFleetSweep$'
OUT="$(go test -run '^$' -bench "$PATTERN" -benchmem -benchtime="$BENCHTIME" .)"

echo "$OUT" >&2

echo "$OUT" | awk '
BEGIN { print "{"; first = 1 }
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	ns = ""; bytes = ""; allocs = ""
	pruned = ""; cpruned = ""; abandoned = ""
	saiters = ""; usaiters = ""; ssaiters = ""; boundary = ""; diskhits = ""
	onew = ""; twow = ""
	for (i = 2; i < NF; i++) {
		if ($(i+1) == "ns/op") ns = $i
		if ($(i+1) == "B/op") bytes = $i
		if ($(i+1) == "allocs/op") allocs = $i
		if ($(i+1) == "pruned_candidates") pruned = $i
		if ($(i+1) == "compulsory_pruned_candidates") cpruned = $i
		if ($(i+1) == "abandoned_restarts") abandoned = $i
		if ($(i+1) == "sa_iterations") saiters = $i
		if ($(i+1) == "uniform_sa_iterations") usaiters = $i
		if ($(i+1) == "solo_sa_iterations") ssaiters = $i
		if ($(i+1) == "boundary_sa_iterations") boundary = $i
		if ($(i+1) == "disk_hits") diskhits = $i
		if ($(i+1) == "one_worker_ns") onew = $i
		if ($(i+1) == "two_worker_ns") twow = $i
	}
	if (ns == "") next
	if (!first) printf ",\n"
	first = 0
	printf "  \"%s\": { \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s", name, ns, bytes, allocs
	if (pruned != "") printf ", \"pruned_candidates\": %s", pruned
	if (cpruned != "") printf ", \"compulsory_pruned_candidates\": %s", cpruned
	if (abandoned != "") printf ", \"abandoned_restarts\": %s", abandoned
	if (saiters != "") printf ", \"sa_iterations\": %s", saiters
	if (usaiters != "") printf ", \"uniform_sa_iterations\": %s", usaiters
	if (ssaiters != "") printf ", \"solo_sa_iterations\": %s", ssaiters
	if (boundary != "") printf ", \"boundary_sa_iterations\": %s", boundary
	if (diskhits != "") printf ", \"disk_hits\": %s", diskhits
	if (onew != "") printf ", \"one_worker_ns\": %s", onew
	if (twow != "") printf ", \"two_worker_ns\": %s", twow
	printf " }"
}
END { print "\n}" }
'
