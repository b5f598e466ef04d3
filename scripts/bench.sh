#!/usr/bin/env bash
# Runs the gated benchmarks of the root package and internal/dse and prints
# one BENCH report on stdout (the raw go test output goes to stderr):
#
#   {"id": "fresh", "env": {"cpu", "gomaxprocs", "go", "commit", "benchtime"},
#    "benchmarks": {"BenchmarkX": {"ns_per_op": ..., ...}}, "gates": []}
#
# Every "value unit" pair a benchmark line prints becomes a metric named
# after its unit: "/op" reads "_per_op" and "B/op" is bytes_per_op, so the
# testing package's columns are ns_per_op, bytes_per_op and allocs_per_op,
# and b.ReportMetric units keep their names. A new metric needs no change
# here. Gate the report against every committed baseline with
#
#   scripts/bench.sh > bench.fresh.json
#   for f in BENCH_*.json; do go run ./cmd/bench-compare -old "$f" -new bench.fresh.json; done
#
# BENCHTIME (default 10x) is passed to -benchtime.
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-10x}"
PATTERN='^Benchmark(SAOptimize|EvaluateGroup|DSESessionSweep(Cold|Warm)|DSESweep(Restarts[14]|GridFixed|Ordered|PR3Bound|TightBound|Hardened|InLoopAbandon|DiskWarm|Racing|CutBound)|FleetSweep)$'
OUT="$(go test -run '^$' -bench "$PATTERN" -benchmem -benchtime="$BENCHTIME" . ./internal/dse)"
echo "$OUT" >&2

COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
if [ "$COMMIT" != unknown ] && [ -n "$(git status --porcelain 2>/dev/null)" ]; then
	COMMIT="$COMMIT+dirty"
fi

echo "$OUT" | awk -v go="$(go env GOVERSION)" -v commit="$COMMIT" -v benchtime="$BENCHTIME" '
BEGIN { cpu = "unknown"; procs = 1; n = 0 }
/^cpu: / { cpu = substr($0, 6); gsub(/"/, "", cpu) }
/^Benchmark/ && NF >= 4 {
	name = $1
	if (match(name, /-[0-9]+$/)) {
		procs = substr(name, RSTART + 1)
		name = substr(name, 1, RSTART - 1)
	}
	line = ""
	for (i = 3; i < NF; i += 2) {
		unit = $(i + 1)
		sub(/\/op$/, "_per_op", unit)
		if (unit == "B_per_op") unit = "bytes_per_op"
		line = line (line == "" ? "" : ", ") "\"" unit "\": " $i
	}
	rows[n++] = "    \"" name "\": { " line " }"
}
END {
	printf "{\n  \"id\": \"fresh\",\n"
	printf "  \"env\": { \"cpu\": \"%s\", \"gomaxprocs\": \"%s\", \"go\": \"%s\", \"commit\": \"%s\", \"benchtime\": \"%s\" },\n", cpu, procs, go, commit, benchtime
	printf "  \"benchmarks\": {\n"
	for (i = 0; i < n; i++) printf "%s%s\n", rows[i], (i < n - 1 ? "," : "")
	printf "  },\n  \"gates\": []\n}\n"
}
'
