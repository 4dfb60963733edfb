#!/bin/sh
# bench-compare.sh — diff two BENCH_*.json perf records, and gate on
# allocation regressions.
#
# Usage: bench-compare.sh [old.json new.json]
#
# Without arguments, compares the two most recent BENCH_*.json records in
# the repo root (the files scripts/bench-save.sh writes; their date-stamped
# names sort chronologically). Prints, per benchmark present in both
# records, ns/op, B/op, and allocs/op with the relative change. Records
# written before `make bench` passed -benchmem carry no allocation
# columns; those cells print as "-".
#
# Exit status: nonzero when any benchmark's allocs/op regressed by more
# than ALLOC_GATE_PCT percent (default 10) — allocs/op is the
# machine-independent signal in these records, so `make bench-compare`
# can gate a PR even on noisy shared runners. Set ALLOC_GATE_PCT=off
# to report without gating.
#
# The replay benchmark (BenchmarkReplayEventsPerSec) additionally gates
# on ns/op: it decodes a fixed recorded stream with no vm, so its
# ns/op is ns-per-event up to a constant and is the one wall-clock signal
# stable enough to gate — REPLAY_NS_GATE_PCT (default 50, generous for
# shared runners; off to disable) bounds the regression.
set -eu

ALLOC_GATE_PCT="${ALLOC_GATE_PCT:-10}"
REPLAY_NS_GATE_PCT="${REPLAY_NS_GATE_PCT:-50}"

if [ $# -ge 2 ]; then
	old="$1"
	new="$2"
else
	# shellcheck disable=SC2046  # word-splitting the ls output is the point
	set -- $(ls BENCH_*.json 2>/dev/null | sort | tail -2)
	if [ $# -lt 2 ]; then
		echo "bench-compare: need two BENCH_*.json records (have $#); run 'make bench' to record one" >&2
		exit 2
	fi
	old="$1"
	new="$2"
fi

# extract recovers "name ns_per_op B_per_op allocs_per_op" lines from a
# `go test -json` stream (missing memory columns become "-").
extract() {
	grep -o '"Output":"[^"]*"' "$1" \
		| sed 's/^"Output":"//; s/"$//' | tr -d '\n' \
		| sed 's/\\n/\n/g; s/\\t/\t/g' \
		| grep -E '^Benchmark' | grep 'ns/op' \
		| awk '{
			name = $1; ns = "-"; bop = "-"; allocs = "-"
			for (i = 2; i <= NF; i++) {
				if ($i == "ns/op") ns = $(i-1)
				if ($i == "B/op") bop = $(i-1)
				if ($i == "allocs/op") allocs = $(i-1)
			}
			print name, ns, bop, allocs
		}'
}

extract "$old" > /tmp/bench-compare-old.$$
extract "$new" > /tmp/bench-compare-new.$$
trap 'rm -f /tmp/bench-compare-old.$$ /tmp/bench-compare-new.$$' EXIT

echo "bench-compare: $old -> $new"
awk -v gate="$ALLOC_GATE_PCT" -v rgate="$REPLAY_NS_GATE_PCT" '
function delta(o, n) {
	if (o == "-" || n == "-" || o + 0 == 0) return "      -"
	return sprintf("%+6.1f%%", (n - o) * 100.0 / o)
}
NR == FNR { ns[$1] = $2; bop[$1] = $3; al[$1] = $4; next }
{
	if (!($1 in ns)) { printf "%-40s (new benchmark, no baseline)\n", $1; next }
	printf "%-40s ns/op %12s -> %12s %s   allocs/op %9s -> %9s %s\n",
		$1, ns[$1], $2, delta(ns[$1], $2), al[$1], $4, delta(al[$1], $4)
	if (gate != "off" && al[$1] != "-" && $4 != "-") {
		# Any increase from a 0-alloc baseline is an automatic failure:
		# 0 allocs/op benchmarks are pinned invariants, and a percent
		# threshold cannot express a regression from zero.
		if (al[$1] + 0 == 0 && $4 + 0 > 0) {
			printf "bench-compare: GATE: %s allocs/op regressed from 0 to %s\n", $1, $4
			bad = 1
		} else if (al[$1] + 0 > 0 && ($4 - al[$1]) * 100.0 / al[$1] > gate + 0) {
			printf "bench-compare: GATE: %s allocs/op regressed %s (> %s%%)\n",
				$1, delta(al[$1], $4), gate
			bad = 1
		}
	}
	# Replay benchmarks decode a fixed stream (ns/op == ns-per-event up to
	# a constant), so wall clock is gateable there too.
	if (rgate != "off" && $1 ~ /ReplayEventsPerSec/ && ns[$1] != "-" && $2 != "-" \
		&& ns[$1] + 0 > 0 && ($2 - ns[$1]) * 100.0 / ns[$1] > rgate + 0) {
		printf "bench-compare: GATE: %s ns/op regressed %s (> %s%%)\n",
			$1, delta(ns[$1], $2), rgate
		bad = 1
	}
	seen[$1] = 1
}
END {
	for (b in ns) if (!(b in seen)) printf "%-40s (dropped: present only in baseline)\n", b
	# Exit 2 marks a gate failure specifically, so the caller can tell it
	# apart from awk itself failing on malformed input.
	if (bad) exit 2
}
' /tmp/bench-compare-old.$$ /tmp/bench-compare-new.$$ || awk_status=$?
case "${awk_status:-0}" in
0) ;;
2) gate_failed=1 ;;
*)
	echo "bench-compare: failed to compare records (awk exit ${awk_status})" >&2
	exit "$awk_status"
	;;
esac

cat <<'EOF'
note: a run whose stream passes event.OverlapThreshold overlaps detection
with the vm or the trace decoder, so its ns/op depends on the cores a
record was taken on.
Intra-run sharding was removed because on 2 vCPUs it beat neither overlap
(long trace: 3.85M vs 3.79M events/s, inside overlap's IQR) nor the
single-threaded replay (3.87M vs 4.92M events/s). Compare records from the
same core count; allocs/op is the machine-independent signal.
EOF

if [ "${gate_failed:-0}" = 1 ]; then
	echo "bench-compare: failing: allocs/op regression beyond ${ALLOC_GATE_PCT}% (set ALLOC_GATE_PCT=off to report only)" >&2
	exit 1
fi
