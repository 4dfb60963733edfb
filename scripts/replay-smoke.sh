#!/bin/sh
# replay-smoke.sh — CI gate for the record/replay path.
#
# Records one workload's trace, replays it through racedetect, and asserts
# the replayed report's fingerprint equals the live run's for the same
# workload, tool and seed. Then does the same for a workload whose stream
# passes the overlap threshold (event.OverlapThreshold) and the shadow-GC
# period (detect.GCPeriod), so the replay and the live run both switch to
# the overlapped pipeline mid-stream and cross a GC cycle; the live run's
# -stats must show that cycle. Cheap enough for every CI run.
#
# Usage: [GO=go] [WORKLOAD=adhoc_spin11_b7_atomic_long] [LONG_WORKLOAD=freqmine] [TOOL=spin] replay-smoke.sh
set -eu
GO="${GO:-go}"
workload="${WORKLOAD:-adhoc_spin11_b7_atomic_long}"
long="${LONG_WORKLOAD:-freqmine}"
tool="${TOOL:-spin}"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

"$GO" build -o "$tmp/racedetect" ./cmd/racedetect

# check WORKLOAD MODE: the replay of WORKLOAD's trace must fingerprint
# like its live run, whose -stats output is left in $tmp/$WORKLOAD.live.
check() {
	w="$1"
	mode="$2"
	"$tmp/racedetect" -w "$w" -tool "$tool" -seed 1 -stats -fingerprint >"$tmp/$w.live"
	live="$(sed -n 's/^fingerprint=//p' "$tmp/$w.live")"
	replay="$("$tmp/racedetect" -replay "$tmp/$w.trace" -fingerprint | sed -n 's/^fingerprint=//p')"
	if [ -z "$live" ]; then
		echo "replay-smoke: no fingerprint from the live $w $mode run" >&2
		exit 1
	fi
	if [ "$live" != "$replay" ]; then
		echo "replay-smoke: FAIL ($w $mode): replay $replay differs from live run $live" >&2
		exit 1
	fi
	echo "replay-smoke: ok ($mode) — $w/$tool replay matches the live run (fingerprint $live)"
}

for w in "$workload" "$long"; do
	"$tmp/racedetect" -w "$w" -tool "$tool" -seed 1 -record "$tmp/$w.trace" >/dev/null
done

check "$workload" plain
check "$long" "long stream, overlapped, GC"
if ! grep -q 'shadow-gc cycles [1-9]' "$tmp/$long.live"; then
	echo "replay-smoke: FAIL ($long): the live run ran no shadow-GC cycle" >&2
	exit 1
fi
echo "replay-smoke: ok — the live $long run crossed a shadow-GC cycle"
