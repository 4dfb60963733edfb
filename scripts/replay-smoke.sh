#!/bin/sh
# replay-smoke.sh — CI gate for the record/replay path.
#
# Records one workload's trace, replays it through racedetect, and asserts
# the replayed report's fingerprint equals the live run's for the same
# workload, tool and seed — once plain and once with the shadow GC. Then
# does the same for a workload whose stream passes the overlap threshold
# (event.OverlapThreshold), so the replay and the live run both switch to
# the overlapped pipeline mid-stream. Cheap enough for every CI run.
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

fp() {
	"$tmp/racedetect" "$@" -fingerprint | sed -n 's/^fingerprint=//p'
}

# check WORKLOAD MODE [KNOBS...]: the replay of WORKLOAD's trace must
# fingerprint like its live run under the same knobs.
check() {
	w="$1"
	mode="$2"
	shift 2
	live="$(fp -w "$w" -tool "$tool" -seed 1 "$@")"
	replay="$(fp -replay "$tmp/$w.trace" "$@")"
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
# The GC variant cycles every 64 events so even a short run retires state.
check "$workload" gc -gc-shadow -gc-events 64
check "$long" "long stream, overlapped"
