#!/bin/sh
# replay-smoke.sh — CI gate for the record/replay path.
#
# Records one workload's trace, replays it through racedetect, and asserts
# the replayed report's fingerprint equals the live run's for the same
# workload, tool and seed — once plain, once with the shadow GC and once
# with the overlap pipeline (on both sides). Cheap enough for every CI run.
#
# Usage: [GO=go] [WORKLOAD=adhoc_spin11_b7_atomic_long] [TOOL=spin] replay-smoke.sh
set -eu
GO="${GO:-go}"
workload="${WORKLOAD:-adhoc_spin11_b7_atomic_long}"
tool="${TOOL:-spin}"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

"$GO" build -o "$tmp/racedetect" ./cmd/racedetect
"$tmp/racedetect" -w "$workload" -tool "$tool" -seed 1 -record "$tmp/t.trace" >/dev/null

fp() {
	"$tmp/racedetect" "$@" -fingerprint | sed -n 's/^fingerprint=//p'
}

# The GC variant cycles every 64 events so even a short run retires state.
for knobs in "" "-gc-shadow -gc-events 64" "-overlap"; do
	live="$(fp -w "$workload" -tool "$tool" -seed 1 $knobs)"
	replay="$(fp -replay "$tmp/t.trace" $knobs)"
	mode="${knobs:-plain}"
	if [ -z "$live" ]; then
		echo "replay-smoke: no fingerprint from the live $mode run" >&2
		exit 1
	fi
	if [ "$live" != "$replay" ]; then
		echo "replay-smoke: FAIL ($mode): replay $replay differs from live run $live" >&2
		exit 1
	fi
	echo "replay-smoke: ok ($mode) — $workload/$tool replay matches the live run (fingerprint $live)"
done
