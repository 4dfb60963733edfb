#!/bin/sh
# trace-smoke.sh — the observability layer's end-to-end gate.
#
# Runs a workload whose stream passes the overlap threshold
# (event.OverlapThreshold) and the shadow-GC period (detect.GCPeriod)
# through racedetect with -trace, so every pipeline stage actually executes,
# then validates the emitted Chrome trace-event JSON with cmd/tracecheck:
# the file must parse and carry at least one event on every pipeline stage
# track — vm quanta, segment pipeline, report merge, and a GC cycle.
#
# Usage: [GO=go] trace-smoke.sh [workload]   (default freqmine, about 93k
# events under the default spin tool)
set -eu
w="${1:-freqmine}"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
trace="$tmp/trace.json"

"${GO:-go}" run ./cmd/racedetect -w "$w" -trace "$trace"

"${GO:-go}" run ./cmd/tracecheck \
	-require 'vm,pipeline,merge,gc' "$trace"

echo "trace-smoke: ok ($w)"
