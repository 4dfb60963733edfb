# One entry point for local runs and CI (.github/workflows/ci.yml calls
# these same targets).

GO ?= go

# Pinned static-analysis tool versions (installed by CI; `make static` uses
# whatever is already on PATH and skips what isn't — no network needed
# locally).
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4

.PHONY: all build perfbench-check test race bench bench-compare replay-smoke fuzz-smoke fuzz-proto fmt-check vet doc-check static soak-smoke memory-smoke conformance chaos-smoke trace-smoke ci tables

all: build

build:
	$(GO) build ./...

# The frozen benchmark (perfbench/) is a separate Go module that replaces
# adhocrace with this checkout, so the root `go build ./...` never compiles
# it. Vet and build it here so an API change cannot break it silently; the
# binary goes to /dev/null, so the check leaves nothing in perfbench/.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) build -o /dev/null ./...

test:
	$(GO) test ./...

# Full suite under the Go race detector — also stress-tests the parallel
# experiment engine (internal/sched) and the harness determinism tests.
race:
	$(GO) test -race ./...

# Bench smoke: the slide-24 accuracy table plus the replay events/sec
# benchmark (one recorded stream, decode and detection, no vm), in one
# `go test` run recorded as BENCH_<date>.json (a `go test -json` stream;
# benchstat-recoverable, see scripts/bench-save.sh) so the perf
# trajectory is tracked commit over commit. Run
# `go test -bench=. -benchtime=1x` to regenerate every table and figure.
bench:
	GO=$(GO) sh scripts/bench-save.sh

# Diff the two most recent BENCH_*.json records (or any two passed as
# OLD=/NEW=): ns/op, B/op, allocs/op per benchmark with relative change.
bench-compare:
	sh scripts/bench-compare.sh $(OLD) $(NEW)

# Record/replay determinism gate: a recorded trace replayed through
# racedetect must print the live run's fingerprint, plain, with the
# shadow GC, and on a stream long enough to start the overlap; the
# committed sparse-spawn trace must be rejected with exit 1. See
# scripts/replay-smoke.sh.
replay-smoke:
	GO=$(GO) sh scripts/replay-smoke.sh

# Differential fuzz smoke: a bounded, fixed-seed corpus (200 generated
# programs, all tool presets, plain detectors run across the experiment
# engine's workers) scored against the synthesis engine's ground-truth
# oracle; fails on any oracle-vs-spin disagreement — plus 10s of
# coverage-guided fuzzing over the binary trace decoder (no panics,
# bounded allocation on corrupt headers) and 10s over decoding and
# detection together under every paper preset (FuzzReplayTrace: no
# panics, allocation bounded by the stream's length and the replay
# thread bound; its seed corpus runs in `make test`). Detection of synth programs
# with overlap forced from the first event is gated by
# TestPipelineDeterminismSynth and the golden fingerprints
# (internal/detect). See cmd/racefuzz and
# docs/ARCHITECTURE.md.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzTraceDecode -fuzztime 10s ./internal/event/
	$(GO) test -run '^$$' -fuzz FuzzReplayTrace -fuzztime 10s ./internal/detect/
	$(GO) run ./cmd/racefuzz -n 200 -strict

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Doc hygiene: every package must carry a package doc comment.
doc-check:
	sh scripts/check-docs.sh

# Static analysis: staticcheck + govulncheck at the pinned versions when
# they are on PATH; skipped (loudly) when absent so offline checkouts
# aren't blocked. CI installs both, so there they always run.
static:
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "staticcheck $$(staticcheck -version 2>/dev/null | head -1)"; \
		staticcheck ./...; \
	else echo "static: staticcheck not installed, skipping (CI pins $(STATICCHECK_VERSION))"; fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else echo "static: govulncheck not installed, skipping (CI pins $(GOVULNCHECK_VERSION))"; fi

# Server soak smoke: 64 concurrent synth sessions through raced under the
# Go race detector, with goroutine-leak accounting (~30s). The full soak
# (256 sessions) runs as part of `make race`.
soak-smoke:
	$(GO) test -race -count=1 -run 'TestServerSoak' ./internal/serve/ -soak-sessions=64

# Memory smoke: the shadow-GC flat-footprint gates — the long-trace soak
# (fails on a >2× shadow/heap plateau growth across replay windows) and
# the 64-session server baseline (per-session memory must return to the
# warm-up baseline).
memory-smoke:
	$(GO) test -count=1 -run 'TestLongTraceFlatMemory|TestLongTraceGCEquivalence' ./internal/detect/
	$(GO) test -count=1 -run 'TestServerSoakMemoryBaseline' ./internal/serve/

# Server conformance: byte-identical streamed reports vs direct Prepared.Run
# over the accuracy suite + synthesis corpus.
# (`make test`/`make race` include it; this target is the labeled CI step.)
conformance:
	$(GO) test -count=1 -run 'TestServerConformance' ./internal/serve/

# Chaos smoke: the reduced fault-injection matrix under the Go race
# detector — every failpoint fired one at a time with per-site victims
# (panic isolation, terminal error frames, byte-identical recovery) plus
# the seeded blanket sweep over the -short suite. The full matrix runs as
# part of `make race`/`make test`.
chaos-smoke:
	$(GO) test -race -count=1 -short -run 'TestChaos' ./internal/serve/

# Protocol fuzz: 30s of coverage-guided fuzzing over the wire-frame
# decoders (client ReadFrame + server readRequest) — no panics, no
# allocations from corrupt length words, round-trip stability. The seed
# corpus alone runs in `make test`.
fuzz-proto:
	$(GO) test -run '^$$' -fuzz FuzzFrameDecode -fuzztime 30s ./internal/serve/

# Observability smoke: run a workload long enough to start the overlap
# with -trace and validate the emitted Chrome trace-event JSON carries one
# span per pipeline stage (vm, segment pipeline, merge, GC). See
# scripts/trace-smoke.sh.
trace-smoke:
	GO=$(GO) sh scripts/trace-smoke.sh

# Everything CI runs, in CI's order. (The workflow additionally runs the
# pipeline determinism tests, the representation equivalence step — golden
# report fingerprints, shadow-GC equivalence, and the differential tests
# against the oracles in the detect/hb/vm tests, under -race — and the
# server conformance suite as named steps before the race suite, purely so
# those breaks fail with their own labels; `race` covers them.)
ci: fmt-check vet doc-check static build perfbench-check conformance chaos-smoke race soak-smoke memory-smoke trace-smoke replay-smoke bench fuzz-proto fuzz-smoke

# Regenerate the paper's tables and figures.
tables:
	$(GO) run ./cmd/tables
