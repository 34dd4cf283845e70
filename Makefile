GO ?= go

# Per-target budget for fuzz-smoke (native Go fuzzing).
FUZZTIME ?= 5s

.PHONY: all build verify check lint vet-noalloc fuzz-smoke bench bench-guard \
	bench-baseline bench-compare bench-smoke telemetry-smoke clean

all: build

build:
	$(GO) build ./...

# Tier-1: the gate every change must keep green.
verify:
	$(GO) build ./... && $(GO) test ./...

# Full hygiene pass: formatting, vet, race-enabled tests, the
# paper-invariant assertion build (hebscheck), the project linters,
# and the zero-allocation escape-analysis gate.
check:
	@fmt=$$(gofmt -l .); if [ -n "$$fmt" ]; then \
		echo "gofmt needed on:"; echo "$$fmt"; exit 1; fi
	$(GO) vet ./...
	$(GO) test -race ./...
	$(GO) test -tags hebscheck ./...
	$(MAKE) lint
	$(MAKE) vet-noalloc

# hebslint: the project's own static analyzers (atomicmix, errdrop,
# floateq, lockspan, metricname, poolpair, spanend) over the whole
# module.
lint:
	$(GO) run ./cmd/hebslint -C .

# hebsvet: proves every //hebs:noalloc-annotated hot-path function
# allocation-free by parsing the compiler's escape analysis; any
# unexcused escape fails with file:line provenance.
vet-noalloc:
	$(GO) run ./cmd/hebsvet -C .

# Bounded native-fuzzing pass over every fuzz target, with the
# invariant assertions compiled in so violations fail loudly. Seed
# corpora live in each package's testdata/fuzz/<Target>/.
FUZZ_TARGETS := \
	FuzzSolveRange:./internal/equalize \
	FuzzCoarsen:./internal/plc \
	FuzzDetectCuts:./internal/video \
	FuzzZonedWalk:./internal/video \
	FuzzClipWalk:./internal/video \
	FuzzDeltaHistogram:./internal/histogram \
	FuzzUQI:./internal/quality \
	FuzzDecodePNM:./internal/imageio \
	FuzzEncodeDecodePGM:./internal/imageio

fuzz-smoke:
	@set -e; for t in $(FUZZ_TARGETS); do \
		name=$${t%%:*}; pkg=$${t##*:}; \
		echo "== fuzz $$name ($$pkg, $(FUZZTIME))"; \
		$(GO) test -tags hebscheck -run='^$$' -fuzz="^$$name$$" \
			-fuzztime=$(FUZZTIME) $$pkg; \
	done

bench:
	$(GO) test -bench=. -benchmem -run='^$$' .

# Perf baselining (stdlib-only, no external tooling): bench-baseline
# writes the stable perf schema (hebsbench -only perf) to $(BENCH_OLD);
# bench-compare measures fresh numbers into $(BENCH_NEW) and fails on
# any ns/op growth beyond $(BENCH_TOLERANCE) percent or lost coverage.
# Every record is measured at workers=1 and at workers=$(BENCH_WORKERS);
# the pinned default of 4 keeps the record set the same on every host
# (on a 1- or 2-CPU machine the workers=4 rows measure overhead, not
# speedup). BENCH_WORKERS=0 selects NumCPU instead. ns/op is
# hardware-dependent — compare only files produced on the same machine.
BENCH_OLD ?= BENCH_pipeline.json
BENCH_NEW ?= BENCH_pipeline.new.json
BENCH_TOLERANCE ?= 10
BENCH_WORKERS ?= 4

bench-baseline:
	$(GO) run ./cmd/hebsbench -only perf -workers $(BENCH_WORKERS) -json $(BENCH_OLD)

bench-compare:
	$(GO) run ./cmd/hebsbench -only perf -workers $(BENCH_WORKERS) -json $(BENCH_NEW)
	$(GO) run ./cmd/hebsbenchcmp -old $(BENCH_OLD) -new $(BENCH_NEW) -tol $(BENCH_TOLERANCE)

# Every benchmark compiles and runs one iteration — catches bit-rot in
# bench code without paying for real measurements.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# Asserts disabled telemetry stays within noise: the nil-sink span
# guard and the flight/SLO-window guard in internal/obs, the
# steady-state allocs/op budget guard in internal/video (failures
# print the //hebs:noalloc inventory naming the suspect functions),
# plus the traced-vs-direct pipeline benchmark pair.
bench-guard:
	$(GO) test -run 'TestNilSinkOverheadGuard|TestDisabledTelemetryOverheadGuard' -v ./internal/obs
	$(GO) test -run 'TestSteadyStateAllocGuard' -v ./internal/video
	$(GO) test -run='^$$' -bench='KernelFullPipeline(DirectRange|Traced)$$' -benchmem .

# End-to-end telemetry smoke: run a clip with -telemetry held open,
# then scrape every endpoint the way CI (and a human with curl) would.
# Fails on a non-200 or on missing exposition structure.
TELEMETRY_ADDR ?= 127.0.0.1:9190

telemetry-smoke:
	@set -e; \
	out=$$(mktemp -d); trap 'kill $$pid 2>/dev/null || true; rm -rf $$out' EXIT; \
	$(GO) build -o $$out/hebsvideo ./cmd/hebsvideo; \
	$$out/hebsvideo -clip pan -frames 8 -size 64 -workers 2 \
		-telemetry $(TELEMETRY_ADDR) -telemetry-hold 30s \
		-flight-out $$out/flight.json >$$out/run.log 2>&1 & pid=$$!; \
	for i in $$(seq 1 50); do \
		if curl -fsS http://$(TELEMETRY_ADDR)/healthz >/dev/null 2>&1; then break; fi; \
		if ! kill -0 $$pid 2>/dev/null; then \
			echo "hebsvideo exited before serving:"; cat $$out/run.log; exit 1; fi; \
		sleep 0.2; \
	done; \
	curl -fsS http://$(TELEMETRY_ADDR)/healthz | grep -q '^ok$$'; \
	curl -fsS http://$(TELEMETRY_ADDR)/metrics >$$out/metrics.txt; \
	grep -q '^video_frames_total ' $$out/metrics.txt; \
	grep -q 'le="+Inf"' $$out/metrics.txt; \
	curl -fsS http://$(TELEMETRY_ADDR)/metrics.json >/dev/null; \
	curl -fsS http://$(TELEMETRY_ADDR)/debug/slo | grep -q '"stages"'; \
	curl -fsS http://$(TELEMETRY_ADDR)/debug/frames | grep -q '"frame"'; \
	kill $$pid 2>/dev/null; wait $$pid 2>/dev/null || true; \
	echo "telemetry-smoke: all endpoints OK"

clean:
	$(GO) clean ./...
