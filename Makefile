GO ?= go

# Scenario and output directory for the bench-report targets.
SCENARIO ?= quickstart
REPORT_DIR ?= .

# Per-target budget for the fuzz smoke (see `make fuzz`).
FUZZTIME ?= 10s

.PHONY: build fmt test purego race vet bench bench-report bench-check roofline fuzz check

build:
	$(GO) build ./...

# Every Go file must be gofmt-clean: gofmt -l prints those that are not.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

# benchmark/ is a module of its own (BENCHMARK.json's contract), so ./...
# does not reach it; its test pins the names it prints to BENCHMARK.json.
test:
	$(GO) test ./...
	$(GO) test -C benchmark

# The purego build runs the Go field kernels (mulGo, squareGo, redcGo)
# in place of the amd64 assembly; the proof goldens must hold on both.
purego:
	$(GO) test -tags purego ./internal/field/... ./internal/protocol/... ./internal/core/...

# Exercise the concurrency-sensitive layers (stage executors, batch
# prover stages, pipelined module schedules, the parallel sum-check kernel
# and the GKR layer proofs on it, the telemetry sink's registry, tracer
# and flight recorder, the gateway's admission queue) under the race
# detector.
race:
	$(GO) test -race ./internal/sched/... ./internal/core/... ./internal/pipeline/... ./internal/telemetry/... ./internal/gpusim/... \
		./internal/par/... ./internal/merkle/... ./internal/encoder/... ./internal/sumcheck/... ./internal/gkr/... ./internal/pcs/... \
		./internal/service/... ./internal/protocol/... ./internal/field/...

vet:
	$(GO) vet ./...

bench:
	$(GO) test -run NONE -bench . -benchtime 1x ./...

# Regenerate BENCH_$(SCENARIO).json (plus the profiler's text report on
# stdout). Override SCENARIO/REPORT_DIR to target other workloads.
bench-report:
	$(GO) run ./cmd/batchzk-profile -scenario $(SCENARIO) -out $(REPORT_DIR)

# Gate the working tree against the committed scenario report:
# regenerate it into a temp dir and fail on any gated metric >10% worse.
bench-check:
	@tmp=$$(mktemp -d) && \
	$(GO) run ./cmd/batchzk-profile -scenario $(SCENARIO) -out $$tmp >/dev/null && \
	$(GO) run ./cmd/batchzk-profile compare $(REPORT_DIR)/BENCH_$(SCENARIO).json $$tmp/BENCH_$(SCENARIO).json; \
	status=$$?; rm -rf $$tmp; exit $$status

# Print the host-kernel roofline: serial ns/element for every hot kernel
# against the calibrated arithmetic floor, with per-kernel verdicts.
roofline:
	$(GO) run ./cmd/batchzk-profile roofline

# Short coverage-guided fuzz of the codec/derivation/verification
# surfaces (go test allows one -fuzz pattern per invocation, so one run
# per package). Seed corpora live in each package's testdata/fuzz. The
# proof-decode seeds are ~20 KB proofs; minimizing every new input that
# size would spend the whole budget, so those stay unminimized.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzElementDecoding -fuzztime $(FUZZTIME) ./internal/field/
	$(GO) test -run '^$$' -fuzz FuzzFieldArith -fuzztime $(FUZZTIME) ./internal/field/
	$(GO) test -run '^$$' -fuzz FuzzWideAccumulate -fuzztime $(FUZZTIME) ./internal/field/
	$(GO) test -run '^$$' -fuzz FuzzChallengeDerivation -fuzztime $(FUZZTIME) ./internal/transcript/
	$(GO) test -run '^$$' -fuzz FuzzOpeningProofVerify -fuzztime $(FUZZTIME) ./internal/merkle/
	$(GO) test -run '^$$' -fuzz FuzzVerify -fuzztime $(FUZZTIME) ./internal/sumcheck/
	$(GO) test -run '^$$' -fuzz FuzzEqProduct -fuzztime $(FUZZTIME) ./internal/sumcheck/
	$(GO) test -run '^$$' -fuzz FuzzAgainstOracles -fuzztime $(FUZZTIME) ./internal/sha2/
	$(GO) test -run '^$$' -fuzz FuzzProofDecode -fuzztime $(FUZZTIME) -fuzzminimizetime 1x ./internal/protocol/

# Aggregate gate: everything CI runs.
check: fmt build vet test purego race
	$(GO) run ./cmd/batchzk-profile -scenario tiny -out $$(mktemp -d) >/dev/null
	@echo "check: ok"
