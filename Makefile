GO ?= go

# Scenario and output directory for the bench-report targets.
SCENARIO ?= quickstart
REPORT_DIR ?= .

# Per-target budget for the fuzz smoke (see `make fuzz`).
FUZZTIME ?= 10s

.PHONY: build test race vet bench bench-report bench-sched bench-kernels bench-mem bench-service bench-check roofline fuzz check

build:
	$(GO) build ./...

# benchmark/ is a module of its own (BENCHMARK.json's contract), so ./...
# does not reach it; its test pins the names it prints to BENCHMARK.json.
test:
	$(GO) test ./...
	$(GO) test -C benchmark

# Exercise the concurrency-sensitive layers (batch prover stage workers,
# pipelined module schedules, fault injector, telemetry registry/tracer)
# under the race detector.
race:
	$(GO) test -race ./internal/core/... ./internal/pipeline/... ./internal/telemetry/... ./internal/faults/... ./internal/gpusim/... \
		./internal/par/... ./internal/merkle/... ./internal/encoder/... ./internal/sumcheck/... ./internal/ntt/... ./internal/pcs/... ./internal/msm/... \
		./internal/service/... ./internal/protocol/... ./internal/field/... ./internal/fp/... ./internal/curve/...

vet:
	$(GO) vet ./...

bench:
	$(GO) test -run NONE -bench . -benchtime 1x ./...

# Regenerate BENCH_$(SCENARIO).json (plus the profiler's text report on
# stdout). Override SCENARIO/REPORT_DIR to target other workloads.
bench-report:
	$(GO) run ./cmd/batchzk-profile -scenario $(SCENARIO) -out $(REPORT_DIR)

# Regenerate BENCH_scheduler.json: the batch prover measured under the
# 1/1/1/1 baseline, the §4 proportional split, and the elastic
# autobalanced split, plus the host-independent simulated contrast.
bench-sched:
	$(GO) run ./cmd/batchzk-bench sched -out $(REPORT_DIR)

# Regenerate BENCH_kernels.json: every hot kernel (Merkle, encoder,
# sum-check, NTT, PCS commit, batch inversion) timed serial vs parallel
# on the multicore runtime, with bit-identity asserted.
bench-kernels:
	$(GO) run ./cmd/batchzk-bench kernels -out $(REPORT_DIR)

# Regenerate BENCH_memory.json: a multi-wave soak through one batch
# prover under the background memory sampler, gating the flat-memory
# claim and recording per-job flight timelines, plus the streaming-prover
# sweep (8× batch under ProveStream + out-of-core commits, working set
# gated flat).
bench-mem:
	$(GO) run ./cmd/batchzk-bench mem -stream -out $(REPORT_DIR)

# Regenerate BENCH_service.json: the multi-tenant proving gateway under
# open-loop Poisson load with bursts, gating exactly-once accounting,
# the drain contract, batching occupancy, and per-tenant fairness.
bench-service:
	$(GO) run ./cmd/batchzk-bench service -out $(REPORT_DIR)

# Gate the working tree against the committed reports: regenerate into a
# temp dir and fail on any gated metric >10% worse. The scenario report,
# the scheduler report, the kernels report, the memory report, and the
# service report are all gated.
bench-check:
	@tmp=$$(mktemp -d) && \
	$(GO) run ./cmd/batchzk-profile -scenario $(SCENARIO) -out $$tmp >/dev/null && \
	$(GO) run ./cmd/batchzk-profile compare $(REPORT_DIR)/BENCH_$(SCENARIO).json $$tmp/BENCH_$(SCENARIO).json && \
	$(GO) run ./cmd/batchzk-bench sched -out $$tmp >/dev/null && \
	$(GO) run ./cmd/batchzk-profile compare $(REPORT_DIR)/BENCH_scheduler.json $$tmp/BENCH_scheduler.json && \
	$(GO) run ./cmd/batchzk-bench kernels -shift 12 -reps 1 -out $$tmp >/dev/null && \
	$(GO) run ./cmd/batchzk-profile compare $(REPORT_DIR)/BENCH_kernels.json $$tmp/BENCH_kernels.json && \
	$(GO) run ./cmd/batchzk-bench mem -stream -waves 4 -jobs 16 -out $$tmp >/dev/null && \
	$(GO) run ./cmd/batchzk-profile compare $(REPORT_DIR)/BENCH_memory.json $$tmp/BENCH_memory.json && \
	$(GO) run ./cmd/batchzk-bench service -jobs 8 -out $$tmp >/dev/null && \
	$(GO) run ./cmd/batchzk-profile compare $(REPORT_DIR)/BENCH_service.json $$tmp/BENCH_service.json; \
	status=$$?; rm -rf $$tmp; exit $$status

# Print the host-kernel roofline: serial ns/element for every hot kernel
# against the calibrated arithmetic floor, with per-kernel verdicts.
roofline:
	$(GO) run ./cmd/batchzk-profile roofline

# Short coverage-guided fuzz of the codec/derivation/verification
# surfaces (go test allows one -fuzz pattern per invocation, so one run
# per package). Seed corpora live in each package's testdata/fuzz.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzElementDecoding -fuzztime $(FUZZTIME) ./internal/field/
	$(GO) test -run '^$$' -fuzz FuzzFieldArith -fuzztime $(FUZZTIME) ./internal/field/
	$(GO) test -run '^$$' -fuzz FuzzWideAccumulate -fuzztime $(FUZZTIME) ./internal/field/
	$(GO) test -run '^$$' -fuzz FuzzFpArith -fuzztime $(FUZZTIME) ./internal/fp/
	$(GO) test -run '^$$' -fuzz FuzzChallengeDerivation -fuzztime $(FUZZTIME) ./internal/transcript/
	$(GO) test -run '^$$' -fuzz FuzzOpeningProofVerify -fuzztime $(FUZZTIME) ./internal/merkle/
	$(GO) test -run '^$$' -fuzz FuzzAgainstOracles -fuzztime $(FUZZTIME) ./internal/sha2/

# Aggregate gate: everything CI runs.
check: build vet test race
	$(GO) run ./cmd/batchzk-profile -scenario tiny -out $$(mktemp -d) >/dev/null
	@echo "check: ok"
