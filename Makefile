# CI-style entry points. `make check` is the full gate: formatting, vet,
# build, tests — the tier-1 verify plus hygiene.

GO ?= go

# The kernel + end-to-end serving benchmarks `make bench` runs and records to
# BENCH_5.json: tensor kernels (fp32 and int8), the zero-allocation hot
# paths, the batched serving pairs (sequential vs batch at the same work per
# op), the fp32-vs-int8 serving pairs at default-model scale (SFTServe*,
# ICLServe*, KVCacheDecode*, MonitorServe*), the streaming-monitor pair
# (per-line vs chunked micro-batches on a 1k-line log), the quantization
# conversion itself (QuantizeInt8 also records fp32_B/int8_B model bytes),
# and the artifact startup story — StartupTrain vs StartupLoad is the same
# detector arriving by boot-time retraining vs `anomalyd -load`, and
# RegistrySwap is hot-swap latency (install + drain) under request load.
BENCH_PATTERN := MatMul128|MatMulBlockedTall|MatMulQ8Tall|AttentionForward|DecoderNextToken|KVCacheDecode|KVCacheDecodeInt8|EncodeBatch|SFTPredictSequential8|SFTPredictBatch8|SFTPredictBatch32|ICLClassifySequential8|ICLClassifyBatch8|SFTServeBatch8|SFTServeBatch8Int8|ICLServeBatch8|ICLServeBatch8Int8|QuantizeInt8|ServerCoalesced|Monitor|MonitorSequential|MonitorServe|MonitorServeInt8|MonitorServeCascadeOff|MonitorServeCascade|StartupTrain|StartupLoad|RegistrySwap
BENCH_OUT := BENCH_5.json

# The scenario suite `make bench-scenarios` records to BENCH_9.json: every
# traffic scenario (docs/SCENARIOS.md) replayed over HTTP against an
# in-process anomalyd, with the seed baselines (PCA, isolation forest, MLP
# autoencoder) scored on the same streams, plus cascade off/on paired rows
# (`-cascade ngram`): each non-chaos scenario replayed a second time with the
# calibrated stage-1 gate armed, recording lines/sec, verdict agreement, and
# pass fraction (docs/PERFORMANCE.md). loadlab-smoke and cascade-smoke are
# the seconds-scale CI subsets.
SCENARIO_OUT := BENCH_9.json

# The chaos suite `make bench-chaos` records to BENCH_7.json: every scenario
# replayed as its chaos variant (deterministic faults over the middle third
# of the schedule, docs/RELIABILITY.md) against an in-process server running
# with admission control, deadlines, and brownout degradation armed, driven
# through the retrying resilience client. Rows carry the failure taxonomy
# (err_timeout/err_shed/err_server/err_transport), server overload counters
# (server_shed/server_expired/server_degraded), and pre/during/post-window
# p99. chaos-smoke is the seconds-scale CI subset.
CHAOS_OUT := BENCH_7.json

# The replicated-serving suite `make bench-gateway` records to BENCH_10.json:
# every scenario replayed twice — once against a single in-process anomalyd,
# once against three replicas behind the anomalygw gateway (consistent-hash
# trace routing, health-checked ejection, hedged retries; docs/RELIABILITY.md)
# — as paired rows (`label` vs `label+gw`) carrying lines/sec, client p99,
# and the error rate, plus the monitor path both ways for steady (the fleet-
# merged flagged-trace counts must match the single node's). gateway-smoke is
# the seconds-scale CI subset.
GATEWAY_OUT := BENCH_10.json

.PHONY: check fmt vet build test lint bench-check fuzz-smoke bench bench-all bench-scenarios loadlab-smoke cascade-smoke bench-chaos chaos-smoke bench-gateway gateway-smoke

check: fmt vet build test lint bench-check

fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# vet's asmdecl pass is what checks internal/tensor/kernel_amd64.s and
# exp_amd64.s against the Go declarations in kernel_amd64.go: frame size,
# argument names, offsets and widths. Nothing else reads the assembly (reprolint sees only Go). The
# arm64 lines here and under build compile and vet the port without assembly
# kernels (kernel_noasm.go, the Go loops as the only path), which nothing
# else builds. The grep is the kernel contract's no-FMA rule as a gate: the
# bit pins would catch a fused multiply-add only on the shapes and CPUs they
# run on.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./internal/tensor
	@if grep -n -E 'VFN?M(ADD|SUB)' internal/tensor/*.s; then \
		echo "fused multiply-add (VFMADD, VFNMADD, VFMSUB, VFNMSUB) in internal/tensor assembly: it rounds once where the kernel contract (kernel.go) rounds twice, and would move every golden"; exit 1; \
	fi

build:
	$(GO) build ./...
	GOARCH=arm64 $(GO) build ./...

test:
	$(GO) test ./...

# lint runs reprolint, the repo's own go/analysis suite (internal/lint):
# determinism, hotalloc, locksafe, and ctxflow over every package. The
# binary is built once into bin/ and reused; see docs/STATIC_ANALYSIS.md
# for the analyzer catalog and the //lint:ignore suppression policy.
lint:
	@mkdir -p bin
	@$(GO) build -o bin/reprolint ./cmd/reprolint
	bin/reprolint ./...

# bench-check vets and tests the benchmark module. bench/ is its own module
# (`replace repro => ../`), so `go vet ./...` and `go test ./...` at the root
# never compile it: without this target a change to an exported tensor or
# serving symbol it uses would only surface when someone next ran the
# benchmark.
bench-check:
	$(GO) vet -C bench ./...
	$(GO) test -C bench ./...

# fuzz-smoke gives each native fuzz target a short budget — enough to catch
# parser regressions on the corpus frontier without CI-scale fuzzing time.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test ./internal/tokenizer -run '^$$' -fuzz '^FuzzLoad$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/faults -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/logparse -run '^$$' -fuzz '^FuzzParseSentence$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/logparse -run '^$$' -fuzz '^FuzzParseLogLine$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/logparse -run '^$$' -fuzz '^FuzzParseCSVRow$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzLoadDetector$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/tensor -run '^$$' -fuzz '^FuzzKernelsMatchReference$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/tensor -run '^$$' -fuzz '^FuzzElementwiseMatchReference$$' -fuzztime $(FUZZTIME)

# bench runs the kernel and serving benchmarks with allocation reporting and
# records ns/op, B/op, allocs/op to $(BENCH_OUT) — the repo's perf
# trajectory, one file per perf PR. bench-all is the full sweep including the
# per-artifact experiment benchmarks (slow, not recorded).
bench:
	@$(GO) test -run '^$$' -bench '^Benchmark($(BENCH_PATTERN))$$' -benchmem . > bench.out || { cat bench.out; rm -f bench.out; exit 1; }
	@cat bench.out
	@awk -v date="$$(date -u +%FT%TZ)" -f scripts/benchjson.awk bench.out > $(BENCH_OUT)
	@rm -f bench.out
	@echo "recorded $(BENCH_OUT)"

bench-all:
	$(GO) test -bench=. -benchmem

# bench-scenarios trains the reference detector in-process, replays all six
# scenarios (detect-batch path, plus the monitor path for steady), scores the
# seed baselines on the identical streams, replays each scenario again with
# the stage-1 cascade gate armed (paired +cascade rows), and records
# $(SCENARIO_OUT). Speed 50 keeps the gated replays compute-bound — at the
# default speed 10 the cascade runs finish inside the paced schedule and the
# recorded lines/sec clips at the arrival rate, understating the speedup.
# Recall 0.9999 is the identity-grade calibration: at the full 2000-event
# scale it holds trace flags bit-identical on all six scenarios, where the
# serving default 0.995 leaves a boundary trace flipping on two of them
# (docs/PERFORMANCE.md).
bench-scenarios:
	$(GO) run ./cmd/loadlab -speed 50 -cascade ngram -cascade-recall 0.9999 -out $(SCENARIO_OUT)
	@echo "recorded $(SCENARIO_OUT)"

# loadlab-smoke is the CI gate: a tiny detector, two scenarios, high speed —
# seconds, not minutes. The config matches the recorded loadlab-smoke-baseline.json
# baseline, so `scripts/benchdiff loadlab-smoke-baseline.json loadlab-smoke.json`
# diffs like for like (the deterministic columns — events, dedup_saved,
# baseline quality — should not move at all).
loadlab-smoke:
	$(GO) run ./cmd/loadlab -events 200 -speed 200 -train 150 -pretrain 60 -epochs 1 \
		-workflow predict-future-sales -seed 6 -scenarios steady,near-dup \
		-out loadlab-smoke.json

# cascade-smoke is the two-stage inference CI gate: the loadlab-smoke config
# replayed with the calibrated ngram gate armed, so every scenario lands as
# an off/on row pair carrying lines/sec, verdict agreement, and pass
# fraction. Diffs against the recorded cascade-smoke-baseline.json via
# `scripts/benchdiff cascade-smoke-baseline.json cascade-smoke.json`: the
# deterministic columns (events, agreement, pass fraction, trace flags)
# should not move at all; lines/sec moves with the runner.
cascade-smoke:
	$(GO) run ./cmd/loadlab -events 200 -speed 200 -train 400 -pretrain 120 -epochs 2 \
		-workflow 1000-genome -seed 9 -scenarios steady,near-dup -cascade ngram \
		-out cascade-smoke.json
	scripts/benchdiff cascade-smoke-baseline.json cascade-smoke.json

# bench-chaos replays every scenario as its chaos variant with the full
# overload stack on. Speed 2 keeps each scenario's fault window hundreds of
# milliseconds wide — heavy compression would shrink it below arrival jitter
# and the campaign would never fire. The 20ms brownout hold matches the
# compressed timescale: bursts that would saturate a production queue for
# seconds last tens of milliseconds here, so the default 250ms hold would
# never see sustained saturation and the degraded tier would never engage.
bench-chaos:
	$(GO) run ./cmd/loadlab -chaos -retries -shed-depth 64 -brownout 48 -brownout-hold 20ms \
		-deadline-ms 500 -speed 2 -monitor none -baselines none -out $(CHAOS_OUT)
	@echo "recorded $(CHAOS_OUT)"

# chaos-smoke is the CI gate: one chaos scenario, tiny detector, real-time
# schedule (~0.5s) — seconds end to end. Diffs against the recorded
# chaos-smoke-baseline.json: deterministic columns (events, requests,
# faults_injected) should not move; latency and shed columns move with the
# runner.
chaos-smoke:
	$(GO) run ./cmd/loadlab -events 200 -speed 1 -train 150 -pretrain 60 -epochs 1 \
		-workflow predict-future-sales -seed 6 -scenarios chaos-steady -monitor none -baselines none \
		-shed-depth 64 -brownout 48 -deadline-ms 500 -retries \
		-out chaos-smoke.json

# bench-gateway replays every scenario single-node vs a 3-replica gateway
# fleet (paired rows into $(GATEWAY_OUT)). Speed 2 keeps the open-loop
# arrival rate near fleet capacity: the gateway ejects saturated replicas
# (503 /readyz) and sheds at the boundary, so an over-saturating schedule —
# where the single node merely queues — would record mostly-429 gateway rows
# and shed-inflated lines/sec instead of a like-for-like comparison at a
# near-zero error budget.
bench-gateway:
	$(GO) run ./cmd/loadlab -speed 2 -gateway 3 -baselines none -out $(GATEWAY_OUT)
	@echo "recorded $(GATEWAY_OUT)"

# gateway-smoke is the replicated-serving CI gate: the loadlab-smoke config
# with three replicas behind the gateway, paired single-node vs +gw rows in
# seconds. Diffs against the recorded gateway-smoke-baseline.json via
# scripts/benchdiff: deterministic columns (events, requests, replicas, the
# monitor path's alerts and flagged traces) should not move; lines/sec and
# latency move with the runner.
gateway-smoke:
	$(GO) run ./cmd/loadlab -events 200 -speed 200 -train 150 -pretrain 60 -epochs 1 \
		-workflow predict-future-sales -seed 6 -scenarios steady,near-dup -gateway 3 \
		-baselines none -out gateway-smoke.json
	scripts/benchdiff gateway-smoke-baseline.json gateway-smoke.json
