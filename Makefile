# CI-style entry points. `make check` is the full gate: formatting, vet,
# build, tests — the tier-1 verify plus hygiene — then reprolint and the
# bench/ module's own vet and unit tests. The smoke-scale replays (plain,
# cascade, chaos, gateway, gateway-kill) are TestRunSmoke's five rows in
# cmd/loadlab, so
# `test` runs them; timed measurement is bench/run.sh (bench/README.md).

GO ?= go

.PHONY: check fmt vet build test lint bench-check fuzz-smoke

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
	$(GO) test ./internal/tokenizer -run '^$$' -fuzz '^FuzzTokenizeMatchesReference$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/metrics -run '^$$' -fuzz '^FuzzPromWriterLabels$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/tensor -run '^$$' -fuzz '^FuzzKernelsMatchReference$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/tensor -run '^$$' -fuzz '^FuzzElementwiseMatchReference$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/tensor -run '^$$' -fuzz '^FuzzMatMulQ8MatchesReference$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/transformer -run '^$$' -fuzz '^FuzzSharedForward$$' -fuzztime $(FUZZTIME)
