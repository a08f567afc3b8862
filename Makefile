# Development targets. `make check` is the gate every change must pass: it
# includes a gofmt cleanliness check, a cross-architecture vet, a second run
# of the kernel-facing packages on the AVX2 tiers and a race-detector run over
# the packages that share the GEMM worker pool and the compiled forward plans
# (each inference state runs them in its own arena).

GO ?= go

# Per-fuzzer budget for the `fuzz` smoke target.
FUZZTIME ?= 15s

# internal/tensor benchmarks the bench targets run: the GEMM kernels alone
# (the INT8 quad kernels also on hot L1 panels, in dots/ns: their issue
# rate) and the whole stages around them (pack from the image + GEMM +
# epilogue — the stem and the paper net's three 3×3 expand sizes — the first
# FP32 max pool alone, and each engine's stem with that pool fused behind
# it; the INT8 stem reads RGBA bytes, the INT8 3×3 expand the squeeze's
# quad planes), and the paper
# net's first INT8 fire whole (quad planes in, the squeeze, both expands
# into the concatenated output's quad planes); and the INT8 byte passes
# around the kernels alone: the stem's input rows, panel pack and pooled
# write-out on one 224 frame, and a 64-channel requantization into quads.
TENSOR_BENCH = BenchmarkGemm|BenchmarkQGemm|BenchmarkQKernelTile|BenchmarkConvStem224|BenchmarkConvStemPool224|BenchmarkConvStemPool224Opaque|BenchmarkConvStemPool224Badge|BenchmarkConvExpand3x3_55|BenchmarkConvExpand3x3_27|BenchmarkConvExpand3x3_13|BenchmarkMaxPool112x96|BenchmarkConvStemU8_224|BenchmarkConvStemPoolU8_224|BenchmarkConvExpand3x3U8_13|BenchmarkQFire55|BenchmarkQStemParts|BenchmarkRequantQuads

.PHONY: check fmt vet build test test-avx2 race fuzz chaos bench bench-infer bench-check profile loc surface

check: fmt vet build test test-avx2 race

# Fail on unformatted files so the assembly-adjacent Go stays tidy in CI.
fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# The second pass vets the packages with per-architecture files as arm64
# sees them, so an assembly helper added without its qgemm_noasm.go /
# gemm_noasm.go stub fails here rather than on someone's non-amd64 build.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./internal/tensor/ ./internal/nn/

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Both engines on their AVX2 tiers on hosts whose default is AVX-512
# (PERCIVAL_NO_AVX512 switches off every 512-bit kernel: FP32's 8×32 and
# INT8's VNNI 8×32), so the differential, golden (the one FP32 logit golden
# must hold on every FMA tier, as each computes every product element as one
# k-ordered FMA chain; the INT8 golden files keep an entry per FP32 tier,
# now equal) and warm-state suites — imaging's, whose
# scaler runs tensor's row kernels, and core's, whose INT8 boot calibrates on
# the FP32 net and gates on the calibration pass's scores — and the golden
# pages' blocked sets on both engines (integration's verdict-set pin) cover
# the tier an operator can select, not only the one the host detects.
# On an AVX2-only host it repeats part of `test`. -count=1 because the
# variable is read in a package initialiser, before the test cache starts
# recording what a run depended on: without it `go test` would hand this
# target the default tier's cached result, and hand `test` this one's.
test-avx2:
	PERCIVAL_NO_AVX512=1 $(GO) test -count=1 ./internal/tensor/ ./internal/nn/ ./internal/engine/ ./internal/imaging/ ./internal/core/
	PERCIVAL_NO_AVX512=1 $(GO) test -count=1 -run TestGoldenRenderBlockedSets ./internal/integration/

# The browser run is the real raster pipeline driving one backend from
# several raster workers, synchronously and through the serving stack; the
# daemon package drives serve's shard loops over HTTP and the wire.
race:
	$(GO) test -race ./internal/tensor/... ./internal/imaging/... ./internal/nn/... ./internal/engine/... ./internal/core/... ./internal/serve/... ./internal/faultinject/... ./internal/metrics/... ./cmd/percival-serve/
	$(GO) test -race -run 'TestInspector|TestAsyncServe' ./internal/browser/

# Native Go fuzzing smoke pass, eleven fuzzers: the nine decoders that face
# untrusted input (EasyList rules, HTML, the persistent-socket wire framing,
# the batch-endpoint request body (engine.BatchHandler, which bench/ mounts),
# the admin control-plane request bodies, model files, the daemon's /classify
# body, -cache-file verdict snapshots, and encoded images through
# imaging.Decode, held to its per-pixel oracle), the INT8 engine's 3×3/2
# pool kernel (poolI32K3S2, which every paper-net pool runs) held to the
# separable pool on fuzzed accumulators, and the panel copy every
# convolution packs through (copyTaps) held to the Go copy loop.
# Each fuzzer runs for FUZZTIME; crashers are written to the package's
# testdata/fuzz corpus and reproduced by `go test`.
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/easylist
	$(GO) test -run=NONE -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/dom
	$(GO) test -run=NONE -fuzz=FuzzWireMsg -fuzztime=$(FUZZTIME) ./internal/engine
	$(GO) test -run=NONE -fuzz=FuzzBatchFrames -fuzztime=$(FUZZTIME) ./internal/engine
	$(GO) test -run=NONE -fuzz=FuzzAdminRequest -fuzztime=$(FUZZTIME) ./internal/engine
	$(GO) test -run=NONE -fuzz=FuzzRestoreCache -fuzztime=$(FUZZTIME) ./internal/engine
	$(GO) test -run=NONE -fuzz=FuzzLoad -fuzztime=$(FUZZTIME) ./internal/nn
	$(GO) test -run=NONE -fuzz=FuzzDecodeFrame -fuzztime=$(FUZZTIME) ./cmd/percival-serve
	$(GO) test -run=NONE -fuzz=FuzzDecode -fuzztime=$(FUZZTIME) ./internal/imaging
	$(GO) test -run=NONE -fuzz=FuzzPoolI32K3S2 -fuzztime=$(FUZZTIME) ./internal/tensor
	$(GO) test -run=NONE -fuzz=FuzzCopyTaps -fuzztime=$(FUZZTIME) ./internal/tensor

# Fault-injection smoke: drives the fleet supervisor (eviction, redial,
# hedging, local fallback) and the daemon's serving edge through flapping /
# blackholed / slow peers, under the race detector. Tests opt in by carrying
# the Chaos name prefix; the faultinject package's own tests ride along.
# The suite takes about 10 s under -race on 2 vCPUs; -timeout 5m makes a
# hang fail in minutes rather than at go test's 10-minute default.
chaos:
	$(GO) test -race -timeout 5m -run Chaos -count=1 -v ./internal/engine/ ./cmd/percival-serve/
	$(GO) test -race -timeout 5m -count=1 ./internal/faultinject/

# The repo benchmark (BENCHMARK.json + bench/): every workload once, 10 s
# each at seed 1; each run prints its summary and one JSON result line.
# Nothing is written at the root; bench/README.md documents the fields and
# the noise rule.
BENCH_WORKLOADS = serve_rotation remote_wire serve_unique serve_unique_int8 page_render_async page_render_sync
bench:
	@for w in $(BENCH_WORKLOADS); do \
		bash bench/run.sh --workload $$w --seed 1 --seconds 10 || exit 1; \
	done

# Just the inference-latency trajectory (see PERFORMANCE.md): the forward
# pass, a whole backend call on each engine (resize, input conversion,
# forward), the two serving paths on which the model is idle (a Submit
# answered by serve's cache, and one answered by a warm wire peer's), the
# base page render the paper's overhead divides by, and the scaler on the
# bench's creative sizes.
bench-infer:
	$(GO) test -run=NONE -bench='BenchmarkInferSingle|BenchmarkInferBatch|BenchmarkWarm16|BenchmarkEngineInfer|BenchmarkQuantizeSetup32|BenchmarkServeCacheHit|BenchmarkServeWireWarm|BenchmarkRenderPage' -benchmem .
	$(GO) test -run=NONE -bench='$(TENSOR_BENCH)' -benchtime=1s ./internal/tensor/
	$(GO) test -run=NONE -bench='BenchmarkResizeBilinearInto|BenchmarkResizeBilinearBenchSizes' -benchmem ./internal/imaging/

# bench/ is a module of its own, so `go vet ./...` and `go test ./...` at the
# root never see it: vet it and run its short tests from inside.
bench-check:
	cd bench && $(GO) vet . && $(GO) test -short .

# Where one frame goes: `pprof -top`, by flat time and then by cumulative
# time, of nine one-P benchmarks. InferSingle / InferSingleInt8 are the
# forward pass on each engine — the per-function attribution PERFORMANCE.md
# tabulates (its tables quote the cumulative view). EngineInferFP32 /
# EngineInferInt8 are a whole backend call on a decoded frame (resize, input
# conversion, forward): a forward-only profile cannot show pre-processing.
# ServeCacheHit / ServeWireWarm are a whole Submit on the two paths where the
# model is idle, so what a frame costs outside the model (content hash,
# cache, batcher, fleet dispatch, wire round trip) has a profile too: a
# forward-pass profile cannot show a frame being hashed twice. RenderPage is
# the base page render with no model at all (parse, layout, decode, raster,
# plus the simulation's drawing and encoding of the creatives): the base the
# paper's overhead percentage divides by. ConvStemPoolU8_224 (internal/tensor)
# is the INT8 stem with pool1 alone, so its byte passes and kernel have a
# flat profile of their own; ConvStemPool224Opaque is the FP32 stem with
# pool1 on an opaque frame, every column block starting from the alpha
# prefix (the seed copy shows as memmove under alphaSeeds.prefill). Each entry is package:benchmark:benchtime; the
# test binaries and the profiles land in PROFILE_DIR.
PROFILE_DIR ?= .bench_build/profile
PROFILE_BENCH = .:InferSingle:300x .:InferSingleInt8:300x .:EngineInferFP32:300x .:EngineInferInt8:1500x \
	.:ServeCacheHit:10000x .:ServeWireWarm:10000x .:RenderPage:120x ./internal/tensor/:ConvStemPoolU8_224:3000x \
	./internal/tensor/:ConvStemPool224Opaque:600x
profile:
	@mkdir -p $(PROFILE_DIR)
	@for b in $(PROFILE_BENCH); do \
		pkg=$${b%%:*}; rest=$${b#*:}; name=$${rest%:*}; \
		GOMAXPROCS=1 $(GO) test -run=NONE -bench="Benchmark$$name\$$" -benchtime=$${rest#*:} \
			-o $(PROFILE_DIR)/$$name.test -cpuprofile $(PROFILE_DIR)/$$name.prof $$pkg || exit 1; \
		$(GO) tool pprof -top -nodecount=16 $(PROFILE_DIR)/$$name.test $(PROFILE_DIR)/$$name.prof || exit 1; \
		$(GO) tool pprof -top -cum -nodecount=24 $(PROFILE_DIR)/$$name.test $(PROFILE_DIR)/$$name.prof || exit 1; \
	done

# Size of the serving stack, for ROADMAP item 3 and any change that claims to
# shrink it: non-test Go lines of the daemon's three packages (engine + serve
# + daemon = the tracked count), of internal/tensor and of internal/nn (the
# INT8 engine is split across those two), the hand-written assembly of every
# package that has some (its .s lines), and the number of flags the daemon
# defines.
LOC_TRACKED = internal/engine internal/serve cmd/percival-serve
loc:
	@gocount() { cat $$(ls $$1/*.go | grep -v '_test\.go$$') | wc -l; }; \
	total=0; for d in $(LOC_TRACKED); do \
		n=$$(gocount $$d); total=$$((total + n)); \
		printf '%-20s %6d\n' $$d $$n; \
	done; \
	printf '%-20s %6d\n' tracked $$total; \
	printf '%-20s %6d\n' internal/tensor $$(gocount internal/tensor); \
	printf '%-20s %6d\n' internal/nn $$(gocount internal/nn); \
	for d in $$(ls internal/*/*.s | xargs -n1 dirname | sort -u); do \
		printf '%-20s %6d\n' "$$d .s" $$(cat $$d/*.s | wc -l); \
	done; \
	printf '%-20s %6d\n' daemon-flags $$(cat $$(ls cmd/percival-serve/*.go | grep -v '_test\.go$$') | \
		grep -cE '\bflag\.(Bool|Int|Int64|Uint|Uint64|String|Float64|Duration|Func|BoolFunc|TextVar|Var)(Var)?\(')

# The code each binary links (ROADMAP item 19): every cmd/*, every
# examples/* and bench, built with inlining off (-gcflags=all=-l, so no
# function hides inside its caller) into a temporary directory and read with
# `go tool nm`. Prints each binary's count of linked percival/internal
# functions, and fails if the serving daemon links the trainer (any
# Backward, TrainStep, the SGD optimizer), the training-set package or the
# /classify/batch codec: the daemon serves a model file, it never trains,
# and it does not mount the batch endpoint. Twelve builds, so it is a CI
# step of its own rather than part of `check`.
SURFACE_FORBIDDEN = Backward|TrainStep|nn\.\(\*SGD\)|percival/internal/dataset\.|engine\.decodeFrames|engine\.BatchHandler
surface:
	@dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	for p in cmd/* examples/*; do \
		$(GO) build -gcflags=all=-l -o "$$dir/$${p#*/}" ./$$p || exit 1; \
	done; \
	(cd bench && $(GO) build -gcflags=all=-l -o "$$dir/bench" .) || exit 1; \
	linked() { $(GO) tool nm "$$1" | awk '$$2 ~ /^[Tt]$$/ && $$3 ~ /^percival\/internal\// { print $$3 }'; }; \
	for b in "$$dir"/*; do \
		printf '%-20s %6d\n' "$${b##*/}" $$(linked "$$b" | wc -l); \
	done; \
	bad=$$(linked "$$dir/percival-serve" | grep -E '$(SURFACE_FORBIDDEN)'); \
	if [ -n "$$bad" ]; then \
		echo "percival-serve links training or batch-endpoint code:"; echo "$$bad"; exit 1; \
	fi
