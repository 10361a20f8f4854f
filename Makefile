# Standard loops for the alfnet reproduction. Everything is pure Go
# stdlib; no tags, no generated code.

GO ?= go

.PHONY: build test race vet lint inline-check bench bench-json bench-flows bench-dtn bench-crypto fuzz soak soak-dtn soak-udp alloc-guard check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The packages with real concurrency: the metrics registry is meant to
# be hit from multiple goroutines, parallel hosts the worker-pool
# dispatch experiment, buf's refcounts are atomic by contract, and the
# sharded endpoint (core + sim.Group + the experiments flow-scale
# sweep) drains per-shard schedulers from a worker pool — its
# determinism and near-linear-scaling tests must hold under -race.
# telemetry rides along: the flight recorder samples the same registry
# the workers write, and its barrier-sampled FlowScale determinism
# test is part of the experiments run.
race:
	$(GO) test -race ./internal/metrics ./internal/core ./internal/otp ./internal/parallel ./internal/buf ./internal/netsim ./internal/sim ./internal/telemetry ./internal/udplink
	$(GO) test -race -run 'FlowScale' ./internal/experiments

vet:
	$(GO) vet ./...

# Benchmarks across the whole tree (kernels, endpoints, tracer,
# registry). -run '^$' keeps the regular tests out of the timing run.
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# Archive today's benchmark numbers as JSON (op, ns/op, allocs) for
# cross-commit diffing: writes BENCH_<date>.json in the repo root.
BENCH_DATE := $(shell date +%Y-%m-%d)
bench-json:
	$(GO) test -run '^$$' -bench . -benchmem ./... | $(GO) run ./cmd/benchjson -o BENCH_$(BENCH_DATE).json

# Archive the §7 flow-scaling curve (BenchmarkFlowScale at 1/2/4/8
# workers; 64 Ki flows per point) as BENCH_0006.json. The headline
# vMb/s figures are virtual-time throughput — deterministic for the
# seed, so the file diffs clean across hosts. docs/SCALING.md explains
# how to read it. `alfbench -flows N -workers W` runs the same
# experiment at arbitrary scale (the acceptance run is -flows 1000000).
bench-flows:
	$(GO) test -run '^$$' -bench 'FlowScale' -benchtime 1x -benchmem . | $(GO) run ./cmd/benchjson -o BENCH_0006.json

# Native fuzzers over the wire formats: the endpoints' packet handlers,
# the codec's parse/encode round trip over every layout, the packet
# printer, and a custody relay's ingress from both directions (no
# panic, store never past StorageLimit). The budget is deliberately small so check stays fast; raise
# FUZZTIME for a real session.
FUZZTIME ?= 5s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzHandlePacket$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzHandleControl$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzHandleCustody$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzWireRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzDescribe$$' -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzRelayIngress$$' -fuzztime $(FUZZTIME) ./internal/relay

# One seeded chaos pass: every scenario x policy plus the blackout
# shed/report assertions, and the overload family (closed-loop passes,
# fixed-rate collapses, both reproducible from fixed seeds — the
# TestDeterminism/TestOverloadDeterminism assertions), deterministic
# for the checked-in seeds. With SOAK_FLIGHTREC_DIR set, a failing
# headline run leaves its flight-recorder black-box JSON there (CI
# uploads the directory as an artifact on failure).
soak:
	$(GO) test -run 'TestScenarioMatrix|TestBlackoutShedsAndReports|TestDeterminism|TestOverloadClosedLoopNoCollapse|TestOverloadFixedRateCollapses|TestOverloadDeterminism' -v ./internal/faults/soak

# The DTN family: hours of virtual blackout on an 8-minute-one-way
# path, custody relays + the model-based rate controller versus the
# end-to-end baseline. Virtual-clock, deterministic, seed-swept — the
# whole multi-hour soak runs in about a second of wall time. Honors
# SOAK_FLIGHTREC_DIR like `make soak`.
soak-dtn:
	$(GO) test -count=1 -run 'TestDTN' -v ./internal/faults/soak

# The real-socket soak: authenticated ADU transfer across kernel
# loopback UDP with deterministic send-side drops, checked through the
# same internal/invariant ledger and quiescence check as `make soak`
# (exactly once, intact, drained; here every ADU must arrive) — plus
# the plain link round-trip and lossy-conn determinism checks.
soak-udp:
	$(GO) test -count=1 -v ./internal/udplink

# Archive the DTN contrast (custody vs end-to-end over three seeds) as
# BENCH_0007.json in the repo root.
bench-dtn:
	$(GO) run ./cmd/alfchaos -dtn -all -json BENCH_0007.json

# Archive the crypto-plane numbers as BENCH_0008.json: the fused vs
# staged ChaCha20-Poly1305 kernels across payload sizes (internal/ilp,
# the headline is fused/staged >= 1.3x at 1 KiB), the cipher
# primitives, the end-to-end suite contrast (SendSteadyState cleartext
# vs scramble vs AEAD, all 0 allocs/op), and goodput over real
# loopback UDP sockets. -benchtime 1s keeps the numbers steady enough
# to diff across commits on a shared machine.
bench-crypto:
	$(GO) test -run '^$$' -bench 'AEAD|ChaCha20Block|XORKeyStream4KB|Poly1305_4KB|SendSteadyState|UDPLoopback' -benchtime 1s -benchmem \
		./internal/ilp ./internal/cipher ./internal/core ./internal/udplink \
		| $(GO) run ./cmd/benchjson -o BENCH_0008.json

# Static analysis beyond vet. staticcheck is not vendored; the target
# no-ops with a notice where the binary is absent (CI installs it).
lint: vet inline-check
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

# The disabled tracer's budget (TestDisabledTracerOverhead) rests on
# every exported (*Tracer) hook in tracing.go inlining its nil check
# into the call site. Hold that by structure: fail when the compiler's
# -m report does not list a hook as inlinable, whatever the host timing.
inline-check:
	@hooks=$$(sed -n 's/^func (t \*Tracer) \([A-Z][A-Za-z0-9]*\)(.*/\1/p' internal/tracing/tracing.go); \
	inl=$$($(GO) build -gcflags=-m ./internal/tracing 2>&1 | sed -n 's/^.*tracing\.go:.*: can inline (\*Tracer)\.\([A-Za-z0-9]*\)$$/\1/p'); \
	[ -n "$$hooks" ] || { echo "inline-check: no (*Tracer) hooks found"; exit 1; }; \
	bad=0; for h in $$hooks; do \
		echo "$$inl" | grep -qx "$$h" || { echo "inline-check: (*Tracer).$$h is not inlinable"; bad=1; }; \
	done; \
	[ $$bad -eq 0 ] && echo "inline-check: $$(echo $$hooks | wc -w) tracer hooks inline"; exit $$bad

# Allocation-regression gate: the steady-state datapath
# (send -> forward -> deliver, plus the FEC paths) must run at
# 0 allocs/op. The tests assert testing.AllocsPerRun == 0; the bench
# run reports the same numbers with -benchmem for the log.
alloc-guard:
	$(GO) test -count=1 -run 'ZeroAlloc' -v ./internal/core
	$(GO) test -run '^$$' -bench 'SendSteadyState|ReceivePath|FECSender|FECRepair|NetsimForward' -benchmem ./internal/core ./internal/netsim

check: build vet test race fuzz soak soak-dtn soak-udp alloc-guard
