GO ?= go

.PHONY: check build vet vet-benchmark lint escapegate tools test race bench bench-json bench-json-8 fmt tidy loc clean

## check: the full tier-1 gate — what CI runs on every push/PR.
check: fmt tidy build vet vet-benchmark lint escapegate race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

## vet-benchmark: benchmark/ is a module of its own (replace corbalc =>
## ../), so `go build ./...` and `go vet ./...` above never compile it;
## this is what notices an internal API change that breaks it.
vet-benchmark:
	cd benchmark && $(GO) vet ./...

## loc: non-test Go lines outside benchmark/ and testdata — the number
## ROADMAP's "net non-test LOC goes down" is about.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -not -path '*/testdata/*' | xargs cat | wc -l

## tools: build the repo's own gate binaries once into bin/ — repeated
## `go run` invocations re-link on every call, which doubles the wall
## time of `make check`.
tools:
	$(GO) build -o bin/ ./cmd/corbalc-lint ./cmd/corbalc-escapegate

## lint: the CORBA-LC invariant suite (lockdiscipline, cdralign,
## errpropagation, ctxtimeout, poolreturn, goroutinelifetime,
## atomicfield, lockorder).
lint: tools
	./bin/corbalc-lint ./...

## escapegate: compare the compiler's escape analysis of the invocation
## hot path against the checked-in ESCAPES.json baseline; any new heap
## escape fails the gate. Regenerate deliberately with
## `go run ./cmd/corbalc-escapegate -update`.
escapegate: tools
	./bin/corbalc-escapegate

test:
	$(GO) test ./...

## race: the full suite under the race detector. Runs without -short,
## so it includes the 500-node delta-gossip swarm smoke test
## (cohesion.TestSwarmChurnConvergence) that quick runs skip.
race:
	$(GO) test -race -count=1 ./...

## bench: compile and run every benchmark once (-benchtime=1x) so CI
## catches bench-only bit-rot without paying for real measurement runs.
## -short skips the thousand-node E12 swarm rows — those are a
## measurement run, paid for in bench-json where they are gated.
bench:
	$(GO) test -short -run=^$$ -bench=. -benchtime=1x ./...

## bench-json: run the hot-path benchmark suite with -benchmem, render
## BENCH_5.json, and enforce the perf budgets (DESIGN.md §9/§10).
## Ceilings: a collocated null call stays under 20 allocs (pre-pooling
## it was 36); the vectored write and pooled read paths stay at zero; a
## TCP round trip stays at 2 allocs or fewer (the original budget was
## 37; the scratch-pooled call-ID + pooled cancel-context pipeline now
## measures 0). Floors: concurrent TCP throughput
## at C=64 must not regress more than 20% below the value recorded in
## BENCH_5.json (262k calls/s at recording time, floor 210k).
## Micro benchmarks use -benchtime=1000x so pool warm-up amortises
## away; throughput benchmarks need wall-clock (-benchtime=1s) for a
## stable calls/s; the E1/E3 experiments run once (they are
## whole-testbed simulations).
## The event-fabric fan-out gate renders BENCH_6.json: delivered
## events/s across 10k subscribers must stay above 100k (DESIGN.md
## §12; 6.1M at recording time).
## The swarm gate renders BENCH_7.json: the 1000-node E12 run (DESIGN.md
## §13) must heal a 5% churn within 45s (6.8s at recording time on two
## vCPUs, 15.8s on one — the push repair hints cut the old 22s
## anti-entropy tail, so the ceiling came down from 90s with it) and
## keep churn-window control bandwidth under 30K B/node/s (12.4K
## recorded).
## The web-gateway gate renders BENCH_9.json (DESIGN.md §15): against a
## backend with 15ms service time, uncached RPS at C=64 is bounded by
## the IIOP dispatch worker pool (32/15ms ≈ 2.1k; 2.0k recorded, floor
## 1200) and the cached path must clear 3x that (≈10x recorded);
## allocs/op stay under 200 uncached / 170 cached (136/115 recorded —
## the whole HTTP request/response cycle included).
bench-json:
	@{ \
	$(GO) test -run='^$$' -bench='E1_Invocation|E3_SoftVsStrongConsistency' -benchtime=1x -benchmem . && \
	$(GO) test -run='^$$' -bench='LocalNullInvoke|LocalEchoString' -benchtime=1000x -benchmem ./internal/orb && \
	$(GO) test -run='^$$' -bench='GIOPWriteMessage|GIOPReadMessagePooled' -benchtime=1000x -benchmem ./internal/giop && \
	$(GO) test -run='^$$' -bench='ChannelCall|TCPRoundTrip' -benchtime=1000x -benchmem ./internal/iiop && \
	$(GO) test -run='^$$' -bench='ConcurrentTCPThroughput' -benchtime=1s -benchmem ./internal/iiop && \
	$(GO) test -run='^$$' -bench='ConcurrentSimnetThroughput' -benchtime=1s -benchmem ./internal/simnet ; \
	} | $(GO) run ./cmd/corbalc-benchgate -json BENCH_5.json \
		-max BenchmarkLocalNullInvoke=20 \
		-max BenchmarkGIOPWriteMessage=0 \
		-max BenchmarkGIOPReadMessagePooled=0 \
		-max BenchmarkTCPRoundTrip=2 \
		-max 'BenchmarkConcurrentTCPThroughput/C=64=10' \
		-min 'BenchmarkConcurrentTCPThroughput/C=64:calls/s=210000'
	@$(GO) test -run='^$$' -bench='EventFanout' -benchtime=1s -benchmem ./internal/events \
	| $(GO) run ./cmd/corbalc-benchgate -json BENCH_6.json \
		-max 'BenchmarkEventFanout/subs=10000=0' \
		-min 'BenchmarkEventFanout/subs=10000:events/s=100000'
	@$(GO) test -run='^$$' -bench='E12_Swarm' -benchtime=1x -timeout 30m . \
	| $(GO) run ./cmd/corbalc-benchgate -json BENCH_7.json \
		-max 'BenchmarkE12_Swarm/N=1000:heal-ms=45000' \
		-max 'BenchmarkE12_Swarm/N=1000:B/node/s=30000'
	@$(GO) test -run='^$$' -bench='GatewayRPS' -benchtime=1s -benchmem ./internal/gateway \
	| $(GO) run ./cmd/corbalc-benchgate -json BENCH_9.json \
		-max 'BenchmarkGatewayRPS/uncached/C=64=200' \
		-max 'BenchmarkGatewayRPS/cached/C=64=170' \
		-min 'BenchmarkGatewayRPS/uncached/C=64:rps=1200' \
		-minratio 'BenchmarkGatewayRPS/cached/C=64,BenchmarkGatewayRPS/uncached/C=64:rps=3'

## bench-json-8: the multi-core scaling gate (DESIGN.md §14). Sweeps
## the full TCP invocation path across GOMAXPROCS 1,2,4,8 and renders
## BENCH_8.json. Alloc ceilings apply everywhere (the sharded hot path
## stays at 0 allocs/op regardless of core count; budget 2 leaves
## headroom for scheduler noise). The throughput floors — an absolute
## 500k calls/s at 4 procs / C=64 and a 4-vs-1-proc scaling ratio of
## at least 2.5x — only mean something on real cores, so they are
## skipped on hosts with fewer than 4 CPUs (the dev container has 1;
## CI's ubuntu-latest has 4 and enforces them).
bench-json-8:
	@floors=""; \
	if [ "$$(nproc)" -ge 4 ]; then \
		floors="-min BenchmarkConcurrentTCPThroughput/C=64/cpu=4:calls/s=500000"; \
		floors="$$floors -minratio BenchmarkConcurrentTCPThroughput/C=64/cpu=4,BenchmarkConcurrentTCPThroughput/C=64/cpu=1:calls/s=2.5"; \
		floors="$$floors -minratio BenchmarkParallelDispatch/cpu=4,BenchmarkParallelDispatch/cpu=1:calls/s=2.5"; \
	else \
		echo "bench-json-8: $$(nproc) CPU(s) < 4 — recording scaling curve without multi-core floors"; \
	fi; \
	{ \
	$(GO) test -run='^$$' -bench='ParallelDispatch' -cpu 1,2,4,8 -benchtime=1s -benchmem ./internal/iiop && \
	$(GO) test -run='^$$' -bench='ConcurrentTCPThroughput/C=64$$' -cpu 1,2,4,8 -benchtime=1s -benchmem ./internal/iiop ; \
	} | $(GO) run ./cmd/corbalc-benchgate -json BENCH_8.json \
		-max 'BenchmarkParallelDispatch/cpu=4=2' \
		-max 'BenchmarkConcurrentTCPThroughput/C=64/cpu=4=2' \
		$$floors

## fmt: fail (listing offenders) if any file is not gofmt-clean.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

## tidy: fail if go.mod/go.sum would change under `go mod tidy`.
tidy:
	$(GO) mod tidy -diff

clean:
	$(GO) clean ./...
