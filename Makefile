GO ?= go

.PHONY: check build vet vet-benchmark lint escapegate tools test race bench bench-compare fmt tidy loc clean

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

## loc: tracked non-test Go lines outside benchmark/ and testdata — the
## number ROADMAP's "net non-test LOC goes down" is about. Tracked only,
## so bench-compare's .bench_build/base worktree is not counted twice.
loc:
	@git ls-files '*.go' ':!:*_test.go' ':!:benchmark/' ':!:*testdata/*' | xargs cat | wc -l

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
## (cohesion.TestSwarmChurnConvergence/N=500) that quick runs skip.
race:
	$(GO) test -race -count=1 ./...

## bench: compile and run every benchmark once (-benchtime=1x) so CI
## catches bench-only bit-rot without paying for real measurement runs.
## No benchmark consults testing.Short(), so -short would change nothing.
bench:
	$(GO) test -run=^$$ -bench=. -benchtime=1x ./...

## bench-compare: the performance gate. Runs benchmark/ at BASE (a git
## revision, required) and at the working tree, three alternated pairs
## at the default 10s window, and fails only on a REGRESSION row of
## `run.sh -compare`, which also exits 1 on "unresolved" (runs spread
## wider than the bound). An A/A run on a 2-vCPU host, identical code
## both sides, gave 0 REGRESSION, 5 unresolved and exit 1; at 2 pairs x
## 2s it reported a false +47% events_fanout p50_us REGRESSION. So the
## pair count and window are fixed. About 9 minutes on 2 vCPUs.
bench-compare:
	@test -n "$(BASE)" || { echo 'usage: make bench-compare BASE=<rev>' >&2; exit 2; }
	@set -e; out="$(CURDIR)/.bench_build/compare"; base=.bench_build/base; \
	git worktree remove --force $$base 2>/dev/null || true; rm -rf "$$out"; \
	git worktree add --detach $$base $(BASE); trap "git worktree remove --force $$base" EXIT; \
	for i in 1 2 3; do \
		bash $$base/benchmark/run.sh -reps 1 -seed $$i -out "$$out/base/$$i"; \
		bash benchmark/run.sh -reps 1 -seed $$i -out "$$out/head/$$i"; \
	done; \
	for side in base head; do jq -s '{runs:[.[].runs[]]}' "$$out/$$side"/*/set.json > "$$out/$$side.json"; done; \
	bash benchmark/run.sh -compare "$$out/base.json" "$$out/head.json" | tee "$$out/compare.txt"; \
	grep -q '^workload' "$$out/compare.txt"; ! grep -q REGRESSION "$$out/compare.txt"

## fmt: fail (listing offenders) if any file is not gofmt-clean.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

## tidy: fail if go.mod/go.sum would change under `go mod tidy`.
tidy:
	$(GO) mod tidy -diff

clean:
	$(GO) clean ./...
