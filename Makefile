# climate-eflows — build/test/experiment targets

GO ?= go

.PHONY: all check fmt-check build vet test race race-exchange race-replica race-cluster race-pyramid vet-be soak-smoke bench bench-smoke bench-quick examples experiments chaos fuzz-short clean

all: build vet test

# tier-1 gate: everything a PR must keep green
check: fmt-check build vet test race soak-smoke

# gofmt gate: fails listing any file that is not gofmt-clean
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# focused race gate over the tensor-exchange handoff, weight hot-swap,
# online training and directory-watcher lifecycle — the concurrency-
# heavy paths; -count=1 defeats the test cache so CI always re-races
race-exchange:
	$(GO) test -race -count=1 -run 'Exchange|HotSwap|Online|SeededDeterminism|DirWatcher' \
		./internal/texchange/ ./internal/ml/ ./internal/core/ ./internal/stream/

# focused race gate over the replicated control plane: lease fencing,
# fair-share dispatch, shed taxonomy, replica kill/restart soak and the
# stateless HTTP frontends sharing one store
race-replica:
	$(GO) test -race -count=1 -run 'Lease|Fenc|Reclaim|Shed|FairShare|Starvation|WeightedShares|IdleTenant|Replica|Frontend|Journal' \
		./internal/execstore/ ./internal/hpcwaas/

# focused race gate over the sharded datacube cluster and its wire
# protocol: scatter/gather equivalence, replica kill mid-pipeline,
# heal/resync, typed wire errors, client poisoning, half-open breaker
race-cluster:
	$(GO) test -race -count=1 -run 'Cluster|Shard|Failover|Heal|WireError|Poison|Broken|ProtocolGarbage|HalfOpen|PlanReuse|Partial' \
		./internal/cubecluster/ ./internal/cubeserver/ ./internal/datacube/ ./internal/multisite/

# focused race gate over the resolution pyramid and its consumers: lazy
# tier builds under concurrent readers, tolerance-aware coarse-first
# plans, byte-budget demotion/re-promotion racing data ops, cluster
# tolerance equivalence
race-pyramid:
	$(GO) test -race -count=1 -run 'Pyramid|Tier|Toleran|Demot|Promot|Resident|Prescreen|Adopt|Interval' \
		./internal/datacube/ ./internal/cubeserver/ ./internal/cubecluster/ ./internal/indices/ ./internal/tctrack/

# the wire codec's big-endian path (the per-element float loops) must
# keep compiling: vet the package and build its tests for s390x. The
# tests are only built; running them needs a big-endian host or an
# emulator.
vet-be:
	GOARCH=s390x $(GO) vet ./internal/cubeserver/
	GOARCH=s390x $(GO) test -c -o /dev/null ./internal/cubeserver/

# short-mode replica soak in the tier-1 gate: one kill/reclaim cycle,
# exactly-once and byte-identical outputs still asserted
soak-smoke:
	$(GO) test -race -count=1 -short -run 'TestReplicaSoakKillRestart' ./internal/execstore/

# one benchmark per reproduced figure/claim (see EXPERIMENTS.md)
bench:
	$(GO) test -bench=. -benchmem .

# CI smoke: every benchmark runs once so the harnesses can't rot; no
# timing claims, just "still compiles and executes"
bench-smoke:
	$(GO) test -run '^$$' -bench=. -benchtime=1x . ./internal/datacube

# smoke test of the repository benchmark (bench/ is a module of its own,
# so `go test ./...` at the root does not run it): every workload at
# quick sizes, result shape checked against BENCHMARK.json, < 10 s
bench-quick:
	cd bench && $(GO) test ./...

# runnable demonstrations of the public API
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/heatwaves
	$(GO) run ./examples/cyclonetracking
	$(GO) run ./examples/hpcwaas
	$(GO) run ./examples/ensemble

# experiment drivers printing the paper-shape series
experiments:
	$(GO) run ./cmd/wfbench -exp all
	$(GO) run ./cmd/tcexperiment

# opt-in robustness soak: deterministic fault-injection suites under the
# race detector, then the end-to-end crash/resume driver (see DESIGN.md
# "Failure model & recovery")
chaos:
	$(GO) test -race -run 'Chaos|Injected|Retry|Timeout|Breaker|Corrupt|Torn' ./internal/chaos/ ./internal/compss/ ./internal/dls/ ./internal/multisite/ ./internal/execq/ ./internal/execstore/ ./internal/core/
	$(GO) run ./cmd/chaosrun
	$(GO) run ./cmd/chaosrun -mode replica

# opt-in short fuzz pass over the binary-format parsers and the
# tiered-plan equivalence harness
fuzz-short:
	$(GO) test -fuzz='^FuzzRead$$' -fuzztime=10s -run='^FuzzRead$$' ./internal/ncdf/
	$(GO) test -fuzz='^FuzzReadVarRange$$' -fuzztime=10s -run='^FuzzReadVarRange$$' ./internal/ncdf/
	$(GO) test -fuzz=FuzzCompile -fuzztime=10s -run=FuzzCompile ./internal/datacube/
	$(GO) test -fuzz=FuzzPlan -fuzztime=10s -run=FuzzPlan ./internal/datacube/
	$(GO) test -fuzz=FuzzRowKernel -fuzztime=10s -run=FuzzRowKernel ./internal/datacube/
	$(GO) test -fuzz=FuzzWireFrame -fuzztime=10s -run=FuzzWireFrame ./internal/cubeserver/

clean:
	$(GO) clean ./...
