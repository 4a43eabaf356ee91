#!/bin/sh
# Tier-1 verification: build, vet, full test suite, and a race-detector
# pass over the concurrency-sensitive packages — the control plane, the
# coroutine-based simulation kernel, the device library, and the parallel
# experiment harness (forced onto the multi-worker path via GOMAXPROCS).
set -ex
# named: a `go test -run LIST` pass that cannot turn into a no-op. Every
# |-separated name in LIST must be the start of at least one test in the
# packages, and the run itself must not report "no tests to run" for any of
# them. Usage: named LIST [env VAR=...] go test ... PKG... (LIST is passed to
# -run; the packages are the trailing ./ arguments).
named() {
	list=$1
	shift
	pkgs=
	for a in "$@"; do case "$a" in ./*) pkgs="$pkgs $a" ;; esac; done
	for name in $(echo "$list" | tr '|' ' '); do
		go test -list "$name" $pkgs | grep -q "^$name" ||
			{ echo "check.sh: no test named $name* in$pkgs" >&2; exit 1; }
	done
	out=$("$@" -run "$list" 2>&1) || { echo "$out"; exit 1; }
	echo "$out"
	case "$out" in *"no tests to run"*) echo "check.sh: -run '$list' matched nothing in a package" >&2; exit 1 ;; esac
}
go build ./...
go vet ./...
# Formatting: any file gofmt would rewrite fails the check.
test -z "$(gofmt -l .)"
# Determinism vet: simulation code must not read the wall clock, print to
# stdout, or use the global RNG; metric names must be kubeshare_-prefixed
# snake_case with label keys from the bounded vocabulary; every registered
# kubeshare_ family must have a docs/METRICS.md row and vice versa (see
# tools/detvet).
go run ./tools/detvet -metricsdoc docs/METRICS.md ./internal
# The metrics reference itself must be freshly generated, not hand-edited.
go run ./tools/metricsdoc -check
# Perf-regression gate over BENCH.json: newest vs previous record per
# watched section, declared tolerances — virtual-clock metrics, the figure
# benchmarks' wall-clock ns/op and the micro-benchmarks' exact allocs/op
# (see tools/benchgate).
go run ./tools/benchgate
go test ./...
# Telemetry export surface: the SLO alert engine and fairness auditor must
# replay byte-identically at a fixed seed, and every `kubeshare-sim serve`
# endpoint must answer over HTTP (httptest smoke in cmd/kubeshare-sim).
named 'TestAlertDeterminismGolden|TestAuditDeterminismGolden' go test ./internal/experiments/
named TestServeEndpoints go test ./cmd/kubeshare-sim/
go test -race ./internal/kube/... ./internal/core/...
go test -race ./internal/sim/... ./internal/devlib/...
# Sharing-strategy suites on the multi-worker path: the strategy interface
# (token/mps/replica) and the frontend refactor behind it must hold under
# the race detector with parallel test workers.
GOMAXPROCS=4 go test -race ./internal/devlib/... ./internal/gpusim/...
# The Strategy contract by name, so it cannot silently vanish: the
# conformance suite runs every case on token, mps and replica (1 and 2
# logical GPUs) — registration and ErrDown, suspend failing every queued
# admit, seq-fenced release, hand-off on the holder's Unregister, disjoint
# turns per gate over seeded random interleavings that all terminate, a
# Handoffs total that never decreases, and 0 allocations per steady-state
# Admit+Release. Beside it, the facade's mixed-mode case: two co-placed
# sharePods asking for different modes fail one container, not the run.
named TestConformance env GOMAXPROCS=4 go test -race ./internal/devlib/sharing/
named TestFacadeMixedSharingModesFailOneContainer go test -race .
named 'TestRunIndexed|TestFig8DeterminismGolden|TestTraceDeterminismGolden' env GOMAXPROCS=4 go test -race ./internal/experiments/
# Labeled-family interning and the TSDB under the race detector: family
# lookup is the one obs path exercised off the simulation goroutine. This
# pass also covers internal/obs/attr — the critical-path attribution
# engine and virtual-time profiler.
GOMAXPROCS=4 go test -race ./internal/obs/...
# Chaos soak under the race detector: the multi-seed recovery suite (node
# crashes, holder kills, device faults, watch drops, apiserver
# crash/restarts with WAL-tail corruption) must satisfy every quiescence
# invariant — including the final warm-recovery audit after one more
# restart at quiescence — and every seed carries the store's mutation canary
# (no component may write through a shared snapshot); failures print the
# seed to reproduce. The plain
# `go test ./...` pass above already ran it race-free.
GOMAXPROCS=4 go test -race ./internal/chaos/
# Durable-store and restart-recovery suites under the race detector: WAL
# replay composition (restore∘churn == live churn), torn-tail
# truncate-and-recover, the durability oracle (300 random histories against
# a plain-map model, with watchers opened, dropped and resumed along the
# way), epoch-fenced relists, and the no-double-delivery goldens across
# restart + drop. Each name lives in one of the two packages, so the pass
# runs them one package at a time. The oracle's watcher mix includes the
# node- and owner-scoped filters; the reflector pass names the node-scoped
# relist (a 410 or a restart epoch synthesises events for matching objects
# only), and the kubelet pass the two consumers' own properties: two kubelets
# on one apiserver each receive and cache only their node's pods (a pod bound
# after creation admitted once), and a node crash kills its containers in
# pod-name order on every one of 64 fresh rigs.
named 'TestRestore|TestCheckpoint|TestTornTail|TestDurabilityOracle|TestWatchFencing|TestCrash' env GOMAXPROCS=4 go test -race ./internal/kube/store/
named 'TestReflector|TestReflectorNodeScopedRelist|TestResume|TestEventSinkRestart' env GOMAXPROCS=4 go test -race ./internal/kube/apiserver/
named 'TestStopOrderDeterministic|TestKubeletWatchScopedToNode' env GOMAXPROCS=4 go test -race ./internal/kube/kubelet/
# Native fuzz smokes over the durable medium's decoders, 5 s each from the
# checked-in seed corpora (testdata/fuzz; TestFuzzSeedCorpusCurrent keeps
# them in step with the format): arbitrary bytes as the log, as the
# checkpoint image, and as each registered kind's object — an error or a
# consistent state, never a panic, never an allocation the input's own
# length does not pay for.
go test ./internal/kube/store/ -run xxx -fuzz 'FuzzWALRestore$' -fuzztime 5s
go test ./internal/kube/store/ -run xxx -fuzz 'FuzzCheckpointImage$' -fuzztime 5s
go test ./internal/kube/api/ -run xxx -fuzz 'FuzzObjectCodec$' -fuzztime 5s
# And over the one parser of user-supplied files, the CSV workload trace:
# arbitrary bytes are an error, or jobs that each satisfy what ReadTrace
# promises (a unique non-empty name, demand in (0,1], non-negative times) and
# that WriteTrace and ReadTrace carry round unchanged.
go test ./internal/workload/ -run xxx -fuzz 'FuzzReadTrace$' -fuzztime 5s
# And over SharePod admission: arbitrary share quantities (NaN and ±Inf
# among the seeds) are an error, or a spec whose Algorithm 1 request is
# finite, in range and fits an empty device — nothing admitted can leave a
# device's residuals NaN, which would also break the pool's residual order.
go test ./internal/core/ -run xxx -fuzz 'FuzzValidateSharePodSpec$' -fuzztime 5s
# Scheduling-framework suite under the race detector on the multi-worker
# path: engine/Algorithm-1 equivalence properties, transaction rollback,
# batched-vs-sequential, conflict retry, gang all-or-nothing, and the
# parking reference model.
GOMAXPROCS=4 go test -race ./internal/core/schedfw/...
# The persistent pool's own properties, by name so they cannot silently
# vanish: narrowing a decision to Pool.Fitting's candidates never changes it
# (against the same plugin set walking every device, and against Algorithm 1),
# the residual order survives every transaction step and rollback, and the
# pool the cycles borrow equals a relist after every delta — with
# borrowed-and-rolled-back transactions, and deltas landing inside them, in
# between. Each name lives in one of the two packages.
named 'TestEngineNarrowing|TestTxnRollback|TestSnapshotMatchesRebuildRandomized' env GOMAXPROCS=4 go test -race ./internal/core/ ./internal/core/schedfw/plugins/
# The store's one lock under the race detector with goroutines actually
# running concurrently: the churn-vs-watch equivalence property (live,
# filtered and late-registered watches), goroutine readers (Scan/Get/List)
# holding shared snapshots while a writer publishes new ones to live
# watchers, the restart wake order (kind-name order, every run), the
# ownership rule's own tests (reads and write results are the published
# snapshot; a status write shares the stored spec and leaves the index be),
# and the keying rule's (a kind is not a key prefix).
named 'TestConcurrent|TestIndex|TestSharedSnapshot|TestCrashWakeOrder|TestGetReturnsSnapshot|TestWatchSharesOneSnapshot|TestStatusUpdatePreservesLabelIndex|TestKindIsNotAKeyPrefix' env GOMAXPROCS=4 go test -race ./internal/kube/store/
# Smoke the kernel micro-benchmarks so a regression that only breaks bench
# setup (not the unit tests) is caught here.
go test ./internal/sim/ -run xxx -bench BenchmarkSimKernel -benchtime 1x
# Smoke the kernel-launch micro-benchmark (frontend → strategy → gpusim, per
# sharing strategy); its zero allocs/op is pinned by TestLaunchKernelAllocs
# and gated in BENCH.json by tools/benchgate.
go test ./internal/devlib/ -run xxx -bench BenchmarkFrontendLaunchKernel -benchtime 1x
# Smoke the durable-medium micro-benchmarks (logged write, checkpoint,
# restore); bench.sh measures them into BENCH.json and tools/benchgate pins
# the logged write's allocs/op.
go test ./internal/kube/store/ -run xxx -bench 'BenchmarkDurableWrite|BenchmarkCheckpoint|BenchmarkRestore' -benchtime 1x
# Smoke the scheduler-throughput bench (Figure 15) at quick scale; bench.sh
# measures the full 10k point into BENCH.json.
go test . -run xxx -bench 'BenchmarkFig15SchedulerThroughput/quick' -benchtime 1x
# Smoke the scale sweep (Figure 16) at quick scale: the scheduler must make at
# most 2 decisions per sharePod on the churn workload — the same budget
# tools/benchgate holds the full sweep to; bench.sh measures the full
# 1k/10k/100k sweep into BENCH.json.
go test . -run xxx -bench 'BenchmarkFig16ScaleSweep/quick' -benchtime 1x |
	awk '{ print } /-decisions-per-sharepod/ { for (i = 2; i <= NF; i++) if ($i ~ /-decisions-per-sharepod$/) { seen = 1; if ($(i-1) + 0 > 2.0) bad = 1 } }
		END { if (!seen || bad) { print "fig16 smoke: decisions per sharePod missing or above 2.0" > "/dev/stderr"; exit 1 } }'
# Smoke the control-plane recovery sweep (Figure 17) at quick scale: one
# restart mean, checkpointed vs checkpoint-free recovery, quiescence
# invariants enforced per cell; bench.sh measures the full sweep into
# BENCH.json.
go test . -run xxx -bench 'BenchmarkFig17RecoverySweep/quick' -benchtime 1x
# Smoke the sharing-strategy comparison (Figure 18) at quick scale: all
# three strategies plus the memory-quantity admission/placement witness run
# deterministically per seed; bench.sh measures the full grid into
# BENCH.json.
go test . -run xxx -bench 'BenchmarkFig18StrategyComparison/quick' -benchtime 1x
# Smoke the latency-attribution experiment (Figure 19) at quick scale: the
# fig18 grid with critical-path attribution on; the run enforces the exact
# phase-sum invariant per chain and zero open chains; bench.sh measures the
# full grid into BENCH.json.
go test . -run xxx -bench 'BenchmarkFig19Attribution/quick' -benchtime 1x
# Smoke the instrumentation-overhead benchmark (obs on vs off on the Fig 9
# workload); ./bench.sh measures it properly into BENCH.json.
go test . -run xxx -bench BenchmarkFig9Obs -benchtime 1x
# The size numbers ROADMAP budgets, outside benchmark/ (print only, no
# gate): non-test Go lines, non-test panic( sites, and settable config fields
# (exported fields of the *Config structs).
echo "non-test Go lines: $(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' -exec cat {} + | wc -l)"
echo "non-test panic( sites: $(grep -rn 'panic(' --include='*.go' --exclude='*_test.go' --exclude-dir=benchmark . | wc -l)"
echo "settable config fields: $(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' -exec awk '/^type [A-Za-z0-9]*Config struct \{/ { on = 1; next } on && /^\}/ { on = 0 } on && /^\t[A-Z][A-Za-z0-9_]* / { n++ } END { print n + 0 }' {} +)"
