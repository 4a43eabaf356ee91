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
# snake_case with label keys from the bounded vocabulary; and the census: an
# exported name of the facade or of a package under internal/ that nothing
# but its own package's tests names fails, unless detvet's censusAllow lists
# it with a reason (see tools/detvet). A root-package Example with an
# `// Output:` block counts as a caller, not as a test: go test runs it and
# compares what it prints, so a facade option stays only while an Example
# shows its effect.
go run ./tools/detvet ./internal
# metricsdoc -check is what keeps docs/METRICS.md and the code in sync: every
# family registered under ./internal or ./cmd must have a description and
# every description a family, and the doc must equal the fresh render.
go run ./tools/metricsdoc -check
# Both tools' tests by name, so none can silently vanish: each detvet rule
# fires on a re-introduced violation (a renamed time import, a metric name
# held in a constant of this or another package, a test-only export
# included) and not on an exempt look-alike; metricsdoc resolves a constant
# name in the package that declares it.
named 'TestDetAllowExemptsLine|TestTestOracleImportFlagged|TestRulesFire' go test ./tools/detvet/
named TestScanResolvesConstantsPerPackage go test ./tools/metricsdoc/
# The README's promises run, by name so none can silently vanish: each
# facade Example prints what its `// Output:` block holds — the paper's
# workflow step by step (pod1's fresh GPUID, the vGPU holder, the UUID in
# NVIDIA_VISIBLE_DEVICES, pod2 best-fit onto the same GPU), the five
# scenarios, and each surviving option's effect beside the run without it —
# and sharepodctl replays a scripted session, malformed line included, to a
# golden transcript.
named 'Example_workflow|Example_quickstart|Example_inferenceServing|Example_interference|Example_trainingIsolation|Example_replicatedServing|ExampleWithPoolPolicy|ExampleWithExtenderScheduler|ExampleWithGangTimeout|ExampleWithoutKubeShare|ExampleWithoutObservability' go test .
named TestScriptGolden go test ./cmd/sharepodctl/
go test ./...
# The work ratchet: each repo-benchmark workload at seed 1, untraced and
# traced, against tools/benchgate/work.json — mallocs_k and alloc_mb within a
# measured band, every traced op count exact. No wall-clock reading gates
# anything; `go run ./tools/benchgate -base REF -workload W` reads wall-clock
# time in alternating pairs, and only by hand.
go run ./tools/benchgate
# The exact allocation and figure pins, by name so none can silently
# vanish: the kernel micro-benchmarks (TimerChurn's one closure, the rest
# nothing), a store status write (one allocation at 1, 8 and 32 watchers),
# Client.MutateStatus (one, with 0 or 64 env vars), Client.Mutate (one
# DeepCopyObject of the pod, likewise), Client.Bind (one, likewise),
# Client.Create (no copy: three, with 0 or 64 env vars), a logged write (the
# volatile write's one), a kernel launch (nothing, under every strategy), a
# span on a known chain and an event with a fragmented message (nothing; a
# new chain one, its key's copy), a placement staged and rolled back on an
# unlabeled pool device, the snapshot's refresh of a device it holds and
# core.Schedule on a pool of loaded unlabeled devices (nothing), Fig 11's
# decision (one: its journal); Figure 15's decisions per second, Figure 17's
# rows and Figure 18's throughputs, stretches and memory witnesses at quick
# scale.
# Figure 16's decisions and Figure 19's table are pinned by
# TestFig16PlacementsPinned and fig19_table.golden. Beside them, every
# experiment's quick run, made twice, prints byte-identical tables but for
# the host-clock columns its registry entry declares. And EXPERIMENTS.md's
# quick tables and verdicts are checked here: TestClaims holds every paper
# claim (Table 1, Figures 5-14) to its bound on the quick run and fails when
# the file's generated blocks differ from a fresh render of those runs;
# TestClaimsCoverRegistry requires a claim per paper figure, rows and
# columns that exist, and no verdict outside a generated block.
named TestMicroBenchmarkAllocsHeldExactly go test ./internal/sim/
named TestPlacementAllocsHeldExactly go test ./internal/experiments/
named 'TestFanoutAllocsMustNotDependOnWatchers|TestStatusWriteCostMustNotDependOnSpec|TestSpecWriteCopiesOnce|TestBindCopiesOnce|TestCreateCopiesNothing' go test .
named TestLoggingAWriteAllocatesNothing go test ./internal/kube/store/
named TestLaunchKernelAllocs go test ./internal/devlib/
named 'TestTraceWriteAllocs|TestEventWriteAllocs' go test ./internal/obs/
# State recycled inside the program that uses it, by name: a reseeded
# source draws New(seed)'s stream for every distribution and Fork after any
# earlier draws; a token's recycled usage window starts empty (usage rate 0,
# the grant order of a fresh token), and a Register after a grown client's
# Unregister costs the client entry alone; a cluster's serve free list hands
# sources on, a deleted job's included, and is gone with its last serve job.
named TestReseedIsNew go test ./internal/simrand/
named 'TestTokenRecycledWindowStartsEmpty|TestTokenRegisterReusesGrownWindow' go test ./internal/devlib/sharing/
named TestServeSourcesDroppedWithLastJob go test ./internal/workload/
named 'TestFig15ThroughputPinned|TestFig16PlacementsPinned|TestFig17RecoverySweep|TestFig18StrategiesPinned|TestFig19Determinism|TestQuickRunsDeterministic|TestClaims|TestClaimsCoverRegistry' go test ./internal/experiments/
# Telemetry export surface: the SLO alert engine and fairness auditor must
# replay byte-identically at a fixed seed, and every `kubeshare-sim serve`
# endpoint must answer over HTTP (httptest smoke in cmd/kubeshare-sim).
named 'TestAlertDeterminismGolden|TestAuditDeterminismGolden' go test ./internal/experiments/
named TestServeEndpoints go test ./cmd/kubeshare-sim/
# Every paper figure runs from the command line: each registry entry (what
# "all" names, plus latency) runs at quick scale and must return a non-empty
# table, and trace, profile and audit must return nil
# (`go test ./cmd/kubeshare-sim -run TestCLISweep -full` repeats the sweep at
# full scale).
named TestCLISweep go test ./cmd/kubeshare-sim/
# The experiments and the chaos layer return errors, never panic: a panic in
# one of runIndexed's worker goroutines would take the whole process down.
if grep -n 'panic(' --exclude='*_test.go' internal/experiments/*.go internal/chaos/*.go; then
	echo "check.sh: panic( in internal/experiments or internal/chaos; return an error instead" >&2
	exit 1
fi
go test -race ./internal/kube/... ./internal/core/...
# The controller runtime's per-key contract and DevMgr's level-triggered
# reconcilers by name, so they cannot silently vanish: keys that block
# overlap, one key never runs twice at once, an enqueue or Sync during a run
# gives exactly one rerun, Sync runs in its caller, errors back off; a holder
# deleted before it reports requeues its tenant and leaves nothing behind,
# a deleted bound pod requeues its sharePod under KubeShare-Sched and the
# extender baseline alike, an apiserver restart under running tenants
# writes no status that changes nothing, and a VGPU object a torn log tail
# restores (deleted, or without its holder's UUID) is reconciled like any
# other, and a bind that misses in its cache a vGPU just created waits for
# the VGPU watch to deliver it instead of requeueing its tenant. Beside them,
# the full stack watches only for the control loops that have traffic (14
# reflectors, each relisting once per restart).
named 'TestRunner|TestDevMgr|TestDevMgrRequeuesLostBoundPod|TestDevMgrReconcilesRestoredVGPU|TestDevMgrBindWaitsForUndeliveredVGPU|TestClusterWatchesOnlyControllersWithTraffic' go test -race ./internal/kube/controller/ ./internal/core/
go test -race ./internal/sim/... ./internal/devlib/...
# The kernel's worker pool by name, so it cannot silently vanish: a reused
# worker runs a proc killed before its first execution as a fresh coroutine
# would, a real panic leaves Step and its worker is not pooled, an idle
# worker pins nothing its last body captured, Run and RunUntil leave one
# goroutine per parked proc, and a short proc's life costs ≤ 2 allocations.
named 'TestWorker|TestSpawnAllocs|TestFinishedProcReleasesBody' go test -race ./internal/sim/
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
# Telemetry observes the cluster and never writes into it: one seeded
# workload run with obs on and off ends at the same store revision, every
# sharePod on the same vGPU in the same phase at the same instant. And one
# sharePod's life costs the API server exactly the reads and writes its
# workflow steps name: each read a mutate's Get or the vGPU reconciler's one
# read per pass, none a re-read of what a component's own watch holds.
named 'TestObsOffMatchesObsOn|TestSharePodRequestBudget' go test .
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
# way, label-key watchers among them), epoch-fenced relists, and the
# no-double-delivery goldens across restart + drop. Each name lives in one of the two packages, so the pass
# runs them one package at a time. The oracle's watcher mix includes the
# node- and owner-scoped filters; the reflector pass names the node-scoped
# relist (a 410 or a restart epoch synthesises events for matching objects
# only), the relist's revision floor (a survivor at the revision the consumer
# saw is re-sent when a torn tail freed that revision and a later write reused
# it; every survivor is re-sent when a torn tail reverted a write the stream
# never delivered, such as the consumer's own delete while it was down), and
# Inform's loop contract (its handler runs in the loop, sees every
# event across a drop and a restart's relist, and never runs after Stop); the
# kubelet pass names the two consumers' own properties: two kubelets
# on one apiserver each receive and cache only their node's pods (a pod bound
# after creation admitted once); a node crash kills its containers in
# pod-name order, and a pod whose two device plugins set one env key sees one
# value, each on every one of 64 fresh rigs. The store pass also names the
# restore's decoding contract: restored objects share no bytes with the
# medium the store rewrites in place, and a restored pod costs ≤ 12
# allocations, from the checkpoint or the log, whatever its string count.
named 'TestRestore|TestRestoredObjectsShareNoBytesWithMedium|TestRestoreAllocs|TestCheckpoint|TestTornTail|TestDurabilityOracle|TestWatchFencing|TestCrash' env GOMAXPROCS=4 go test -race ./internal/kube/store/
named 'TestReflector|TestReflectorNodeScopedRelist|TestReflectorRelistFloorReusedRevision|TestReflectorRelistAfterUnseenRevert|TestResume|TestInform' env GOMAXPROCS=4 go test -race ./internal/kube/apiserver/
# The reflectors' stream check by name, so it cannot silently vanish: it
# flags a revision that does not rise unless a restore reverted the one
# before or a relist re-sent it, and a view that missed a write or kept a
# deleted object; every chaos soak carries it, TestSoakSeeds over its seeds
# (one subtest each; on seed 3 the watch drops are partitions that come back
# to a 410 and a relist); and a durable_restart-
# shaped run, checked by it, synthesizes at most 400 relist events (it prints
# the count).
named 'TestStreamCheckFlagsFallingRevision|TestStreamCheckFlagsStaleView' go test ./internal/kube/apiserver/apitest/
named TestSoakSeeds go test ./internal/chaos/
named TestRestartRelistsSendTheDiff go test -v ./internal/experiments/
named 'TestStopOrderDeterministic|TestKubeletWatchScopedToNode|TestSharedEnvKeyDeterministic' env GOMAXPROCS=4 go test -race ./internal/kube/kubelet/
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
# path: transaction rollback, batched-vs-sequential, conflict retry, gang
# all-or-nothing, and the parking reference model. (Algorithm 1's own
# properties live in internal/core, which the race pass above covers.)
GOMAXPROCS=4 go test -race ./internal/core/schedfw/...
# A placement is one write, by name so it cannot silently vanish: a SharePod
# watcher sees GPUID, NodeName, Scheduled and ScheduledTime arrive in one
# event under the framework driver (batch 1 and 256) and the extender, a
# requeue clear the placement, set Pending and count the restart in one, and
# kube-scheduler's bind set NodeName and ScheduledTime in one.
named TestPlacementIsOneEvent go test ./internal/core/schedfw/
# The persistent pool's own properties, by name so they cannot silently
# vanish: narrowing a decision to Pool.Fitting's candidates never changes it
# (against core.Decide walking every device, and against Algorithm 1 as the
# paper writes it), the residual order survives every transaction step and
# rollback, and the pool the cycles borrow equals a relist after every delta
# — with borrowed-and-rolled-back transactions, and deltas landing inside
# them, in between — and the journal copies a device's label sets rather
# than sharing them. Each name lives in one of the two packages.
named 'TestDecideNarrowing|TestTxnRollback|TestTxnJournalCopiesLabelSets|TestSnapshotMatchesRebuildRandomized' env GOMAXPROCS=4 go test -race ./internal/core/ ./internal/core/schedfw/fwk/
# The store's one lock under the race detector with goroutines actually
# running concurrently: the churn-vs-watch equivalence property (live,
# filtered and late-registered watches), goroutine readers (Scan/Get/List)
# holding shared snapshots while a writer publishes new ones to live
# watchers, the restart wake order (kind-name order, every run), the
# ownership rule's own tests (reads and write results are the published
# snapshot; a status write publishes the stored spec and labels, and label
# watchers see those),
# and the keying rule's (a kind is not a key prefix).
named 'TestConcurrent|TestIndex|TestSharedSnapshot|TestCrashWakeOrder|TestGetReturnsSnapshot|TestWatchSharesOneSnapshot|TestStatusWritePublishesStoredLabels|TestKindIsNotAKeyPrefix' env GOMAXPROCS=4 go test -race ./internal/kube/store/
# Smoke the kernel micro-benchmarks so a regression that only breaks bench
# setup (not the unit tests) is caught here.
go test ./internal/sim/ -run xxx -bench BenchmarkSimKernel -benchtime 1x
# Smoke the kernel-launch micro-benchmark (frontend → strategy → gpusim, per
# sharing strategy); its zero allocs/op is pinned by TestLaunchKernelAllocs.
go test ./internal/devlib/ -run xxx -bench BenchmarkFrontendLaunchKernel -benchtime 1x
# Smoke the durable-medium micro-benchmarks (logged write, checkpoint,
# restore).
go test ./internal/kube/store/ -run xxx -bench 'BenchmarkDurableWrite|BenchmarkCheckpoint|BenchmarkRestore' -benchtime 1x
# Smoke the scheduler-throughput bench (Figure 15) at quick scale.
go test . -run xxx -bench 'BenchmarkFig15SchedulerThroughput/quick' -benchtime 1x
# Smoke the scale sweep (Figure 16) at quick scale (the run
# TestFig16PlacementsPinned pins: 508 and 2060 decisions, exactly).
go test . -run xxx -bench 'BenchmarkFig16ScaleSweep/quick' -benchtime 1x
# Smoke the control-plane recovery sweep (Figure 17) at quick scale: two
# restart means, checkpointed vs checkpoint-free recovery, quiescence
# invariants enforced per cell.
go test . -run xxx -bench 'BenchmarkFig17RecoverySweep/quick' -benchtime 1x
# Smoke the sharing-strategy comparison (Figure 18) at quick scale: all
# three strategies plus the memory-quantity admission/placement witness run
# deterministically per seed.
go test . -run xxx -bench 'BenchmarkFig18StrategyComparison/quick' -benchtime 1x
# Smoke the latency-attribution experiment (Figure 19) at quick scale: the
# fig18 grid with critical-path attribution on; the run enforces the exact
# phase-sum invariant per chain and zero open chains.
go test . -run xxx -bench 'BenchmarkFig19Attribution/quick' -benchtime 1x
# Smoke the instrumentation-overhead benchmark (obs on vs off on the Fig 9
# workload); its overhead is advisory (DESIGN.md).
go test . -run xxx -bench BenchmarkFig9Obs -benchtime 1x
# The size numbers ROADMAP budgets, outside benchmark/: non-test Go lines
# (printed only), and two ratchets that fail the check when they grow —
# non-test panic( sites and settable config fields (exported fields of the
# *Config structs). Lower a limit when a change lowers its count.
echo "non-test Go lines: $(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' -exec cat {} + | wc -l)"
panics=$(grep -rn 'panic(' --include='*.go' --exclude='*_test.go' --exclude-dir=benchmark . | wc -l)
echo "non-test panic( sites: $panics"
fields=$(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' -exec cat {} + |
	awk '/^type [A-Za-z0-9]*Config struct \{/ { on = 1; next } on && /^\}/ { on = 0 } on && /^\t[A-Z][A-Za-z0-9_]* / { n++ } END { print n + 0 }')
echo "settable config fields: $fields"
test "$panics" -le 13 || { echo "check.sh: $panics non-test panic( sites, limit 13" >&2; exit 1; }
test "$fields" -le 64 || { echo "check.sh: $fields settable config fields, limit 64" >&2; exit 1; }
