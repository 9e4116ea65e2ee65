#!/bin/sh
# Repo health check; run it before sending changes. Each step's banner
# says what the step checks. What the banners do not say:
# - The pinned values (allocation counts, goldens, digests, baselines)
#   live in the tests and BENCH_*.json files that gate them. This script
#   names steps, not values, so re-pinning one edits only its test or
#   baseline.
# - The -race step covers the packages that run goroutines of their own
#   or share state between concurrent callers; the others gain nothing
#   from the detector.
# - Each fuzz run is bounded to 10 s to keep the gate short. A crasher
#   lands in the package's testdata/fuzz and becomes a committed seed.
# - clock.Sim schedules every goroutine it runs, so a seeded result is the
#   same on any GOMAXPROCS. A difference in the 1, 2 and 4 P runs is a
#   bug, never a flake.
# - set -e: the first failing step ends the run.
set -e

cd "$(dirname "$0")"

echo "== gofmt =="
unformatted=$(gofmt -l . 2>/dev/null || true)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:"
    echo "$unformatted"
    gofmt -d $unformatted
    exit 1
fi
echo "ok"

echo "== one clock (clock.Sim is the only time source; tests wait in virtual time) =="
# A second clock, a host-time deadline or a clock interface coming back:
if grep -rnE 'NewScaled|NewManual|HostDeadlineIn|TimeScale|clock\.Clock\b' --include='*.go' .; then
    echo "one clock: the identifiers above belong to the deleted scaled/manual clocks"
    exit 1
fi
# A test that waits on the host's clock is neither exact nor replayable.
# Allowed: internal/clock's watchdog-timeout tests, the two host-behaviour
# tests of lambdafs_test.go (a cluster's goroutines unwinding, a quiescent
# cluster standing still), lambdafs-vet's fixtures.
if grep -rnE 'time\.(Sleep|After|NewTimer)\(' --include='*_test.go' . |
    grep -vE '^\./(internal/clock/|lambdafs_test\.go:|internal/vet/testdata/)'; then
    echo "one clock: a test waits on host time — Sleep on its clock.Sim, or park on a clock.Event/Mailbox/Group"
    exit 1
fi
echo "ok"

echo "== one rule pack (slo.Rules in internal/slo/pack.go is the only alert rule list) =="
# A second pack coming back: an slo rule constructor called outside
# internal/slo/pack.go, qualified (slo.Threshold) or, inside internal/slo,
# unqualified. Allowed: tests, lambdafs-vet's fixtures, the constructors'
# own declarations.
if grep -rnE '\b(Threshold|QuantileThreshold|Absence)\(' --include='*.go' . |
    grep -E '\bslo\.|^\./internal/slo/' |
    grep -vE '_test\.go:|^\./internal/vet/testdata/|^\./internal/slo/pack\.go:|^[^:]+:[0-9]+:func '; then
    echo "one rule pack: add the rule to slo.Rules, with a chaos family that fires it"
    exit 1
fi
echo "ok"

echo "== one value per knob (the model constants of DESIGN §3b stay constants) =="
# A knob that every caller set to one value coming back as a struct field:
# the WAL fsync and checkpoint sync, ndb's batch size, the LSM shape and
# the slo window. Allowed: tests.
if grep -rnE '^[[:space:]]+(WALFsync|CheckpointSync|BatchRows|MemtableEntries|L0CompactTrigger|MaxLevels|Window)([[:space:]]*,[[:space:]]*[[:alnum:]_]+)*[[:space:]]+[^=:[:space:]]' --include='*.go' . |
    grep -vE '_test\.go:'; then
    echo "one value per knob: these are constants (ndb.walFsync, checkpointSync, batchRows; lsm.MemtableEntries, L0CompactTrigger, maxLevels; slo.window) — give a second value a reason in DESIGN §3b first"
    exit 1
fi
echo "ok"

echo "== go vet =="
go vet ./...

echo "== lambdafs-vet (virtualtime, determinism, locks, spans, errcheck, lockorder; fails on any finding or stale allow) =="
if ! vetout=$(go run ./cmd/lambdafs-vet ./... 2>&1); then
    echo "$vetout"
    exit 1
fi
echo "$vetout" | tail -n 1

echo "== go build =="
go build ./...

echo "== go test =="
go test ./...

echo "== mutants (TestMutants plants each row of internal/vet/mutants_test.go, with go test -overlay or in a copy of the module for lambdafs-vet's checks; fails on a survivor, a kill without the row's message, or a stale site) =="
if ! mutout=$(go test ./internal/vet -run '^TestMutants$' -count=1 -mutants -timeout=5m -v 2>&1); then
    echo "$mutout"
    exit 1
fi
echo "$(echo "$mutout" | grep -c -- '--- PASS: TestMutants/') mutants killed"

echo "== benchmark module (own go.mod: the root ./... patterns skip it) =="
(cd benchmark && go vet . && go test .)

echo "== go test -race (clock, trace, metrics, telemetry, slo, faas — the closed-platform admission test, rpc — the replaced read's and the replaced write's TCP/HTTP race, their failure paths and the decided loser's cancellation (its record reused while the loser is out), chaos, coordinator, ndb, store, lsm, core, tenant, cache — caches on goroutines of their own recycling nodes and chunks through the pools they share (TestCachesShareStorageConcurrently) —, childindex — goroutines churning lists of their own through one shared chunk pool (TestPoolSharedAcrossGoroutines) —, partition, cephfs, workload — its closed-loop, rate-driven and fault-injector client goroutines; the exact testing.AllocsPerRun pins of cache, ndb, core, clock, rpc, namespace, coordinator and sim, and the pool read-backs of cache and childindex, are built only without -race — the detector allocates, and drops a random share of what a sync.Pool is given — and ran in the plain go test above) =="
go test -race ./internal/clock/ ./internal/trace/ ./internal/metrics/ ./internal/telemetry/ ./internal/slo/ ./internal/faas/ ./internal/rpc/ ./internal/chaos/ ./internal/coordinator/ ./internal/ndb/ ./internal/store/ ./internal/lsm/ ./internal/core/ ./internal/tenant/ ./internal/cache/ ./internal/childindex/ ./internal/partition/ ./internal/cephfs/ ./internal/workload/

echo "== fuzz (namespace.CleanPath: canonical, idempotent, fast path = split/join, Parent/Base/Ancestors = the JoinPath fold of SplitPath, Walk/AppendSplit = SplitPath; bounded) =="
go test ./internal/namespace/ -run '^$' -fuzz FuzzCleanPath -fuzztime 10s

echo "== fuzz (ndb WAL: arbitrary bytes after a valid log recover the committed prefix, frameLSN agrees with decodeFrame, and the row table stays within its footprint bound whatever row IDs a record names — no more pages or far rows than rows, a directory at most rowDirSlack pages past the most rows held; bounded) =="
go test ./internal/ndb/ -run '^$' -fuzz FuzzWALRecover -fuzztime 10s

echo "== fuzz (ndb row codec: arbitrary bytes never panic walReader.inode, appendINode round-trips through it, inodeSize is the appended length; bounded) =="
go test ./internal/ndb/ -run '^$' -fuzz FuzzINodeCodec -fuzztime 10s

echo "== fuzz (indexfs attribute codec: encode/decode round trip, every 20-byte row re-encodes to itself, every other length rejected; bounded) =="
go test ./internal/indexfs/ -run '^$' -fuzz FuzzDecodeAttr -fuzztime 10s

echo "== fuzz (lsm WriteBatch: reads, table count, Stats and virtual time equal the same entries written one at a time; bounded) =="
go test ./internal/lsm/ -run '^$' -fuzz FuzzWriteBatch -fuzztime 10s

echo "== fuzz (cache operations: PutChain, PutListing, Invalidate, SuspendListing, ResumeListing and evicting puts against a map model; every node's children strictly in name order with sound parent links, Entries the model's sorted listing; bounded) =="
go test ./internal/cache/ -run '^$' -fuzz FuzzCacheOps -fuzztime 10s

echo "== fuzz (core result cache: puts and gets of a few clients' Seqs against a map model; one entry per client, its highest Seq, a get answering only that Seq, the first client to arrive evicted first; bounded) =="
go test ./internal/core/ -run '^$' -fuzz FuzzResultCache -fuzztime 10s

echo "== fuzz (core result row codec, the raced write's record: every row round-trips, its strict prefixes and a byte more are rejected, arbitrary bytes never panic and are accepted only as a row's one encoding; bounded) =="
go test ./internal/core/ -run '^$' -fuzz FuzzResultRow -fuzztime 10s

echo "== determinism smoke (clock.Sim schedules its goroutines itself: the clock's order and trace tests, bench's golden storm tables, baseline gate (every kind at tiny), real-stack scale point, sweep tables (fake runner, every scale; real runs, tiny) and tiny λFS tables of fig8a/fig9/fig10/fig15/trace/slo and the tiny fig16 tree-test tables, then every test of trace (the one decomposition, read by four outputs), core (with the exactly-once matrix of raced writes and the cancelled loser that runs no engine yet scales out), chaos (with the fenced zombie relink), ndb, faas (with the closed-platform admission test), rpc (with the replaced read's and the replaced write's TCP/HTTP racing path and the decided loser's cancellation) and coordinator — goldens, digests, exact instants and same-seed history digests — on 1, 2 and 4 Ps) =="
go test ./internal/clock/ -cpu 1,2,4
go test ./internal/bench/ -run 'TestChaosStormSeedDeterminism|TestBaselineGate|TestScalePointDeterminism|TestSweepTablesGolden|TestSweepTinyRunsGolden|TestLambdaTablesTinyGolden|TestTreeTestTablesTinyGolden' -cpu 1,2,4 -count=2
go test ./internal/trace/ ./internal/core/ ./internal/chaos/ ./internal/ndb/ ./internal/faas/ ./internal/rpc/ ./internal/coordinator/ -cpu 1,2,4 -count=2

echo "== one-P join repeat (Idle joins against Group joins and the exact reference pool, 50 runs on one P: a grace that misses a helper fails here) =="
go test ./internal/clock/ -cpu 1 -count 50 -run 'Idle|QueueMatches'

echo "== chaos replay (one episode through the -chaosseed path, which no other step runs) =="
go test ./internal/chaos/ -run TestChaosRandomized -chaosseed 3 -count=1

echo "== event-heap smoke (internal/sim, which only benchmark/ still times: determinism, FIFO stability, 100k-event-client wall/alloc budget) =="
go test ./internal/sim/ -run 'TestSchedulerDeterminism|TestHeapFIFOStability|TestHundredKClientBudget' -count=1

echo "== reachability (BenchmarkExperiments under -coverpkg=./...: every function outside cmd/, examples/ and internal/vet/ that no experiment runs, and every package there that no binary links, is listed with its reason in internal/bench/testdata/unreached.txt; a newly unreached function or unlinked package, or a listed one that runs, fails) =="
./unreached.sh

echo "== committed baselines (every BENCH_*.json, routed by its schema and re-measured at its mode and seed; every leaf exact but hotpath's allocs_per_op, which may reach baseline × 1.25 + 8, and a diverged restart recovery fails whatever the file records) =="
for f in BENCH_*.json; do
    go run ./cmd/lambdafs-bench -check "$f"
done

echo "== profiling smoke =="
profdir=$(mktemp -d)
trap 'rm -rf "$profdir"' EXIT
go run ./cmd/lambdafs-bench -pprof "$profdir" hotpath >/dev/null
for suffix in cpu heap rerun.mutex rerun.block; do
    f="$profdir/hotpath.$suffix.pprof"
    if [ ! -s "$f" ]; then
        echo "profiling smoke: $f missing or empty"
        exit 1
    fi
done
echo "ok"

echo "all checks passed"
