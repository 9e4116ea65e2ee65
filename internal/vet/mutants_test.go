package vet

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The mutant table and its runner. TestMutants plants each row's bug in
// the module and runs the command that must kill it. A mutant is killed
// when the command fails and prints the row's substring, so it dies for
// the stated reason. A mutant that survives, one that fails for another
// reason (a build error, a different test) and a row whose old string no
// longer matches its file exactly once all fail the row.
//
// A `go test` row builds the mutant with go test -overlay, so the tree is
// never edited, and runs it under rowTimeout, so a mutant that hangs fails
// its row as timed out. A `lambdafs-vet` row analyzes a copy of the module's
// non-test Go files with the mutant in place, as `lambdafs-vet -q ./...`
// would, and is killed by any finding.
//
// The rows take a compile each, so TestMutants runs only with -mutants
// (check.sh's mutants step):
//
//	go test ./internal/vet -run '^TestMutants$' -count=1 -mutants -timeout=5m

var runMutants = flag.Bool("mutants", false, "run TestMutants: plant every row of the mutant table")

// rowTimeout bounds one go test row; a killed mutant fails in seconds.
const rowTimeout = "2m"

// mutant is one row: the bug planted, and the command that must kill it.
type mutant struct {
	name string
	// file is module-relative; old must match it exactly once, so a
	// refactor that moves the site fails as stale instead of testing
	// nothing.
	file     string
	old, new string
	// cmd is `go test <pkg> -run <pattern> [flags]` or `lambdafs-vet`.
	cmd string
	// want is the substring the failure must print.
	want string
}

// mutants is the table: each row plants one bug and names the command
// that must kill it. A lambdafs-vet check stays only while one of its
// rows is killed by lambdafs-vet alone; a check whose rows a test kills is
// replaced by that test. A new sabotage quoted as proof is a new row.
var mutants = []mutant{
	// lambdafs-vet's checks, each row named after the check whose bug it
	// plants. slorules and metricnames are deleted: a test kills their
	// rows.
	{
		name: "slorules-rule-metric-renamed",
		file: "internal/slo/pack.go",
		old:  `"lambdafs_ndb_queue_depth"`,
		new:  `"lambdafs_ndb_queue_dept"`,
		cmd:  "go test ./internal/chaos -run ^TestAlertCoverage$",
		want: `must-fire alert "ndb_queue_saturation" never fired`,
	},
	{
		name: "metricnames-counter-without-total",
		file: "internal/rpc/telemetry.go",
		old:  `"lambdafs_rpc_retries_total"`,
		new:  `"lambdafs_rpc_retries"`,
		cmd:  "go test ./internal/bench -run ^TestMetricNames$",
		want: `counter "lambdafs_rpc_retries" must end in _total`,
	},
	{
		name: "metricnames-recovery-counter-without-total",
		file: "internal/ndb/wal.go",
		old:  `"lambdafs_ndb_recoveries_total"`,
		new:  `"lambdafs_ndb_recoveries"`,
		cmd:  "go test ./internal/bench -run ^TestMetricNames$",
		want: `counter "lambdafs_ndb_recoveries" must end in _total`,
	},
	{
		name: "spans-dropped-invocation-span-leaked",
		file: "internal/rpc/client.go",
		old:  "\tif !ok || resp == nil || resp.Err == errUnavailable {\n\t\tsp.End()\n",
		new:  "\tif !ok || resp == nil || resp.Err == errUnavailable {\n",
		cmd:  "go test ./internal/bench -run ^TestRunTraceExperiment$",
		want: "still open after the run",
	},
	{
		name: "spans-conn-lost-span-leaked",
		file: "internal/rpc/client.go",
		old:  "\t\tsp.SetDetail(\"conn lost\")\n\t\tsp.End()\n",
		new:  "\t\tsp.SetDetail(\"conn lost\")\n",
		cmd:  "go test ./internal/rpc -run ^TestKilledInstanceReplyIsLost$",
		want: "span(s) left open",
	},
	{
		name: "spans-invoke-error-span-leaked",
		file: "internal/rpc/client.go",
		old:  "\t\tsp.SetDetail(err.Error())\n\t\tsp.End()\n",
		new:  "\t\tsp.SetDetail(err.Error())\n",
		cmd:  "go test ./internal/rpc -run ^TestRetryThroughInvokerFailures$",
		want: "span(s) left open",
	},
	{
		name: "spans-subtree-inv-failure-span-leaked",
		file: "internal/core/subtree.go",
		old:  "\t\t\tsp.End()\n\t\t\treturn err\n",
		new:  "\t\t\treturn err\n",
		cmd:  "lambdafs-vet",
		want: "[spans]",
	},
	{
		name: "virtualtime-indexfs-ctime-on-wall-clock",
		file: "internal/indexfs/indexfs.go",
		old:  "Ctime: c.clk.Now().UnixNano()",
		new:  "Ctime: time.Now().UnixNano()",
		cmd:  "lambdafs-vet",
		want: "[virtualtime] time.Now reads the wall clock",
	},
	{
		name: "determinism-tab2-unseeded",
		file: "internal/bench/misc.go",
		old:  "rand.New(rand.NewSource(opts.Seed + 1))",
		new:  "rand.New(rand.NewSource(rand.Int63()))",
		cmd:  "lambdafs-vet",
		want: "[determinism]",
	},
	{
		name: "locks-scraper-restart-keeps-lock",
		file: "internal/telemetry/scrape.go",
		old:  "\tif s.stop != nil {\n\t\ts.mu.Unlock()\n\t\treturn\n\t}\n",
		new:  "\tif s.stop != nil {\n\t\treturn\n\t}\n",
		cmd:  "lambdafs-vet",
		want: "[locks] return while telemetry.Scraper.mu is locked",
	},
	{
		name: "errcheck-prometheus-write-error-dropped",
		file: "internal/bench/telemetry.go",
		old:  "\tif err := telemetry.WritePrometheus(f, reg); err != nil {\n\t\t_ = f.Close()\n\t\treturn err\n\t}\n",
		new:  "\ttelemetry.WritePrometheus(f, reg)\n",
		cmd:  "lambdafs-vet",
		want: "[errcheck]",
	},
	{
		name: "lockorder-pickwarm-reads-platform-under-deployment",
		file: "internal/faas/platform.go",
		old:  "\td.mu.Lock()\n\tdefer d.mu.Unlock()\n\tvar best *Instance\n",
		new:  "\td.mu.Lock()\n\tdefer d.mu.Unlock()\n\td.p.mu.Lock()\n\tclosed := d.p.closed\n\td.p.mu.Unlock()\n\tif closed {\n\t\treturn nil\n\t}\n\tvar best *Instance\n",
		cmd:  "lambdafs-vet",
		want: "[lockorder]",
	},

	// The killed instance's reply, and the moving window's running sum.
	{
		name: "serve-returns-killed-instance-reply",
		file: "internal/faas/instance.go",
		old:  "\tv := fn()\n\tif inst.term.IsSet() {\n\t\treturn nil, ErrInstanceDead\n\t}\n",
		new:  "\tv := fn()\n",
		cmd:  "go test ./internal/rpc -run ^TestKilledInstanceReplyIsLost$",
		want: "killed while it ran",
	},
	{
		name: "moving-window-keeps-evicted-sample",
		file: "internal/metrics/histogram.go",
		old:  "w.sum += d - w.buf[w.next]",
		new:  "w.sum += d",
		cmd:  "go test ./internal/metrics -run ^TestMovingWindowMeanMatchesDefinition$",
		want: "adds: mean",
	},
	// The caches' shared storage, and a rejected invocation's spans.
	{
		name: "cache-spill-skipped",
		file: "internal/cache/cache.go",
		old:  "\t\tspareNodes.Put(n)\n",
		new:  "",
		cmd:  "go test ./internal/cache -run ^TestStorageRecyclesAcrossCaches$",
		want: "cache B allocated",
	},
	{
		name: "chunk-free-without-clear",
		file: "internal/childindex/childindex.go",
		old:  "\tclear(c)\n\tc = c[:cap(c)]\n",
		new:  "\tc = c[:cap(c)]\n",
		cmd:  "go test ./internal/childindex -run ^TestPooledChunksComeBackEmptied$",
		want: "still holds",
	},
	{
		name: "admission-rejection-span-leaked",
		file: "internal/faas/platform.go",
		old:  "\t\tasp.SetDetail(\"rejected\")\n\t\tasp.End()\n",
		new:  "\t\tasp.SetDetail(\"rejected\")\n",
		cmd:  "go test ./internal/faas -run ^TestRejectedInvocationClosesItsSpans$",
		want: "span(s) left open",
	},
	// Sabotages earlier changes quoted as proof that a test has teeth.
	{
		name: "list-insert-appends-in-place",
		file: "internal/childindex/childindex.go",
		old:  "\tl[ci] = slices.Insert(c, i, e)\n",
		new:  "\tl[ci] = append(c, e)\n",
		cmd:  "go test ./internal/cache -run ^TestCacheKeepsChildrenInNameOrder$",
		want: "children out of order",
	},
	{
		name: "empty-skips-release",
		file: "internal/cache/cache.go",
		old:  "\tchunks.Release(n.kids)\n",
		new:  "",
		cmd:  "go test ./internal/cache -run ^TestStorageRecyclesAcrossCaches$",
		want: "cache B allocated",
	},
	{
		name: "race-done-mark-never-set",
		file: "internal/rpc/client.go",
		old:  "\t\tr.done.Store(true)\n",
		new:  "",
		cmd:  "go test ./internal/core -run ^TestCancelledLoserRunsNoEngine$",
		want: "the loser ran on the engine",
	},
	{
		name: "release-owner-without-fence",
		file: "internal/ndb/locks.go",
		old:  "\tlm.fenced[owner] = struct{}{}\n",
		new:  "",
		cmd:  "go test ./internal/chaos -run ^TestFailoverFencesZombieRelink$",
		want: "orphaned inode",
	},
	{
		name: "result-cache-tie-kept",
		file: "internal/core/resultcache.go",
		old:  "if key.Seq >= r.seq {",
		new:  "if key.Seq > r.seq {",
		cmd:  "go test ./internal/core -run ^FuzzResultCache$",
		want: "answered put",
	},
	{
		name: "sleepor-cut-short-reports-run",
		file: "internal/clock/sim.go",
		old:  "return !cancel.WaitBy(dl) && !s.Now().Before(dl.at)",
		new:  "cancel.WaitBy(dl)\n\treturn true",
		cmd:  "go test ./internal/clock -run ^TestSleepOrLoopEndsOnClose$",
		want: "after Close",
	},
	{
		name: "wal-stall-rule-watches-commits",
		file: "internal/slo/pack.go",
		old:  `"lambdafs_ndb_wal_appends_total", "lambdafs_ndb_writes_total", 4),`,
		new:  `"lambdafs_ndb_wal_appends_total", "lambdafs_ndb_tx_commits_total", 4),`,
		cmd:  "go test ./internal/slo -run ^TestWALStallRuleWatchesWrites$",
		want: "read-only commits beside a silent WAL: firing",
	},
	{
		name: "zero-config-accepted",
		file: "lambdafs.go",
		old:  "if cfg.Store.DataNodes < 1 && cfg.Store.Durable == nil {",
		new:  "if false {",
		cmd:  "go test . -run ^TestZeroConfigRejected$",
		want: "Config{} accepted",
	},
	{
		name: "list-entries-uncopied",
		file: "client.go",
		old:  "func entriesOf(resp *namespace.Response) []DirEntry { return slices.Clone(resp.Entries) }",
		new:  "func entriesOf(resp *namespace.Response) []DirEntry { return slices.Clip(resp.Entries) }",
		cmd:  "go test . -run ^TestListAndOpenResultsOutliveLaterCalls$",
		want: "held results changed across later calls",
	},
	{
		name: "coordinator-oncrash-skipped",
		file: "internal/coordinator/zk.go",
		old:  "\tif crashed && z.cfg.OnCrash != nil {\n\t\tz.cfg.OnCrash(s.id)\n\t}\n",
		new:  "",
		cmd:  "go test ./internal/chaos -run ^TestFailoverKilledMidSubtreeMv$",
		want: "subtree operation in progress",
	},
	{
		name: "hopsfs-handler-pool-removed",
		file: "internal/bench/scaling.go",
		old:  "\tnn.handlers.Recv()\n",
		new:  "",
		cmd:  "go test ./internal/bench -run ^TestHopsFSHandlersBoundConcurrency$",
		want: "handler bound not enforced",
	},
	{
		name: "listing-storage-reused-while-held",
		file: "internal/ndb/tx.go",
		old:  "\tcase t.kidsOut:\n\t\treturn make([]*namespace.INode, 0, n)\n",
		new:  "",
		cmd:  "go test ./internal/ndb -run ^TestListChildrenSortedAndMerged$",
		want: "after two more listings ls /other reads",
	},
	{
		name: "wal-dropped-frame-counted",
		file: "internal/ndb/tx.go",
		old:  "\tif walBytes > 0 {\n\t\tt.db.tel.walAppends.Inc()\n",
		new:  "\tif writes > 0 {\n\t\tt.db.tel.walAppends.Inc()\n",
		cmd:  "go test ./internal/ndb -run ^TestWALStatsCountOnlyFramesOnMedia$",
		want: "want 4 writes, 2 appends",
	},
	{
		name: "raced-write-row-check-skipped",
		file: "internal/core/resultrow.go",
		old:  "\t\tcase row.seq == race.Seq:\n\t\t\treturn row.id, namespace.FromWire(row.err), true, nil\n",
		new:  "",
		cmd:  "go test ./internal/core -run ^TestRacedWriteOutcomes$",
		want: "the second copy created /d/f",
	},
}

// TestMutants runs every row, as many at a time as -parallel allows.
func TestMutants(t *testing.T) {
	if !*runMutants {
		t.Skip("plants every mutant; run with -mutants")
	}
	root := testLoader(t).ModuleRoot
	for _, m := range mutants {
		t.Run(m.name, func(t *testing.T) {
			t.Parallel()
			if err := m.run(root); err != nil {
				t.Error(err)
			}
		})
	}
}

// apply returns m's file under root with the mutant planted.
func (m mutant) apply(root string) ([]byte, error) {
	src, err := os.ReadFile(filepath.Join(root, m.file))
	if err != nil {
		return nil, err
	}
	if n := bytes.Count(src, []byte(m.old)); n != 1 {
		return nil, fmt.Errorf("stale: the old string matches %s %d times, want once", m.file, n)
	}
	return bytes.Replace(src, []byte(m.old), []byte(m.new), 1), nil
}

// run plants m and runs its command; nil means killed for the stated
// reason.
func (m mutant) run(root string) error {
	src, err := m.apply(root)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "mutant-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var out []byte
	args := strings.Fields(m.cmd)
	switch {
	case len(args) > 2 && args[0] == "go" && args[1] == "test":
		mutated := filepath.Join(dir, filepath.Base(m.file))
		if err := os.WriteFile(mutated, src, 0o644); err != nil {
			return err
		}
		overlay, err := json.Marshal(map[string]map[string]string{
			"Replace": {filepath.Join(root, m.file): mutated},
		})
		if err != nil {
			return err
		}
		ov := filepath.Join(dir, "overlay.json")
		if err := os.WriteFile(ov, overlay, 0o644); err != nil {
			return err
		}
		cmd := exec.Command("go", append([]string{"test", "-overlay=" + ov, "-timeout=" + rowTimeout}, args[2:]...)...)
		cmd.Dir = root
		out, err = cmd.CombinedOutput()
		var exit *exec.ExitError
		switch {
		case err == nil:
			return errors.New("survived: " + m.cmd + " passed")
		case !errors.As(err, &exit):
			return err
		case bytes.Contains(out, []byte("panic: test timed out after")):
			return fmt.Errorf("timed out: %s ran past %s", m.cmd, rowTimeout)
		}
	case m.cmd == "lambdafs-vet":
		if err := copySources(root, dir); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, m.file), src, 0o644); err != nil {
			return err
		}
		res, err := CheckRepo(dir)
		if err != nil {
			return err
		}
		if len(res.Findings) == 0 {
			return errors.New("survived: lambdafs-vet found nothing")
		}
		for _, f := range res.Findings {
			out = append(out, f.String()+"\n"...)
		}
	default:
		return fmt.Errorf("unknown command %q", m.cmd)
	}
	if !bytes.Contains(out, []byte(m.want)) {
		return fmt.Errorf("failed without printing %q:\n%s", m.want, lastLines(out, 15))
	}
	return nil
}

// copySources copies go.mod and every non-test Go file the analyzer loads
// (testdata, hidden and _ directories skipped, as LoadAll skips them) from
// root to dst.
func copySources(root, dst string) error {
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if name != "go.mod" && (!strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go")) {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		out := filepath.Join(dst, rel)
		if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
			return err
		}
		return os.WriteFile(out, data, 0o644)
	})
}

func lastLines(out []byte, n int) string {
	lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
	return strings.Join(lines[max(0, len(lines)-n):], "\n")
}

// TestStaleRowFails: a row whose old string matches its file other than
// exactly once fails as stale, before any command runs.
func TestStaleRowFails(t *testing.T) {
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "f.go"), []byte("package f // x x\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, old := range []string{"x", "y"} {
		m := mutant{name: "stale", file: "f.go", old: old, new: "z", cmd: "go test ./f -run ^T$", want: "FAIL"}
		err := m.run(root)
		if err == nil || !strings.HasPrefix(err.Error(), "stale:") {
			t.Errorf("old %q: run = %v, want a stale failure", old, err)
		}
	}
}

// TestRowsMatchOnce holds every committed row to the table's shape: a
// unique name, a site that matches its file exactly once, a go test
// command with a -run pattern or lambdafs-vet, and the message of the
// assertion that proves the bug (not a bare FAIL line, which any failure
// of the test prints).
func TestRowsMatchOnce(t *testing.T) {
	root := testLoader(t).ModuleRoot
	names := map[string]bool{}
	for _, m := range mutants {
		if names[m.name] {
			t.Errorf("row %s: name used twice", m.name)
		}
		names[m.name] = true
		if _, err := m.apply(root); err != nil {
			t.Errorf("row %s: %v", m.name, err)
		}
		goTest := strings.HasPrefix(m.cmd, "go test ") && strings.Contains(m.cmd, " -run ")
		if !goTest && m.cmd != "lambdafs-vet" {
			t.Errorf("row %s: command %q is neither go test <pkg> -run <pattern> nor lambdafs-vet", m.name, m.cmd)
		}
		if m.want == "" || strings.HasPrefix(m.want, "FAIL") {
			t.Errorf("row %s: want %q is not the assertion that proves the bug", m.name, m.want)
		}
	}
}
