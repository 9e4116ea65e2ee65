package lambdafs

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"lambdafs/internal/clock"
	"lambdafs/internal/datanode"
	"lambdafs/internal/simtest"
	"lambdafs/internal/telemetry"
)

// quickConfig keeps public-API tests fast: tiny latencies, DES clock.
func quickConfig() Config {
	cfg := DefaultConfig()
	cfg.Deployments = 4
	cfg.NameNodeVCPU = 2
	cfg.NameNodeRAMGB = 2
	cfg.Platform.ColdStart = time.Millisecond
	cfg.Platform.GatewayLatency = time.Millisecond
	cfg.Platform.IdleReclaim = 0
	return cfg
}

func newTestCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestPublicAPILifecycle(t *testing.T) {
	c := newTestCluster(t, quickConfig())
	cl := c.NewClient("")

	if err := cl.MkdirAll("/projects/alpha"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Create("/projects/alpha/readme.md"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Create("/projects/alpha/readme.md"); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create: %v", err)
	}
	info, err := cl.Stat("/projects/alpha/readme.md")
	if err != nil || info.IsDir {
		t.Fatalf("stat: %+v %v", info, err)
	}
	if _, _, err := cl.Open("/projects/alpha/readme.md"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.Open("/projects/alpha"); !errors.Is(err, ErrIsDir) {
		t.Fatalf("open dir: %v", err)
	}
	entries, err := cl.List("/projects/alpha")
	if err != nil || len(entries) != 1 || entries[0].Name != "readme.md" {
		t.Fatalf("list: %v %v", entries, err)
	}
	if err := cl.Rename("/projects/alpha/readme.md", "/projects/alpha/README.md"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Stat("/projects/alpha/readme.md"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("old name survived rename: %v", err)
	}
	if err := cl.Remove("/projects"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Stat("/projects/alpha"); !errors.Is(err, ErrNotFound) {
		t.Fatal("subtree delete incomplete")
	}
}

func TestClusterStatsPopulated(t *testing.T) {
	c := newTestCluster(t, quickConfig())
	cl := c.NewClient("stats")
	for i := 0; i < 10; i++ {
		if err := cl.MkdirAll(fmt.Sprintf("/s/%d", i)); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Stat(fmt.Sprintf("/s/%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.ActiveNameNodes == 0 {
		t.Fatal("no active NameNodes")
	}
	if st.Invocations == 0 {
		t.Fatal("no invocations counted")
	}
	if st.Store.Commits == 0 {
		t.Fatal("no store commits")
	}
	if st.PayPerUseUSD <= 0 {
		t.Fatal("no pay-per-use cost accrued")
	}
}

// TestClusterStatsSurviveReclamation: fleet counts live in the registry, not
// in the instances that produced them, so losing the NameNodes that served
// the hits takes nothing away from Stats and their replacements count on
// top.
func TestClusterStatsSurviveReclamation(t *testing.T) {
	cfg := quickConfig()
	cfg.Deployments = 1
	c := newTestCluster(t, cfg)
	cl := c.NewClient("")
	if err := cl.MkdirAll("/hot"); err != nil {
		t.Fatal(err)
	}
	stats := func(n int) Stats {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := cl.Stat("/hot"); err != nil {
				t.Fatal(err)
			}
		}
		return c.Stats()
	}
	warm := stats(5)
	if warm.CacheHits == 0 {
		t.Fatal("warm-up recorded no cache hits")
	}
	for c.Platform().KillOneInstance(0) {
	}
	if dead := c.Stats(); dead.ActiveNameNodes != 0 || dead.CacheHits != warm.CacheHits || dead.CacheMisses != warm.CacheMisses {
		t.Fatalf("hits/misses %d/%d with the deployment warm, %d/%d with its %d NameNodes killed",
			warm.CacheHits, warm.CacheMisses, dead.CacheHits, dead.CacheMisses, warm.ActiveNameNodes)
	}
	if again := stats(5); again.CacheHits <= warm.CacheHits || again.ColdStarts <= warm.ColdStarts {
		t.Fatalf("hits %d -> %d and cold starts %d -> %d after a replacement served 5 more stats",
			warm.CacheHits, again.CacheHits, warm.ColdStarts, again.ColdStarts)
	}
}

// TestZeroConfigRejected: NewCluster fills no zero field, so a Config{}
// (a store of no shards) is an error, not a cluster that cannot serve.
func TestZeroConfigRejected(t *testing.T) {
	if _, err := NewCluster(Config{}); err == nil {
		t.Fatal("Config{} accepted")
	}
}

func TestMultiVMClientsShareNothingAcrossVMs(t *testing.T) {
	c := newTestCluster(t, quickConfig())
	vm2 := c.NewVM()
	a := c.NewClient("a")
	b := c.NewClientOnVM(vm2, "b")
	if err := a.MkdirAll("/vmtest"); err != nil {
		t.Fatal(err)
	}
	// Both clients operate correctly despite separate TCP server pools.
	if err := b.Create("/vmtest/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Stat("/vmtest/f"); err != nil {
		t.Fatal(err)
	}
	if a.Stats().HTTPRPCs == 0 || b.Stats().HTTPRPCs == 0 {
		t.Fatal("both VMs should have issued HTTP RPCs to bootstrap connections")
	}
}

func TestConcurrentClientsOnSimClock(t *testing.T) {
	c := newTestCluster(t, quickConfig())
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := c.NewClient(fmt.Sprintf("w%d", w))
			dir := fmt.Sprintf("/conc/%d", w)
			if err := cl.MkdirAll(dir); err != nil {
				errs <- err
				return
			}
			for i := 0; i < 10; i++ {
				if err := cl.Create(fmt.Sprintf("%s/f%d", dir, i)); err != nil {
					errs <- err
					return
				}
			}
			if entries, err := cl.List(dir); err != nil || len(entries) != 10 {
				errs <- fmt.Errorf("list %s: %d entries, %v", dir, len(entries), err)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if ht := c.Clock().Since(c.Clock().Now().Add(-time.Nanosecond)); ht < 0 {
		t.Fatal("clock misbehaving")
	}
}

// TestEngineCacheBudgetReachesNameNodes: Engine.CacheBudget is the one
// cache setting, and -1 runs every NameNode without a metadata cache, so
// repeated stats of one file never hit.
func TestEngineCacheBudgetReachesNameNodes(t *testing.T) {
	cfg := quickConfig()
	cfg.Engine.CacheBudget = -1
	c := newTestCluster(t, cfg)
	cl := c.NewClient("")
	if err := cl.MkdirAll("/d"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Create("/d/f"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := cl.Stat("/d/f"); err != nil {
			t.Fatal(err)
		}
	}
	if hits := c.Stats().CacheHits; hits != 0 {
		t.Fatalf("%d cache hits with Engine.CacheBudget -1, want 0", hits)
	}
}

// TestNewClusterOnCallersClock: NewCluster, called from a goroutine the
// clock did not start, runs a pre-warm on the caller's clock and returns
// with one warm instance per deployment, each having paid one cold start.
// Close leaves the caller's clock running.
func TestNewClusterOnCallersClock(t *testing.T) {
	clk := simtest.New(t)
	cfg := quickConfig()
	cfg.Clock = clk
	cfg.MinInstancesPerDeployment = 1
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Clock() != clk {
		t.Fatal("the cluster does not run on Config.Clock")
	}
	for dep := 0; dep < cfg.Deployments; dep++ {
		if n := c.Platform().Deployment(dep).AliveInstances(); n != 1 {
			t.Errorf("deployment %d: %d live instances after a pre-warm of 1", dep, n)
		}
	}
	if got := c.Stats().ColdStarts; got != uint64(cfg.Deployments) {
		t.Errorf("%d cold starts, want one per deployment (%d)", got, cfg.Deployments)
	}
	// The deployments register one after another, and each pre-warm
	// sleeps its instance's 1 ms cold start.
	const prewarm = 4 * time.Millisecond
	if got := clk.Since(clock.Epoch); got != prewarm {
		t.Errorf("the pre-warm ended at %v, want %v", got, prewarm)
	}
	c.Close()
	var after time.Duration
	clock.Run(clk, func() {
		clk.Sleep(time.Second)
		after = clk.Since(clock.Epoch)
	})
	if want := prewarm + time.Second; after != want {
		t.Errorf("a 1s sleep after Close ended at %v, want %v: Close stopped the caller's clock", after, want)
	}
}

func TestCloseIdempotentAndTerminal(t *testing.T) {
	c := newTestCluster(t, quickConfig())
	cl := c.NewClient("x")
	if err := cl.MkdirAll("/pre"); err != nil {
		t.Fatal(err)
	}
	c.Close()
	c.Close()
	if got := c.Platform().ActiveInstances(); got != 0 {
		t.Fatalf("instances alive after close: %d", got)
	}
}

// TestClustersLeaveNoGoroutinesBehind: nothing in a cluster outlives Close
// — in particular no capacity worker pool (the store's shards and every
// function instance's vCPUs are clock.Queue arithmetic, not goroutines).
func TestClustersLeaveNoGoroutinesBehind(t *testing.T) {
	settle := func() int {
		time.Sleep(20 * time.Millisecond) // exiting goroutines finish unwinding
		return runtime.NumGoroutine()
	}
	before := settle()
	for i := 0; i < 10; i++ {
		c, err := NewCluster(quickConfig())
		if err != nil {
			t.Fatal(err)
		}
		cl := c.NewClient("")
		if err := cl.MkdirAll("/d"); err != nil {
			t.Fatal(err)
		}
		if err := cl.Create("/d/f"); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Stat("/d/f"); err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	if after := settle(); after > before+4 {
		t.Fatalf("%d goroutines before, %d after ten clusters were built, used and closed", before, after)
	}
}

// TestQuiescentClusterStandsStill: time moves only for someone. A default
// cluster driven from a goroutine the clock does not know holds its clock
// between calls — although its reclaimer, a started scraper and a started
// DataNode all tick on it — moves again inside the next Run, and still
// drains on Close.
func TestQuiescentClusterStandsStill(t *testing.T) {
	c := newTestCluster(t, DefaultConfig())
	sim := c.Clock()
	const tick = time.Second
	scraper := telemetry.NewScraper(sim, c.Telemetry(), tick)
	scraper.Start()
	dn := datanode.New(sim, c.Store(), "dn1", tick)
	dn.Start()
	cl := c.NewClient("")
	if err := cl.MkdirAll("/d"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Create("/d/f"); err != nil {
		t.Fatal(err)
	}

	type instant struct {
		now      time.Time
		advances uint64
	}
	sample := func() instant { return instant{sim.Now(), sim.Advances()} }
	// What the last call left in flight (a hedge's loser, an INV delivery)
	// finishes on its own; wait it out before taking the reading.
	rest := sample()
	for deadline := time.Now().Add(5 * time.Second); ; {
		time.Sleep(5 * time.Millisecond)
		if next := sample(); next == rest {
			break
		} else if rest = next; time.Now().After(deadline) {
			t.Fatalf("the clock never came to rest: at %v after %d advances", rest.now.Sub(clock.Epoch), rest.advances)
		}
	}
	time.Sleep(50 * time.Millisecond)
	if got := sample(); got != rest {
		t.Fatalf("an idle cluster moved from %v (%d advances) to %v (%d) in 50ms of host time",
			rest.now.Sub(clock.Epoch), rest.advances, got.now.Sub(clock.Epoch), got.advances)
	}

	scrapes := len(scraper.Snapshots())
	c.Run(func() { sim.Sleep(3 * tick) })
	if got := sim.Now().Sub(rest.now); got < 3*tick {
		t.Fatalf("a 3s sleep inside Run moved the clock by %v", got)
	}
	if got := len(scraper.Snapshots()) - scrapes; got < 2 {
		t.Errorf("the scraper ticked %d times across a 3s sleep, want one per second", got)
	}
	var reports []datanode.Report
	var err error
	c.Run(func() { reports, err = datanode.Discover(sim, c.Store(), "test", 0) })
	if err != nil || len(reports) != 1 || reports[0].Timestamp.Before(rest.now.Add(tick)) {
		t.Errorf("DataNode report after the sleep: %+v, %v; want one published during it", reports, err)
	}

	// Close wakes the tickers wherever they are parked; the joins return.
	c.Close()
	scraper.Stop()
	dn.Stop()
}
