package chaos

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"

	"lambdafs/internal/clock"
	"lambdafs/internal/lsm"
	"lambdafs/internal/namespace"
	"lambdafs/internal/ndb"
	"lambdafs/internal/store"
)

// CrashRestartConfig parameterises one crash_restart episode: a seeded
// stream of committed single-op transactions against a durable store,
// interrupted by whole-store crashes in four flavours (clean kill, WAL
// record drop, torn WAL tail, lost checkpoint round). After every crash
// the store is rebuilt with ndb.Recover and must land, digest-exact, on
// the committed prefix the durability contract promises.
type CrashRestartConfig struct {
	Seed int64
	// Steps is the number of workload steps (default 80). Every episode
	// additionally ends with one clean crash-recover cycle, so recovery
	// is exercised at least once even if the seeded schedule never
	// crashes mid-run.
	Steps int
	// Shards is the durable media's shard count (default 4).
	Shards int
	// CrashRate is the per-step crash probability (default 0.15).
	CrashRate float64
	// SabotageRecovered, when non-nil, runs against every freshly
	// recovered store before the harness checks it. Tests use it to
	// prove the harness catches a broken replayer: a hook that perturbs
	// one committed row must produce a violation.
	SabotageRecovered func(*ndb.DB)
}

// DefaultCrashRestart returns the standard episode shape for a seed.
func DefaultCrashRestart(seed int64) CrashRestartConfig {
	return CrashRestartConfig{Seed: seed, Steps: 80, Shards: 4, CrashRate: 0.15}
}

// CrashRestartResult summarises one episode.
type CrashRestartResult struct {
	Seed        int64
	Steps       int
	Commits     int // committed write transactions across all epochs
	Crashes     int // crash-recover cycles (incl. the final clean one)
	Checkpoints int // checkpoint rounds taken (scheduled + fault-flavour)
	Replayed    int // WAL records replayed across all recoveries
	Discarded   int // records lost to injected drops and torn tails
	Fired       map[FaultKind]uint64
	Violations  []string
	// Digest hashes the full op/crash/recovery trail; equal seeds and
	// configs must produce equal digests (reproducibility), different
	// seeds must not.
	Digest string
}

// Failed reports whether the episode found any violation.
func (r *CrashRestartResult) Failed() bool { return len(r.Violations) > 0 }

// oracleDigest canonically hashes the oracle's namespace: every path
// with its kind, sorted. Two states agree iff their digests agree.
func oracleDigest(m *Oracle) string {
	h := sha256.New()
	for _, p := range m.Paths() {
		kind := byte('f')
		if m.IsDir(p) {
			kind = 'd'
		}
		fmt.Fprintf(h, "%c %s\n", kind, p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// pathIndex rebuilds the path → inode-ID map from the store's ground
// truth (the recovered store is the only source of truth after a crash).
func pathIndex(db *ndb.DB) (map[string]namespace.INodeID, error) {
	nodes, err := db.ListSubtree(namespace.RootID)
	if err != nil {
		return nil, err
	}
	byID := make(map[namespace.INodeID]*namespace.INode, len(nodes))
	for _, n := range nodes {
		byID[n.ID] = n
	}
	var pathOf func(n *namespace.INode) string
	pathOf = func(n *namespace.INode) string {
		if n.ID == namespace.RootID {
			return "/"
		}
		return namespace.JoinPath(pathOf(byID[n.ParentID]), n.Name)
	}
	out := map[string]namespace.INodeID{"/": namespace.RootID}
	for _, n := range nodes {
		if n.ID != namespace.RootID {
			out[pathOf(n)] = n.ID
		}
	}
	return out, nil
}

// RunCrashRestart executes one seeded crash_restart episode.
//
// The harness keeps a digest of the oracle after every committed LSN.
// On every crash it recovers the store from the media and demands three
// things: (1) the recovered LSN is exactly what the armed fault flavour
// predicts (a dropped or torn final record loses precisely that record,
// nothing else loses anything), (2) the recovered namespace's digest
// equals the digest recorded at that LSN — byte-for-byte the committed
// prefix — and (3) ndb.CheckIntegrity and the lock/registry audits are
// clean. The episode then resumes the workload on the recovered store,
// so later crashes also cover logs that already survived one recovery.
func RunCrashRestart(cfg CrashRestartConfig) *CrashRestartResult {
	clk := clock.NewSim()
	defer clk.Close()
	var res *CrashRestartResult
	clock.Run(clk, func() { res = runCrashRestart(clk, cfg) })
	return res
}

func runCrashRestart(clk *clock.Sim, cfg CrashRestartConfig) *CrashRestartResult {
	if cfg.Steps <= 0 {
		cfg.Steps = 80
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 4
	}
	if cfg.CrashRate <= 0 {
		cfg.CrashRate = 0.15
	}
	rng := rand.New(rand.NewSource(cfg.Seed)) // deterministic: op and fault schedule derive from the seed
	inj := NewInjector()

	ckptCfg := lsm.DefaultConfig()
	ckptCfg.PutLatency, ckptCfg.ProbeLatency = 0, 0
	ckptCfg.FlushPerEntry, ckptCfg.CompactPerEntry = 0, 0
	dur := ndb.NewDurable(clk, cfg.Shards, ckptCfg)

	storeCfg := func() ndb.Config {
		c := ndb.DefaultConfig()
		c.RTT, c.ReadService, c.WriteService = 0, 0, 0
		c.Durable = dur
		// CheckpointEvery stays 0: the harness drives checkpoints
		// explicitly so arm-then-crash predictions stay exact.
		c.Durability = ndb.DurabilityConfig{}
		c.OnWALAppend = inj.NDBOnWALAppend
		c.OnCheckpoint = inj.NDBOnCheckpoint
		return c
	}
	db := ndb.New(clk, storeCfg())
	oracle := NewOracle()
	ids := map[string]namespace.INodeID{"/": namespace.RootID}

	res := &CrashRestartResult{Seed: cfg.Seed, Steps: cfg.Steps}
	trail := sha256.New()
	note := func(format string, a ...any) { fmt.Fprintf(trail, format+"\n", a...) }
	violate := func(format string, a ...any) {
		res.Violations = append(res.Violations, fmt.Sprintf(format, a...))
	}

	// digests[l] is the oracle digest after LSN l committed; digests[0]
	// is the empty namespace. The recovered store must always match
	// digests[stats.LastLSN].
	digests := []string{oracleDigest(oracle)}

	commit := func(op, path string, fn func(tx store.Tx) error) bool {
		tx := db.Begin("restart")
		if err := fn(tx); err != nil {
			tx.Abort()
			violate("step op %s %s: build tx: %v", op, path, err)
			return false
		}
		if err := tx.Commit(); err != nil {
			violate("step op %s %s: commit: %v", op, path, err)
			return false
		}
		res.Commits++
		return true
	}

	doMkdir := func(parent, name string) {
		p := namespace.JoinPath(parent, name)
		id := db.NextID()
		ok := commit("mkdir", p, func(tx store.Tx) error {
			return tx.PutINode(&namespace.INode{
				ID: id, ParentID: ids[parent], Name: name,
				IsDir: true, Perm: namespace.PermDefaultDir,
			})
		})
		if !ok {
			return
		}
		ids[p] = id
		_ = oracle.Mkdirs(p)
		digests = append(digests, oracleDigest(oracle))
		note("mkdir %s id=%d", p, id)
	}

	doCreate := func(parent, name string, size int64) {
		p := namespace.JoinPath(parent, name)
		id := db.NextID()
		ok := commit("create", p, func(tx store.Tx) error {
			return tx.PutINode(&namespace.INode{
				ID: id, ParentID: ids[parent], Name: name,
				Perm: namespace.PermDefaultFile, Size: size,
			})
		})
		if !ok {
			return
		}
		ids[p] = id
		_ = oracle.Create(p)
		digests = append(digests, oracleDigest(oracle))
		note("create %s id=%d", p, id)
	}

	doDelete := func(p string) {
		id := ids[p]
		if !commit("delete", p, func(tx store.Tx) error { return tx.DeleteINode(id) }) {
			return
		}
		delete(ids, p)
		_ = oracle.Delete(p)
		digests = append(digests, oracleDigest(oracle))
		note("delete %s id=%d", p, id)
	}

	doMv := func(src, dstParent, name string) {
		dst := namespace.JoinPath(dstParent, name)
		id := ids[src]
		ok := commit("mv", src, func(tx store.Tx) error {
			n, err := tx.GetINode(id, store.LockExclusive)
			if err != nil {
				return err
			}
			n.ParentID = ids[dstParent]
			n.Name = name
			return tx.PutINode(n)
		})
		if !ok {
			return
		}
		var moved []string
		for p := range ids {
			if namespace.HasPathPrefix(p, src) {
				moved = append(moved, p)
			}
		}
		for _, p := range moved {
			mid := ids[p]
			delete(ids, p)
			ids[dst+strings.TrimPrefix(p, src)] = mid
		}
		_ = oracle.Mv(src, dst)
		digests = append(digests, oracleDigest(oracle))
		note("mv %s -> %s id=%d", src, dst, id)
	}

	// crashSeq names the filler op committed between arming a WAL fault
	// and crashing; those records never reach media, so names never
	// collide across epochs.
	crashSeq := 0
	doCrash := func(step, flavor int) {
		wantLSN := uint64(len(digests) - 1)
		switch flavor {
		case 1: // drop: the next record vanishes entirely
			inj.ArmWALDrop(1)
			crashSeq++
			doMkdir("/", fmt.Sprintf(".crash%d", crashSeq))
			wantLSN = uint64(len(digests) - 2)
		case 2: // tear: the next record's tail is cut mid-frame
			inj.ArmWALTear(rng.Intn(256), 1)
			crashSeq++
			doMkdir("/", fmt.Sprintf(".crash%d", crashSeq))
			wantLSN = uint64(len(digests) - 2)
		case 3: // checkpoint loss: some shards' rounds silently vanish
			inj.ArmCheckpointLoss(1 + rng.Intn(cfg.Shards))
			db.Checkpoint()
			res.Checkpoints++
		}
		inj.NoteFired(FaultCrashRestart, fmt.Sprintf("step=%d flavor=%d", step, flavor))
		res.Crashes++

		// Abandon the live store; rebuild from the media.
		recovered, stats, err := ndb.Recover(clk, storeCfg())
		if err != nil {
			violate("step %d flavor %d: recover: %v", step, flavor, err)
			return
		}
		if cfg.SabotageRecovered != nil {
			cfg.SabotageRecovered(recovered)
		}
		if stats.LastLSN != wantLSN {
			violate("step %d flavor %d: recovered to LSN %d, want %d",
				step, flavor, stats.LastLSN, wantLSN)
		}
		for _, msg := range CheckStore(recovered, nil) {
			violate("step %d flavor %d: post-recovery: %s", step, flavor, msg)
		}
		o2, oerr := OracleFromStore(recovered)
		if oerr != nil {
			violate("step %d flavor %d: rebuild oracle: %v", step, flavor, oerr)
			return
		}
		if int(stats.LastLSN) < len(digests) {
			if got := oracleDigest(o2); got != digests[stats.LastLSN] {
				violate("step %d flavor %d: recovered state diverged from committed prefix at LSN %d",
					step, flavor, stats.LastLSN)
			}
			digests = digests[:stats.LastLSN+1]
		} else {
			violate("step %d flavor %d: recovered past the committed prefix: LSN %d, only %d recorded",
				step, flavor, stats.LastLSN, len(digests)-1)
		}
		idx, ierr := pathIndex(recovered)
		if ierr != nil {
			violate("step %d flavor %d: rebuild path index: %v", step, flavor, ierr)
			return
		}
		res.Replayed += stats.ReplayedRecords
		res.Discarded += stats.DiscardedRecords
		db, oracle, ids = recovered, o2, idx
		inj.Reset() // a crash disarms whatever was still pending
		note("crash flavor=%d lsn=%d base=%d replayed=%d truncated=%d",
			flavor, stats.LastLSN, stats.BaseLSN, stats.ReplayedRecords, stats.TruncatedShards)
	}

	for step := 0; step < cfg.Steps; step++ {
		if rng.Float64() < cfg.CrashRate {
			doCrash(step, rng.Intn(4))
			continue
		}
		if rng.Float64() < 0.10 {
			lsn := db.Checkpoint()
			res.Checkpoints++
			note("checkpoint lsn=%d", lsn)
		}

		// Deterministic candidate sets from the oracle's sorted paths.
		paths := oracle.Paths()
		var dirs []string
		hasChild := map[string]bool{}
		for _, p := range paths {
			if oracle.IsDir(p) {
				dirs = append(dirs, p)
			}
			if p != "/" {
				hasChild[namespace.ParentPath(p)] = true
			}
		}

		switch rng.Intn(6) {
		case 0, 1: // create a file
			parent := dirs[rng.Intn(len(dirs))]
			name := fmt.Sprintf("f%d", rng.Intn(12))
			if !oracle.Has(namespace.JoinPath(parent, name)) {
				doCreate(parent, name, int64(rng.Intn(1<<20)))
			}
		case 2: // make a directory
			parent := dirs[rng.Intn(len(dirs))]
			name := fmt.Sprintf("d%d", rng.Intn(6))
			if !oracle.Has(namespace.JoinPath(parent, name)) {
				doMkdir(parent, name)
			}
		case 3: // delete a childless node
			var cands []string
			for _, p := range paths {
				if p != "/" && !hasChild[p] {
					cands = append(cands, p)
				}
			}
			if len(cands) > 0 {
				doDelete(cands[rng.Intn(len(cands))])
			}
		case 4: // move a node (subtree moves included)
			var cands []string
			for _, p := range paths {
				if p != "/" {
					cands = append(cands, p)
				}
			}
			if len(cands) == 0 {
				continue
			}
			src := cands[rng.Intn(len(cands))]
			dstParent := dirs[rng.Intn(len(dirs))]
			if namespace.HasPathPrefix(dstParent, src) {
				continue // would move a dir under its own subtree
			}
			name := fmt.Sprintf("m%d", rng.Intn(8))
			if !oracle.Has(namespace.JoinPath(dstParent, name)) {
				doMv(src, dstParent, name)
			}
		case 5: // read-verify one path against the oracle
			p := paths[rng.Intn(len(paths))]
			nodes, rerr := db.ResolvePath(p)
			if rerr != nil {
				violate("step %d: resolve %s: %v", step, p, rerr)
				continue
			}
			leaf := nodes[len(nodes)-1]
			if leaf.IsDir != oracle.IsDir(p) {
				violate("step %d: %s kind mismatch: store dir=%v oracle dir=%v",
					step, p, leaf.IsDir, oracle.IsDir(p))
			}
		}
	}

	// Every episode ends with one clean crash-recover cycle: whatever the
	// schedule did, the final state must survive a restart.
	doCrash(cfg.Steps, 0)

	res.Fired = inj.Fired()
	res.Digest = hex.EncodeToString(trail.Sum(nil))
	return res
}
