package chaos

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"

	"lambdafs/internal/clock"
	"lambdafs/internal/namespace"
	"lambdafs/internal/ndb"
	"lambdafs/internal/store"
)

// The crash_restart episode's shape: restartSteps workload steps, each
// crashing the store with probability crashRate.
const (
	restartSteps = 80
	crashRate    = 0.15
)

// CrashRestartConfig parameterises one crash_restart episode: a seeded
// stream of committed single-op transactions against a durable store,
// interrupted by whole-store crashes in four flavours (clean kill, WAL
// record drop, torn WAL tail, lost checkpoint round). After every crash
// the store is rebuilt with ndb.Recover and must land, digest-exact, on
// the committed prefix the durability contract promises. Every episode
// additionally ends with one clean crash-recover cycle, so recovery is
// exercised at least once even if the seeded schedule never crashes
// mid-run.
type CrashRestartConfig struct {
	Seed int64
	// SabotageRecovered, when non-nil, runs against every freshly
	// recovered store before the harness checks it. Tests use it to
	// prove the harness catches a broken replayer: a hook that perturbs
	// one committed row must produce a violation.
	SabotageRecovered func(*ndb.DB)
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
	rng := rand.New(rand.NewSource(cfg.Seed)) // deterministic: op and fault schedule derive from the seed
	inj := NewInjector()
	// Durability.CheckpointEvery stays 0: the harness drives checkpoints
	// explicitly so arm-then-crash predictions stay exact.
	d := newDurable(clk, inj, zeroStore())
	oracle := NewOracle()

	res := &CrashRestartResult{Seed: cfg.Seed, Steps: restartSteps}
	trail := sha256.New()
	note := func(format string, a ...any) { fmt.Fprintf(trail, format+"\n", a...) }
	violate := func(format string, a ...any) {
		res.Violations = append(res.Violations, fmt.Sprintf(format, a...))
	}

	// digests[l] is the oracle digest after LSN l committed; digests[0]
	// is the empty namespace. The recovered store must always match
	// digests[stats.LastLSN].
	digests := []string{oracleDigest(oracle)}

	// resolve returns p's inode on the live store. A failed resolve is a
	// violation; the zero inode it returns fails whatever depends on it.
	resolve := func(p string) *namespace.INode {
		nodes, err := d.db.ResolvePath(p)
		if err != nil {
			violate("resolve %s: %v", p, err)
			return &namespace.INode{}
		}
		return nodes[len(nodes)-1]
	}
	// write commits fn as one transaction; once it committed, mirror
	// replays it on the oracle and the trail records line.
	write := func(line string, fn func(tx store.Tx) error, mirror func() error) {
		if err := d.commit(fn); err != nil {
			violate("%s: %v", line, err)
			return
		}
		res.Commits++
		_ = mirror()
		digests = append(digests, oracleDigest(oracle))
		note("%s", line)
	}
	// put creates n, a file or a directory, as parent/name.
	put := func(op, parent, name string, n namespace.INode) {
		p := namespace.JoinPath(parent, name)
		n.ID = d.db.NextID()
		n.ParentID, n.Name = resolve(parent).ID, name
		mirror := oracle.Create
		if n.IsDir {
			mirror = oracle.Mkdirs
		}
		write(fmt.Sprintf("%s %s id=%d", op, p, n.ID),
			func(tx store.Tx) error { return tx.PutINode(&n) },
			func() error { return mirror(p) })
	}
	mkdir := func(parent, name string) {
		put("mkdir", parent, name, namespace.INode{IsDir: true, Perm: namespace.PermDefaultDir})
	}

	// crashSeq names the filler op committed between arming a WAL fault
	// and crashing; those records never reach media, so names never
	// collide across epochs.
	crashSeq := 0
	doCrash := func(step, flavor int) {
		wantLSN := uint64(len(digests) - 1)
		switch flavor {
		case 1, 2: // drop: the next record vanishes entirely; tear: its tail is cut mid-frame
			if flavor == 1 {
				inj.ArmWALDrop(1)
			} else {
				inj.ArmWALTear(rng.Intn(256), 1)
			}
			crashSeq++
			mkdir("/", fmt.Sprintf(".crash%d", crashSeq))
			wantLSN = uint64(len(digests) - 2)
		case 3: // checkpoint loss: some shards' rounds silently vanish
			inj.ArmCheckpointLoss(1 + rng.Intn(mediaShards))
			d.db.Checkpoint()
			res.Checkpoints++
		}
		inj.NoteFired(FaultCrashRestart, fmt.Sprintf("step=%d flavor=%d", step, flavor))
		res.Crashes++

		stats, err := d.crash()
		if err != nil {
			violate("step %d flavor %d: recover: %v", step, flavor, err)
			return
		}
		if cfg.SabotageRecovered != nil {
			cfg.SabotageRecovered(d.db)
		}
		if stats.LastLSN != wantLSN {
			violate("step %d flavor %d: recovered to LSN %d, want %d",
				step, flavor, stats.LastLSN, wantLSN)
		}
		for _, msg := range CheckStore(d.db, nil) {
			violate("step %d flavor %d: post-recovery: %s", step, flavor, msg)
		}
		o2, oerr := OracleFromStore(d.db)
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
		res.Replayed += stats.ReplayedRecords
		res.Discarded += stats.DiscardedRecords
		oracle = o2
		inj.Reset() // a crash disarms whatever was still pending
		note("crash flavor=%d lsn=%d base=%d replayed=%d truncated=%d",
			flavor, stats.LastLSN, stats.BaseLSN, stats.ReplayedRecords, stats.TruncatedShards)
	}

	for step := 0; step < restartSteps; step++ {
		if rng.Float64() < crashRate {
			doCrash(step, rng.Intn(4))
			continue
		}
		if rng.Float64() < 0.10 {
			lsn := d.db.Checkpoint()
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
				put("create", parent, name, namespace.INode{Perm: namespace.PermDefaultFile, Size: int64(rng.Intn(1 << 20))})
			}
		case 2: // make a directory
			parent := dirs[rng.Intn(len(dirs))]
			name := fmt.Sprintf("d%d", rng.Intn(6))
			if !oracle.Has(namespace.JoinPath(parent, name)) {
				mkdir(parent, name)
			}
		case 3: // delete a childless node
			var cands []string
			for _, p := range paths {
				if p != "/" && !hasChild[p] {
					cands = append(cands, p)
				}
			}
			if len(cands) > 0 {
				p := cands[rng.Intn(len(cands))]
				id := resolve(p).ID
				write(fmt.Sprintf("delete %s id=%d", p, id),
					func(tx store.Tx) error { return tx.DeleteINode(id) },
					func() error { return oracle.Delete(p) })
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
			dst := namespace.JoinPath(dstParent, name)
			if oracle.Has(dst) {
				continue
			}
			id, parentID := resolve(src).ID, resolve(dstParent).ID
			write(fmt.Sprintf("mv %s -> %s id=%d", src, dst, id), func(tx store.Tx) error {
				n, err := tx.GetINode(id, store.LockExclusive)
				if err != nil {
					return err
				}
				n = n.Clone()
				n.ParentID, n.Name = parentID, name
				return tx.PutINode(n)
			}, func() error { return oracle.Mv(src, dst) })
		case 5: // read-verify one path against the oracle
			p := paths[rng.Intn(len(paths))]
			if n := resolve(p); n.IsDir != oracle.IsDir(p) {
				violate("step %d: %s kind mismatch: store dir=%v oracle dir=%v",
					step, p, n.IsDir, oracle.IsDir(p))
			}
		}
	}

	// Every episode ends with one clean crash-recover cycle: whatever the
	// schedule did, the final state must survive a restart.
	doCrash(restartSteps, 0)

	res.Fired = inj.Fired()
	res.Digest = hex.EncodeToString(trail.Sum(nil))
	return res
}
