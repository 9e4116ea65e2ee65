package core

import (
	"errors"
	"testing"
	"time"

	"lambdafs/internal/clock"
	"lambdafs/internal/lsm"
	"lambdafs/internal/namespace"
	"lambdafs/internal/ndb"
	"lambdafs/internal/simtest"
	"lambdafs/internal/store"
)

// call is one metadata operation of a test.
type call struct {
	op         namespace.OpType
	path, dest string
}

// twinFleet is two instances of one deployment on one store, each with its
// engine, and a store whose round trip keeps both twins of a race in
// flight together.
func twinFleet(t *testing.T, clk *clock.Sim) (a, b *Engine, st *ndb.DB, coord *recordingCoord) {
	t.Helper()
	cfg := ndb.DefaultConfig()
	cfg.RTT, cfg.ReadService, cfg.WriteService = 100*time.Microsecond, 0, 0
	cfg.LockWaitTimeout = 150 * time.Millisecond
	st = ndb.New(clk, cfg)
	fleet, _, coord := engineFleetOn(clk, st, 1, 2)
	return fleet[0][0], fleet[0][1], st, coord
}

// racedReq is call c as client c1's raced write of Seq seq.
func racedReq(c call, seq uint64) namespace.Request {
	return namespace.Request{Op: c.op, Path: c.path, Dest: c.dest, ClientID: "c1", Seq: seq, Raced: true}
}

// replays sums the raced replays of the engines.
func replays(es ...*Engine) float64 {
	var n float64
	for _, e := range es {
		n += e.tel.racedReplays.Value()
	}
	return n
}

// sameReply reports whether two replies answer alike: ID and error (the
// instance that served each may differ).
func sameReply(x, y *namespace.Response) bool {
	return x.ID == y.ID && x.Err == y.Err
}

// exists reports whether path resolves in st, and the ID it names.
func exists(st *ndb.DB, path string) (namespace.INodeID, bool) {
	chain, err := st.ResolvePath(path)
	if err != nil {
		return namespace.InvalidID, false
	}
	return chain[len(chain)-1].ID, true
}

// TestRacedWriteExecutesOnce is the exactly-once matrix: each write kind,
// its two copies (the TCP racer on one instance's engine, the invocation on
// another's) arriving in each order, leaves one effect in the store and
// gives both copies the same reply, the second answered from the client's
// result row.
func TestRacedWriteExecutesOnce(t *testing.T) {
	for _, w := range []struct {
		name  string
		setup []call
		req   call
		// gone must not resolve afterwards; made must, and a create's or
		// mkdirs' reply names it.
		gone, made string
	}{
		{name: "create", setup: []call{{namespace.OpMkdirs, "/d", ""}},
			req: call{namespace.OpCreate, "/d/f", ""}, made: "/d/f"},
		{name: "mkdirs leaf", setup: []call{{namespace.OpMkdirs, "/d", ""}},
			req: call{namespace.OpMkdirs, "/d/m", ""}, made: "/d/m"},
		{name: "mkdirs deep", setup: []call{{namespace.OpMkdirs, "/d", ""}},
			req: call{namespace.OpMkdirs, "/d/x/y/z", ""}, made: "/d/x/y/z"},
		{name: "delete file", setup: []call{{namespace.OpMkdirs, "/d", ""}, {namespace.OpCreate, "/d/f", ""}},
			req: call{namespace.OpDelete, "/d/f", ""}, gone: "/d/f"},
		{name: "mv file", setup: []call{{namespace.OpMkdirs, "/d", ""}, {namespace.OpCreate, "/d/f", ""}},
			req: call{namespace.OpMv, "/d/f", "/d/g"}, gone: "/d/f", made: "/d/g"},
	} {
		for _, order := range []string{"tcp first", "invocation first", "together", "late twin"} {
			t.Run(w.name+"/"+order, func(t *testing.T) {
				simtest.Run(t, func(clk *clock.Sim) {
					tcpEng, invEng, st, _ := twinFleet(t, clk)
					for _, c := range w.setup {
						mustOK(t, tcpEng, c.op, c.path, c.dest)
					}
					req := racedReq(w.req, 7)
					var first, second *namespace.Response
					switch order {
					case "tcp first":
						first, second = tcpEng.Execute(req), invEng.Execute(req)
					case "invocation first":
						first, second = invEng.Execute(req), tcpEng.Execute(req)
					case "together":
						g := clock.NewGroup(clk)
						g.Add(2)
						clock.Go(clk, func() { defer g.Done(); first = tcpEng.Execute(req) })
						clock.Go(clk, func() { defer g.Done(); second = invEng.Execute(req) })
						g.Wait()
					case "late twin":
						first = tcpEng.Execute(req)
						if next := tcpEng.Execute(racedReq(call{namespace.OpCreate, "/next", ""}, 8)); !next.OK() {
							t.Fatalf("the client's next raced write: %s", next.Err)
						}
						second = invEng.Execute(req)
					}
					if !first.OK() {
						t.Fatalf("%s: the first copy failed: %s", w.req.op, first.Err)
					}
					wantReplays := 1.0
					if order == "late twin" {
						wantReplays = 0
						if !errors.Is(second.Error(), namespace.ErrStale) {
							t.Errorf("the late twin answered %+v, want ErrStale", second)
						}
					} else if !sameReply(first, second) {
						t.Errorf("the twins answered %+v and %+v", first, second)
					}
					if got := replays(tcpEng, invEng); got != wantReplays {
						t.Errorf("%v raced replays, want %v", got, wantReplays)
					}
					if _, ok := exists(st, w.gone); w.gone != "" && ok {
						t.Errorf("%s still exists", w.gone)
					}
					if w.made != "" {
						id, ok := exists(st, w.made)
						switch {
						case !ok:
							t.Errorf("%s was not made", w.made)
						case w.req.op != namespace.OpMv && id != first.ID:
							t.Errorf("%s is INode %d, the reply names %d", w.made, id, first.ID)
						}
					}
					if bad := st.CheckIntegrity(); len(bad) > 0 {
						t.Errorf("integrity: %v", bad)
					}
				})
			})
		}
	}
}

// TestRacedWriteOutcomes: what a raced write answers is what its first
// copy found, whatever happens between the copies; a raced directory delete
// or mv is declined by both and acts once when resent; and a transaction
// that aborts records nothing, so the retry executes once.
func TestRacedWriteOutcomes(t *testing.T) {
	mkD := call{namespace.OpMkdirs, "/d", ""}
	t.Run("exists", func(t *testing.T) {
		simtest.Run(t, func(clk *clock.Sim) {
			a, b, st, _ := twinFleet(t, clk)
			mustOK(t, a, mkD.op, mkD.path, "")
			mustOK(t, a, namespace.OpCreate, "/d/f", "")
			req := racedReq(call{namespace.OpCreate, "/d/f", ""}, 7)
			first := a.Execute(req)
			mustOK(t, a, namespace.OpDelete, "/d/f", "") // another client
			second := b.Execute(req)
			if !errors.Is(first.Error(), namespace.ErrExists) || !sameReply(first, second) {
				t.Errorf("the twins answered %+v and %+v, want ErrExists from both", first, second)
			}
			if _, ok := exists(st, "/d/f"); ok {
				t.Error("the second copy created /d/f")
			}
			if got := replays(a, b); got != 1 {
				t.Errorf("%v raced replays, want 1", got)
			}
		})
	})
	for _, c := range []call{{namespace.OpDelete, "/d/s", ""}, {namespace.OpMv, "/d/s", "/d/t"}} {
		t.Run("declined "+c.op.String(), func(t *testing.T) {
			simtest.Run(t, func(clk *clock.Sim) {
				a, b, st, _ := twinFleet(t, clk)
				mustOK(t, a, namespace.OpMkdirs, "/d/s/x", "")
				req := racedReq(c, 7)
				first, second := a.Execute(req), b.Execute(req)
				if !errors.Is(first.Error(), namespace.ErrRaceDeclined) || !sameReply(first, second) {
					t.Errorf("the twins answered %+v and %+v, want the decline from both", first, second)
				}
				if _, ok := exists(st, "/d/s/x"); !ok {
					t.Fatal("a declined copy acted")
				}
				// The client resends under a fresh Seq, neither raced nor
				// replaced.
				resend := namespace.Request{Op: c.op, Path: c.path, Dest: c.dest, ClientID: "c1", Seq: 8}
				if resp := a.Execute(resend); !resp.OK() {
					t.Fatalf("the resend: %s", resp.Err)
				}
				if _, ok := exists(st, "/d/s"); ok {
					t.Error("/d/s still exists after the resend")
				}
				if _, ok := exists(st, c.dest+"/x"); c.dest != "" && !ok {
					t.Errorf("%s/x is missing after the resend", c.dest)
				}
				if got := replays(a, b); got != 1 {
					t.Errorf("%v raced replays, want 1", got)
				}
			})
		})
	}
	t.Run("inv failure", func(t *testing.T) {
		simtest.Run(t, func(clk *clock.Sim) {
			a, b, st, coord := twinFleet(t, clk)
			mustOK(t, a, mkD.op, mkD.path, "")
			req := racedReq(call{namespace.OpCreate, "/d/f", ""}, 7)
			coord.fail = errors.New("injected INV failure")
			aborted := a.Execute(req)
			coord.fail = nil
			if aborted.OK() || namespace.IsOutcome(aborted.Error()) {
				t.Fatalf("a create whose INV round failed answered %+v, want a failure of unknown outcome", aborted)
			}
			tx := st.Begin("check")
			_, err := tx.KVGet(store.TableResults, "c1", store.LockNone)
			tx.Abort()
			if !errors.Is(err, namespace.ErrNotFound) {
				t.Errorf("the aborted transaction recorded a row (%v)", err)
			}
			retry, twin := a.Execute(req), b.Execute(req)
			if !retry.OK() || !sameReply(retry, twin) {
				t.Errorf("the retry and the twin answered %+v and %+v", retry, twin)
			}
			if id, ok := exists(st, "/d/f"); !ok || id != retry.ID {
				t.Errorf("/d/f is %d (%v), the retry made %d", id, ok, retry.ID)
			}
			if got := replays(a, b); got != 1 {
				t.Errorf("%v raced replays, want 1", got)
			}
		})
	})
}

// TestRacedRowSurvivesRecovery: the result row is a store row like any
// other, so it outlives the store. A raced create commits; the store is
// recovered from its media, from the WAL alone or from a checkpoint taken
// at every commit; the create's twin, arriving at an engine on the
// recovered store, answers from the row and creates nothing.
func TestRacedRowSurvivesRecovery(t *testing.T) {
	for _, tc := range []struct {
		name  string
		every int // CheckpointEvery
	}{{"wal replay", 0}, {"checkpoint", 1}} {
		t.Run(tc.name, func(t *testing.T) {
			simtest.Run(t, func(clk *clock.Sim) {
				cfg := ndb.DefaultConfig()
				cfg.RTT, cfg.ReadService, cfg.WriteService = 0, 0, 0
				cfg.LockWaitTimeout = 150 * time.Millisecond
				cfg.Durable = ndb.NewDurable(clk, 4, lsm.DefaultConfig())
				cfg.Durability = ndb.DefaultDurabilityConfig()
				cfg.Durability.CheckpointEvery = tc.every
				fleet, _, _ := engineFleetOn(clk, ndb.New(clk, cfg), 1, 1)
				mustOK(t, fleet[0][0], namespace.OpMkdirs, "/d", "")
				req := racedReq(call{namespace.OpCreate, "/d/f", ""}, 7)
				first := fleet[0][0].Execute(req)
				if !first.OK() {
					t.Fatalf("raced create: %s", first.Err)
				}

				st, rs, err := ndb.Recover(clk, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if fromCkpt := rs.ReplayedRecords == 0; fromCkpt != (tc.every > 0) {
					t.Fatalf("recovery replayed %d records from LSN %d, want the row from the %s",
						rs.ReplayedRecords, rs.BaseLSN, tc.name)
				}
				fleet, _, _ = engineFleetOn(clk, st, 1, 1)
				twin := fleet[0][0].Execute(req)
				if !sameReply(first, twin) {
					t.Errorf("the twin answered %+v after recovery, the first copy %+v", twin, first)
				}
				if got := replays(fleet[0][0]); got != 1 {
					t.Errorf("%v raced replays after recovery, want 1", got)
				}
				if id, ok := exists(st, "/d/f"); !ok || id != first.ID {
					t.Errorf("/d/f is %d (%v) after recovery, the create made %d", id, ok, first.ID)
				}
				if bad := st.CheckIntegrity(); len(bad) > 0 {
					t.Errorf("integrity after recovery: %v", bad)
				}
			})
		})
	}
}
