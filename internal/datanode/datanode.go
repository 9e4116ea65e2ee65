// Package datanode simulates the DFS DataNodes and re-implements the
// maintenance features λFS had to make serverless-compatible (§1, §3):
// instead of streaming heartbeats and block reports to long-lived
// NameNodes, DataNodes publish them to the persistent metadata store on a
// regular interval, and NameNodes read (and briefly cache) that table when
// they need block locations or liveness.
//
// # Concurrency and ownership
//
// A DataNode is safe for concurrent use: its block map is mutex-guarded,
// and Start spawns exactly one publisher goroutine (clock.GoDaemon on the
// injected clock, interval waits in clock.SleepOr) that Stop joins.
// There is deliberately no channel between DataNodes and NameNodes — the
// store is the only shared medium, which is the serverless-compatibility
// point. On the reading side, a View is safe for concurrent Live/
// PickLocations calls from many NameNode goroutines: the cached report
// set is mutex-guarded, a single caller is elected to refresh when the
// TTL lapses (the `refreshing` flag) while the rest serve the stale
// copy, and the store read itself happens outside the mutex.
package datanode

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"lambdafs/internal/clock"
	"lambdafs/internal/namespace"
	"lambdafs/internal/store"
)

// Report is one DataNode's periodic publication.
type Report struct {
	ID        string
	Timestamp time.Time
	Capacity  int64
	Used      int64
	Blocks    int
}

// DataNode periodically publishes a heartbeat/block report row.
type DataNode struct {
	id       string
	clk      *clock.Sim
	st       store.Store
	interval time.Duration

	mu     sync.Mutex
	blocks map[namespace.BlockID]int64
	stop   *clock.Event
	done   *clock.Event
}

// New creates a DataNode publishing every interval; call Start to begin.
func New(clk *clock.Sim, st store.Store, id string, interval time.Duration) *DataNode {
	return &DataNode{
		id:       id,
		clk:      clk,
		st:       st,
		interval: interval,
		blocks:   make(map[namespace.BlockID]int64),
		stop:     clock.NewEvent(clk),
		done:     clock.NewEvent(clk),
	}
}

// ID returns the DataNode's identifier.
func (dn *DataNode) ID() string { return dn.id }

// AddBlock records a stored block replica.
func (dn *DataNode) AddBlock(id namespace.BlockID, size int64) {
	dn.mu.Lock()
	dn.blocks[id] = size
	dn.mu.Unlock()
}

// BlockCount returns the number of replicas held.
func (dn *DataNode) BlockCount() int {
	dn.mu.Lock()
	defer dn.mu.Unlock()
	return len(dn.blocks)
}

// Publish writes one report row immediately.
func (dn *DataNode) Publish() error {
	dn.mu.Lock()
	var used int64
	for _, sz := range dn.blocks {
		used += sz
	}
	rep := Report{
		ID:        dn.id,
		Timestamp: dn.clk.Now(),
		Capacity:  1 << 40,
		Used:      used,
		Blocks:    len(dn.blocks),
	}
	dn.mu.Unlock()
	data, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	return store.RunTx(dn.st, dn.id, nil, func(tx store.Tx) error {
		return tx.KVPut(store.TableDataNodes, dn.id, data)
	})
}

// Start launches the publication loop (first report immediate).
func (dn *DataNode) Start() {
	clock.GoDaemon(dn.clk, func() {
		defer dn.done.Set()
		for {
			if err := dn.Publish(); err != nil {
				// The store outlives DataNodes in every experiment; a
				// failed publish only delays discovery.
				_ = err
			}
			if !clock.SleepOr(dn.clk, dn.interval, dn.stop) {
				return
			}
		}
	})
}

// Stop halts publication.
func (dn *DataNode) Stop() {
	dn.stop.Set()
	clock.Run(dn.clk, dn.done.Wait)
}

// Discover reads all live DataNode reports from the store, dropping ones
// staler than maxAge (0 = keep all). This is the serverless "DataNode
// discovery" path NameNodes use.
func Discover(clk *clock.Sim, st store.Store, owner string, maxAge time.Duration) ([]Report, error) {
	var reports []Report
	err := store.RunTx(st, owner, nil, func(tx store.Tx) error {
		reports = reports[:0]
		rows, err := tx.KVScan(store.TableDataNodes, "")
		if err != nil {
			return err
		}
		now := clk.Now()
		for _, raw := range rows {
			var rep Report
			if err := json.Unmarshal(raw, &rep); err != nil {
				continue
			}
			if maxAge > 0 && now.Sub(rep.Timestamp) > maxAge {
				continue
			}
			reports = append(reports, rep)
		}
		return nil
	})
	return reports, err
}

// View is a NameNode-side cached view of the DataNode fleet, refreshed
// from the store when stale. It also assigns block replica locations.
// Refreshes run outside the mutex (they perform store round trips, which
// must never be held under a lock on the simulation clock); concurrent
// callers serve the stale view while one refreshes.
type View struct {
	clk     *clock.Sim
	st      store.Store
	owner   string
	ttl     time.Duration
	replica int

	mu         sync.Mutex
	reports    []Report
	refreshed  time.Time
	refreshing bool
	rrNext     int
}

// NewView creates a view refreshing at most every ttl with the given
// replication factor.
func NewView(clk *clock.Sim, st store.Store, owner string, ttl time.Duration, replication int) *View {
	return &View{clk: clk, st: st, owner: owner, ttl: ttl, replica: replication}
}

// Live returns a copy of the known DataNode reports, refreshing when stale.
func (v *View) Live() []Report {
	v.refresh()
	v.mu.Lock()
	defer v.mu.Unlock()
	return append([]Report(nil), v.reports...)
}

// refresh re-reads the reports from the store when they are stale and no
// other caller is re-reading them already; the others serve the stale view
// meanwhile.
func (v *View) refresh() {
	v.mu.Lock()
	stale := v.reports == nil || v.clk.Since(v.refreshed) > v.ttl
	doRefresh := stale && !v.refreshing
	if doRefresh {
		v.refreshing = true
	}
	v.mu.Unlock()
	if !doRefresh {
		return
	}
	reports, err := Discover(v.clk, v.st, v.owner, 0)
	v.mu.Lock()
	v.refreshing = false
	if err == nil {
		if reports == nil {
			reports = []Report{}
		}
		v.reports = reports
		v.refreshed = v.clk.Now()
	}
	v.mu.Unlock()
}

// PickLocations chooses replica targets for a new block, round-robin over
// live DataNodes ("" slice when none are known). It reads the reports in
// place, under the view's lock: only the targets are copied out.
func (v *View) PickLocations() []string {
	v.refresh()
	v.mu.Lock()
	defer v.mu.Unlock()
	live := v.reports
	if len(live) == 0 {
		return nil
	}
	n := v.replica
	if n > len(live) {
		n = len(live)
	}
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, live[(v.rrNext+i)%len(live)].ID)
	}
	v.rrNext = (v.rrNext + 1) % len(live)
	return out
}

// String renders the view for diagnostics.
func (v *View) String() string {
	return fmt.Sprintf("datanode.View(%d live)", len(v.Live()))
}
