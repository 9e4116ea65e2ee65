package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"lambdafs/internal/clock"
	"lambdafs/internal/namespace"
	"lambdafs/internal/simtest"
)

// FuzzResultCache drives random put/get sequences over a few clients and
// small Seqs against a map model of the per-client rule: a client's entry
// is its highest-Seq reply (a tie replaces), a get answers only its exact
// Seq, and a full cache evicts the client that arrived first. Each put's
// reply carries the step as its ID, so a get names the put it copies.
func FuzzResultCache(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		data := make([]byte, 128)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		capacity, data := int(data[0])%6+1, data[1:]
		rc := newResultCache(capacity)
		model := map[string]clientResult{}
		var arrived []string // the model's clients, first to arrive first
		for step := 0; len(data) >= 2; step, data = step+1, data[2:] {
			put := data[0]&1 == 1
			key := namespace.RequestKey{ClientID: fmt.Sprintf("c%d", data[0]>>1%10), Seq: uint64(data[1] % 6)}
			var want namespace.INodeID // the put whose reply the get copies; 0 for none
			if r, ok := model[key.ClientID]; ok && r.seq == key.Seq {
				want = r.resp.ID
			}
			if got, ok := rc.get(key); got.ID != want || ok != (want != 0) {
				t.Fatalf("capacity %d step %d: get %v answered put %d (%v), model put %d", capacity, step, key, got.ID, ok, want)
			}
			if put {
				resp := namespace.Response{ID: namespace.INodeID(step + 1)}
				switch r, ok := model[key.ClientID]; {
				case ok && key.Seq >= r.seq:
					model[key.ClientID] = clientResult{key.Seq, resp}
				case !ok:
					if len(arrived) == capacity {
						delete(model, arrived[0])
						arrived = slices.Delete(arrived, 0, 1)
					}
					arrived = append(arrived, key.ClientID)
					model[key.ClientID] = clientResult{key.Seq, resp}
				}
				rc.put(key, &resp)
			}
			if n := rc.len(); n != len(model) || n > capacity {
				t.Fatalf("capacity %d step %d: cache holds %d clients, model %d", capacity, step, n, len(model))
			}
			for id, r := range model {
				if got, ok := rc.get(namespace.RequestKey{ClientID: id, Seq: r.seq}); !ok || got.ID != r.resp.ID {
					t.Fatalf("capacity %d step %d: client %s Seq %d answered put %d (%v), model put %d", capacity, step, id, r.seq, got.ID, ok, r.resp.ID)
				}
			}
		}
	})
}

// The result cache keeps a client's reply by value. The first execution's
// reply is written into its client's reply storage, which the client's
// next call writes over; a resubmission the cache answers after that call
// still gets the original reply, copied into its own storage.
func TestResultCacheReplyOutlivesClientStorage(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		e, _ := soloEngine(clk)
		var storage namespace.Reply // the client's, reused call after call
		create := namespace.Request{Op: namespace.OpCreate, Path: "/f", ClientID: "c1", Seq: 1, Reply: &storage}
		resp := e.Execute(create)
		if !resp.OK() || resp != &storage.Response {
			t.Fatalf("create /f: %+v, want a success written into the request's storage", resp)
		}
		first := *resp
		// The client's next call, a read, which the cache keeps nothing of.
		if resp := e.Execute(namespace.Request{Op: namespace.OpStat, Path: "/", ClientID: "c1", Seq: 2, Reply: &storage}); !resp.OK() || resp.ID != namespace.RootID {
			t.Fatalf("stat /: %+v", resp)
		}
		create.Reply = new(namespace.Reply)
		again := e.Execute(create)
		if !reflect.DeepEqual(*again, first) || again != &create.Reply.Response {
			t.Errorf("resubmitted create: %+v, want the original reply %+v in its own storage", *again, first)
		}
		if got := e.tel.resultHits.Value(); got != 1 {
			t.Errorf("%v result-cache hits, want 1", got)
		}
	})
}
