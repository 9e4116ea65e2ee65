package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"lambdafs/internal/namespace"
)

// FuzzResultCache drives random put/get sequences over a few clients and
// small Seqs against a map model of the per-client rule: a client's entry
// is its highest-Seq reply (a tie replaces), a get answers only its exact
// Seq, and a full cache evicts the client that arrived first.
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
			var want *namespace.Response
			if r, ok := model[key.ClientID]; ok && r.seq == key.Seq {
				want = r.resp
			}
			if got := rc.get(key); got != want {
				t.Fatalf("capacity %d step %d: get %v answered %p, model %p", capacity, step, key, got, want)
			}
			if put {
				resp := &namespace.Response{}
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
				rc.put(key, resp)
			}
			if n := rc.len(); n != len(model) || n > capacity {
				t.Fatalf("capacity %d step %d: cache holds %d clients, model %d", capacity, step, n, len(model))
			}
			for id, r := range model {
				if got := rc.get(namespace.RequestKey{ClientID: id, Seq: r.seq}); got != r.resp {
					t.Fatalf("capacity %d step %d: client %s Seq %d answered %p, model %p", capacity, step, id, r.seq, got, r.resp)
				}
			}
		}
	})
}
