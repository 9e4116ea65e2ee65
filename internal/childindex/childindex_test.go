package childindex

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// fill files n entries, named in order, into an empty list through p.
func fill(n int, p *Pool[*int]) List[*int] {
	var l List[*int]
	for i := 0; i < n; i++ {
		v := i
		l = l.Insert(NewEntry(fmt.Sprintf("n%04d", i), &v), p)
	}
	return l
}

// TestPoolSharedAcrossGoroutines: goroutines that each churn lists of their
// own through one shared pool — filing, removing, releasing and refilling —
// never see an entry they did not file: a chunk is handed to one list at a
// time, whichever goroutine gave it back. (check.sh runs it under -race.)
func TestPoolSharedAcrossGoroutines(t *testing.T) {
	const workers, lists, names, steps = 4, 3, 150, 3000
	var p Pool[int]
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			ls := make([]List[int], lists)
			models := make([]map[string]int, lists)
			for i := range models {
				models[i] = map[string]int{}
			}
			for step := 0; step < steps; step++ {
				i, name := rng.Intn(lists), fmt.Sprintf("k%03d", rng.Intn(names))
				l, m := ls[i], models[i]
				switch op := rng.Intn(20); {
				case op == 0:
					p.Release(l)
					l, models[i] = l[:0], map[string]int{}
				case op < 8:
					if v, ok := m[name]; ok {
						l = l.Remove(name, v, &p)
						delete(m, name)
					}
				default:
					v := w<<20 | step
					l = l.Insert(NewEntry(name, v), &p)
					m[name] = v
				}
				ls[i] = l
				if err := matches(l, models[i]); err != nil {
					t.Errorf("worker %d, list %d, step %d: %v", w, i, step, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// matches reports how l differs from m: every entry filed once, in name
// order, with its value, and nothing else.
func matches(l List[int], m map[string]int) error {
	var prev string
	n := 0
	for _, c := range l {
		for _, e := range c {
			if n > 0 && e.Name <= prev {
				return fmt.Errorf("%q after %q", e.Name, prev)
			}
			if v, ok := m[e.Name]; !ok || v != e.Val {
				return fmt.Errorf("%q holds %#x, want %#x (filed %v)", e.Name, e.Val, v, ok)
			}
			prev = e.Name
			n++
		}
	}
	if n != len(m) {
		return fmt.Errorf("%d entries, want %d", n, len(m))
	}
	return nil
}
