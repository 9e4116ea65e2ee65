package clock

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

func BenchmarkSimAdvance(b *testing.B) {
	s := NewSim()
	defer s.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	Go(s, func() {
		defer wg.Done()
		for i := 0; i < b.N; i++ {
			s.Sleep(time.Microsecond)
		}
	})
	wg.Wait()
}

func BenchmarkSimAdvance8Sleepers(b *testing.B) {
	s := NewSim()
	defer s.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		Go(s, func() {
			defer wg.Done()
			for i := 0; i < b.N/8; i++ {
				s.Sleep(time.Duration(g+1) * time.Microsecond)
			}
		})
	}
	wg.Wait()
}

// BenchmarkIdleJoin: one phase per iteration, benchmark/run.go's join: 16
// actors sleeping 20 times each, joined by Idle over a raw WaitGroup. Idle
// is only sound on one P, so the benchmark pins it.
func BenchmarkIdleJoin(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s := NewSim()
	defer s.Close()
	Run(s, func() {
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			for a := 1; a <= 16; a++ {
				wg.Add(1)
				Go(s, func() {
					defer wg.Done()
					for r := 0; r < 20; r++ {
						s.Sleep(time.Duration(a) * time.Microsecond)
					}
				})
			}
			Idle(s, wg.Wait)
		}
	})
}
