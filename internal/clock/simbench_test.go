package clock

import (
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
