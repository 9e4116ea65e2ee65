package clock

import (
	"sync"
	"testing"
	"time"
)

func TestScaledSleepSpeedsUp(t *testing.T) {
	c := NewScaled(0.001) // 1000x faster than real time
	start := time.Now()
	c.Sleep(time.Second) // should cost ~1ms real
	if real := time.Since(start); real > 200*time.Millisecond {
		t.Fatalf("scaled sleep took %v real time, want ~1ms", real)
	}
}

func TestScaledNowAdvances(t *testing.T) {
	c := NewScaled(0.001)
	t0 := c.Now()
	c.Sleep(time.Second)
	if d := c.Since(t0); d < 500*time.Millisecond {
		t.Fatalf("virtual time advanced only %v after sleeping 1s virtual", d)
	}
}

// TestScaledEarlierDeadlineCutsLongSleep: a deadline that arrives while the
// ticker sleeps towards a much later one (a 10 ms hedge threshold behind a
// 5 s reclaim tick) fires on time, not when the ticker next wakes.
func TestScaledEarlierDeadlineCutsLongSleep(t *testing.T) {
	c := NewScaled(1)
	c.After(time.Minute)
	time.Sleep(5 * time.Millisecond) // the ticker is asleep by now
	start := time.Now()
	<-c.After(10 * time.Millisecond)
	if real := time.Since(start); real > 2*time.Second {
		t.Fatalf("a 10ms timer behind a 1m one fired after %v", real)
	}
}

func TestZeroScaleSleepIsInstant(t *testing.T) {
	c := NewScaled(0)
	start := time.Now()
	c.Sleep(time.Hour)
	if real := time.Since(start); real > 50*time.Millisecond {
		t.Fatalf("zero-scale sleep took %v", real)
	}
}

func TestZeroScaleAfterFiresImmediately(t *testing.T) {
	c := NewScaled(0)
	select {
	case <-c.After(time.Hour):
	case <-time.After(time.Second):
		t.Fatal("After on zero-scale clock did not fire")
	}
}

func TestManualNowFixedUntilAdvance(t *testing.T) {
	m := NewManual()
	t0 := m.Now()
	if !m.Now().Equal(t0) {
		t.Fatal("manual clock advanced on its own")
	}
	m.Advance(time.Minute)
	if got := m.Since(t0); got != time.Minute {
		t.Fatalf("Since = %v, want 1m", got)
	}
}

func TestManualSleepWakesOnAdvance(t *testing.T) {
	m := NewManual()
	done := make(chan struct{})
	go func() {
		m.Sleep(10 * time.Second)
		close(done)
	}()
	// Wait until the sleeper registers.
	for m.Waiters() == 0 {
		time.Sleep(time.Millisecond)
	}
	m.Advance(5 * time.Second)
	select {
	case <-done:
		t.Fatal("sleeper woke before its deadline")
	case <-time.After(20 * time.Millisecond):
	}
	m.Advance(5 * time.Second)
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("sleeper did not wake after deadline passed")
	}
}

func TestManualSleepZeroReturnsImmediately(t *testing.T) {
	m := NewManual()
	done := make(chan struct{})
	go func() {
		m.Sleep(0)
		m.Sleep(-time.Second)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("zero-duration sleep blocked")
	}
}

func TestManualManySleepersWakeInOneAdvance(t *testing.T) {
	m := NewManual()
	const n = 50
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m.Sleep(time.Duration(i+1) * time.Second)
		}(i)
	}
	for m.Waiters() < n {
		time.Sleep(time.Millisecond)
	}
	m.Advance(time.Duration(n) * time.Second)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatalf("%d sleepers still blocked after advance", m.Waiters())
	}
}

func TestManualAfterPartialAdvance(t *testing.T) {
	m := NewManual()
	ch := m.After(10 * time.Second)
	m.Advance(3 * time.Second)
	m.Advance(3 * time.Second)
	select {
	case <-ch:
		t.Fatal("After fired too early")
	default:
	}
	m.Advance(4 * time.Second)
	select {
	case ts := <-ch:
		if want := Epoch.Add(10 * time.Second); !ts.Equal(want) {
			t.Fatalf("After delivered %v, want %v", ts, want)
		}
	case <-time.After(time.Second):
		t.Fatal("After never fired")
	}
}
