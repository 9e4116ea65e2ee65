// Package locks is a lambdafs-vet golden fixture: a return under a
// non-defer-managed sync mutex must be flagged — in a function, in a
// closure under its own lock, and for a function-local mutex — while
// deferred unlocks, a closure defined inside a locked section, and a
// type's own Lock/Unlock methods must not. (Raw channel waits are
// virtualtime's findings; see that fixture.)
package locks

import "sync"

type box struct {
	mu sync.Mutex
	rw sync.RWMutex
	n  int
}

func badReturn(b *box) int {
	b.mu.Lock()
	if b.n > 0 {
		return b.n // want locks
	}
	b.mu.Unlock()
	return 0
}

func badRead(b *box) int {
	b.rw.RLock()
	return b.n // want locks
}

func badLocal(n int) int {
	var mu sync.Mutex
	mu.Lock()
	return n // want locks
}

// badClosure returns under the closure's own lock.
func badClosure(b *box) func() int {
	return func() int {
		b.mu.Lock()
		return b.n // want locks
	}
}

func cleanDefer(b *box) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.n
}

func cleanStraightline(b *box) int {
	b.mu.Lock()
	v := b.n
	b.mu.Unlock()
	return v
}

// cleanClosureInLock defines a closure while b.mu is held: the closure's
// return runs later, on its own stack, and is not charged to b.mu.
func cleanClosureInLock(b *box) func() int {
	b.mu.Lock()
	f := func() int { return b.n }
	b.mu.Unlock()
	return f
}

// gate has Lock and Unlock methods of its own: they are not a mutex's.
type gate struct{ open bool }

func (g *gate) Lock()   { g.open = false }
func (g *gate) Unlock() { g.open = true }

func cleanOwnLock(g *gate, n int) int {
	g.Lock()
	if n > 0 {
		return n
	}
	g.Unlock()
	return 0
}

func allowed(b *box) int {
	b.mu.Lock()
	return b.n //vet:allow locks fixture demonstrating a reasoned suppression
}
