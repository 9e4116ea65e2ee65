// Package childindex is the namespace's one child index: a directory's
// children sorted by name, in chunks. The store files each directory's
// children in a List of INode IDs (ndb) and the metadata cache each trie
// node's in a List of nodes (cache), so a listing comes out in name order
// wherever it is served, and nothing sorts it.
//
// A lookup is a binary search over the chunks' first names, then over one
// chunk; an insert or a removal moves at most MaxChunk entries, however
// large the directory. A List allocates through a Pool, or with make when
// the Pool is nil: a caller that recycles its lists passes one, so a list
// that fills again takes the chunks an emptied one gave up, whichever list
// of whichever goroutine that was.
package childindex

import (
	"cmp"
	"math/bits"
	"slices"
	"strings"
	"sync"
)

// MaxChunk is the most entries one chunk of a List holds, so an insert or a
// delete moves at most that many. An entry holds its name's string, and
// while the collector marks, moving an entry costs a write barrier: with one
// flat list, a create or delete in a 512-entry directory moved 256 entries
// on average, and a store write transaction there cost 46 % more host time
// under collection than with a map per directory.
const MaxChunk = 1 << maxClass

// maxClass is MaxChunk's capacity class (class).
const maxClass = 6

// Entry is one child: V filed under Name. The key decides most comparisons
// of a search without reading the name's bytes, which sit elsewhere in
// memory: searching names alone made a store-only mix of creates, deletes
// and renames in 512-entry directories 10-15 % slower than a map per
// directory; with the key it runs level with one.
type Entry[V comparable] struct {
	key  uint64 // Key(Name)
	Name string
	Val  V
}

// NewEntry is the entry filing v under name.
func NewEntry[V comparable](name string, v V) Entry[V] {
	return Entry[V]{key: Key(name), Name: name, Val: v}
}

// Key is a name's first eight bytes, big-endian, zero-padded. Names whose
// keys differ order as their keys do; equal keys fall back to the names
// themselves, so entries sort by name either way.
func Key(name string) uint64 {
	var k uint64
	for i := 0; i < 8; i++ {
		k <<= 8
		if i < len(name) {
			k |= uint64(name[i])
		}
	}
	return k
}

// Cmp orders entries by name.
func Cmp[V comparable](a, b Entry[V]) int {
	if a.key != b.key {
		return cmp.Compare(a.key, b.key)
	}
	return strings.Compare(a.Name, b.Name)
}

// before reports whether e sorts before the name whose key is key.
func (e *Entry[V]) before(key uint64, name string) bool {
	return e.key < key || (e.key == key && e.Name < name)
}

// List is one directory's children sorted by name, in chunks: each chunk is
// sorted and at most MaxChunk long, and its names all sort before the next
// chunk's. A chunk is never empty, except a list's only chunk, which keeps
// its storage when the directory's last child goes. The nil list is empty
// too, so a new directory's list allocates nothing until its first child.
// Walk a list in name order chunk by chunk, each chunk in order.
type List[V comparable] [][]Entry[V]

// locate returns the chunk name, whose key is key, belongs in — the last
// one whose first name is at most name, or the first — and name's place in
// that chunk, and whether name is there. l must hold a chunk. (Hand-written
// binary searches: a lookup is on every path resolution, and a comparison
// function passed to slices.BinarySearchFunc is called indirectly.)
func (l List[V]) locate(key uint64, name string) (ci, i int, found bool) {
	for lo, hi := 1, len(l); lo < hi; { // chunks 1..ci start at or before name
		if m := int(uint(lo+hi) >> 1); l[m][0].before(key, name) || l[m][0].Name == name {
			ci, lo = m, m+1
		} else {
			hi = m
		}
	}
	c := l[ci]
	lo, hi := 0, len(c)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); c[m].before(key, name) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return ci, lo, lo < len(c) && c[lo].Name == name
}

// Find returns the value filed under name.
func (l List[V]) Find(name string) (v V, ok bool) {
	if len(l) == 0 {
		return v, false
	}
	if ci, i, found := l.locate(Key(name), name); found {
		return l[ci][i].Val, true
	}
	return v, false
}

// Len returns how many children the list holds.
func (l List[V]) Len() int {
	n := 0
	for _, c := range l {
		n += len(c)
	}
	return n
}

// Insert files e, or gives e's name e's value when the name is filed. A
// full chunk below MaxChunk grows into one twice its size, and a chunk of
// MaxChunk splits in halves, so no chunk outgrows its storage; the chunks
// come from p.
func (l List[V]) Insert(e Entry[V], p *Pool[V]) List[V] {
	if len(l) == 0 {
		return append(l, append(p.chunk(1), e))
	}
	ci, i, found := l.locate(e.key, e.Name)
	c := l[ci]
	if found {
		c[i].Val = e.Val
		return l
	}
	switch {
	case len(c) == MaxChunk:
		const half = MaxChunk / 2
		right := append(p.chunk(MaxChunk), c[half:]...)
		clear(c[half:])
		c = c[:half]
		l[ci] = c
		l = slices.Insert(l, ci+1, right)
		if i > half {
			ci, i, c = ci+1, i-half, right
		}
	case len(c) == cap(c):
		grown := append(p.chunk(min(MaxChunk, max(1, 2*cap(c)))), c...)
		p.free(c)
		c = grown
	}
	l[ci] = slices.Insert(c, i, e)
	return l
}

// Remove deletes name's entry if it still holds v, and the chunk with it —
// given back to p — when it was the chunk's last and not the list's only one.
func (l List[V]) Remove(name string, v V, p *Pool[V]) List[V] {
	if len(l) == 0 {
		return l
	}
	ci, i, found := l.locate(Key(name), name)
	switch {
	case !found || l[ci][i].Val != v:
	case len(l[ci]) == 1 && len(l) > 1:
		p.free(l[ci])
		l = slices.Delete(l, ci, ci+1)
	default:
		l[ci] = slices.Delete(l[ci], i, i+1)
	}
	return l
}

// Chunked cuts a slice sorted by name (Cmp) into a List whose chunks share
// its storage, each clipped, so a chunk's insert reallocates rather than
// reach the next chunk. A list with a full chunk gets room for one more, so
// the split an insert there makes allocates only the new chunk.
func Chunked[V comparable](sorted []Entry[V]) List[V] {
	n := (len(sorted) + MaxChunk - 1) / MaxChunk
	if len(sorted) >= MaxChunk {
		n++
	}
	l := make(List[V], 0, n)
	for len(sorted) > 0 {
		k := min(len(sorted), MaxChunk)
		l = append(l, sorted[:k:k])
		sorted = sorted[k:]
	}
	return l
}

// Pool keeps emptied chunks for the lists it serves to take again: one
// sync.Pool per capacity (a power of two up to MaxChunk; a List that draws
// on a Pool has no other), holding each chunk as a pointer to its array, so
// giving one back boxes nothing. Lists on many goroutines may share one
// Pool. The runtime drops what a sync.Pool holds within two collections, so
// a mass removal pins no memory for long. The zero Pool is empty; a nil
// *Pool allocates every chunk and keeps none. A Pool must not be copied
// after first use.
type Pool[V comparable] struct {
	class [maxClass + 1]sync.Pool // class k holds *[1<<k]Entry[V], emptied
}

// class is the capacity class that holds n entries: the smallest k with
// n <= 1<<k.
func class(n int) int { return bits.Len(uint(n - 1)) }

// chunk returns an empty chunk with room for n entries, n <= MaxChunk: a
// spare one of n's class when p keeps one, else a new one of that class
// (of n entries when p is nil).
func (p *Pool[V]) chunk(n int) []Entry[V] {
	if p == nil {
		return make([]Entry[V], 0, n)
	}
	k := class(n)
	switch a := p.class[k].Get().(type) {
	case *[1]Entry[V]:
		return a[:0]
	case *[2]Entry[V]:
		return a[:0]
	case *[4]Entry[V]:
		return a[:0]
	case *[8]Entry[V]:
		return a[:0]
	case *[16]Entry[V]:
		return a[:0]
	case *[32]Entry[V]:
		return a[:0]
	case *[MaxChunk]Entry[V]:
		return a[:0]
	}
	return make([]Entry[V], 0, 1<<k)
}

// free takes back c, a chunk p handed out, emptied. A chunk's entries past
// its length are zero (Insert and Remove clear what they vacate), so
// clearing its length empties it.
func (p *Pool[V]) free(c []Entry[V]) {
	if p == nil {
		return
	}
	clear(c)
	c = c[:cap(c)]
	switch k := class(len(c)); k {
	case 0:
		p.class[k].Put((*[1]Entry[V])(c))
	case 1:
		p.class[k].Put((*[2]Entry[V])(c))
	case 2:
		p.class[k].Put((*[4]Entry[V])(c))
	case 3:
		p.class[k].Put((*[8]Entry[V])(c))
	case 4:
		p.class[k].Put((*[16]Entry[V])(c))
	case 5:
		p.class[k].Put((*[32]Entry[V])(c))
	default:
		p.class[k].Put((*[MaxChunk]Entry[V])(c))
	}
}

// Release gives every chunk of l to p and clears l's own storage, which
// then holds no chunk: the caller drops l or refills it from length 0.
func (p *Pool[V]) Release(l List[V]) {
	for _, c := range l {
		p.free(c)
	}
	clear(l)
}
