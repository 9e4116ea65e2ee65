package ndb

import (
	"cmp"
	"slices"
	"strings"

	"lambdafs/internal/namespace"
)

// maxChunk is the most entries one chunk of a child list holds, so an
// insert or a delete moves at most that many. An entry holds its name's
// string, and while the collector marks, moving an entry costs a write
// barrier: with one flat list, a create or delete in a 512-entry directory
// moved 256 entries on average, and a write transaction there cost 46 %
// more host time under collection than with a map per directory.
const maxChunk = 64

// childEntry is one row of a directory's child list. The key decides most
// comparisons of a search without reading the name's bytes, which sit
// elsewhere in memory: searching names alone made a store-only mix of
// creates, deletes and renames in 512-entry directories 10-15 % slower
// than a map per directory; with the key it runs level with one.
type childEntry struct {
	key  uint64 // nameKey(name)
	name string
	id   namespace.INodeID
}

// newChild is the entry filing id under name.
func newChild(name string, id namespace.INodeID) childEntry {
	return childEntry{key: nameKey(name), name: name, id: id}
}

// nameKey is a name's first eight bytes, big-endian, zero-padded. Names
// whose keys differ order as their keys do; equal keys fall back to the
// names themselves, so entries sort by name either way.
func nameKey(name string) uint64 {
	var k uint64
	for i := 0; i < 8; i++ {
		k <<= 8
		if i < len(name) {
			k |= uint64(name[i])
		}
	}
	return k
}

// childList is one directory's children sorted by name, in chunks: each
// chunk is sorted and at most maxChunk long, and its names all sort before
// the next chunk's. A chunk is never empty, except a list's only chunk,
// which keeps its storage when the directory's last child goes. The nil
// list is empty too, so a new directory's list allocates nothing until its
// first child.
type childList [][]childEntry

// cmpChild orders entries by name.
func cmpChild(a, b childEntry) int {
	if a.key != b.key {
		return cmp.Compare(a.key, b.key)
	}
	return strings.Compare(a.name, b.name)
}

// before reports whether e sorts before the name whose key is key.
func (e *childEntry) before(key uint64, name string) bool {
	return e.key < key || (e.key == key && e.name < name)
}

// locate returns the chunk name, whose key is key, belongs in — the last
// one whose first name is at most name, or the first — and name's place in
// that chunk, and whether name is there. l must hold a chunk. (Hand-written binary
// searches: a lookup is on every path resolution, and a comparison
// function passed to slices.BinarySearchFunc is called indirectly.)
func (l childList) locate(key uint64, name string) (ci, i int, found bool) {
	for lo, hi := 1, len(l); lo < hi; { // chunks 1..ci start at or before name
		if m := int(uint(lo+hi) >> 1); l[m][0].before(key, name) || l[m][0].name == name {
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
	return ci, lo, lo < len(c) && c[lo].name == name
}

// find returns the ID filed under name.
func (l childList) find(name string) (namespace.INodeID, bool) {
	if len(l) == 0 {
		return namespace.InvalidID, false
	}
	if ci, i, ok := l.locate(nameKey(name), name); ok {
		return l[ci][i].id, true
	}
	return namespace.InvalidID, false
}

// len returns how many children the list holds.
func (l childList) len() int {
	n := 0
	for _, c := range l {
		n += len(c)
	}
	return n
}

// insert files e, or gives e's name e's ID when the name is filed. A full
// chunk splits in halves first, so no chunk outgrows its storage.
func (l childList) insert(e childEntry) childList {
	if len(l) == 0 {
		return childList{{e}}
	}
	ci, i, found := l.locate(e.key, e.name)
	c := l[ci]
	if found {
		c[i].id = e.id
		return l
	}
	if len(c) == maxChunk {
		const half = maxChunk / 2
		right := append(make([]childEntry, 0, maxChunk), c[half:]...)
		clear(c[half:])
		c = c[:half]
		l[ci] = c
		l = slices.Insert(l, ci+1, right)
		if i > half {
			ci, i, c = ci+1, i-half, right
		}
	}
	l[ci] = slices.Insert(c, i, e)
	return l
}

// remove deletes name's entry if it still holds id, and the chunk with it
// when it was the chunk's last and not the list's only one.
func (l childList) remove(name string, id namespace.INodeID) childList {
	if len(l) == 0 {
		return l
	}
	ci, i, found := l.locate(nameKey(name), name)
	switch {
	case !found || l[ci][i].id != id:
	case len(l[ci]) == 1 && len(l) > 1:
		l = slices.Delete(l, ci, ci+1)
	default:
		l[ci] = slices.Delete(l[ci], i, i+1)
	}
	return l
}

// chunked cuts a list sorted by name into a childList whose chunks share
// its storage, each clipped, so a chunk's insert reallocates rather than
// reach the next chunk. A list with a full chunk gets room for one more,
// so the split an insert there makes allocates only the new chunk.
func chunked(sorted []childEntry) childList {
	n := (len(sorted) + maxChunk - 1) / maxChunk
	if len(sorted) >= maxChunk {
		n++
	}
	l := make(childList, 0, n)
	for len(sorted) > 0 {
		k := min(len(sorted), maxChunk)
		l = append(l, sorted[:k:k])
		sorted = sorted[k:]
	}
	return l
}

// child returns the ID filed under (parent, name). Caller holds db.mu.
func (db *DB) child(parent namespace.INodeID, name string) (namespace.INodeID, bool) {
	return db.children[parent].find(name)
}

// link files n under its parent: one sorted insert, or a new ID for a name
// already filed. The root is no one's child. A no-op while Recover replays
// (finishRecovery builds the lists once). Caller holds db.mu for writing.
func (db *DB) link(n *namespace.INode) {
	if db.children == nil || n.ID == namespace.RootID {
		return
	}
	db.children[n.ParentID] = db.children[n.ParentID].insert(newChild(n.Name, n.ID))
}

// unlink removes old's entry from its parent's list if the entry still
// names old. Caller holds db.mu for writing.
func (db *DB) unlink(old *namespace.INode) {
	if kids := db.children[old.ParentID]; len(kids) > 0 {
		db.children[old.ParentID] = kids.remove(old.Name, old.ID)
	}
}

// linkAll files every row of nodes but the root under its parent: each list
// it adds to is gathered into one slice, sorted once and cut into chunks,
// not grown by one sorted insert per row. Caller holds db.mu for writing,
// and no name of nodes is filed in its directory yet.
func (db *DB) linkAll(nodes []*namespace.INode) {
	adds := make(map[namespace.INodeID][]childEntry)
	for _, n := range nodes {
		if n.ID != namespace.RootID {
			adds[n.ParentID] = append(adds[n.ParentID], newChild(n.Name, n.ID))
		}
	}
	for parent, kids := range adds {
		for _, c := range db.children[parent] {
			kids = append(kids, c...)
		}
		slices.SortFunc(kids, cmpChild)
		db.children[parent] = chunked(kids)
	}
}
