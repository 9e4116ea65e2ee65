// Package cache implements the serverless metadata cache that each λFS
// NameNode keeps in its function instance memory (§3.3): cached INodes are
// stored in a path-component trie so that (a) a read can be served
// entirely locally when the *whole* component chain of its path is cached,
// and (b) subtree operations can invalidate an entire directory subtree
// with a single prefix traversal (Appendix D).
//
// The cache is byte-budgeted with LRU eviction. Two invariants hold:
//
//  1. A cached INode's ancestors are always cached too (chains are
//     inserted root-down and evictions remove whole subtrees), so a chain
//     hit test is a single trie descent.
//  2. Touching an entry touches its ancestors, so an ancestor is never
//     older than its hottest descendant and evicting the LRU victim's
//     subtree only removes colder entries.
//
// # One node per component
//
// A path component is one node: its trie links, its cached row with its
// byte count and listing state, and its place in the intrusive LRU list (a
// sentinel node in the Cache anchors it). A node's children are a
// childindex.List, sorted by name: a step down the trie is a binary search,
// and a listing is a walk that needs no sort. A list of one chunk — any
// directory of up to childindex.MaxChunk children — keeps its chunk header
// in the node itself, so a directory's first child adds only its chunk. No
// path string is stored. A node
// without a row is structural: something was cached under it without it (Put
// without the ancestors, or an eviction that took an ancestor mid-chain).
// Lookups treat it as absent; the rows under it count towards Len and the
// budget. Eviction and invalidation unlink a node from its parent and recurse
// over its subtree; the root is emptied in place.
//
// # Recycled nodes
//
// Every node eviction or invalidation takes out of the tree goes on the
// Cache's free list, emptied: no row, no parent, no name, no children,
// listing unknown. Its child list's chunks go, emptied, to the Cache's chunk
// pool (childindex.Pool), which files them by capacity. A new component
// takes a node from the free list, and a child list a chunk from the pool,
// before either allocates, so a cache under memory pressure — each miss
// evicting cold rows to insert a chain or a listing — caches rows without
// allocating once both have warmed up. Neither holds more than the tree: a
// removal that leaves more spare nodes than live ones drops the excess, and
// the pool never keeps more chunk capacity than the tree's lists hold, so a
// mass invalidation pins no memory. A node pointer never leaves the package,
// and no method holds one across an eviction without checking detached
// first (a node on the list has no parent), so a recycled node is never
// mistaken for the component it used to be.
//
// # Concurrency and ownership
//
// A Cache is owned by one NameNode engine but accessed from many
// goroutines: request handlers reading and inserting chains, and
// coordinator delivery goroutines applying INVs (possibly several
// concurrently during a batch round). All operations take the cache's
// single internal mutex, so invalidations are atomic with respect to
// lookups. The cache keeps the *namespace.INode it is given and hands that
// same pointer out, read-only: a published INode is never written again
// (namespace.INode), so the store, this cache and every chain share one
// snapshot per row version and a hit copies nothing. What the cache owns is
// which version it holds — replacing an entry swaps the pointer, never edits
// the pointee — and freshness is the coherence protocol's.
//
// # A directory's listing
//
// A cached directory's listing is in one of three states. Unknown: some
// child may be missing, ls goes to the store. Complete: every child is
// cached, ls is served locally. Suspended: it was complete, and a writer on
// this NameNode that holds the directory's row exclusive in the store is
// changing the child set; never served. Only two calls make a listing
// complete: PutListing (a fill, under the directory's shared store lock) and
// ResumeListing (the suspending writer at its commit point, still under the
// exclusive lock, after installing the rows it committed). Everything else
// that touches a listing only ever makes it unknown: a child evicted or
// invalidated (peer INV, prefix INV), ClearComplete, a second
// SuspendListing finding the first one's suspension still standing (that
// writer never committed), a ResumeListing whose child did not survive
// eviction. So a complete listing is always an exact function of the store
// under locks its maker held.
package cache

import (
	"sync"

	"lambdafs/internal/childindex"
	"lambdafs/internal/namespace"
)

// Stats counts what only the cache sees. Hits and misses are counted by
// the engine that looks up (lambdafs_core_cache_{hits,misses}_total).
type Stats struct {
	Puts          uint64
	Evictions     uint64
	Invalidations uint64
}

// node is one path component (see the package doc).
type node struct {
	name       string
	parent     *node                        // nil for the root and for a node no longer in the tree
	kids       childindex.List[*node]       // the children, in name order; nil until the first
	kids0      [1][]childindex.Entry[*node] // kids's storage while it is one chunk
	inode      *namespace.INode             // nil: a structural node
	bytes      int64
	listing    listingState // a cached directory's (see the package doc)
	prev, next *node        // LRU neighbours while the node holds a row; next links the free list
}

type listingState uint8

const (
	listingUnknown listingState = iota
	listingComplete
	listingSuspended
)

// Cache is a byte-budgeted metadata cache. Safe for concurrent use.
type Cache struct {
	mu     sync.Mutex
	root   node
	lru    node                   // sentinel: lru.next is the most recently used row, lru.prev the least
	free   *node                  // detached nodes kept for reuse (see the package doc)
	spare  int                    // the free list's length, never above nodes
	chunks childindex.Pool[*node] // the child lists' storage, recycled the same way
	nodes  int                    // nodes in the tree besides the root, structural ones included
	rows   int
	budget int64
	used   int64
	stats  Stats
}

// New returns a cache holding at most budget bytes of INode metadata.
// budget <= 0 means unlimited.
func New(budget int64) *Cache {
	c := &Cache{budget: budget}
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	return c
}

const perEntryOverhead = 64

// entryBytes charges a row for its INode, its path ("/" + the components
// joined by "/", pathLen bytes) and the per-entry overhead.
func entryBytes(pathLen int, n *namespace.INode) int64 {
	return int64(n.ApproxBytes() + pathLen + perEntryOverhead)
}

// nodeLocked returns the node cs leads to, structural or not, or nil.
func (c *Cache) nodeLocked(cs namespace.Components) *node {
	n := &c.root
	for comp, ok := cs.Next(); ok && n != nil; comp, ok = cs.Next() {
		n, _ = n.kids.Find(comp)
	}
	return n
}

// rowLocked returns the node cs leads to if it holds a row, else nil.
func (c *Cache) rowLocked(cs namespace.Components) *node {
	if n := c.nodeLocked(cs); n != nil && n.inode != nil {
		return n
	}
	return nil
}

// makeLocked is nodeLocked that adds the missing nodes, structural.
func (c *Cache) makeLocked(cs namespace.Components) *node {
	n := &c.root
	for comp, ok := cs.Next(); ok; comp, ok = cs.Next() {
		n = c.childLocked(n, comp)
	}
	return n
}

// childLocked returns n's child called name, adding a structural one — off
// the free list when it has one — if need be.
func (c *Cache) childLocked(n *node, name string) *node {
	if ch, _ := n.kids.Find(name); ch != nil {
		return ch
	}
	ch := c.free
	if ch != nil {
		c.free, ch.next = ch.next, nil
		c.spare--
		ch.name, ch.parent = name, n
	} else {
		ch = &node{name: name, parent: n}
	}
	if n.kids == nil {
		n.kids = n.kids0[:0]
	}
	n.kids = n.kids.Insert(childindex.NewEntry(name, ch), &c.chunks)
	c.nodes++
	return ch
}

// detached reports whether n was taken out of the tree.
func (c *Cache) detached(n *node) bool { return n.parent == nil && n != &c.root }

// pathLen is the length of the path n stands for.
func (n *node) pathLen() int {
	l := 0
	for ; n.parent != nil; n = n.parent {
		l += 1 + len(n.name)
	}
	return max(l, 1)
}

// PutChain caches the INode chain of a resolved path: chain[0] is the
// root INode and chain[len-1] the terminal INode of path. Intermediate
// entries are cached under their ancestor paths.
func (c *Cache) PutChain(path string, chain []*namespace.INode) {
	cs := namespace.Walk(path)
	if len(chain) == 0 || len(chain) > 1+cs.Len() {
		return // more rows than the root plus one per component
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := &c.root
	for i, in := range chain {
		if i > 0 {
			if c.detached(n) {
				// An eviction took n: walk down again, leaving structural nodes.
				n = &c.root
				for again, k := namespace.Walk(path), 1; k < i; k++ {
					comp, _ := again.Next()
					n = c.childLocked(n, comp)
				}
			}
			comp, _ := cs.Next()
			n = c.childLocked(n, comp)
		}
		c.setLocked(n, in)
	}
}

// Put caches a single INode under path. The caller is responsible for the
// ancestors-cached invariant (PutChain is the usual entry point).
func (c *Cache) Put(path string, n *namespace.INode) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.setLocked(c.makeLocked(namespace.Walk(path)), n)
}

// setLocked caches in at n, a node in the tree, as the most recently used
// row, then evicts down to the budget.
func (c *Cache) setLocked(n *node, in *namespace.INode) {
	nb := entryBytes(n.pathLen(), in)
	if n.inode == nil {
		n.listing = listingUnknown
		c.rows++
		c.stats.Puts++
	}
	c.used += nb - n.bytes // a structural node's bytes are 0
	n.inode, n.bytes = in, nb
	c.touchLocked(n)
	c.evictLocked()
}

// touchLocked moves n's row to the front of the LRU list.
func (c *Cache) touchLocked(n *node) {
	if n.prev != nil {
		n.prev.next, n.next.prev = n.next, n.prev
	}
	n.prev, n.next = &c.lru, c.lru.next
	n.next.prev, c.lru.next = n, n
}

// evictLocked evicts LRU subtrees until within budget.
func (c *Cache) evictLocked() {
	for c.budget > 0 && c.used > c.budget && c.lru.prev != &c.lru {
		c.removeLocked(c.lru.prev, &c.stats.Evictions)
	}
}

// removeLocked drops n's subtree (dropLocked) and, when a row went with it,
// makes the parent's listing unknown.
func (c *Cache) removeLocked(n *node, count *uint64) int {
	if n == nil {
		return 0
	}
	parent := n.parent
	removed := c.dropLocked(n, count)
	if removed > 0 && parent != nil {
		parent.listing = listingUnknown
	}
	return removed
}

// dropLocked takes n (if any) and its subtree out of the tree, the LRU list
// and the byte count (the root is emptied in place), and adds the rows that
// went to *count and returns it. The parent's listing is the caller's.
func (c *Cache) dropLocked(n *node, count *uint64) int {
	if n == nil {
		return 0
	}
	if p := n.parent; p != nil {
		p.kids = p.kids.Remove(n.name, n, &c.chunks)
	}
	removed := c.emptyLocked(n)
	for ; c.spare > c.nodes; c.spare-- {
		c.free = c.free.next // more spare nodes than live ones: let the excess go
	}
	*count += uint64(removed)
	return removed
}

// emptyLocked unlinks the rows of n's subtree and puts every node in it but
// the root on the free list, emptied, and returns how many rows there were.
func (c *Cache) emptyLocked(n *node) int {
	removed := 0
	if n.inode != nil {
		n.prev.next, n.next.prev = n.next, n.prev
		c.used -= n.bytes
		n.prev, n.next, n.inode, n.bytes = nil, nil, nil, 0
		c.rows--
		removed++
	}
	for _, chunk := range n.kids {
		for _, e := range chunk {
			removed += c.emptyLocked(e.Val)
		}
	}
	c.chunks.Release(n.kids)
	n.kids, n.kids0[0] = nil, nil
	n.listing = listingUnknown
	if n != &c.root {
		n.name, n.parent, n.next = "", nil, c.free
		c.free = n
		c.spare++
		c.nodes--
	}
	return removed
}

// Lookup returns the cached INode chain for path — the cached pointers
// themselves, read-only — when the entire chain, including the terminal
// INode, is cached; otherwise nil and hit false. Either way it touches the
// cached prefix of the chain in the LRU, leaf to root, so a miss keeps the
// ancestors its fill is about to reuse as warm as a hit would. The chain is
// a new slice: LookupInto with a nil buffer.
func (c *Cache) Lookup(path string) (chain []*namespace.INode, hit bool) {
	return c.LookupInto(path, nil)
}

// LookupInto is Lookup writing the chain of a hit into buf's storage when
// its capacity holds it, and into a new slice otherwise: a caller that
// hands in a stack buffer and keeps the chain on its stack allocates
// nothing.
func (c *Cache) LookupInto(path string, buf []*namespace.INode) (chain []*namespace.INode, hit bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, depth, hit := c.chainLocked(namespace.Walk(path))
	if hit {
		if chain = buf[:0]; cap(chain) >= depth {
			chain = chain[:depth]
		} else {
			chain = make([]*namespace.INode, depth)
		}
	}
	for i := depth - 1; i >= 0; i, n = i-1, n.parent {
		if hit {
			chain[i] = n.inode
		}
		c.touchLocked(n)
	}
	return chain, hit
}

// chainLocked follows cs down from the root for as long as the nodes hold
// rows: it returns the last node that did, how many did, and whether that
// took in all of cs.
func (c *Cache) chainLocked(cs namespace.Components) (n *node, depth int, all bool) {
	if n = &c.root; n.inode == nil {
		return n, 0, false
	}
	for comp, ok := cs.Next(); ok; comp, ok = cs.Next() {
		next, _ := n.kids.Find(comp)
		if next == nil || next.inode == nil {
			return n, depth + 1, false
		}
		n, depth = next, depth+1
	}
	return n, depth + 1, true
}

// stackDepth is the chain length Get's stack buffer holds; a deeper chain
// spills to the heap.
const stackDepth = 16

// Get returns the cached terminal INode for path, touching its chain.
func (c *Cache) Get(path string) (*namespace.INode, bool) {
	var buf [stackDepth]*namespace.INode
	chain, hit := c.LookupInto(path, buf[:0])
	if !hit {
		return nil, false
	}
	return chain[len(chain)-1], true
}

// Contains reports whether path's terminal INode is cached, without
// touching the LRU (diagnostic).
func (c *Cache) Contains(path string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rowLocked(namespace.Walk(path)) != nil
}

// Invalidate removes the entry for path and, because descendants must not
// outlive their ancestors, every cached entry underneath it. Returns the
// number of entries removed. This implements both the INV of the coherence
// protocol (§3.5) and the subtree/prefix INV of Appendix D: the invariant
// makes every invalidation a subtree removal.
func (c *Cache) Invalidate(path string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.removeLocked(c.nodeLocked(namespace.Walk(path)), &c.stats.Invalidations)
}

// PutListing caches a directory's full child listing: every child INode
// is cached under dir and dir's entry is marked listing-complete, making
// subsequent ls operations servable locally (§3.3 read optimization). The
// dir chain must already be cached (PutChain the resolution first).
func (c *Cache) PutListing(dir string, children []*namespace.INode) {
	cs := namespace.Walk(dir)
	c.mu.Lock()
	defer c.mu.Unlock()
	d := c.rowLocked(cs)
	if d == nil {
		return
	}
	for _, child := range children {
		if c.detached(d) { // a put's eviction reached dir's subtree
			d = c.makeLocked(cs)
		}
		c.setLocked(c.childLocked(d, child.Name), child)
	}
	// Mark complete only when the dir and every child survived any
	// evictions the puts triggered.
	if c.detached(d) || d.inode == nil {
		return
	}
	for _, child := range children {
		if ch, _ := d.kids.Find(child.Name); ch == nil || ch.inode == nil {
			return
		}
	}
	d.listing = listingComplete
}

// SuspendListing is a writer's own half of the INV for path when it is
// adding, removing or replacing the INode there under the parent
// directory's exclusive store lock: path's entry goes (with anything under
// it), and so does gone's — the old path of a rename inside the directory,
// else "" — but a complete listing of the directory is suspended instead of
// lost, for ResumeListing to restore at the commit point. It reports whether
// the listing is now suspended; in every other case the listing is left
// unknown, exactly as Invalidate plus ClearComplete leave it.
func (c *Cache) SuspendListing(path, gone string) bool {
	cs := namespace.Walk(path)
	dirCs, _, ok := cs.Dir()
	if !ok {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dropLocked(c.nodeLocked(cs), &c.stats.Invalidations)
	if gone != "" {
		c.dropLocked(c.nodeLocked(namespace.Walk(gone)), &c.stats.Invalidations)
	}
	dir := c.rowLocked(dirCs)
	if dir == nil {
		return false
	}
	if dir.listing != listingComplete {
		dir.listing = listingUnknown
		return false
	}
	dir.listing = listingSuspended
	return true
}

// ResumeListing ends a suspension at the writer's commit point: parent is
// path's directory row as committed and child the row now at path (nil
// when the write left nothing there). If the listing is still suspended the
// rows are installed and — provided they and the directory survived the
// evictions that may cause — the listing is complete again, which is
// reported. A listing no longer suspended (an INV or an eviction got there
// first) is left as it is, and nothing is installed.
func (c *Cache) ResumeListing(path string, parent, child *namespace.INode) bool {
	dirCs, name, ok := namespace.Walk(path).Dir()
	if !ok {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	suspended := func() *node {
		if dir := c.rowLocked(dirCs); dir != nil && dir.listing == listingSuspended {
			return dir
		}
		return nil
	}
	dir := suspended()
	if dir == nil {
		return false
	}
	c.setLocked(dir, parent)
	if child != nil {
		if dir = suspended(); dir == nil {
			return false
		}
		c.setLocked(c.childLocked(dir, name), child)
	}
	if dir = suspended(); dir == nil {
		return false
	}
	if child != nil {
		if ch, _ := dir.kids.Find(name); ch == nil || ch.inode == nil {
			dir.listing = listingUnknown
			return false
		}
	}
	dir.listing = listingComplete
	return true
}

// Listing returns the directory's cached children (the cached pointers,
// read-only) in name order when the listing is known-complete, touching the
// directory's chain in the LRU.
func (c *Cache) Listing(dir string) ([]*namespace.INode, bool) {
	return listing(c, dir, func(n *namespace.INode) *namespace.INode { return n })
}

// Entries is Listing as an ls reply carries it: the children's entries, in
// name order, built straight from the cached rows.
func (c *Cache) Entries(dir string) ([]namespace.DirEntry, bool) {
	return listing(c, dir, namespace.EntryOf)
}

// listing is Listing and Entries: what of each cached child row goes into
// the one slice it returns is row's.
func listing[T any](c *Cache, dir string, row func(*namespace.INode) T) ([]T, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	d, _, ok := c.chainLocked(namespace.Walk(dir))
	if !ok || d.listing != listingComplete {
		return nil, false
	}
	for n := d; n != nil; n = n.parent {
		c.touchLocked(n)
	}
	out := make([]T, 0, d.kids.Len())
	for _, chunk := range d.kids {
		for _, e := range chunk {
			if in := e.Val.inode; in != nil {
				out = append(out, row(in))
			}
		}
	}
	return out, true
}

// ClearComplete drops dir's listing-completeness flag (a sibling create /
// delete / mv made the cached listing stale) without removing any cached
// INodes.
func (c *Cache) ClearComplete(dir string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if d := c.rowLocked(namespace.Walk(dir)); d != nil {
		d.listing = listingUnknown
	}
}

// IsComplete reports the listing-completeness of dir (diagnostics).
func (c *Cache) IsComplete(dir string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	d := c.rowLocked(namespace.Walk(dir))
	return d != nil && d.listing == listingComplete
}

// Len returns the number of cached INodes.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rows
}

// UsedBytes returns the current byte accounting.
func (c *Cache) UsedBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
