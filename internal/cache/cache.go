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
	"container/list"
	"strings"
	"sync"

	"lambdafs/internal/namespace"
	"lambdafs/internal/trie"
)

// Stats counts what only the cache sees. Hits and misses are counted by
// the engine that looks up (lambdafs_core_cache_{hits,misses}_total).
type Stats struct {
	Puts          uint64
	Evictions     uint64
	Invalidations uint64
}

type entry struct {
	inode *namespace.INode
	path  string
	comps []string
	bytes int64
	elem  *list.Element
	// listing is a directory entry's listing state (see the package doc);
	// listingComplete makes ls servable locally.
	listing listingState
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
	t      *trie.Trie[*entry]
	lru    *list.List // front = most recently used
	budget int64
	used   int64
	stats  Stats
}

// New returns a cache holding at most budget bytes of INode metadata.
// budget <= 0 means unlimited.
func New(budget int64) *Cache {
	return &Cache{t: trie.New[*entry](), lru: list.New(), budget: budget}
}

const perEntryOverhead = 64

func entryBytes(path string, n *namespace.INode) int64 {
	return int64(n.ApproxBytes() + len(path) + perEntryOverhead)
}

// PutChain caches the INode chain of a resolved path: chain[0] is the
// root INode and chain[len-1] the terminal INode of path. Intermediate
// entries are cached under their ancestor paths.
func (c *Cache) PutChain(path string, chain []*namespace.INode) {
	comps := namespace.SplitPath(path)
	if len(chain) == 0 || len(chain) > len(comps)+1 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, n := range chain {
		c.putLocked(comps[:i], n)
	}
}

// Put caches a single INode under path. The caller is responsible for the
// ancestors-cached invariant (PutChain is the usual entry point).
func (c *Cache) Put(path string, n *namespace.INode) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.putLocked(namespace.SplitPath(path), n)
}

func (c *Cache) putLocked(comps []string, n *namespace.INode) {
	if old, ok := c.t.Get(comps); ok {
		old.inode = n
		nb := entryBytes(old.path, n)
		c.used += nb - old.bytes
		old.bytes = nb
		c.lru.MoveToFront(old.elem)
	} else {
		path := "/"
		if len(comps) > 0 {
			path = "/" + strings.Join(comps, "/")
		}
		e := &entry{
			inode: n,
			path:  path,
			comps: append([]string(nil), comps...),
			bytes: entryBytes(path, n),
		}
		e.elem = c.lru.PushFront(e)
		c.t.Put(e.comps, e)
		c.used += e.bytes
		c.stats.Puts++
	}
	c.evictLocked()
}

// evictLocked evicts LRU subtrees until within budget.
func (c *Cache) evictLocked() {
	if c.budget <= 0 {
		return
	}
	for c.used > c.budget {
		back := c.lru.Back()
		if back == nil {
			return
		}
		victim := back.Value.(*entry)
		c.removeSubtreeLocked(victim.comps, true)
	}
}

// removeSubtreeLocked removes the entry at comps and all cached
// descendants (dropSubtreeLocked) and, when anything went, makes the
// parent's listing unknown.
func (c *Cache) removeSubtreeLocked(comps []string, eviction bool) int {
	removed := c.dropSubtreeLocked(comps, eviction)
	if removed > 0 && len(comps) > 0 {
		if parent, ok := c.t.Get(comps[:len(comps)-1]); ok {
			parent.listing = listingUnknown
		}
	}
	return removed
}

// dropSubtreeLocked removes the entry at comps and all cached descendants,
// fixing byte accounting and the LRU list; the parent's listing state is
// the caller's to settle.
func (c *Cache) dropSubtreeLocked(comps []string, eviction bool) int {
	removed := 0
	var victims []*entry
	c.t.WalkPrefix(comps, func(_ []string, e *entry) bool {
		victims = append(victims, e)
		return true
	})
	if len(victims) == 0 {
		return 0
	}
	c.t.DeletePrefix(comps)
	for _, e := range victims {
		c.lru.Remove(e.elem)
		c.used -= e.bytes
		removed++
		if eviction {
			c.stats.Evictions++
		} else {
			c.stats.Invalidations++
		}
	}
	return removed
}

// Lookup returns the cached INode chain for path — the cached pointers
// themselves, read-only. hit is true only when the entire chain, including
// the terminal INode, is cached; otherwise the longest cached prefix is
// returned (used to shorten store resolution). A lookup touches every
// returned entry (leaf to root) in the LRU.
//
//vet:hotpath
func (c *Cache) Lookup(path string) (chain []*namespace.INode, hit bool) {
	comps := namespace.SplitPath(path)
	c.mu.Lock()
	defer c.mu.Unlock()
	entries, ok := c.t.Chain(comps)
	chain = make([]*namespace.INode, len(entries))
	for i := len(entries) - 1; i >= 0; i-- {
		c.lru.MoveToFront(entries[i].elem)
		chain[i] = entries[i].inode
	}
	return chain, ok
}

// Get returns the cached terminal INode for path, touching its chain.
func (c *Cache) Get(path string) (*namespace.INode, bool) {
	chain, hit := c.Lookup(path)
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
	_, ok := c.t.Get(namespace.SplitPath(path))
	return ok
}

// Invalidate removes the entry for path and, because descendants must not
// outlive their ancestors, any cached entries underneath it. Returns the
// number of entries removed. This implements the INV of the coherence
// protocol (§3.5).
func (c *Cache) Invalidate(path string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.removeSubtreeLocked(namespace.SplitPath(path), false)
}

// InvalidatePrefix removes every cached entry at or under path — the
// subtree/prefix invalidation of Appendix D. Semantically identical to
// Invalidate (the invariant makes every invalidation a subtree removal)
// but kept separate for protocol clarity and stats.
func (c *Cache) InvalidatePrefix(path string) int {
	return c.Invalidate(path)
}

// PutListing caches a directory's full child listing: every child INode
// is cached under dir and dir's entry is marked listing-complete, making
// subsequent ls operations servable locally (§3.3 read optimization). The
// dir chain must already be cached (PutChain the resolution first).
func (c *Cache) PutListing(dir string, children []*namespace.INode) {
	comps := namespace.SplitPath(dir)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.t.Get(comps); !ok {
		return
	}
	for _, child := range children {
		c.putLocked(append(comps, child.Name), child)
	}
	// Mark complete only when the dir and every child survived any
	// evictions the puts triggered.
	e, ok := c.t.Get(comps)
	if !ok {
		return
	}
	for _, child := range children {
		if _, ok := c.t.Get(append(comps, child.Name)); !ok {
			return
		}
	}
	e.listing = listingComplete
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
	comps := namespace.SplitPath(path)
	if len(comps) == 0 {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dropSubtreeLocked(comps, false)
	if gone != "" {
		c.dropSubtreeLocked(namespace.SplitPath(gone), false)
	}
	dir, ok := c.t.Get(comps[:len(comps)-1])
	if !ok {
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
	comps := namespace.SplitPath(path)
	if len(comps) == 0 {
		return false
	}
	dirComps := comps[:len(comps)-1]
	c.mu.Lock()
	defer c.mu.Unlock()
	suspended := func() (*entry, bool) {
		dir, ok := c.t.Get(dirComps)
		return dir, ok && dir.listing == listingSuspended
	}
	if _, ok := suspended(); !ok {
		return false
	}
	c.putLocked(dirComps, parent)
	if child != nil {
		if _, ok := suspended(); !ok {
			return false
		}
		c.putLocked(comps, child)
	}
	dir, ok := suspended()
	if !ok {
		return false
	}
	if child != nil {
		if _, ok := c.t.Get(comps); !ok {
			dir.listing = listingUnknown
			return false
		}
	}
	dir.listing = listingComplete
	return true
}

// Listing returns the directory's cached children (the cached pointers,
// read-only, in no particular order) when the listing is known-complete,
// touching the directory's chain in the LRU.
//
//vet:hotpath
func (c *Cache) Listing(dir string) ([]*namespace.INode, bool) {
	comps := namespace.SplitPath(dir)
	c.mu.Lock()
	defer c.mu.Unlock()
	entries, ok := c.t.Chain(comps)
	if !ok || entries[len(entries)-1].listing != listingComplete {
		return nil, false
	}
	for i := len(entries) - 1; i >= 0; i-- {
		c.lru.MoveToFront(entries[i].elem)
	}
	kids := c.t.Children(comps)
	out := make([]*namespace.INode, len(kids))
	for i, child := range kids {
		out[i] = child.inode
	}
	return out, true
}

// ClearComplete drops dir's listing-completeness flag (a sibling create /
// delete / mv made the cached listing stale) without removing any cached
// INodes.
func (c *Cache) ClearComplete(dir string) {
	comps := namespace.SplitPath(dir)
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.t.Get(comps); ok {
		e.listing = listingUnknown
	}
}

// IsComplete reports the listing-completeness of dir (diagnostics).
func (c *Cache) IsComplete(dir string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.t.Get(namespace.SplitPath(dir))
	return ok && e.listing == listingComplete
}

// Len returns the number of cached INodes.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t.Len()
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
