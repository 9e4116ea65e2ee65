// Package trie implements a path-component trie, the data structure λFS
// NameNodes use to hold their metadata cache (§3.3): metadata for every
// INode along a cached path is stored at the corresponding trie node, and
// subtree (prefix) invalidations remove a whole subtree in one traversal
// (Appendix D).
//
// # Concurrency and ownership
//
// A Trie is deliberately not safe for concurrent use and contains no
// locking: it is a pure data structure with exactly one owner. In the
// system that owner is internal/cache's Cache, which wraps every access
// in its own mutex and layers the LRU list, byte budget, and
// listing-completeness bookkeeping on top — putting a second lock here
// would only add a redundant acquisition to the read hot path. Values
// are stored as given; if V is a pointer type, mutating the pointee
// after Put is the caller's (i.e. the cache's) responsibility to
// synchronize.
package trie

// Trie maps path component chains to values of type V. The zero value is
// not usable; use New. Trie is not safe for concurrent use; callers
// synchronize (the cache wraps it in a mutex).
type Trie[V any] struct {
	root *node[V]
	size int
}

type node[V any] struct {
	children map[string]*node[V]
	val      V
	has      bool
}

// New returns an empty trie.
func New[V any]() *Trie[V] {
	return &Trie[V]{root: &node[V]{}}
}

// Len returns the number of stored values.
func (t *Trie[V]) Len() int { return t.size }

// Put stores v at the node addressed by comps (the root when comps is
// empty), replacing any existing value.
func (t *Trie[V]) Put(comps []string, v V) {
	n := t.root
	for _, c := range comps {
		child := n.children[c]
		if child == nil {
			child = &node[V]{}
			if n.children == nil {
				n.children = make(map[string]*node[V])
			}
			n.children[c] = child
		}
		n = child
	}
	if !n.has {
		t.size++
	}
	n.val = v
	n.has = true
}

// Get returns the value stored exactly at comps.
func (t *Trie[V]) Get(comps []string) (V, bool) {
	n := t.root
	for _, c := range comps {
		n = n.children[c]
		if n == nil {
			var zero V
			return zero, false
		}
	}
	if !n.has {
		var zero V
		return zero, false
	}
	return n.val, true
}

// Chain returns the values stored along comps starting at the root,
// stopping at the first node with no value or missing child. The returned
// slice has length ≤ len(comps)+1 (root value first when present). ok
// reports whether the full chain, including the terminal node, carried
// values.
func (t *Trie[V]) Chain(comps []string) (vals []V, ok bool) {
	n := t.root
	if !n.has {
		return nil, false
	}
	vals = make([]V, 1, len(comps)+1)
	vals[0] = n.val
	for _, c := range comps {
		n = n.children[c]
		if n == nil || !n.has {
			return vals, false
		}
		vals = append(vals, n.val)
	}
	return vals, true
}

// Children returns the values stored at the direct children of the node at
// comps, in no particular order, whatever is stored below them.
func (t *Trie[V]) Children(comps []string) []V {
	n := t.root
	for _, c := range comps {
		n = n.children[c]
		if n == nil {
			return nil
		}
	}
	vals := make([]V, 0, len(n.children))
	for _, child := range n.children {
		if child.has {
			vals = append(vals, child.val)
		}
	}
	return vals
}

// Delete removes the value stored exactly at comps, pruning now-empty
// nodes, and reports whether a value was removed. Descendant values are
// kept.
func (t *Trie[V]) Delete(comps []string) bool {
	type step struct {
		parent *node[V]
		comp   string
	}
	n := t.root
	path := make([]step, 0, len(comps))
	for _, c := range comps {
		child := n.children[c]
		if child == nil {
			return false
		}
		path = append(path, step{parent: n, comp: c})
		n = child
	}
	if !n.has {
		return false
	}
	var zero V
	n.val = zero
	n.has = false
	t.size--
	// Prune empty leaves upward.
	for i := len(path) - 1; i >= 0; i-- {
		child := path[i].parent.children[path[i].comp]
		if child.has || len(child.children) > 0 {
			break
		}
		delete(path[i].parent.children, path[i].comp)
	}
	return true
}

// DeletePrefix removes the value at comps and every value underneath it,
// returning the number of values removed.
func (t *Trie[V]) DeletePrefix(comps []string) int {
	if len(comps) == 0 {
		n := t.countValues(t.root)
		t.root = &node[V]{}
		t.size = 0
		return n
	}
	parentComps := comps[:len(comps)-1]
	last := comps[len(comps)-1]
	n := t.root
	for _, c := range parentComps {
		n = n.children[c]
		if n == nil {
			return 0
		}
	}
	child := n.children[last]
	if child == nil {
		return 0
	}
	removed := t.countValues(child)
	delete(n.children, last)
	t.size -= removed
	return removed
}

func (t *Trie[V]) countValues(n *node[V]) int {
	count := 0
	if n.has {
		count++
	}
	for _, c := range n.children {
		count += t.countValues(c)
	}
	return count
}

func (t *Trie[V]) walk(n *node[V], comps []string, fn func([]string, V) bool) bool {
	if n.has {
		if !fn(comps, n.val) {
			return false
		}
	}
	for c, child := range n.children {
		if !t.walk(child, append(comps, c), fn) {
			return false
		}
	}
	return true
}

// WalkPrefix visits every stored value at or below comps in depth-first
// order. The callback receives the full component path from the trie root
// (valid only for the duration of the call). Returning false stops the
// walk. No-op when comps addresses no node.
func (t *Trie[V]) WalkPrefix(comps []string, fn func(comps []string, v V) bool) {
	n := t.root
	for _, c := range comps {
		n = n.children[c]
		if n == nil {
			return
		}
	}
	t.walk(n, append([]string(nil), comps...), fn)
}
