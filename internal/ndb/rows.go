package ndb

import (
	"slices"

	"lambdafs/internal/namespace"
)

// The row table's pages: rowPageSize row slots and their count, with the
// allocator's 8-byte header of a pointerful object 4,096 bytes, one size
// class exactly (512 slots would take the 4,864-byte class).
const (
	rowPageSize = 510

	// rowDirSlack is how many pages past the most rows the table has held
	// the directory may reach, so that a small store still files its rows
	// in pages.
	rowDirSlack = 64
)

// rowTable files the store's INode rows by ID. IDs come dense from NextID
// and Preload, so the table is a directory of pages, each rowPageSize row
// slots wide: a lookup is two indexes, and a row costs its slot, about
// 8 B, where the IDs are dense. Pages come as their first row does and go
// with their last, and the directory reaches at most rowDirSlack pages
// past the most rows the table has held: a row whose page lies beyond
// that, which a corrupt or hostile ID may ask for, is filed in the far
// map instead. So no row costs the table more than a page and a directory
// entry, or a map entry: its footprint follows the rows, never the
// largest ID.
//
// Rows are filed under their own ID. The caller serialises access (db.mu).
type rowTable struct {
	dir  []*rowPage                             // nil where a page holds no row
	far  map[namespace.INodeID]*namespace.INode // rows past dir; nil while none
	n    int                                    // rows filed
	peak int                                    // the most rows filed at once
}

// rowPage is one page of the directory.
type rowPage struct {
	rows [rowPageSize]*namespace.INode
	n    int // rows filed in it
}

// rowSlot returns the page and the slot in it of row id.
func rowSlot(id namespace.INodeID) (page, slot uint64) {
	return uint64(id) / rowPageSize, uint64(id) % rowPageSize
}

// get returns row id, nil when there is none.
func (t *rowTable) get(id namespace.INodeID) *namespace.INode {
	if p, i := rowSlot(id); p < uint64(len(t.dir)) {
		if pg := t.dir[p]; pg != nil {
			return pg.rows[i]
		}
		return nil
	}
	return t.far[id]
}

// put files n under its ID, in place of the row there.
func (t *rowTable) put(n *namespace.INode) {
	p, _ := rowSlot(n.ID)
	added := false
	if p < uint64(len(t.dir)) || t.reach(p) {
		added = t.file(p, n)
	} else {
		if t.far == nil {
			t.far = make(map[namespace.INodeID]*namespace.INode)
		}
		added = t.far[n.ID] == nil
		t.far[n.ID] = n
	}
	if added {
		t.n++
		t.peak = max(t.peak, t.n)
	}
}

// file puts n in page p of the directory and reports whether its slot
// was empty.
func (t *rowTable) file(p uint64, n *namespace.INode) bool {
	pg := t.dir[p]
	if pg == nil {
		pg = new(rowPage)
		t.dir[p] = pg
	}
	_, i := rowSlot(n.ID)
	added := pg.rows[i] == nil
	if added {
		pg.n++
	}
	pg.rows[i] = n
	return added
}

// reach grows the directory to cover page p, when p is within
// rowDirSlack pages of the most rows the table has held, and moves the far
// rows it now covers into their pages. It reports whether p is covered.
func (t *rowTable) reach(p uint64) bool {
	limit := uint64(t.peak) + rowDirSlack
	if p >= limit {
		return false
	}
	dir := make([]*rowPage, min(max(p+1, 2*uint64(len(t.dir))), limit))
	copy(dir, t.dir)
	t.dir = dir
	for id, n := range t.far {
		if q, _ := rowSlot(id); q < uint64(len(dir)) {
			delete(t.far, id)
			t.file(q, n)
		}
	}
	return true
}

// delete removes row id, if there is one.
func (t *rowTable) delete(id namespace.INodeID) {
	p, i := rowSlot(id)
	if p >= uint64(len(t.dir)) {
		if t.far[id] != nil {
			delete(t.far, id)
			t.n--
		}
		return
	}
	pg := t.dir[p]
	if pg == nil || pg.rows[i] == nil {
		return
	}
	pg.rows[i] = nil
	t.n--
	if pg.n--; pg.n == 0 {
		t.dir[p] = nil
	}
}

// len returns the number of rows.
func (t *rowTable) len() int { return t.n }

// each calls fn with every row in ID order.
func (t *rowTable) each(fn func(n *namespace.INode)) {
	for _, pg := range t.dir {
		if pg == nil {
			continue
		}
		for _, n := range &pg.rows {
			if n != nil {
				fn(n)
			}
		}
	}
	if len(t.far) > 0 {
		ids := make([]namespace.INodeID, 0, len(t.far))
		for id := range t.far {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		for _, id := range ids {
			fn(t.far[id])
		}
	}
}
