// Package namespace defines the distributed file system metadata model
// shared by λFS, the baselines, and the persistent store: INodes,
// hierarchical paths, permissions, block references, and the metadata
// operation vocabulary (create, mkdir, read, stat, ls, mv, delete).
//
// It corresponds to the HDFS/HopsFS metadata schema the paper builds on:
// each file or directory is an INode row keyed by (parentID, name), and
// all namespace operations resolve a path component-by-component.
//
// # Concurrency and ownership
//
// The types here are plain data with no internal locking; what makes an
// INode safe to share is that a published one is immutable (see INode).
package namespace

import (
	"fmt"
	"slices"
	"time"
)

// INodeID uniquely identifies an INode. The root directory always has ID
// RootID; 0 is reserved as "no INode".
type INodeID uint64

// RootID is the well-known ID of the root directory "/".
const RootID INodeID = 1

// InvalidID is the zero INodeID, used as "none".
const InvalidID INodeID = 0

// BlockID identifies a file data block stored on DataNodes.
type BlockID uint64

// Permission is a POSIX-style permission triplet (lower 9 bits).
type Permission uint16

// Common permission values.
const (
	PermDefaultFile Permission = 0o644
	PermDefaultDir  Permission = 0o755
)

// Block records one data block of a file and the DataNodes holding its
// replicas.
type Block struct {
	ID        BlockID
	Size      int64
	Locations []string // DataNode IDs holding a replica
}

// INode is one file or directory in the namespace. It mirrors the HopsFS
// inode row: identity, linkage (ParentID, Name), attributes, and for files
// the block list.
//
// An INode is one version of its row, immutable once published: a *INode
// reachable from the store's table, a metadata cache, a resolved chain or a
// listing is never written again — fields, Blocks and Locations alike — and
// a new version is a new INode, so the store, every cache and every reader
// share one snapshot per row version without copying or locking. The one
// rule: nothing the store hands out is ever written, under any lock mode;
// you write only a version you built (new, or a Clone of a row you read)
// until you hand it over — to store.Tx.PutINode or ndb.Preload, which
// publish that pointer itself, or to a cache, which keeps it. A Block or a
// Locations element is never written in place: a Clone shares them.
type INode struct {
	ID       INodeID
	ParentID INodeID
	Name     string // path component; "" only for the root
	IsDir    bool
	Perm     Permission
	Owner    string
	Group    string
	Size     int64
	Mtime    int64 // UnixNano; 0 when never set
	Ctime    int64 // UnixNano; 0 when never set
	Blocks   []Block

	// SubtreeLockOwner is non-empty while a subtree operation (recursive
	// mv/delete) holds the application-level subtree lock rooted here
	// (HopsFS subtree protocol, Appendix D).
	SubtreeLockOwner string
}

// Clone returns a private, writable version of n: a copy of the struct that
// shares n's block list, which no one writes in place. Blocks is clipped to
// its length, so an append on the copy always reallocates and never reaches
// n. Sharing needs no copy, so the callers are few: the writers that build a
// row's next version from the one they read, and test witnesses.
func (n *INode) Clone() *INode {
	if n == nil {
		return nil
	}
	c := *n
	c.Blocks = slices.Clip(n.Blocks)
	return &c
}

// CloneBlocks deep-copies a block list, replica locations included, away
// from the shared row it came from.
func CloneBlocks(blocks []Block) []Block { return CloneBlocksInto(blocks, nil, nil) }

// CloneBlocksInto is CloneBlocks into the caller's storage where it fits:
// the list into blockBuf when it is no longer, and each block's locations
// into what the earlier blocks left of locBuf. What does not fit is cloned
// onto the heap, so the copy shares nothing with blocks either way; each
// slice handed out is clipped, so an append to it never reaches a
// neighbour's storage. A nil list or location list stays nil. A read reply
// keeps its copy inside the reply (core's readReply).
func CloneBlocksInto(blocks, blockBuf []Block, locBuf []string) []Block {
	var out []Block
	if n := len(blocks); n > 0 && n <= len(blockBuf) {
		out = blockBuf[:n:n]
		copy(out, blocks)
	} else {
		out = slices.Clone(blocks)
	}
	for i := range out {
		if n := len(out[i].Locations); n > 0 && n <= len(locBuf) {
			copy(locBuf, out[i].Locations)
			out[i].Locations, locBuf = locBuf[:n:n], locBuf[n:]
		} else {
			out[i].Locations = slices.Clone(out[i].Locations)
		}
	}
	return out
}

// ApproxBytes estimates the in-memory footprint of the INode for cache
// byte accounting.
func (n *INode) ApproxBytes() int {
	b := 96 + len(n.Name) + len(n.Owner) + len(n.Group)
	for _, blk := range n.Blocks {
		b += 24
		for _, loc := range blk.Locations {
			b += 16 + len(loc)
		}
	}
	return b
}

// String renders the INode compactly for logs and tests.
func (n *INode) String() string {
	kind := "file"
	if n.IsDir {
		kind = "dir"
	}
	return fmt.Sprintf("%s(id=%d parent=%d name=%q)", kind, n.ID, n.ParentID, n.Name)
}

// NewRoot returns the canonical root directory INode.
func NewRoot() *INode {
	return &INode{
		ID:       RootID,
		ParentID: InvalidID,
		Name:     "",
		IsDir:    true,
		Perm:     PermDefaultDir,
		Owner:    "hdfs",
		Group:    "hdfs",
	}
}

// DirEntry is one row of a directory listing.
type DirEntry struct {
	Name  string
	ID    INodeID
	IsDir bool
	Size  int64
}

// StatInfo is the result of a stat operation.
type StatInfo struct {
	ID    INodeID
	Path  string
	IsDir bool
	Perm  Permission
	Owner string
	Group string
	Size  int64
	Mtime time.Time
	Ctime time.Time
}

// EntryOf is n's row in its directory's listing.
func EntryOf(n *INode) DirEntry {
	return DirEntry{Name: n.Name, ID: n.ID, IsDir: n.IsDir, Size: n.Size}
}

// StatOf converts an INode plus its full path into a StatInfo.
func StatOf(n *INode, path string) StatInfo {
	return StatInfo{
		ID:    n.ID,
		Path:  path,
		IsDir: n.IsDir,
		Perm:  n.Perm,
		Owner: n.Owner,
		Group: n.Group,
		Size:  n.Size,
		Mtime: unixTime(n.Mtime),
		Ctime: unixTime(n.Ctime),
	}
}

// unixTime converts an INode timestamp back to a time.Time in UTC, the
// zone of the clock that stamps rows; 0, a row never stamped, is the zero
// time.
func unixTime(ns int64) time.Time {
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns).UTC()
}
