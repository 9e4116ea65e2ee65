// Package partition implements λFS's namespace partitioning: the file
// system namespace is divided among the n serverless NameNode deployments
// by consistently hashing the *parent directory path* of each file or
// directory (§3.1, §3.3). All children of one directory therefore map to
// the same deployment, which makes directory-local operations (ls, create,
// path resolution caching) deployment-local, while FaaS intra-deployment
// auto-scaling absorbs hot directories.
//
// What a deployment "owns" depends on the operation, and Route is the one
// place that says so: a path's own metadata (read, stat and every write)
// belongs to hash(parent(path)); a directory's *listing* — its completeness
// flag and its children — belongs to hash(dir), the deployment that already
// caches those children. So `ls D`, `stat D/x` and `create D/y` all meet in
// one deployment, a listing fill warms the cache the reads are routed to,
// and a single-INode write has exactly one deployment to invalidate.
//
// # Concurrency and ownership
//
// A Ring is immutable after construction and therefore safe for
// unsynchronized concurrent reads from every client and engine; mapping
// is a pure function of (path, deployment count), so all parties agree
// on ownership without coordination.
package partition

import (
	"hash/fnv"
	"sort"

	"lambdafs/internal/namespace"
)

// Ring is a consistent-hash ring mapping parent-directory paths onto
// deployment indices [0, n). Virtual nodes smooth the distribution.
type Ring struct {
	n      int
	points []ringPoint
}

type ringPoint struct {
	hash uint64
	dep  int
}

// DefaultVirtualNodes is the per-deployment virtual node count.
const DefaultVirtualNodes = 256

// NewRing builds a ring over n deployments with vnodes virtual nodes per
// deployment (DefaultVirtualNodes when vnodes <= 0).
func NewRing(n, vnodes int) *Ring {
	if n <= 0 {
		panic("partition: need at least one deployment")
	}
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	r := &Ring{n: n, points: make([]ringPoint, 0, n*vnodes)}
	var key [16]byte
	for d := 0; d < n; d++ {
		for v := 0; v < vnodes; v++ {
			putUint64(key[0:8], uint64(d)+1)
			putUint64(key[8:16], uint64(v)+1)
			r.points = append(r.points, ringPoint{hash: hashBytes(key[:]), dep: d})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return r
}

func putUint64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// mix64 is the splitmix64 finalizer; FNV alone clusters on short
// structured keys, which skews ring arc lengths badly.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func hashBytes(b []byte) uint64 {
	h := fnv.New64a()
	_, _ = h.Write(b) // hash.Hash.Write never fails
	return mix64(h.Sum64())
}

func hashString(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s)) // hash.Hash.Write never fails
	return mix64(h.Sum64())
}

// Deployments returns the number of deployments on the ring.
func (r *Ring) Deployments() int { return r.n }

// locate maps a hash onto the owning deployment.
func (r *Ring) locate(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].dep
}

// Route is the routing decision, made in this one place: the deployment a
// client sends op on path to, and the only deployment allowed to cache what
// op reads there. ls goes to the deployment that caches path's children
// (DeploymentForParent); every other operation to the one that caches
// path's own metadata (DeploymentForPath).
func (r *Ring) Route(op namespace.OpType, path string) int {
	if op == namespace.OpLs {
		return r.DeploymentForParent(path)
	}
	return r.DeploymentForPath(path)
}

// DeploymentForParent maps a canonical *directory* path onto the deployment
// that owns its children: their metadata and the directory's listing.
func (r *Ring) DeploymentForParent(parent string) int {
	return r.locate(hashString(parent))
}

// DeploymentForPath maps a file or directory path onto the deployment that
// caches its own metadata (not, for a directory, its listing — see Route):
// the hash of its parent directory. It is the one deployment a single-INode
// write on path must invalidate. The root, having no parent, hashes by
// itself.
func (r *Ring) DeploymentForPath(path string) int {
	if path == "/" || path == "" {
		return r.locate(hashString("/"))
	}
	return r.DeploymentForParent(namespace.ParentPath(path))
}

// DeploymentsForSubtree returns the sorted set of deployments that may
// cache any metadata of a subtree, given every directory in it, root
// included: the INV set of a subtree operation. Each directory contributes
// both its mappings — DeploymentForPath (its own metadata, and for the root
// the parent listing that contains it) and DeploymentForParent (its
// children and its listing, which an `ls` may have cached even when the
// directory is empty and no child would name that deployment).
func (r *Ring) DeploymentsForSubtree(dirs []string) []int {
	seen := make(map[int]bool, r.n)
	for _, d := range dirs {
		seen[r.DeploymentForParent(d)] = true
		seen[r.DeploymentForPath(d)] = true
	}
	out := make([]int, 0, len(seen))
	for d := range seen {
		out = append(out, d)
	}
	sort.Ints(out)
	return out
}
