package workload

import (
	"fmt"
	"time"

	"lambdafs/internal/faas"
	"lambdafs/internal/namespace"
	"lambdafs/internal/ndb"

	"lambdafs/internal/clock"
)

// GenerateNamespace lays out the microbenchmark directory tree: dirs
// top-level directories each holding filesPerDir files. Returns the
// directory and file path lists (the Tree pool's seed).
func GenerateNamespace(dirs, filesPerDir int) (dirPaths, filePaths []string) {
	dirPaths = make([]string, 0, dirs)
	filePaths = make([]string, 0, dirs*filesPerDir)
	for d := 0; d < dirs; d++ {
		dir := fmt.Sprintf("/bench%04d", d)
		dirPaths = append(dirPaths, dir)
		for f := 0; f < filesPerDir; f++ {
			filePaths = append(filePaths, fmt.Sprintf("%s/file%05d", dir, f))
		}
	}
	return dirPaths, filePaths
}

// PreloadNDB installs the generated namespace directly into the store
// (benchmark setup; bypasses the latency model).
func PreloadNDB(db *ndb.DB, dirPaths, filePaths []string) {
	nodes := make([]*namespace.INode, 0, len(dirPaths)+len(filePaths))
	ids := map[string]namespace.INodeID{"/": namespace.RootID}
	next := uint64(namespace.RootID)
	alloc := func() namespace.INodeID {
		next++
		return namespace.INodeID(next)
	}
	for _, d := range dirPaths {
		id := alloc()
		ids[d] = id
		nodes = append(nodes, &namespace.INode{
			ID:       id,
			ParentID: ids[namespace.ParentPath(d)],
			Name:     namespace.BaseName(d),
			IsDir:    true,
			Perm:     namespace.PermDefaultDir,
			Owner:    "hdfs", Group: "hdfs",
		})
	}
	for _, f := range filePaths {
		id := alloc()
		nodes = append(nodes, &namespace.INode{
			ID:       id,
			ParentID: ids[namespace.ParentPath(f)],
			Name:     namespace.BaseName(f),
			Perm:     namespace.PermDefaultFile,
			Owner:    "hdfs", Group: "hdfs",
			Size:   128 << 20,
			Blocks: []namespace.Block{{ID: namespace.BlockID(id), Size: 128 << 20, Locations: []string{"dn1", "dn2", "dn3"}}},
		})
	}
	db.Preload(nodes)
}

// DeepNamespace generates a directory holding n files (subtree-operation
// experiments, Table 3).
func DeepNamespace(root string, n int) (dirPaths, filePaths []string) {
	dirPaths = []string{root}
	// Spread files over sqrt(n) subdirectories to keep directories
	// realistic.
	sub := 1
	for sub*sub < n {
		sub++
	}
	per := (n + sub - 1) / sub
	count := 0
	for d := 0; d < sub && count < n; d++ {
		dir := fmt.Sprintf("%s/sub%04d", root, d)
		dirPaths = append(dirPaths, dir)
		for f := 0; f < per && count < n; f++ {
			filePaths = append(filePaths, fmt.Sprintf("%s/f%06d", dir, f))
			count++
		}
	}
	return dirPaths, filePaths
}

// FaultInjector terminates one active NameNode on a fixed interval,
// targeting deployments round-robin (§5.6's methodology).
type FaultInjector struct {
	Platform    *faas.Platform
	Interval    time.Duration
	Deployments int

	Kills int
}

// Run injects faults until stop is set.
func (fi *FaultInjector) Run(clk *clock.Sim, stop *clock.Event) {
	dep := 0
	for {
		if !clock.SleepOr(clk, fi.Interval, stop) || stop.IsSet() {
			return
		}
		// Round-robin across deployments; skip empty ones.
		for tries := 0; tries < fi.Deployments; tries++ {
			target := dep % fi.Deployments
			dep++
			if fi.Platform.KillOneInstance(target) {
				fi.Kills++
				break
			}
		}
	}
}
