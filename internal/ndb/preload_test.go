package ndb_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"slices"
	"testing"

	"lambdafs/internal/clock"
	"lambdafs/internal/lsm"
	"lambdafs/internal/ndb"
	"lambdafs/internal/simtest"
	"lambdafs/internal/workload"
)

// deepNamespace is the repository benchmark's read_cold namespace: six
// levels of four directories, level by level, and 16 files in each of the
// 4,096 deepest, 65,536 in all.
func deepNamespace() (dirs, files []string) {
	level := []string{""}
	for depth := 0; depth < 6; depth++ {
		var next []string
		for _, parent := range level {
			for k := 0; k < 4; k++ {
				next = append(next, fmt.Sprintf("%s/rc%d", parent, k))
			}
		}
		dirs = append(dirs, next...)
		level = next
	}
	for _, dir := range level {
		for f := 0; f < 16; f++ {
			files = append(files, fmt.Sprintf("%s/f%04d", dir, f))
		}
	}
	return dirs, files
}

// checkpointDigest hashes every checkpoint store, shard by shard: its
// Stats and table counts, then its Scan("") key by key, each key and value
// with its length.
func checkpointDigest(d *ndb.Durable) string {
	h := sha256.New()
	for s := 0; s < d.Shards(); s++ {
		ck := d.CheckpointStore(s)
		l0, deeper := ck.TableCount()
		fmt.Fprintf(h, "%d %+v %d %d\n", s, ck.Stats(), l0, deeper)
		snap := ck.Scan("")
		keys := make([]string, 0, len(snap))
		for k := range snap {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			h.Write(binary.AppendUvarint(nil, uint64(len(k))))
			h.Write([]byte(k))
			h.Write(binary.AppendUvarint(nil, uint64(len(snap[k]))))
			h.Write(snap[k])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestPreloadCheckpointDigest pins what a preload of the read_cold
// namespace writes to the checkpoint stores of a default durable store:
// every store's full contents, flushes, compactions and probes, none of
// which depends on how the round gathers its rows or how a store keeps
// them.
func TestPreloadCheckpointDigest(t *testing.T) {
	const want = "1d0b73978c7e8c5b881854f8a026bbf172ca64fa4beb6eb3cd3179128b034237"
	dirs, files := deepNamespace()
	simtest.Run(t, func(clk *clock.Sim) {
		cfg := ndb.DefaultConfig()
		cfg.Durable = ndb.NewDurable(clk, cfg.DataNodes, lsm.DefaultConfig())
		cfg.Durability = ndb.DefaultDurabilityConfig()
		workload.PreloadNDB(ndb.New(clk, cfg), dirs, files)
		if got := checkpointDigest(cfg.Durable); got != want {
			t.Errorf("checkpoint stores after the read_cold preload: digest %s, want %s", got, want)
		}
	})
}
