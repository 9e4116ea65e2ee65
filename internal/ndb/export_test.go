package ndb

import "lambdafs/internal/lsm"

// CheckpointStore returns shard s's checkpoint store, for the external
// tests.
func (d *Durable) CheckpointStore(s int) *lsm.DB { return d.ckpts[s] }
