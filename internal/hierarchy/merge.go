package hierarchy

// Shard-exactness and commutative stat merging: the hooks the sharded
// runner (sharded.go) uses to decide whether an L2 organization can be
// partitioned by line address and to fold per-shard counters back into
// one aggregate.

// shardExact is implemented by L2 adapters that can certify their
// results are a pure function of per-set access order. Line-address
// sharding preserves exactly the per-set program order (a set's lines
// all share the address low bits the shard mask selects), so such an
// organization produces byte-identical state and counters at any shard
// count. Organizations with cross-set coupling — a shared predictor
// table, a global RNG stream, a global median filter or PSEL — must
// report false and run sequentially.
type shardExact interface{ ShardExact() bool }

// shardMerger is implemented by L2 adapters that can fold a sibling
// shard's counters into their own.
type shardMerger interface{ MergeShard(o L2) }

// Shardable reports whether the system's L2 organization produces
// byte-identical results under line-address sharding.
func Shardable(sys *System) bool {
	se, ok := sys.L2.(shardExact)
	return ok && se.ShardExact()
}

// MergeShard folds a sibling shard's counters into s. Shards partition
// the line-address space, so every counter is a disjoint sum and plain
// addition reproduces the sequential totals exactly.
//
//ldis:noalloc
func (s *System) MergeShard(o *System) {
	s.Instructions += o.Instructions
	s.DemandAccesses += o.DemandAccesses
	s.Classes.Merge(o.Classes)
	s.L1D.Stats().Merge(o.L1D.Stats())
	if m, ok := s.L2.(shardMerger); ok {
		//ldis:alloc-ok interface dispatch into the merge hook; the implementations below are annotated noalloc
		m.MergeShard(o.L2)
	}
}

// ShardExact implements shardExact: the traditional cache keeps purely
// per-set state (tags, LRU order, footprints), so any per-set access
// order equal to program order reproduces it exactly.
func (t *TradL2) ShardExact() bool { return true }

// MergeShard implements shardMerger.
//
//ldis:noalloc
func (t *TradL2) MergeShard(o L2) { t.C.Stats().Merge(o.(*TradL2).C.Stats()) }

// ShardExact implements shardExact: the compressed cache's state is
// per-set and its compressed sizes come from the values model, a pure
// function of (seed, address), so sharding is exact.
func (c *CMPRL2) ShardExact() bool { return true }

// MergeShard implements shardMerger.
//
//ldis:noalloc
func (c *CMPRL2) MergeShard(o L2) { c.C.Stats().Merge(o.(*CMPRL2).C.Stats()) }

// ShardExact implements shardExact: exactness depends on the distill
// configuration (see distill.Config.ShardExact).
func (d *DistillL2) ShardExact() bool { return d.C.Config().ShardExact() }

// MergeShard implements shardMerger.
//
//ldis:noalloc
func (d *DistillL2) MergeShard(o L2) { d.C.Stats().Merge(o.(*DistillL2).C.Stats()) }

// ShardExact implements shardExact: the SFP's footprint history table
// is global — predictions on one line depend on evictions of lines in
// other sets that alias into the same entry — so per-shard runs would
// see different predictor contents. Never exact.
func (s *SFPL2) ShardExact() bool { return false }
