package distill

import (
	"testing"

	"ldis/internal/mem"
	"ldis/internal/trace"
)

// TestAccessPathZeroAllocs pins the distill cache's steady-state access
// path — LOC/WOC lookups, LOC installs (under way quotas too),
// distillation into the WOC, WOC evictions, and the never-distill
// instruction path — at zero allocations per access. Before the
// wordstore's two-pass candidate selection and reusable eviction
// buffer, every distillation allocated candidate and eviction slices,
// dominating the simulator's profile.
func TestAccessPathZeroAllocs(t *testing.T) {
	const sets, ways = 64, 8
	for _, quota := range [][]int{nil, {2, 4}} {
		c := New(Config{
			Name: "d", SizeBytes: sets * ways * mem.LineSize, Ways: ways,
			WOCWays: 2, Seed: 1, MedianThreshold: true,
		})
		c.SetPartition(quota, make([]uint64, len(quota)))
		rng := uint64(12345)
		step := func() {
			rng = rng*6364136223846793005 + 1442695040888963407
			la := mem.LineAddr(rng % (sets * 40))
			switch {
			case rng%7 == 0:
				c.AccessInstruction(la, int(rng%8), false)
			case quota != nil:
				c.AccessTenant(la, int(rng%8), rng%4 == 0, int(rng>>60)%2)
			default:
				c.Access(la, int(rng%8), rng%4 == 0)
			}
		}
		// Warm up so the WOC churns (installs displace resident lines).
		for i := 0; i < 50_000; i++ {
			step()
		}
		if n := testing.AllocsPerRun(5000, step); n != 0 {
			t.Errorf("quota %v: distill access path allocates %.1f/op", quota, n)
		}
	}
}

// TestAccessBatchZeroAllocs drives a block of mixed trace records —
// instruction fetches on the never-distill path, loads and stores on the
// demand path — through the cache the way the hierarchy routes them, and
// pins a whole block at zero allocations once LOC/WOC churn has begun.
func TestAccessBatchZeroAllocs(t *testing.T) {
	c := New(Config{Name: "d", SizeBytes: 64 * 4 * mem.LineSize, Ways: 4, WOCWays: 1, Seed: 3})
	recs := make([]trace.Record, 256)
	for i := range recs {
		k := mem.Load
		switch {
		case i%7 == 0:
			k = mem.IFetch
		case i%5 == 0:
			k = mem.Store
		}
		recs[i] = trace.Record{Addr: mem.LineAddr(i % 1024).WordAddr(i % 8), Kind: k, Instret: 1}
	}
	block := func() {
		for i := range recs {
			la, word, write := recs[i].Line(), recs[i].Word(), recs[i].IsWrite()
			if recs[i].Kind == mem.IFetch {
				c.AccessInstruction(la, word, write)
			} else {
				c.Access(la, word, write)
			}
		}
	}
	block() // steady state: LOC/WOC churn begins
	if n := testing.AllocsPerRun(500, block); n != 0 {
		t.Errorf("record block allocates %.1f/op", n)
	}
}
