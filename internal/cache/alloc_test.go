package cache

import (
	"testing"

	"ldis/internal/mem"
)

// The simulation hot path — hits, and the miss-and-install refill
// cycle, partitioned or not — must not allocate: the experiment engine
// drives hundreds of millions of accesses per run, and per-access
// garbage dominated the profile before histograms were made eager and
// the set geometry was precomputed.

func TestAccessHitPathZeroAllocs(t *testing.T) {
	c := New(Config{Name: "t", SizeBytes: 64 * 8 * mem.LineSize, Ways: 8})
	line := mem.LineAddr(5)
	access(c, line, 0, false)
	if n := testing.AllocsPerRun(1000, func() {
		if !access(c, line, 1, true) {
			t.Fatal("expected hit")
		}
	}); n != 0 {
		t.Errorf("hit path allocates %.1f/op", n)
	}
}

func TestMissInstallPathZeroAllocs(t *testing.T) {
	for _, quota := range [][]int{nil, {3, 5}} {
		c := New(Config{Name: "t", SizeBytes: 64 * 8 * mem.LineSize, Ways: 8})
		c.SetPartition(quota)
		i := uint64(0)
		if n := testing.AllocsPerRun(1000, func() {
			l := mem.LineAddr(i*64 + 3) // march through tags of one set
			i++
			if c.AccessInstallTenant(l, 0, false, int(i%2)) {
				t.Fatal("expected miss")
			}
		}); n != 0 {
			t.Errorf("quota %v: miss+install path allocates %.1f/op", quota, n)
		}
	}
}
