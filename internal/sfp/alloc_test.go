package sfp

import (
	"testing"

	"ldis/internal/mem"
)

// TestAccessZeroAllocs pins the SFP cache's steady-state access path —
// predictor lookups and training, filtered installs and evictions — at
// zero allocations per access.
func TestAccessZeroAllocs(t *testing.T) {
	c := New(Config{Name: "s", SizeBytes: 64 * 8 * mem.LineSize, Ways: 8,
		PredictorEntries: 256, TagsPerSet: 22, Seed: 3})
	i := 0
	step := func() {
		c.Access(mem.LineAddr(i%1024), i%8, mem.Addr(0x400+4*(i%97)), i%5 == 0)
		i++
	}
	for i < 10_000 {
		step() // steady state: meta tables at capacity
	}
	if n := testing.AllocsPerRun(5000, step); n != 0 {
		t.Errorf("Access allocates %.1f/op", n)
	}
}
