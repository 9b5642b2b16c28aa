package compress

import (
	"testing"

	"ldis/internal/mem"
	"ldis/internal/values"
)

func testModel() *values.Model {
	return values.NewModel(7, values.Mix{Zero: 0.4, Half: 0.3, Full: 0.3})
}

// TestAccessZeroAllocs pins the compressed cache's steady-state access
// path — hits, compressed installs and multi-line evictions — at zero
// allocations per access.
func TestAccessZeroAllocs(t *testing.T) {
	c := NewCMPR(CMPRConfig{Name: "c", SizeBytes: 64 * 8 * mem.LineSize, Ways: 8, TagFactor: 2}, testModel())
	i := 0
	step := func() {
		c.Access(mem.LineAddr(i%1024), i%8, i%5 == 0)
		i++
	}
	for i < 10_000 {
		step() // steady state: sets at tag capacity
	}
	if n := testing.AllocsPerRun(5000, step); n != 0 {
		t.Errorf("Access allocates %.1f/op", n)
	}
}
