package distill

import (
	"runtime"
	"testing"

	"ldis/internal/mem"
)

func copyBackCfg(maxReuse int) Config {
	return Config{
		Name: "cb", SizeBytes: 4 * 4 * mem.LineSize, Ways: 4, WOCWays: 2, Seed: 1,
		CopyBack: &CopyBackConfig{MaxReuseBytes: maxReuse, SampleRate: 0.9},
	}
}

// A predictor that has never observed the line must say "cold", and a
// cold victim is never copied back — the conservative default the
// paper's gated copy-back relies on at startup.
func TestCopyBackColdStart(t *testing.T) {
	c := New(copyBackCfg(1 << 20))
	la := mem.LineAddr(7)
	c.WritebackFromL1(la, mem.FootprintOfWord(0), 0)
	st := c.Stats()
	if st.CopyBackCold != 1 {
		t.Fatalf("cold rejects = %d, want 1", st.CopyBackCold)
	}
	if st.CopyBacks != 0 || st.CopyBackFar != 0 {
		t.Fatalf("cold victim acted on: %+v", st)
	}
	if got := c.Present(la); got != "" {
		t.Fatalf("cold victim installed in %q", got)
	}
}

// Victims the predictor has tracked at short stack distance are copied
// back into the WOC; with the admission window shrunk to one line the
// same victims are rejected as far. Candidates the sampler skipped stay
// cold in both configurations.
func TestCopyBackGatesOnReuseDistance(t *testing.T) {
	run := func(maxReuse int) (*Stats, *Cache) {
		c := New(copyBackCfg(maxReuse))
		// Touch the candidates once, then flush them out of LOC and WOC
		// with a march of distinct lines.
		for i := 0; i < 8; i++ {
			c.Access(mem.LineAddr(i), 0, false)
		}
		for i := 0; i < 200; i++ {
			c.Access(mem.LineAddr(1000+i), 0, false)
		}
		for i := 0; i < 8; i++ {
			la := mem.LineAddr(i)
			if c.Present(la) != "" {
				continue // march too small for this set; skip
			}
			c.WritebackFromL1(la, mem.FootprintOfWord(0), 0)
		}
		return c.Stats(), c
	}

	wide, c := run(1 << 20) // 200-line march ≈ 13kB, well inside
	if wide.CopyBacks == 0 {
		t.Fatalf("no victim admitted under a wide window: %+v", wide)
	}
	if wide.CopyBackFar != 0 {
		t.Fatalf("wide window rejected %d victims as far", wide.CopyBackFar)
	}
	found := false
	for i := 0; i < 8; i++ {
		if c.Present(mem.LineAddr(i)) == "woc" {
			found = true
		}
	}
	if !found {
		t.Fatal("admitted victim not resident in the WOC")
	}

	narrow, _ := run(mem.LineSize)
	if narrow.CopyBacks != 0 {
		t.Fatalf("one-line window admitted %d victims", narrow.CopyBacks)
	}
	if narrow.CopyBackFar == 0 {
		t.Fatal("one-line window rejected nothing as far")
	}
	if narrow.CopyBackCold != wide.CopyBackCold {
		t.Fatalf("cold count depends on the window: %d vs %d", narrow.CopyBackCold, wide.CopyBackCold)
	}
}

// Copy-back sits on the access path (every access feeds the predictor)
// and on the L1-writeback path; neither may allocate in steady state.
func TestCopyBackPathZeroAllocs(t *testing.T) {
	const sets, ways = 64, 8
	c := New(Config{
		Name: "cba", SizeBytes: sets * ways * mem.LineSize, Ways: ways,
		WOCWays: 2, Seed: 1,
		CopyBack: &CopyBackConfig{SampleRate: 0.5, MaxSamples: 512},
	})
	rng := uint64(99)
	next := func() mem.LineAddr {
		rng = rng*6364136223846793005 + 1442695040888963407
		return mem.LineAddr(rng % (sets * 40))
	}
	for i := 0; i < 50_000; i++ {
		c.Access(next(), int(rng%8), rng%4 == 0)
	}
	if n := testing.AllocsPerRun(5000, func() {
		la := next()
		c.Access(la, int(rng%8), false)
		c.WritebackFromL1(next(), mem.FootprintOfWord(int(rng%8)), 0)
	}); n != 0 {
		t.Errorf("copy-back path allocates %.1f/op", n)
	}
}

// TestCopyBackConstructionCost pins what a copy-back cache costs to
// build with the default predictor (1<<22 access budget): the
// predictor's Fenwick tree grows with its clock instead of being sized
// to the budget, so a small cache builds in well under 1 MiB.
func TestCopyBackConstructionCost(t *testing.T) {
	cfg := Config{
		Name: "cb", SizeBytes: 64 * 8 * mem.LineSize, Ways: 8, WOCWays: 2, Seed: 1,
		CopyBack: &CopyBackConfig{},
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c := New(cfg)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("New with default copy-back allocated %d bytes, want < 1 MiB", got)
	}
	runtime.KeepAlive(c)
}
