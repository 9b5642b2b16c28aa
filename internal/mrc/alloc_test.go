package mrc

import (
	"runtime"
	"testing"

	"ldis/internal/mem"
)

// TestAccessAllocs pins the //ldis:noalloc contract on the per-access
// hot path: once the line table and sample heap have reached steady
// state, Access performs zero heap allocations for both the exact and
// the sampled (fixed-rate + fixed-size) engines.
func TestAccessAllocs(t *testing.T) {
	const lines = 1024
	cases := []struct {
		name string
		cfg  Config
	}{
		{"exact", Config{}},
		{"fixed-rate", Config{SampleRate: 0.5, Seed: 7}},
		{"fixed-size", Config{SampleRate: 0.5, MaxSamples: 200, Seed: 7}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, err := New(tc.cfg, 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			// Warm: touch the whole working set so the table and heap
			// stop growing.
			for i := 0; i < lines; i++ {
				e.Access(mem.LineAddr(i), i&7)
			}
			x := uint64(1)
			avg := testing.AllocsPerRun(2000, func() {
				x = splitmix64(x)
				e.Access(mem.LineAddr(x%lines), int(x>>32)&7)
			})
			if avg != 0 {
				t.Errorf("%s: Access allocates %.2f times per call in steady state, want 0", tc.name, avg)
			}
		})
	}
}

// TestNewCostIndependentOfBudget pins construction cost: the Fenwick
// tree starts small and grows with the clock, so an engine built with
// the copy-back predictor's default 1<<22 access budget allocates well
// under 1 MiB instead of two budget-sized trees.
func TestNewCostIndependentOfBudget(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e, err := New(Config{SampleRate: 0.25, MaxSamples: 8192}, 1<<22)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("New with a 1<<22 budget allocated %d bytes, want < 1 MiB", got)
	}
	runtime.KeepAlive(e)
}
