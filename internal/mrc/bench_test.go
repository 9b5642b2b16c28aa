package mrc

import (
	"testing"

	"ldis/internal/mem"
)

// BenchmarkEngineAccess measures one Access on a uniform trace over
// 4096 lines, for the exact engine and both SHARDS modes. The budget
// covers the whole run, so long runs include the tree's growth steps.
func BenchmarkEngineAccess(b *testing.B) {
	const lines = 4096
	cases := []struct {
		name string
		cfg  Config
	}{
		{"exact", Config{}},
		{"fixed-rate", Config{SampleRate: 0.5, Seed: 7}},
		{"fixed-size", Config{SampleRate: 0.5, MaxSamples: 1024, Seed: 7}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			e, err := New(tc.cfg, b.N+1)
			if err != nil {
				b.Fatal(err)
			}
			x := uint64(1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x = splitmix64(x)
				e.Access(mem.LineAddr(x%lines), int(x>>32)&7)
			}
		})
	}
}
