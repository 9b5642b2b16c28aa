package mrc

import (
	"math"
	"testing"

	"ldis/internal/mem"
)

// naiveStack is an O(lines)-per-access Mattson stack: the LRU order
// kept as a slice (most recent first) with each line's cumulative word
// footprint. It prices reuses at both granularities by walking the
// stack, sharing nothing with the Fenwick engine but the bucketing.
type naiveStack struct {
	order []mem.LineAddr
	fp    []mem.Footprint // by line address

	res, buckets       int
	histLine, histWord []float64
	cold, refs         float64
}

func newNaiveStack(cfg Config, lines int) *naiveStack {
	buckets := cfg.MaxBytes / cfg.ResolutionBytes
	return &naiveStack{
		fp:       make([]mem.Footprint, lines),
		res:      cfg.ResolutionBytes,
		buckets:  buckets,
		histLine: make([]float64, buckets+2),
		histWord: make([]float64, buckets+2),
	}
}

func (s *naiveStack) record(hist []float64, dBytes float64) {
	b := int(math.Ceil(dBytes / float64(s.res)))
	b = max(b, 1)
	b = min(b, s.buckets+1)
	hist[b]++
}

func (s *naiveStack) access(line mem.LineAddr, word int) {
	s.refs++
	depth := -1
	slotsAbove := 0
	for i, l := range s.order {
		if l == line {
			depth = i
			break
		}
		slotsAbove += mem.Pow2WordsFor(s.fp[l].Count())
	}
	nfp := s.fp[line].Set(word)
	s.fp[line] = nfp
	if depth < 0 {
		s.cold++
		s.order = append(s.order, 0)
		copy(s.order[1:], s.order)
		s.order[0] = line
		return
	}
	s.record(s.histLine, float64(depth+1)*mem.LineSize)
	s.record(s.histWord, float64(slotsAbove+mem.Pow2WordsFor(nfp.Count()))*mem.WordSize)
	copy(s.order[1:depth+1], s.order[:depth])
	s.order[0] = line
}

// distance is the inclusive line-grain stack distance of a resident line.
func (s *naiveStack) distance(line mem.LineAddr) (float64, bool) {
	for i, l := range s.order {
		if l == line {
			return float64(i+1) * mem.LineSize, true
		}
	}
	return 0, false
}

// points evaluates MR at every bucket boundary the way Curve does:
// cold misses plus every distance beyond the capacity, over refs.
func (s *naiveStack) points(hist []float64) []float64 {
	ys := make([]float64, s.buckets)
	for j := 1; j <= s.buckets; j++ {
		beyond := s.cold
		for k := j + 1; k <= s.buckets+1; k++ {
			beyond += hist[k]
		}
		ys[j-1] = clampRatio(beyond / s.refs)
	}
	return ys
}

// TestEngineMatchesNaiveStack drives the exact engine far enough that
// its Fenwick tree doubles twice (2^16 -> 2^17 -> 2^18) and then takes
// a final step capped at the access budget, and holds it to a
// naive Mattson stack: every curve point and the cold fraction at both
// granularities must agree bit for bit, and every line's current
// distance must agree just before and just after each growth step.
// Each line touches only its first 1..8 words, so footprints — and
// with them word-grain weights — stay mixed across the whole run.
func TestEngineMatchesNaiveStack(t *testing.T) {
	const (
		lines    = 512
		accesses = 300_000
	)
	cfg := Config{MaxBytes: 256 * mem.LineSize, ResolutionBytes: 2 * mem.LineSize}
	e := mustNew(t, cfg, accesses)
	ref := newNaiveStack(cfg, lines)

	checkpoints := map[int]bool{}
	for n := initialPositions; n < accesses; n *= 2 {
		checkpoints[n], checkpoints[n+1] = true, true
	}
	x := uint64(0x5eed)
	grew := 0
	for i := 1; i <= accesses; i++ {
		x = splitmix64(x)
		line := mem.LineAddr(x % lines)
		word := int(x>>32) % (1 + int(line)%mem.WordsPerLine)
		size := len(e.fw.tree)
		e.Access(line, word)
		ref.access(line, word)
		if len(e.fw.tree) != size {
			grew++
		}
		if !checkpoints[i] {
			continue
		}
		for l := mem.LineAddr(0); l < lines; l++ {
			got, gotOK := e.CurrentLineDistanceBytes(l)
			want, wantOK := ref.distance(l)
			if got != want || gotOK != wantOK {
				t.Fatalf("access %d: distance(line %d) = %v, %v; naive stack %v, %v", i, l, got, gotOK, want, wantOK)
			}
		}
	}
	if grew != 3 {
		t.Fatalf("tree grew %d times over %d accesses, want 3 (two doublings and the capped step)", grew, accesses)
	}
	if got := len(e.fw.tree) - 1; got != accesses {
		t.Fatalf("tree covers %d positions, want the budget %d", got, accesses)
	}

	for _, g := range []struct {
		name string
		c    Curve
		hist []float64
	}{
		{"line", e.LineCurve("line"), ref.histLine},
		{"word", e.WordCurve("word"), ref.histWord},
	} {
		if g.c.Refs != ref.refs {
			t.Fatalf("%s: refs %v, naive %v", g.name, g.c.Refs, ref.refs)
		}
		if wantCold := clampRatio(ref.cold / ref.refs); math.Float64bits(g.c.ColdFrac) != math.Float64bits(wantCold) {
			t.Errorf("%s: ColdFrac %v, naive %v", g.name, g.c.ColdFrac, wantCold)
		}
		want := ref.points(g.hist)
		if len(g.c.Points) != len(want) {
			t.Fatalf("%s: %d points, naive %d", g.name, len(g.c.Points), len(want))
		}
		for i, p := range g.c.Points {
			if p.X != float64((i+1)*cfg.ResolutionBytes) || math.Float64bits(p.Y) != math.Float64bits(want[i]) {
				t.Errorf("%s point %d: (%v, %v), naive (%v, %v)", g.name, i, p.X, p.Y, (i+1)*cfg.ResolutionBytes, want[i])
			}
		}
	}
}
