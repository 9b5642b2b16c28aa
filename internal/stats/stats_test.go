package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestHistogramAddCount(t *testing.T) {
	h := NewHistogram("words", 9)
	h.Add(0)
	h.Add(8)
	h.AddN(4, 3)
	if h.Count(0) != 1 || h.Count(8) != 1 || h.Count(4) != 3 {
		t.Errorf("counts wrong: %v", h)
	}
	if h.Total() != 5 {
		t.Errorf("Total = %d, want 5", h.Total())
	}
}

func TestHistogramClamping(t *testing.T) {
	h := NewHistogram("x", 4)
	h.Add(-5)
	h.Add(99)
	h.AddN(-1, 2)
	h.AddN(7, 2)
	if h.Count(0) != 3 || h.Count(3) != 3 {
		t.Errorf("clamping failed: %v", h)
	}
}

func TestHistogramOutOfRangeCount(t *testing.T) {
	h := NewHistogram("x", 2)
	if h.Count(-1) != 0 || h.Count(5) != 0 {
		t.Error("out-of-range Count should be 0")
	}
}

func TestHistogramMean(t *testing.T) {
	h := NewHistogram("w", 9)
	h.AddN(2, 2)
	h.AddN(8, 2)
	if got := h.Mean(); math.Abs(got-5) > 1e-12 {
		t.Errorf("Mean = %v, want 5", got)
	}
	empty := NewHistogram("e", 3)
	if empty.Mean() != 0 {
		t.Error("empty Mean should be 0")
	}
}

func TestHistogramMedian(t *testing.T) {
	// The paper's hardware median: cumulative count reaching half the
	// eviction sum. 1-word:45, 8-words:55 -> half of 100 is 50, reached
	// at bucket 8.
	h := NewHistogram("words used", 9)
	h.AddN(1, 45)
	h.AddN(8, 55)
	if got := h.Median(); got != 8 {
		t.Errorf("Median = %d, want 8", got)
	}
	h2 := NewHistogram("w", 9)
	h2.AddN(1, 55)
	h2.AddN(8, 45)
	if got := h2.Median(); got != 1 {
		t.Errorf("Median = %d, want 1", got)
	}
	empty := NewHistogram("e", 9)
	if got := empty.Median(); got != 8 {
		t.Errorf("empty Median = %d, want last bucket", got)
	}
}

func TestHistogramFractions(t *testing.T) {
	h := NewHistogram("f", 4)
	h.AddN(1, 1)
	h.AddN(3, 3)
	fs := h.Fractions()
	if math.Abs(fs[1]-0.25) > 1e-12 || math.Abs(fs[3]-0.75) > 1e-12 {
		t.Errorf("Fractions = %v", fs)
	}
	if math.Abs(h.Fraction(3)-0.75) > 1e-12 {
		t.Errorf("Fraction(3) = %v", h.Fraction(3))
	}
	empty := NewHistogram("e", 2)
	if empty.Fraction(0) != 0 {
		t.Error("empty Fraction should be 0")
	}
}

func TestHistogramResetClone(t *testing.T) {
	h := NewHistogram("a", 3)
	h.AddN(1, 5)
	c := h.Clone()
	h.Reset()
	if h.Total() != 0 {
		t.Error("Reset failed")
	}
	if c.Count(1) != 5 {
		t.Error("Clone should be independent")
	}
}

func TestNewHistogramPanicsOnZeroBuckets(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on 0 buckets")
		}
	}()
	NewHistogram("bad", 0)
}

func TestMPKI(t *testing.T) {
	if got := MPKI(500, 250_000_000); math.Abs(got-0.002) > 1e-12 {
		t.Errorf("MPKI = %v", got)
	}
	if MPKI(10, 0) != 0 {
		t.Error("MPKI with zero instructions should be 0")
	}
}

func TestPctReductionIncrease(t *testing.T) {
	if got := PctReduction(100, 70); math.Abs(got-30) > 1e-12 {
		t.Errorf("PctReduction = %v", got)
	}
	if got := PctIncrease(100, 112); math.Abs(got-12) > 1e-12 {
		t.Errorf("PctIncrease = %v", got)
	}
	if PctReduction(0, 5) != 0 || PctIncrease(0, 5) != 0 {
		t.Error("zero base should yield 0")
	}
}

func TestGeoMeanPct(t *testing.T) {
	// gmean of +10% and +21% ratios: sqrt(1.1*1.21)=1.1537... -> 15.37%
	got := GeoMeanPct([]float64{10, 21})
	want := 100 * (math.Sqrt(1.1*1.21) - 1)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("GeoMeanPct = %v, want %v", got, want)
	}
	if GeoMeanPct(nil) != 0 {
		t.Error("empty GeoMeanPct should be 0")
	}
	// A -100% entry must not produce NaN.
	if v := GeoMeanPct([]float64{-100, 50}); math.IsNaN(v) {
		t.Error("GeoMeanPct produced NaN")
	}
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); math.Abs(got-2) > 1e-12 {
		t.Errorf("Mean = %v", got)
	}
	if Mean(nil) != 0 {
		t.Error("empty Mean should be 0")
	}
}

func TestSatCounter(t *testing.T) {
	c := NewSatCounter(255)
	if c.Value() != 128 {
		t.Errorf("initial = %d, want midpoint 128", c.Value())
	}
	c.Set(254)
	c.Inc()
	c.Inc() // saturate
	if c.Value() != 255 {
		t.Errorf("saturated high = %d", c.Value())
	}
	c.Set(1)
	c.Dec()
	c.Dec() // saturate
	if c.Value() != 0 {
		t.Errorf("saturated low = %d", c.Value())
	}
	c.Set(999)
	if c.Value() != 255 {
		t.Errorf("Set should clamp, got %d", c.Value())
	}
	if c.Max() != 255 {
		t.Errorf("Max = %d", c.Max())
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Demo", "name", "mpki")
	tb.AddRow("mcf", 136.0)
	tb.AddRow("art", 38.3)
	s := tb.String()
	if !strings.Contains(s, "Demo") || !strings.Contains(s, "136.00") || !strings.Contains(s, "38.30") {
		t.Errorf("String output missing content:\n%s", s)
	}
	if tb.NumRows() != 2 {
		t.Errorf("NumRows = %d", tb.NumRows())
	}
	md := tb.Markdown()
	if !strings.Contains(md, "| name | mpki |") || !strings.Contains(md, "| mcf | 136.00 |") {
		t.Errorf("Markdown output wrong:\n%s", md)
	}
	if tb.Title() != "Demo" {
		t.Errorf("Title = %q", tb.Title())
	}
}

// Property: Median is always a valid bucket index and the cumulative
// count up to it is at least half the total.
func TestMedianProperty(t *testing.T) {
	f := func(counts [9]uint16) bool {
		h := NewHistogram("p", 9)
		for i, c := range counts {
			h.AddN(i, uint64(c))
		}
		m := h.Median()
		if m < 0 || m >= 9 {
			return false
		}
		if h.Total() == 0 {
			return m == 8
		}
		var cum uint64
		for i := 0; i <= m; i++ {
			cum += h.Count(i)
		}
		return 2*cum >= h.Total()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Fractions sum to ~1 for non-empty histograms.
func TestFractionsSumProperty(t *testing.T) {
	f := func(counts [5]uint8) bool {
		h := NewHistogram("p", 5)
		total := uint64(0)
		for i, c := range counts {
			h.AddN(i, uint64(c))
			total += uint64(c)
		}
		fs := h.Fractions()
		var s float64
		for _, x := range fs {
			s += x
		}
		if total == 0 {
			return s == 0
		}
		return math.Abs(s-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("Demo", "name", "value")
	tb.AddRow("plain", 1.5)
	tb.AddRow("with,comma", `quote"d`)
	got := tb.CSV()
	want := "name,value\nplain,1.50\n\"with,comma\",\"quote\"\"d\"\n"
	if got != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
}

// TestFailureTableDeterministic: the failure table sorts its rows by
// (experiment, benchmark, col) so reports are byte-identical no matter
// which order cells failed in.
func TestFailureTableDeterministic(t *testing.T) {
	fails := []CellFailure{
		{Experiment: "fig8", Benchmark: "mcf", Col: 1, Attempts: 2, Kind: "panic", Reason: "injected"},
		{Experiment: "fig6", Benchmark: "swim", Col: 3, Attempts: 1, Kind: "error", Reason: "boom"},
		{Experiment: "fig6", Benchmark: "ammp", Col: 2, Attempts: 0, Kind: "skipped", Reason: "budget exhausted"},
		{Experiment: "fig6", Benchmark: "ammp", Col: 0, Attempts: 1, Kind: "error", Reason: "boom"},
	}
	shuffled := []CellFailure{fails[2], fails[0], fails[3], fails[1]}
	a, b := FailureTable(fails).String(), FailureTable(shuffled).String()
	if a != b {
		t.Errorf("failure table depends on input order:\n%s\nvs\n%s", a, b)
	}
	lines := strings.Split(strings.TrimRight(a, "\n"), "\n")
	// title + header + rule + 4 rows
	if len(lines) != 7 {
		t.Fatalf("table has %d lines:\n%s", len(lines), a)
	}
	wantOrder := [][2]string{{"fig6", "ammp"}, {"fig6", "ammp"}, {"fig6", "swim"}, {"fig8", "mcf"}}
	for i, want := range wantOrder {
		fields := strings.Fields(lines[3+i])
		if len(fields) < 2 || fields[0] != want[0] || fields[1] != want[1] {
			t.Errorf("row %d = %q, want %v first", i, lines[3+i], want)
		}
	}
	// The input slice must not be reordered in place.
	if fails[0].Experiment != "fig8" {
		t.Error("FailureTable mutated its input")
	}
}

// TestFailureTableEmpty renders headers only.
func TestFailureTableEmpty(t *testing.T) {
	if FailureTable(nil).NumRows() != 0 {
		t.Error("empty failure table has rows")
	}
}
