package exp

import (
	"math"
	"path/filepath"
	"testing"

	"ldis/internal/cache"
	"ldis/internal/stats"
	"ldis/internal/workload"
)

// mrcFast returns options sized for test runs; 150k accesses keeps the
// SHARDS sample large enough for the 0.02 error budget.
func mrcFast(benchmarks ...string) Options {
	return Options{Accesses: 150_000, WarmupFrac: 0.25, Benchmarks: benchmarks}
}

// TestMRCShardsTolerance is the acceptance bound: on every registered
// benchmark — the paper's 16 and the cache-insensitive set alike — the
// SHARDS-sampled curve stays within 0.02 absolute miss ratio of the
// exact Mattson curve, at both granularities. make mrc-smoke runs this
// in CI.
func TestMRCShardsTolerance(t *testing.T) {
	rows, err := MRC(mrcFast(workload.Names()...))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(workload.Names()) {
		t.Fatalf("got %d rows, want %d", len(rows), len(workload.Names()))
	}
	for _, r := range rows {
		lineErr := stats.MaxAbsDiff(r.Exact.Line.Series(), r.Sampled.Line.Series())
		wordErr := stats.MaxAbsDiff(r.Exact.Word.Series(), r.Sampled.Word.Series())
		if math.IsNaN(lineErr) || math.IsNaN(wordErr) {
			t.Errorf("%s: empty curve (line err %v, word err %v)", r.Benchmark, lineErr, wordErr)
			continue
		}
		if lineErr > 0.02 {
			t.Errorf("%s: SHARDS line-grain error %.4f exceeds 0.02", r.Benchmark, lineErr)
		}
		if wordErr > 0.02 {
			t.Errorf("%s: SHARDS word-grain error %.4f exceeds 0.02", r.Benchmark, wordErr)
		}
		for _, c := range []struct {
			name string
			s    stats.Series
		}{
			{"exact line", r.Exact.Line.Series()},
			{"exact word", r.Exact.Word.Series()},
		} {
			if !c.s.NonIncreasing() {
				t.Errorf("%s: %s curve is not non-increasing", r.Benchmark, c.name)
			}
		}
		// Word grain dominates line grain: storing only used words can
		// never need more capacity for the same hit.
		for i, p := range r.Exact.Word.Points {
			if lp := r.Exact.Line.Points[i]; p.Y > lp.Y+1e-9 {
				t.Errorf("%s: word MR %.4f above line MR %.4f at %s",
					r.Benchmark, p.Y, lp.Y, stats.FormatBytes(p.X))
				break
			}
		}
	}
}

// simulatedMissRatio drives the same warmup/measure windows of a
// profile's data accesses through a real set-associative cache and
// returns the measured miss ratio — the independent ground truth for
// the curve spot check.
func simulatedMissRatio(t *testing.T, benchmark string, o Options, sizeMB float64) float64 {
	t.Helper()
	prof, err := workload.ByName(benchmark)
	if err != nil {
		t.Fatal(err)
	}
	c := cache.New(baselineConfig("spot", sizeMB))
	st := prof.Stream()
	var refs, misses float64
	for i := 0; i < o.Accesses; i++ {
		a, ok := st.Next()
		if !ok {
			break
		}
		if !a.Kind.IsData() {
			continue
		}
		hit := c.AccessInstallTenant(a.Line(), a.Word(), a.IsWrite(), 0)
		if i >= o.warmup() {
			refs++
			if !hit {
				misses++
			}
		}
	}
	if refs == 0 {
		t.Fatalf("%s: no measured references", benchmark)
	}
	return misses / refs
}

// TestMRCMatchesSimulation spot-checks the exact line-grain curve
// against full set-associative cache simulation at the paper's three
// capacities. The curve models a fully-associative LRU cache, so the
// simulated 2048-set cache can only be slightly worse (conflict
// misses); the tolerance covers that structural gap.
func TestMRCMatchesSimulation(t *testing.T) {
	benchmarks := []string{"sixtrack", "twolf", "health"}
	o := mrcFast(benchmarks...)
	rows, err := MRC(o)
	if err != nil {
		t.Fatal(err)
	}
	const tol = 0.04
	for _, r := range rows {
		for _, sizeMB := range []float64{0.5, 1, 2} {
			curve := r.Exact.Line.MissRatioAt(sizeMB * (1 << 20))
			sim := simulatedMissRatio(t, r.Benchmark, o, sizeMB)
			if d := math.Abs(curve - sim); d > tol {
				t.Errorf("%s @ %gMB: curve MR %.4f vs simulated %.4f (|diff| %.4f > %.2f)",
					r.Benchmark, sizeMB, curve, sim, d, tol)
			}
		}
	}
}

// TestMRCDeterministic: two runs render byte-identical tables — the
// par fan-out and SHARDS hashing introduce no run-to-run variation.
func TestMRCDeterministic(t *testing.T) {
	render := func() string {
		rows, err := MRC(mrcFast("twolf", "vpr"))
		if err != nil {
			t.Fatal(err)
		}
		out := ""
		for _, tab := range MRCTables(rows) {
			out += tab.String() + "\n"
		}
		return out
	}
	if a, b := render(), render(); a != b {
		t.Error("mrc tables differ between identical runs")
	}
}

// TestMRCCheckpointResume: the mrc experiment round-trips its cells
// through the checkpoint — a resumed run replays instead of
// recomputing and renders identical output.
func TestMRCCheckpointResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), CheckpointFile)
	o := mrcFast("twolf")
	run := func() ([]*stats.Table, *Checkpoint) {
		ck, err := OpenCheckpoint(path, o)
		if err != nil {
			t.Fatal(err)
		}
		ro := o
		ro.Checkpoint = ck
		tabs, err := Run("mrc", ro)
		if err != nil {
			t.Fatal(err)
		}
		if err := ck.Close(); err != nil {
			t.Fatal(err)
		}
		return tabs, ck
	}
	first, ck1 := run()
	if ck1.Recorded() != 2 {
		t.Fatalf("first run recorded %d cells, want 2", ck1.Recorded())
	}
	second, ck2 := run()
	if ck2.Replayed() != 2 {
		t.Fatalf("resumed run replayed %d cells, want 2", ck2.Replayed())
	}
	if len(first) != len(second) {
		t.Fatalf("table count changed across resume: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i].String() != second[i].String() {
			t.Errorf("table %d differs after checkpoint replay", i)
		}
	}
}

// TestMRCOptionsValidate rejects broken MRC knobs with useful errors.
func TestMRCOptionsValidate(t *testing.T) {
	bad := []Options{
		{Accesses: 1000, MRCSampleRate: -0.5},
		{Accesses: 1000, MRCSampleRate: 1.5},
		{Accesses: 1000, MRCMaxSamples: -1},
		{Accesses: 1000, MRCResolution: -64},
		{Accesses: 1000, MRCMaxBytes: -1},
		{Accesses: 1000, MRCResolution: 1 << 20, MRCMaxBytes: 1 << 10},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("case %d: validate accepted %+v", i, o)
		}
	}
	ok := Options{Accesses: 1000, MRCSampleRate: 0.1, MRCMaxSamples: 100,
		MRCResolution: 64 << 10, MRCMaxBytes: 1 << 20}
	if err := ok.Validate(); err != nil {
		t.Errorf("validate rejected good options: %v", err)
	}
}

// TestMRCFingerprint: MRC knobs are result-affecting, so they must
// change the checkpoint fingerprint; explicit defaults must not.
func TestMRCFingerprint(t *testing.T) {
	base := Options{Accesses: 1000}
	explicit := Options{Accesses: 1000, MRCSampleRate: 0.1, MRCMaxSamples: 16 << 10,
		MRCResolution: 64 << 10, MRCMaxBytes: 4 << 20}
	if base.Fingerprint() != explicit.Fingerprint() {
		t.Error("explicit MRC defaults changed the fingerprint")
	}
	changed := base
	changed.MRCSampleRate = 0.2
	if base.Fingerprint() == changed.Fingerprint() {
		t.Error("MRCSampleRate change did not change the fingerprint")
	}
}
