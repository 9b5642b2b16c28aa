package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"ldis/internal/cache"
	"ldis/internal/distill"
	"ldis/internal/exp"
	"ldis/internal/hierarchy"
	"ldis/internal/stats"
	"ldis/internal/trace"
	"ldis/internal/workload"
)

func TestOutputCheckCatchesChangedCell(t *testing.T) {
	table := func(art float64) []*stats.Table {
		tb := stats.NewTable("MPKI", "benchmark", "base MPKI")
		tb.AddRow("mcf", 136.0)
		tb.AddRow("art", art)
		return []*stats.Table{tb}
	}
	const key = "test/table"
	digests[key] = tableDigest(table(38.3))
	defer delete(digests, key)
	if err := checkOutput(key, table(38.3)); err != nil {
		t.Fatalf("unchanged table: %v", err)
	}
	if err := checkOutput(key, table(38.31)); err == nil {
		t.Fatal("a changed cell passed the output check")
	}
	if err := checkOutput("test/absent", table(38.3)); err == nil {
		t.Fatal("a table without a committed digest passed the output check")
	}
}

func TestVerifyCountsEveryCellOfAMismatchedExperiment(t *testing.T) {
	w := &workloadSpec{name: "test", exps: []string{"table5"}, accesses: 5_000, benchmarks: []string{"mesa", "eon"}, parallel: 1}
	o, err := w.options()
	if err != nil {
		t.Fatal(err)
	}
	p, cells := countCells(w, o)
	if cells["table5"] != 8 {
		t.Fatalf("table5 over 2 benchmarks attempted %d cells, want 8", cells["table5"])
	}
	digests["test/table5"] = tableDigest(p.tables["table5"])
	defer delete(digests, "test/table5")
	if failed, problems := p.verify(w, cells); failed != 0 || problems != nil {
		t.Fatalf("matching output: failed %d, %v", failed, problems)
	}
	p.tables["table5"][0].AddRow("extra", 1.0)
	if failed, problems := p.verify(w, cells); failed != 8 || len(problems) != 1 {
		t.Fatalf("changed output: failed %d (want 8), %v", failed, problems)
	}
}

// TestCommittedDigests runs one pass of every workload and checks its
// output against the committed digests.
func TestCommittedDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload once")
	}
	for _, w := range workloads {
		o, err := w.options()
		if err != nil {
			t.Fatal(err)
		}
		p, cells := countCells(w, o)
		if failed, problems := p.verify(w, cells); failed != 0 {
			t.Errorf("%s: %d cells failed: %v", w.name, failed, problems)
		}
	}
}

func TestPaperErrPct(t *testing.T) {
	tb := stats.NewTable("fig6", "benchmark", "base MPKI", "other")
	tb.AddRow("mcf", 136*1.1, 0.0)
	tb.AddRow("art", 38.3*0.7, 0.0)
	tb.AddRow("avg", 1.0, 0.0)
	got, err := paperErrPct([]*stats.Table{tb}, "base MPKI")
	if err != nil {
		t.Fatal(err)
	}
	// Cells are rendered with two decimals, so allow their rounding.
	if want := 20.0; got < want-0.02 || got > want+0.02 {
		t.Fatalf("paper error %.4f%%, want %.1f%%", got, want)
	}
	if _, err := paperErrPct([]*stats.Table{tb}, "missing"); err == nil {
		t.Fatal("a missing column gave no error")
	}
}

// TestTimingL2Transparent runs the same cells on bare L2s and behind
// the timing decorator and requires identical simulator state.
func TestTimingL2Transparent(t *testing.T) {
	const n = 100_000
	p := profile("mcf", 3)
	mpki := func(sys *hierarchy.System) float64 { return stats.MPKI(sys.L2.Misses(), sys.Instructions) }
	wrap := func(l2 hierarchy.L2, timed bool) hierarchy.L2 {
		if !timed {
			return l2
		}
		return &timingL2{inner: l2, access: &span{}, writeback: &span{}}
	}
	distillRun := func(timed bool) (distill.Stats, float64) {
		cfg := distill.DefaultConfig()
		cfg.Seed = p.Seed
		dc := distill.New(cfg)
		sys := hierarchy.NewSystem(wrap(hierarchy.NewDistillL2(dc), timed))
		sys.Run(p.Stream(), n)
		return *dc.Stats(), mpki(sys)
	}
	cacheRun := func(timed bool) (cache.Stats, float64) {
		c := cache.New(cache.Config{Name: "trad", SizeBytes: l2Bytes, Ways: l2Ways})
		sys := hierarchy.NewSystem(wrap(hierarchy.NewTradL2(c), timed))
		sys.Run(p.Stream(), n)
		return *c.Stats(), mpki(sys)
	}
	bareD, bareDM := distillRun(false)
	timedD, timedDM := distillRun(true)
	if !reflect.DeepEqual(bareD, timedD) || bareDM != timedDM {
		t.Errorf("distill cell differs behind the decorator: MPKI %v vs %v\n%+v\n%+v", bareDM, timedDM, bareD, timedD)
	}
	bareC, bareCM := cacheRun(false)
	timedC, timedCM := cacheRun(true)
	if !reflect.DeepEqual(bareC, timedC) || bareCM != timedCM {
		t.Errorf("cache cell differs behind the decorator: MPKI %v vs %v\n%+v\n%+v", bareCM, timedCM, bareC, timedC)
	}
}

// TestSeedReproducesTracedInputs checks every profile the traced run
// uses: a seed reproduces its records exactly, another seed changes
// them.
func TestSeedReproducesTracedInputs(t *testing.T) {
	names := append(append(append([]string{}, workload.MainNames...), workload.InsensitiveNames...), tenantMix...)
	records := func(name string, seed uint64) []trace.Record {
		return profile(name, seed).Trace(5_000)
	}
	for _, name := range names {
		a, b := records(name, 11), records(name, 11)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 11 gave two different inputs", name)
		}
		if reflect.DeepEqual(a, records(name, 12)) {
			t.Errorf("%s: seeds 11 and 12 gave the same inputs", name)
		}
	}
	// The bundled profile itself is untouched by the copies.
	prof, _ := workload.ByName("mcf")
	if p := profile("mcf", 11); p == prof || p.Seed == prof.Seed {
		t.Fatal("profile did not copy and reseed the bundled profile")
	}
}

// TestRateIsAccessesOverElapsed pins sim_accesses_per_s on a 2-worker
// pass to simulated accesses over the benchmark's own stopwatch, not
// ldisexp -throughput's wall time minus the decode time summed over
// workers.
func TestRateIsAccessesOverElapsed(t *testing.T) {
	w := &workloadSpec{name: "test", exps: []string{"orgs"}, accesses: 60_000, benchmarks: []string{"art", "mcf", "twolf"}, parallel: 2}
	o, err := w.options()
	if err != nil {
		t.Fatal(err)
	}
	exp.ResetDecodeNanos()
	outer := time.Now()
	p := runPass(w, o)
	outerWall := time.Since(outer)
	decode := time.Duration(exp.DecodeNanos())

	if want := uint64(3 * 5 * 60_000); p.accesses != want {
		t.Fatalf("pass simulated %d accesses, want %d", p.accesses, want)
	}
	if decode <= 0 {
		t.Fatal("no decode time recorded")
	}
	// The pass's stopwatch must cover nearly all of the outer one: only
	// the heap reset before it and the reads after it fall outside, and
	// those take less than the decode time a wall-minus-decode figure
	// would subtract.
	if p.wall <= 0 || p.wall > outerWall {
		t.Fatalf("pass wall %v outside (0, %v]", p.wall, outerWall)
	}
	if gap := outerWall - p.wall; gap >= outerWall/10 || gap >= decode {
		t.Fatalf("pass wall %v is %v short of the outer stopwatch %v (decode %v): the pass does not time its whole region", p.wall, gap, outerWall, decode)
	}
	if got, want := p.accessesPerSec(), float64(p.accesses)/p.wall.Seconds(); got != want {
		t.Fatalf("rate %v, want accesses/elapsed %v", got, want)
	}
	if wallMinusDecode := float64(p.accesses) / (p.wall - decode).Seconds(); p.accessesPerSec() == wallMinusDecode {
		t.Fatalf("rate %v reproduces the wall-minus-decode figure", p.accessesPerSec())
	}
}

func TestCompareRefusesOtherHost(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, r report) string {
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	fp := fingerprint{CPUModel: "cpu A", NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", Commit: "src-1"}
	base := report{Workload: "sweep", Fingerprint: fp, Metrics: map[string]float64{"cpu_ns_per_access": 200}}
	a := write("a.json", base)

	newer := base
	newer.Fingerprint.Commit = "src-2"
	newer.Metrics = map[string]float64{"cpu_ns_per_access": 180}
	if err := compareReports(io.Discard, a, write("b.json", newer)); err != nil {
		t.Fatalf("same host, other commit: %v", err)
	}
	for name, change := range map[string]func(*fingerprint){
		"cpu":        func(f *fingerprint) { f.CPUModel = "cpu B" },
		"nproc":      func(f *fingerprint) { f.NProc = 4 },
		"gomaxprocs": func(f *fingerprint) { f.GOMAXPROCS = 1 },
		"go":         func(f *fingerprint) { f.GoVersion = "go1.25.0" },
	} {
		other := base
		change(&other.Fingerprint)
		if err := compareReports(io.Discard, a, write(name+".json", other)); err == nil {
			t.Errorf("reports differing in %s were compared", name)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics the
// benchmark prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q %q, benchmark %q %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i, m := range got {
			better := "lower"
			if want[i].higher {
				better = "higher"
			}
			if m.Name != want[i].name || m.Unit != want[i].unit || m.Better != better {
				t.Errorf("%s %d: BENCHMARK.json %+v, benchmark %+v", kind, i, m, want[i])
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndDefs)
	check("per_layer", spec.PerLayer, perLayerDefs)
}
