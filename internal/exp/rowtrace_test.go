package exp

import (
	"reflect"
	"testing"

	"ldis/internal/cache"
	"ldis/internal/distill"
	"ldis/internal/hierarchy"
	"ldis/internal/mem"
	"ldis/internal/wordstore"
	"ldis/internal/workload"
)

func mustProfile(t *testing.T, name string) *workload.Profile {
	t.Helper()
	prof, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return prof
}

// TestRowTraceMatchesProfile: a materialized row holds exactly the
// profile's first Accesses records, and the benchmark's Stream reads
// them back.
func TestRowTraceMatchesProfile(t *testing.T) {
	o := Options{Accesses: 20_000, WarmupFrac: 0.25}
	rows := newRowTraces(o, 2, 3)
	if rows == nil {
		t.Fatal("a 20k-access row should fit under the cap")
	}
	for row, name := range []string{"mcf", "swim"} {
		prof := mustProfile(t, name)
		want := prof.Trace(o.Accesses)
		if got := rows.records(row, prof); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: shared row differs from prof.Trace(%d)", name, o.Accesses)
		}
		b := &benchmark{Profile: prof, rows: rows, row: row}
		st := b.Stream()
		for i, w := range want {
			if a, ok := st.Next(); !ok || a != w {
				t.Fatalf("%s: Stream record %d = %+v, want %+v", name, i, a, w)
			}
		}
		if _, ok := st.Next(); ok {
			t.Fatalf("%s: Stream ran past the row's %d records", name, o.Accesses)
		}
	}
}

// TestRowTraceCap: rows longer than the cap stream per cell.
func TestRowTraceCap(t *testing.T) {
	fits := rowTraceCap / recordBytes
	if newRowTraces(Options{Accesses: fits}, 1, 2) == nil {
		t.Errorf("%d accesses (%d bytes) should fit under the %d-byte cap", fits, fits*recordBytes, rowTraceCap)
	}
	if newRowTraces(Options{Accesses: fits + 1}, 1, 2) != nil {
		t.Errorf("%d accesses should stream", fits+1)
	}
}

// TestSharedRowMatchesOwnStream: a cell driven from the row's shared
// trace (zero-copy blocks) and the same cell driven from its own
// stream end in identical window totals and L2 statistics, for every
// organization the orgs experiment compares. Partial blocks are
// covered too: neither the 7,500-record warmup nor the 22,500-record
// measurement window is a multiple of trace.DefaultBatchSize (4096).
func TestSharedRowMatchesOwnStream(t *testing.T) {
	o := Options{Accesses: 30_000, WarmupFrac: 0.25}
	prof := mustProfile(t, "twolf")
	type build func() (*hierarchy.System, func() any)
	trad := func(cfg cache.Config) build {
		return func() (*hierarchy.System, func() any) {
			sys, c := tradSystem(cfg, nil)
			return sys, func() any { return *c.Stats() }
		}
	}
	dist := func(cfg distill.Config) build {
		return func() (*hierarchy.System, func() any) {
			sys, c := distillSystem(cfg, nil)
			return sys, func() any { return c.Stats() }
		}
	}
	touche := orgDistill("touche", prof.Seed)
	touche.Touche = &wordstore.ToucheConfig{SuperblockLines: 4, Seed: prof.Seed}
	copyback := orgDistill("copyback", prof.Seed)
	copyback.CopyBack = &distill.CopyBackConfig{MaxReuseBytes: orgSizeBytes, Seed: prof.Seed}
	orgs := map[string]build{
		"base": trad(cache.Config{Name: "base", SizeBytes: orgSizeBytes, Ways: orgWays}),
		"waymemo": trad(cache.Config{Name: "waymemo", SizeBytes: orgSizeBytes, Ways: orgWays,
			WayMemo: &cache.WayMemoConfig{EntriesPerSet: 4}}),
		"ldis-mt-rc": dist(ldisMTRC(2, prof.Seed)),
		"touche":     dist(touche),
		"copyback":   dist(copyback),
	}
	rows := newRowTraces(o, 1, len(orgs))
	for _, name := range []string{"base", "waymemo", "ldis-mt-rc", "touche", "copyback"} {
		sysS, statsS := orgs[name]()
		shared := runWindowed(sysS, &benchmark{Profile: prof, rows: rows}, o, nil).Totals()
		sysO, statsO := orgs[name]()
		own := runWindowed(sysO, &benchmark{Profile: prof}, o, nil).Totals()
		if shared != own {
			t.Errorf("%s: window totals shared %+v, own stream %+v", name, shared, own)
		}
		if !reflect.DeepEqual(statsS(), statsO()) {
			t.Errorf("%s: L2 stats differ:\n shared %+v\n own    %+v", name, statsS(), statsO())
		}
	}
}

// TestRowReleaseUnderRetries: with injected faults absorbed by
// retries, the tables are byte-identical to a fault-free run and
// every row's trace is generated exactly once — a retried cell that
// released its row early would make a later cell regenerate it.
func TestRowReleaseUnderRetries(t *testing.T) {
	for _, parallel := range []int{1, 3} {
		o := chaosOptions()
		o.Parallel = parallel
		o.Retries = 1
		fills, buffers := rowFills.Load(), rowBuffers.Load()
		tables, err := Run("table6", o)
		if err != nil {
			t.Fatal(err)
		}
		if got := rowFills.Load() - fills; got != int64(len(chaosBenches)) {
			t.Errorf("Parallel=%d: %d row traces generated for %d rows", parallel, got, len(chaosBenches))
		}
		if got := rowBuffers.Load() - buffers; got > int64(parallel+1) {
			t.Errorf("Parallel=%d: %d row buffers allocated, want at most %d", parallel, got, parallel+1)
		}
		got := ""
		for _, tb := range tables {
			got += tb.String() + "\n" + tb.CSV() + "\n"
		}
		// health/3 faults permanently and is pruned; the rest recover.
		clean := Options{Accesses: o.Accesses, WarmupFrac: o.WarmupFrac,
			Benchmarks: []string{"ammp", "mcf", "swim"}, Parallel: parallel}
		if want := renderAll(t, "table6", clean); got != want {
			t.Errorf("Parallel=%d: retried run differs from fault-free run:\n%s\nvs\n%s", parallel, got, want)
		}
	}
}

// TestGridRowBuffersBounded: a grid allocates at most Parallel+1 row
// buffers however many rows it has, generates each row once, and
// allocates none when rows exceed the cap.
func TestGridRowBuffersBounded(t *testing.T) {
	benches := []string{"ammp", "mcf", "swim", "art", "twolf", "health", "vpr"}
	for _, parallel := range []int{1, 2, 3} {
		o := Options{Accesses: 10_000, WarmupFrac: 0.25, Benchmarks: benches, Parallel: parallel}
		fills, buffers := rowFills.Load(), rowBuffers.Load()
		if _, err := Run("fig6", o); err != nil {
			t.Fatal(err)
		}
		if got := rowBuffers.Load() - buffers; got < 1 || got > int64(parallel+1) {
			t.Errorf("Parallel=%d: %d row buffers allocated, want 1..%d", parallel, got, parallel+1)
		}
		if got := rowFills.Load() - fills; got != int64(len(benches)) {
			t.Errorf("Parallel=%d: %d row traces generated for %d rows", parallel, got, len(benches))
		}
	}
	o := Options{Accesses: rowTraceCap/recordBytes + 1, WarmupFrac: 0.25, Benchmarks: []string{"ammp"}, Parallel: 2}
	buffers := rowBuffers.Load()
	if _, err := Run("fig7", o); err != nil {
		t.Fatal(err)
	}
	if got := rowBuffers.Load() - buffers; got != 0 {
		t.Errorf("rows above the cap allocated %d buffers, want 0", got)
	}
}

// firstMissL2 decorates the traditional L2 to count misses to lines
// that never missed before — the compulsory misses by definition.
type firstMissL2 struct {
	*hierarchy.TradL2
	missed map[mem.LineAddr]bool
	first  int
}

func (d *firstMissL2) note(la mem.LineAddr, c hierarchy.Class) {
	if c == hierarchy.L2Miss && !d.missed[la] {
		d.missed[la] = true
		d.first++
	}
}

func (d *firstMissL2) Access(la mem.LineAddr, word int, pc mem.Addr, write bool) (hierarchy.Class, mem.Footprint) {
	c, fp := d.TradL2.Access(la, word, pc, write)
	d.note(la, c)
	return c, fp
}

func (d *firstMissL2) AccessInstr(la mem.LineAddr, pc mem.Addr) (hierarchy.Class, mem.Footprint) {
	c, fp := d.TradL2.AccessInstr(la, pc)
	d.note(la, c)
	return c, fp
}

// TestCompulsoryMissesAreDistinctLines pins the equivalence Table 2
// relies on: in the traditional 1MB hierarchy, the number of L2
// misses to never-before-missed lines equals the run's distinct-line
// count, for every registered profile.
func TestCompulsoryMissesAreDistinctLines(t *testing.T) {
	const n = 20_000
	for _, name := range workload.Names() {
		prof := mustProfile(t, name)
		sys, _ := tradSystem(cache.Config{Name: "base-1MB", SizeBytes: 1 << 20, Ways: 8}, nil)
		l2 := &firstMissL2{TradL2: sys.L2.(*hierarchy.TradL2), missed: map[mem.LineAddr]bool{}}
		sys.L2 = l2
		if got := sys.Run(prof.Stream(), n); got != n {
			t.Fatalf("%s: ran %d accesses, want %d", name, got, n)
		}
		if d := distinctLines(prof.Stream(), n); d != l2.first {
			t.Errorf("%s: %d distinct lines, %d compulsory L2 misses", name, d, l2.first)
		}
	}
}
