package main

import (
	"fmt"
	"runtime/metrics"
	"sort"
	"time"

	"ldis/internal/cache"
	"ldis/internal/distill"
	"ldis/internal/exp"
	"ldis/internal/hierarchy"
	"ldis/internal/mrc"
	"ldis/internal/obs"
	"ldis/internal/partition"
	"ldis/internal/trace"
	"ldis/internal/wordstore"
	"ldis/internal/workload"
)

// tracedAccesses is the length of every representative cell.
const tracedAccesses = 200_000

// Geometry of the representative cells, matching the experiments they
// stand for: the paper's 1MB 8-way L2 with 2 WOC ways, and the
// partition experiment's 1MB 16-way shared cache with 64KB ways.
const (
	l2Bytes       = 1 << 20
	l2Ways        = 8
	wocWays       = 2
	sharedWays    = 16
	sharedWayB    = l2Bytes / sharedWays
	epochAccesses = 10_000
)

// tracer runs a workload's representative cells outside exp, either
// bare (on == false) or with every layer call timed and counted.
type tracer struct {
	on      bool
	clockNs float64
	buf     []trace.Record
	driven  uint64 // accesses driven, traced or not

	gen          span // trace.BatchStream.NextBatch
	genRecords   uint64
	doBatch      span // hierarchy.System.DoBatch
	hierAccesses uint64

	distAccess, distWB   span
	cacheAccess, cacheWB span
	mrcExact, mrcShards  span
	observe, epochEnd    span

	l1Acc, l1Misses, l1WB                                      uint64
	distAcc, locHits, wocHits, holeMisses, distilled, wocEvict uint64
	cbAcc, copyBacks                                           uint64
	toucheAcc, toucheLookups, toucheAliasMisses                uint64
	cacheAcc, cacheMisses                                      uint64
	mrcRefs, mrcTracked                                        float64
	rebalances, agree, shadowEpochs                            int
}

func newTracer() *tracer {
	return &tracer{clockNs: clockOverheadNs(), buf: make([]trace.Record, trace.DefaultBatchSize)}
}

// begin starts a sampled timing of s when tracing.
func (t *tracer) begin(s *span) int64 {
	if !t.on {
		return -1
	}
	return s.begin()
}

// beginAll starts an unsampled timing of s when tracing.
func (t *tracer) beginAll(s *span) int64 {
	if !t.on {
		return -1
	}
	return s.beginAlways()
}

// profile returns a copy of the named bundled profile with its seed
// mixed with the benchmark seed.
func profile(name string, seed uint64) *workload.Profile {
	prof, err := workload.ByName(name)
	if err != nil {
		panic(err) // names come from the workload package's own lists
	}
	p := *prof
	p.Seed ^= seed
	return &p
}

func (t *tracer) stream(s trace.Stream) trace.BatchStream {
	bs := trace.Batched(s)
	if !t.on {
		return bs
	}
	return timedStream{bs: bs, s: &t.gen, records: &t.genRecords}
}

func (t *tracer) system(l2 hierarchy.L2, access, writeback *span) *hierarchy.System {
	if t.on {
		l2 = &timingL2{inner: l2, access: access, writeback: writeback}
	}
	return hierarchy.NewSystem(l2)
}

// drive feeds tracedAccesses records through sys.
func (t *tracer) drive(sys *hierarchy.System, bs trace.BatchStream) {
	done := 0
	for done < tracedAccesses {
		want := min(len(t.buf), tracedAccesses-done)
		got := bs.NextBatch(t.buf[:want])
		s := t.beginAll(&t.doBatch)
		sys.DoBatch(t.buf[:got])
		t.doBatch.end(s)
		done += got
		if got < want {
			break
		}
	}
	t.driven += uint64(done)
	if !t.on {
		return
	}
	t.hierAccesses += uint64(done)
	st := sys.L1D.Stats()
	t.l1Acc += st.Accesses
	t.l1Misses += st.SectorMisses + st.LineMisses
	t.l1WB += st.Writebacks
}

func (t *tracer) distillCell(p *workload.Profile, cfg distill.Config) {
	dc := distill.New(cfg)
	t.drive(t.system(hierarchy.NewDistillL2(dc), &t.distAccess, &t.distWB), t.stream(p.Stream()))
	if !t.on {
		return
	}
	st := dc.Stats()
	t.distAcc += st.Accesses
	t.locHits += st.LOCHits
	t.wocHits += st.WOCHits
	t.holeMisses += st.HoleMisses
	t.distilled += st.Distilled
	t.wocEvict += st.WOCEvictions
	if cfg.CopyBack != nil {
		t.cbAcc += st.Accesses
		t.copyBacks += st.CopyBacks
	}
	if cfg.Touche != nil {
		t.toucheAcc += st.Accesses
		t.toucheLookups += st.Touche.Lookups
		t.toucheAliasMisses += st.Touche.AliasSafeMisses
	}
}

func (t *tracer) tradCell(p *workload.Profile, cfg cache.Config) {
	c := cache.New(cfg)
	t.drive(t.system(hierarchy.NewTradL2(c), &t.cacheAccess, &t.cacheWB), t.stream(p.Stream()))
	if t.on {
		t.cacheAcc += c.Stats().Accesses
		t.cacheMisses += c.Stats().Misses
	}
}

// distillAndTrad is the sweep and insensitive cell pair per profile:
// the default distill cache and a 1MB 8-way traditional cache.
func (t *tracer) distillAndTrad(names []string, seed uint64) {
	for _, name := range names {
		p := profile(name, seed)
		cfg := distill.DefaultConfig()
		cfg.Seed = p.Seed
		t.distillCell(p, cfg)
		t.tradCell(p, cache.Config{Name: "trad-1MB", SizeBytes: l2Bytes, Ways: l2Ways})
	}
}

// orgs is the orgs-par cell set per profile: the Touché and clean
// copy-back distill caches, and the way-memoized traditional cache.
func (t *tracer) orgs(names []string, seed uint64) {
	for _, name := range names {
		p := profile(name, seed)
		base := distill.Config{Name: "orgs", SizeBytes: l2Bytes, Ways: l2Ways, WOCWays: wocWays, Seed: p.Seed}
		touche := base
		touche.Touche = &wordstore.ToucheConfig{SuperblockLines: 4, Seed: p.Seed}
		t.distillCell(p, touche)
		cb := base
		cb.CopyBack = &distill.CopyBackConfig{MaxReuseBytes: l2Bytes, Seed: p.Seed}
		t.distillCell(p, cb)
		t.tradCell(p, cache.Config{
			Name: "waymemo", SizeBytes: l2Bytes, Ways: l2Ways,
			WayMemo: &cache.WayMemoConfig{EntriesPerSet: 4},
		})
	}
}

// tenants interleaves the tenants' streams round-robin into a
// way-partitioned cache steered by a UCP partition controller, as the
// partition experiment's ucp column does, and feeds per-tenant exact
// and SHARDS miss-ratio engines configured like the controller's.
func (t *tracer) tenants(names []string, seed uint64) {
	n := len(names)
	streams := make([]trace.Stream, n)
	ctrlSeed := uint64(0x9a2b_71c5)
	for i, name := range names {
		p := profile(name, seed)
		streams[i] = p.Stream()
		ctrlSeed = ctrlSeed*0x100000001b3 ^ p.Seed
	}
	ucp, _ := partition.ByName("ucp") // one of partition.PolicyNames
	ctrl, err := partition.NewController(partition.Config{
		Tenants: n, TotalWays: sharedWays, WayBytes: sharedWayB, EpochAccesses: epochAccesses,
		Policy: ucp, SampleRate: 0.5, MaxSamples: 16 << 10, Seed: ctrlSeed,
		DecayAlpha: 0.75, Shadow: true, AccessBudget: tracedAccesses,
	})
	if err != nil {
		panic(err) // the configuration above is fixed and valid
	}
	c := cache.New(cache.Config{Name: "ucp-part", SizeBytes: l2Bytes, Ways: sharedWays})
	c.SetPartition(ctrl.Alloc())
	exact := make([]*mrc.Engine, n)
	shards := make([]*mrc.Engine, n)
	for i := range names {
		geo := mrc.Config{MaxBytes: l2Bytes, ResolutionBytes: sharedWayB}
		if exact[i], err = mrc.New(geo, tracedAccesses); err != nil {
			panic(err)
		}
		geo.SampleRate, geo.MaxSamples, geo.Seed = 0.5, 16<<10, ctrlSeed+uint64(i)
		if shards[i], err = mrc.New(geo, tracedAccesses); err != nil {
			panic(err)
		}
	}

	bs := t.stream(trace.NewInterleave(streams...))
	done := 0
	for done < tracedAccesses {
		want := min(len(t.buf), tracedAccesses-done)
		got := bs.NextBatch(t.buf[:want])
		for i, a := range t.buf[:got] {
			tenant := (done + i) % n
			line, word := a.Line(), a.Word()

			s := t.begin(&t.cacheAccess)
			c.AccessInstallTenant(line, word, a.IsWrite(), tenant)
			t.cacheAccess.end(s)

			s = t.begin(&t.mrcExact)
			exact[tenant].Access(line, word)
			t.mrcExact.end(s)
			s = t.begin(&t.mrcShards)
			shards[tenant].Access(line, word)
			t.mrcShards.end(s)

			// Every epochAccesses-th Observe closes an epoch and runs the
			// allocation decision; those are timed apart, and all of them.
			sp := &t.observe
			if (done+i+1)%epochAccesses == 0 {
				sp = &t.epochEnd
				s = t.beginAll(sp)
			} else {
				s = t.begin(sp)
			}
			changed := ctrl.Observe(tenant, line, word)
			sp.end(s)
			if changed {
				c.SetPartition(ctrl.Alloc())
			}
		}
		done += got
		if got < want {
			break
		}
	}
	t.driven += uint64(done)
	if !t.on {
		return
	}
	t.cacheAcc += c.Stats().Accesses
	t.cacheMisses += c.Stats().Misses
	for i := range names {
		t.mrcRefs += shards[i].Refs()
		t.mrcTracked += shards[i].TrackedRefs()
	}
	t.rebalances += ctrl.Rebalances()
	agree, total := ctrl.Agreement()
	t.agree += agree
	t.shadowEpochs += total
}

// runTraced makes one traced exp.Run pass over w's experiments (for the
// exp and runtime layers and the output check), then alternates bare
// and traced passes over the representative cells for the given time.
func runTraced(w *workloadSpec, o exp.Options, seed uint64, seconds int) (runResult, error) {
	var r runResult
	run := obs.NewRun(nil)
	o.Obs = run
	rt0 := readRuntime()
	p := runPass(w, o)
	rt1 := readRuntime()
	cells := map[string]int{}
	var cellMs []float64
	busy := 0.0
	for _, rep := range run.CellReports() {
		cells[rep.Experiment]++
		for _, s := range rep.Spans {
			if s.Stage == "simulate" {
				cellMs = append(cellMs, float64(s.Nanos)/1e6)
				busy += float64(s.Nanos)
			}
		}
	}
	r.tally(w, p, cells)
	if len(cellMs) == 0 || p.accesses == 0 {
		return r, fmt.Errorf("%s: the traced pass recorded no cells", w.name)
	}
	sort.Float64s(cellMs)

	bare, traced := newTracer(), newTracer()
	traced.on = true
	var bareNs, tracedNs int64
	passes := 0
	budget := time.Duration(seconds) * time.Second
	start := time.Now()
	for bare.driven == 0 || time.Since(start) < budget {
		t0 := nanotime()
		w.traced(bare, seed)
		t1 := nanotime()
		w.traced(traced, seed)
		bareNs += t1 - t0
		tracedNs += nanotime() - t1
		passes++
	}
	r.note = fmt.Sprintf("representative cells: %d bare and %d traced passes", passes, passes)
	t := traced
	ck := t.clockNs
	l2Ns := t.distAccess.totalNs(ck) + t.distWB.totalNs(ck) + t.cacheAccess.totalNs(ck) + t.cacheWB.totalNs(ck)
	l2Calls := t.distAccess.calls + t.distWB.calls + t.cacheAccess.calls + t.cacheWB.calls

	r.metrics = map[string]float64{
		"workload.gen_ns_per_access":             ratio(float64(t.gen.ns), float64(t.genRecords)),
		"hierarchy.self_ns_per_access":           ratio(max(float64(t.doBatch.ns)-l2Ns, 0), float64(t.hierAccesses)),
		"hierarchy.l2_calls_per_access":          ratio(float64(l2Calls), float64(t.hierAccesses)),
		"l1.miss_ratio":                          ratio(float64(t.l1Misses), float64(t.l1Acc)),
		"l1.writebacks_per_kacc":                 1000 * ratio(float64(t.l1WB), float64(t.l1Acc)),
		"distill.access_ns":                      t.distAccess.meanNs(ck),
		"distill.writeback_ns":                   t.distWB.meanNs(ck),
		"distill.loc_hit_ratio":                  ratio(float64(t.locHits), float64(t.distAcc)),
		"distill.woc_hit_ratio":                  ratio(float64(t.wocHits), float64(t.distAcc)),
		"distill.hole_miss_ratio":                ratio(float64(t.holeMisses), float64(t.distAcc)),
		"distill.distilled_per_kacc":             1000 * ratio(float64(t.distilled), float64(t.distAcc)),
		"distill.woc_evictions_per_kacc":         1000 * ratio(float64(t.wocEvict), float64(t.distAcc)),
		"distill.copyback_per_kacc":              1000 * ratio(float64(t.copyBacks), float64(t.cbAcc)),
		"wordstore.touche_lookups_per_kacc":      1000 * ratio(float64(t.toucheLookups), float64(t.toucheAcc)),
		"wordstore.touche_alias_misses_per_kacc": 1000 * ratio(float64(t.toucheAliasMisses), float64(t.toucheAcc)),
		"cache.access_ns":                        t.cacheAccess.meanNs(ck),
		"cache.miss_ratio":                       ratio(float64(t.cacheMisses), float64(t.cacheAcc)),
		"mrc.exact_ns_per_access":                t.mrcExact.meanNs(ck),
		"mrc.shards_ns_per_access":               t.mrcShards.meanNs(ck),
		"mrc.sampled_frac":                       ratio(t.mrcTracked, t.mrcRefs),
		"partition.observe_ns":                   t.observe.meanNs(ck),
		"partition.epoch_ms":                     t.epochEnd.meanNs(ck) / 1e6,
		"partition.rebalances":                   float64(t.rebalances) / float64(passes),
		"partition.agreement_frac":               ratio(float64(t.agree), float64(t.shadowEpochs)),
		"exp.cells":                              float64(len(cellMs)),
		"exp.cell_p50_ms":                        median(cellMs),
		"exp.cell_max_ms":                        cellMs[len(cellMs)-1],
		"exp.worker_busy_frac":                   busy / (float64(p.wall.Nanoseconds()) * float64(o.Parallel)),
		"runtime.gc_cycles_per_maccess":          ratio(rt1.gcCycles-rt0.gcCycles, float64(p.accesses)/1e6),
		"runtime.gc_cpu_frac":                    ratio(rt1.gcCPU-rt0.gcCPU, (rt1.gcCPU-rt0.gcCPU)+(rt1.userCPU-rt0.userCPU)),
		"trace.overhead_pct":                     100 * (ratio(float64(tracedNs), float64(traced.driven))/ratio(float64(bareNs), float64(bare.driven)) - 1),
	}
	return r, nil
}

// ratio is a/b, or 0 when the layer saw no work (b == 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

type runtimeSample struct{ gcCycles, gcCPU, userCPU float64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/user:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSample{float64(s[0].Value.Uint64()), s[1].Value.Float64(), s[2].Value.Float64()}
}
