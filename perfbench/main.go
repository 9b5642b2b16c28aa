// Command perfbench is the repository benchmark. It runs registered
// experiments in process through exp.Run, as ldisexp does, measures
// end-to-end throughput and cost per workload, checks every rendered
// table against a committed digest, and in a separate traced run times
// each layer through its public surface. See README.md.
//
//	bash perfbench/run.sh --workload sweep --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
)

// metricDef names one reported metric; BENCHMARK.json lists the same
// names, units and directions.
type metricDef struct {
	name, unit string
	higher     bool // higher is better
}

// endToEndDefs are reported with --trace 0.
var endToEndDefs = []metricDef{
	{"sim_accesses_per_s", "1/s", true},
	{"cpu_ns_per_access", "ns", false},
	{"setup_s", "s", false},
	{"peak_rss_mb", "MiB", false},
	{"alloc_bytes_per_access", "B", false},
	{"paper_mpki_err_pct", "%", false},
}

// perLayerDefs are reported with --trace 1.
var perLayerDefs = []metricDef{
	{"workload.gen_ns_per_access", "ns", false},
	{"hierarchy.self_ns_per_access", "ns", false},
	{"hierarchy.l2_calls_per_access", "count", false},
	{"l1.miss_ratio", "ratio", false},
	{"l1.writebacks_per_kacc", "1/kacc", false},
	{"distill.access_ns", "ns", false},
	{"distill.writeback_ns", "ns", false},
	{"distill.loc_hit_ratio", "ratio", true},
	{"distill.woc_hit_ratio", "ratio", true},
	{"distill.hole_miss_ratio", "ratio", false},
	{"distill.distilled_per_kacc", "1/kacc", true},
	{"distill.woc_evictions_per_kacc", "1/kacc", false},
	{"distill.copyback_per_kacc", "1/kacc", true},
	{"wordstore.touche_lookups_per_kacc", "1/kacc", true},
	{"wordstore.touche_alias_misses_per_kacc", "1/kacc", false},
	{"cache.access_ns", "ns", false},
	{"cache.miss_ratio", "ratio", false},
	{"mrc.exact_ns_per_access", "ns", false},
	{"mrc.shards_ns_per_access", "ns", false},
	{"mrc.sampled_frac", "ratio", false},
	{"partition.observe_ns", "ns", false},
	{"partition.epoch_ms", "ms", false},
	{"partition.rebalances", "count", false},
	{"partition.agreement_frac", "ratio", true},
	{"exp.cells", "count", true},
	{"exp.cell_p50_ms", "ms", false},
	{"exp.cell_max_ms", "ms", false},
	{"exp.worker_busy_frac", "ratio", true},
	{"runtime.gc_cycles_per_maccess", "1/Macc", false},
	{"runtime.gc_cpu_frac", "ratio", false},
	{"trace.overhead_pct", "%", false},
	{"host.ref_kernel_ns", "ns", false},
}

// result is the contract line printed last on standard output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload to run: sweep, insensitive, tenants or orgs-par")
	seed := flag.Uint64("seed", 1, "seed of the traced run's profile copies")
	seconds := flag.Int("seconds", 10, "how long to measure")
	traceRun := flag.Int("trace", 0, "0: end-to-end metrics; 1: the traced run's per-layer metrics")
	reportPath := flag.String("report", "", "also write the full report (fingerprint, reference kernel, metrics) to this file")
	compare := flag.Bool("compare", false, "compare two reports given as arguments instead of running")
	probe := flag.Bool(probeFlag, false, "internal: set up, print ready, exit")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("--compare takes two report files")
		}
		return compareReports(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	w, o, err := prepare(*name)
	if err != nil {
		return err
	}
	if *probe {
		fmt.Println(probeReady)
		return nil
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", *seconds)
	}

	var (
		r    runResult
		defs []metricDef
	)
	switch *traceRun {
	case 0:
		r, err = runEndToEnd(w, o, *seconds)
		defs = endToEndDefs
	case 1:
		r, err = runTraced(w, o, *seed, *seconds)
		defs = perLayerDefs
	default:
		err = fmt.Errorf("--trace must be 0 or 1, got %d", *traceRun)
	}
	if err != nil {
		return err
	}
	root, err := moduleRoot()
	if err != nil {
		return err
	}
	fp := hostFingerprint(root)
	ref := refKernelNs()
	if *traceRun == 1 {
		r.metrics["host.ref_kernel_ns"] = ref
	}

	rep := report{
		Workload: w.name, Seed: *seed, Trace: *traceRun, Fingerprint: fp, RefKernelNs: ref,
		Attempted: r.attempted, Failed: r.failed, Metrics: map[string]float64{},
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricOut{}}
	fmt.Printf("workload %s  trace %d  seed %d\n", w.name, *traceRun, *seed)
	fmt.Printf("host: %s, nproc %d, GOMAXPROCS %d, %s, %s\n", fp.CPUModel, fp.NProc, fp.GOMAXPROCS, fp.GoVersion, fp.Commit)
	fmt.Printf("reference kernel: %.4f ns/op (context only, not gated)\n", ref)
	fmt.Println(r.note)
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
		rep.Metrics[d.name] = v
		dir := "lower is better"
		if d.higher {
			dir = "higher is better"
		}
		fmt.Printf("  %-40s %16.6f %-7s %s\n", d.name, v, d.unit, dir)
	}
	fmt.Printf("  %-40s %16.6f %-7s %s\n", "failed_frac", float64(r.failed)/float64(max(r.attempted, 1)), "ratio", "must be 0")
	seen := map[string]bool{}
	for _, p := range r.problems {
		if !seen[p.Error()] {
			seen[p.Error()] = true
			fmt.Fprintln(os.Stderr, "perfbench: output check:", p)
		}
	}
	if *reportPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*reportPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%d of %d cells failed or mismatched the committed digests", r.failed, r.attempted)
	}
	return nil
}
