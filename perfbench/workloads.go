package main

import (
	"fmt"
	"runtime"

	"ldis/internal/exp"
	"ldis/internal/workload"
)

// workloadSpec is one benchmark input: registered experiments run in
// process through exp.Run at a fixed scale, exactly as ldisexp runs
// them. The profiles and their seeds belong to the paper
// reproduction, so the end-to-end inputs do not depend on --seed; the
// seed only perturbs the traced run's profile copies.
type workloadSpec struct {
	name string
	why  string
	// exps are the experiment ids one iteration runs, in order.
	exps []string
	// accesses is exp.Options.Accesses: per benchmark and column.
	accesses int
	// benchmarks overrides the experiments' default benchmark list.
	benchmarks []string
	// parallel is exp.Options.Parallel; 0 means runtime.NumCPU().
	parallel int
	// paper names the rendered table column holding the 1MB 8-way
	// baseline MPKI that paper_mpki_err_pct compares against
	// workload.Profile.PaperMPKI. When paper.exp is not among exps the
	// benchmark runs it once, untimed, with the same options.
	paper paperColumn
	// traced runs the workload's representative cells in the traced run.
	traced func(t *tracer, seed uint64)
}

type paperColumn struct{ exp, col string }

// tenantMix is the partition experiment's 4-tenant bundled scenario,
// the one the traced run drives; the other bundled mixes reuse its
// members pairwise plus art+health.
var tenantMix = []string{"twolf", "vpr", "mcf", "wupwise"}

// tenantProfiles are the members of every bundled partition scenario.
var tenantProfiles = []string{"twolf", "mcf", "vpr", "wupwise", "art", "health"}

var workloads = []*workloadSpec{
	{
		name:     "sweep",
		why:      "fig6+fig7+fig8 over the 16 main benchmarks, 1 worker: generation, L1, LOC/WOC and traditional caches all work hard",
		exps:     []string{"fig6", "fig7", "fig8"},
		accesses: 40_000,
		parallel: 1,
		paper:    paperColumn{"fig6", "base MPKI"},
		traced:   func(t *tracer, seed uint64) { t.distillAndTrad(workload.MainNames, seed) },
	},
	{
		name:     "insensitive",
		why:      "table5 over 11 cache-insensitive benchmarks, 1 worker: L1 and LOC hits dominate, WOC installs are rare",
		exps:     []string{"table5"},
		accesses: 150_000,
		parallel: 1,
		paper:    paperColumn{"table5", "Trad 1MB"},
		traced:   func(t *tracer, seed uint64) { t.distillAndTrad(workload.InsensitiveNames, seed) },
	},
	{
		name:       "tenants",
		why:        "partition on the bundled 2- and 4-tenant mixes, 1 worker: the MRC engines and the partition controller dominate",
		exps:       []string{"partition"},
		accesses:   150_000,
		benchmarks: tenantProfiles,
		parallel:   1,
		paper:      paperColumn{"table2", "MPKI"},
		traced:     func(t *tracer, seed uint64) { t.tenants(tenantMix, seed) },
	},
	{
		name:     "orgs-par",
		why:      "orgs (base/waymemo/ldis/touche/copyback) on nproc workers: copy-back and Touche L2 paths, scheduler and GC",
		exps:     []string{"orgs"},
		accesses: 60_000,
		parallel: 0,
		paper:    paperColumn{"orgs", "base"},
		traced:   func(t *tracer, seed uint64) { t.orgs(workload.MainNames, seed) },
	},
}

func findWorkload(name string) (*workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// options returns the validated exp.Options every experiment of the
// workload runs with.
func (w *workloadSpec) options() (exp.Options, error) {
	o := exp.DefaultOptions()
	o.Accesses = w.accesses
	o.Benchmarks = w.benchmarks
	o.Parallel = w.parallel
	if o.Parallel == 0 {
		o.Parallel = runtime.NumCPU()
	}
	return o, o.Validate()
}
