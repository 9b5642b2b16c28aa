package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ldis/internal/exp"
	"ldis/internal/obs"
	"ldis/internal/stats"
)

// minPasses is the fewest timed passes a run reports a median over,
// however long one pass takes.
const minPasses = 3

// setupProbes is how many fresh processes the run times from exec to
// ready-to-measure, and setupQuantile the quantile of their times that
// setup_s reports.
const (
	setupProbes   = 61
	setupQuantile = 0.1
)

// pass is one run of every experiment of a workload, with the
// benchmark's own measurements of the timed region.
type pass struct {
	accesses   uint64        // exp.SimAccesses over the pass
	wall       time.Duration // host wall time of the pass
	cpu        time.Duration // process user+sys CPU time of the pass
	allocBytes uint64        // Go heap bytes allocated during the pass
	peakRSS    float64       // resident-set high-water mark in MiB
	tables     map[string][]*stats.Table
	errs       map[string]error
}

// accessesPerSec is simulated accesses per wall second of the timed
// region. The benchmark times the region itself: nothing is
// subtracted for record generation.
func (p pass) accessesPerSec() float64 { return float64(p.accesses) / p.wall.Seconds() }

func (p pass) cpuNsPerAccess() float64 { return float64(p.cpu.Nanoseconds()) / float64(p.accesses) }

func (p pass) allocBytesPerAccess() float64 { return float64(p.allocBytes) / float64(p.accesses) }

// runPass runs each experiment of w once through exp.Run and measures
// the whole sequence.
func runPass(w *workloadSpec, o exp.Options) pass {
	p := pass{tables: map[string][]*stats.Table{}, errs: map[string]error{}}
	// Each pass starts from a collected heap, with freed memory
	// returned to the OS and the RSS high-water mark reset, as a fresh
	// ldisexp process would, so passes do not inherit each other's
	// garbage.
	debug.FreeOSMemory()
	resetPeakRSS()
	exp.ResetSimAccesses()
	cpu0, alloc0 := cpuTime(), heapAllocs()
	start := time.Now()
	for _, id := range w.exps {
		tables, err := exp.Run(id, o)
		if err != nil {
			p.errs[id] = err
			continue
		}
		p.tables[id] = tables
	}
	p.wall = time.Since(start)
	p.cpu = cpuTime() - cpu0
	p.allocBytes = heapAllocs() - alloc0
	p.accesses = exp.SimAccesses()
	p.peakRSS = peakRSSMB()
	return p
}

// verify checks each experiment's output against its committed digest
// and returns the cells of the failed experiments (a failed run or a
// mismatching table condemns every cell of that experiment) plus the
// reasons.
func (p pass) verify(w *workloadSpec, cells map[string]int) (failed int, problems []error) {
	for _, id := range w.exps {
		err := p.errs[id]
		if err == nil {
			err = checkOutput(w.name+"/"+id, p.tables[id])
		}
		if err != nil {
			failed += max(cells[id], 1)
			problems = append(problems, err)
		}
	}
	return failed, problems
}

// tally adds a verified pass to the run's attempted and failed cells.
func (r *runResult) tally(w *workloadSpec, p pass, cells map[string]int) {
	for _, id := range w.exps {
		r.attempted += cells[id]
	}
	failed, problems := p.verify(w, cells)
	r.failed += failed
	r.problems = append(r.problems, problems...)
}

// countCells runs one pass with observability on, as the untimed
// warm-up, and returns how many cells each experiment attempts.
func countCells(w *workloadSpec, o exp.Options) (pass, map[string]int) {
	run := obs.NewRun(nil)
	o.Obs = run
	p := runPass(w, o)
	cells := map[string]int{}
	for _, r := range run.CellReports() {
		cells[r.Experiment]++
	}
	return p, cells
}

// runResult is what a run reports: its metrics, the cells it
// attempted and how many failed the output check, and a line about
// how much it measured.
type runResult struct {
	metrics   map[string]float64
	attempted int
	failed    int
	problems  []error
	note      string
}

// runEndToEnd measures w for at least the given duration: setup
// probes, one warm-up pass, then timed passes whose medians it
// reports.
func runEndToEnd(w *workloadSpec, o exp.Options, seconds int) (runResult, error) {
	setup, err := measureSetup(w)
	if err != nil {
		return runResult{}, err
	}
	var r runResult
	warm, cells := countCells(w, o)
	r.tally(w, warm, cells)

	var rates, cpuNs, allocs, walls, rss []float64
	var last pass
	budget := time.Duration(seconds) * time.Second
	start := time.Now()
	for len(rates) < minPasses || time.Since(start) < budget {
		last = runPass(w, o)
		r.tally(w, last, cells)
		if last.accesses == 0 {
			return r, fmt.Errorf("%s: a pass simulated no accesses", w.name)
		}
		rates = append(rates, last.accessesPerSec())
		cpuNs = append(cpuNs, last.cpuNsPerAccess())
		allocs = append(allocs, last.allocBytesPerAccess())
		walls = append(walls, last.wall.Seconds())
		rss = append(rss, last.peakRSS)
	}
	r.note = fmt.Sprintf("%d timed passes, median %.3f s each", len(rates), median(walls))

	paperTables, ok := last.tables[w.paper.exp]
	if !ok {
		// The workload's own experiments carry no 1MB baseline column,
		// or that experiment failed: run it once, untimed, and check its
		// output like the workload's, as one more attempt.
		paperTables, err = exp.Run(w.paper.exp, o)
		if err != nil {
			return r, err
		}
		r.attempted++
		if err := checkOutput(w.name+"/"+w.paper.exp, paperTables); err != nil {
			r.failed++
			r.problems = append(r.problems, err)
		}
	}
	paperErr, err := paperErrPct(paperTables, w.paper.col)
	if err != nil {
		return r, err
	}

	r.metrics = map[string]float64{
		"sim_accesses_per_s": median(rates),
		"cpu_ns_per_access":  median(cpuNs),
		"setup_s":            setup,
		// A pass's peak RSS depends on which cells overlap on the
		// workers and when the GC runs; on orgs-par the per-pass peaks
		// fall into two modes ~45% apart, so the median flips between
		// modes from run to run while the upper quartile tracks the
		// high one.
		"peak_rss_mb":            quantile(rss, 0.75),
		"alloc_bytes_per_access": median(allocs),
		"paper_mpki_err_pct":     paperErr,
	}
	return r, nil
}

// probeFlag makes the binary set up for a workload, print probeReady,
// and exit: the unit measureSetup times.
const probeFlag = "setup-probe"

const probeReady = "ready"

// prepare is everything a run does between process start and its
// first timed pass, apart from the setup probes and the deliberate
// warm-up.
func prepare(name string) (*workloadSpec, exp.Options, error) {
	w, err := findWorkload(name)
	if err != nil {
		return nil, exp.Options{}, err
	}
	o, err := w.options()
	return w, o, err
}

// measureSetup starts setupProbes fresh copies of this binary in probe
// mode and returns, in seconds, the setupQuantile of the CPU time
// (user+sys, all threads) each spent from exec to exit, which is all
// set-up: the kernel's exec, the Go runtime's start, package
// initialisation and prepare. CPU time leaves out the waits for a CPU
// and the hypervisor's steal that make a probe's wall time double on a
// busy host, and the low quantile drops the probes that a neighbour's
// cache traffic slowed.
func measureSetup(w *workloadSpec) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var secs []float64
	for i := 0; i < setupProbes; i++ {
		cmd := exec.Command(self, "--"+probeFlag, "--workload", w.name)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return 0, fmt.Errorf("setup probe: %w", err)
		}
		if got := strings.TrimSpace(string(out)); got != probeReady {
			return 0, fmt.Errorf("setup probe printed %q, want %q", got, probeReady)
		}
		ps := cmd.ProcessState
		secs = append(secs, (ps.UserTime() + ps.SystemTime()).Seconds())
	}
	return quantile(secs, setupQuantile), nil
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS resets the kernel's resident-set high-water mark of
// this process to its current RSS (Linux 4.0+), so peakRSSMB reports
// the peak since the call. Where that is not allowed the mark keeps
// covering the whole process lifetime.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's resident-set high-water mark in MiB: the
// VmHWM line of /proc/self/status, or getrusage's lifetime maximum.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// heapAllocs is the cumulative count of Go heap bytes allocated.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// quantile is the q-quantile of xs, interpolating linearly between
// order statistics, so quantile(xs, 0.5) is the median.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[i]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
