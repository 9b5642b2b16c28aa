package main

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// pairs is how many base/head pairs the gate runs per workload. In a
// simulation with independent Gaussian run-to-run noise, decide fails a
// tree against itself on 8% of (workload, metric) checks at 5 pairs,
// 2.7% at 7 and 0.8% at 9 (8 of 9 must be worse); 10 and 11 pairs do no
// better. Nine pairs of 10 s runs take ~15 minutes on 2 vCPUs.
const pairs = 9

// gated are the end-to-end metrics the gate decides on. Both are
// lower-is-better, so a head/base ratio above 1 is a slowdown.
var gated = []string{"cpu_ns_per_access", "alloc_bytes_per_access"}

// runResult is one perfbench run: its exit status and contract line.
type runResult struct {
	Err     error // nonzero exit, or no contract line
	Correct bool
	Failed  int
	Metrics map[string]float64
}

// problem says why a run cannot be measured, or "" if it can.
func (r runResult) problem() string {
	switch {
	case r.Err != nil:
		return r.Err.Error()
	case !r.Correct:
		return "correct:false"
	case r.Failed > 0:
		return fmt.Sprintf("failed %d", r.Failed)
	}
	return ""
}

// verdict is the gate's decision for one workload and metric. Metric
// is empty when a run of the workload could not be measured.
type verdict struct {
	Workload, Metric string
	Ratio            float64 // median per-pair head/base ratio
	Tolerance        float64 // allowed ratio above 1
	Worse, Pairs     int     // pairs where head > base, pairs run
	Unresolved       bool    // base spread exceeded the bound
	Fail             bool
	Reason           string // why a run failed, when Metric is empty
}

func (v verdict) String() string {
	if v.Metric == "" {
		return fmt.Sprintf("%-12s FAIL: %s", v.Workload, v.Reason)
	}
	status := "ok"
	switch {
	case v.Fail:
		status = "FAIL"
	case v.Unresolved:
		status = "unresolved (base spread above the bound)"
	}
	return fmt.Sprintf("%-12s %-24s median head/base %.5f  tolerance %.5f  worse %d/%d  %s",
		v.Workload, v.Metric, v.Ratio, v.Tolerance, v.Worse, v.Pairs, status)
}

// decide applies the gate to the pairs of every workload: base[w][i]
// and head[w][i] ran back to back. For each gated metric the tolerance
// is the base runs' relative quartile spread, capped at the metric's
// bound; the workload fails when the median head/base ratio exceeds
// 1 + tolerance and the head is worse in at least ⌈0.8·pairs⌉ pairs.
// A run that exited nonzero, reported correct:false or failed cells, or
// is missing fails its workload.
func decide(workloads []string, bounds map[string]float64, base, head map[string][]runResult) []verdict {
	var out []verdict
	for _, w := range workloads {
		b, h := base[w], head[w]
		if reason := runsProblem(b, h); reason != "" {
			out = append(out, verdict{Workload: w, Fail: true, Reason: reason})
			continue
		}
		need := int(math.Ceil(0.8 * float64(len(b))))
		for _, m := range gated {
			bv, ratios := make([]float64, len(b)), make([]float64, len(b))
			v := verdict{Workload: w, Metric: m, Pairs: len(b)}
			for i := range b {
				bv[i] = b[i].Metrics[m]
				ratios[i] = h[i].Metrics[m] / bv[i]
				if ratios[i] > 1 {
					v.Worse++
				}
			}
			spread := (quantile(bv, 0.75) - quantile(bv, 0.25)) / quantile(bv, 0.5)
			v.Tolerance = min(spread, bounds[m])
			v.Unresolved = spread > bounds[m]
			v.Ratio = quantile(ratios, 0.5)
			v.Fail = v.Ratio > 1+v.Tolerance && v.Worse >= need
			out = append(out, v)
		}
	}
	return out
}

// runsProblem reports the first reason a workload's pairs cannot be
// compared, or "".
func runsProblem(b, h []runResult) string {
	switch {
	case len(h) == 0:
		return "missing from the head side"
	case len(b) != len(h):
		return fmt.Sprintf("%d base runs but %d head runs", len(b), len(h))
	}
	for i := range b {
		for j, r := range []runResult{b[i], h[i]} {
			side := [...]string{"base", "head"}[j]
			if p := r.problem(); p != "" {
				return fmt.Sprintf("%s run %d: %s", side, i+1, p)
			}
		}
	}
	return ""
}

// quantile is the linearly interpolated q-quantile of xs, len(xs) >= 2.
func quantile(xs []float64, q float64) float64 {
	s := slices.Sorted(slices.Values(xs))
	pos := q * float64(len(s)-1)
	i := min(int(pos), len(s)-2)
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// layer is one of perfbench's per-layer metrics as BENCHMARK.json
// lists it.
type layer struct{ Name, Better string }

// attribute returns the per-layer metric of a traced base/head pair
// that moved most in its worse direction, with that relative change, or
// "none". The host reference kernel and the tracing overhead describe
// the measurement, not a layer of the simulator, so they are skipped, as
// is any metric the base reads as 0.
func attribute(layers []layer, base, head map[string]float64) (string, float64) {
	name, worst := "none", 0.0
	for _, l := range layers {
		b := base[l.Name]
		if b == 0 || strings.HasPrefix(l.Name, "host.") || strings.HasPrefix(l.Name, "trace.") {
			continue
		}
		change := (head[l.Name] - b) / b
		if l.Better == "higher" {
			change = -change
		}
		if change > worst {
			name, worst = l.Name, change
		}
	}
	return name, worst
}
