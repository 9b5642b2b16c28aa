package main

import (
	"errors"
	"strings"
	"testing"
)

var testBounds = map[string]float64{"cpu_ns_per_access": 0.25, "alloc_bytes_per_access": 0.05}

// runs builds one side of a workload's pairs from per-pair metric
// values.
func runs(cpu, alloc []float64) []runResult {
	out := make([]runResult, len(cpu))
	for i := range cpu {
		out[i] = runResult{Correct: true, Metrics: map[string]float64{
			"cpu_ns_per_access": cpu[i], "alloc_bytes_per_access": alloc[i],
		}}
	}
	return out
}

// scale multiplies xs by 1+rel[i] pair by pair.
func scale(xs, rel []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * (1 + rel[i])
	}
	return out
}

func TestDecide(t *testing.T) {
	steady := []float64{100, 102, 99, 101, 98} // relative quartile spread 0.02
	flat := []float64{38.6, 38.6, 38.6, 38.6, 38.6}
	broken := func(rs []runResult, i int, f func(*runResult)) []runResult {
		rs = append([]runResult(nil), rs...)
		f(&rs[i])
		return rs
	}
	cases := []struct {
		name       string
		base, head []runResult
		fail       string // "metric" of the failing verdict, "run" for a run failure, "" to pass
		reason     string // substring of the failing run's reason
		unresolved bool
	}{
		{
			name: "same-distribution noise passes",
			base: runs([]float64{100, 108, 95, 104, 92}, flat),
			head: runs([]float64{103, 97, 106, 93, 101}, flat),
		},
		{
			name: "uniform +10% cpu fails",
			base: runs(steady, flat),
			head: runs(scale(steady, []float64{.1, .1, .1, .1, .1}), flat),
			fail: "cpu_ns_per_access",
		},
		{
			name: "two +30% outliers with three flat pairs pass",
			base: runs(steady, flat),
			head: runs(scale(steady, []float64{.3, .3, 0, 0, 0}), flat),
		},
		{
			name: "sign-random 1e-5 alloc noise on a near-zero spread passes",
			base: runs(steady, scale(flat, []float64{.4e-5, -.9e-5, 1.1e-5, -.2e-5, .6e-5})),
			head: runs(steady, scale(flat, []float64{-.7e-5, .5e-5, .9e-5, -1e-5, .3e-5})),
		},
		{
			name: "a +10% median with only three worse pairs passes",
			base: runs(steady, flat),
			head: runs(scale(steady, []float64{.1, .1, .1, -.1, -.1}), flat),
		},
		{
			name:       "base spread above the bound is unresolved at the bound",
			base:       runs([]float64{60, 100, 140, 80, 120}, flat),
			head:       runs([]float64{60, 100, 140, 80, 120}, flat),
			unresolved: true,
		},
		{
			name:   "correct:false fails",
			base:   runs(steady, flat),
			head:   broken(runs(steady, flat), 1, func(r *runResult) { r.Correct = false }),
			fail:   "run",
			reason: "head run 2: correct:false",
		},
		{
			name:   "failed cells fail",
			base:   broken(runs(steady, flat), 3, func(r *runResult) { r.Failed = 3 }),
			head:   runs(steady, flat),
			fail:   "run",
			reason: "base run 4: failed 3",
		},
		{
			name:   "nonzero exit fails",
			base:   runs(steady, flat),
			head:   broken(runs(steady, flat), 0, func(r *runResult) { r.Err = errors.New("exit status 1") }),
			fail:   "run",
			reason: "exit status 1",
		},
		{
			name:   "workload missing from the head side fails",
			base:   runs(steady, flat),
			fail:   "run",
			reason: "missing from the head side",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base := map[string][]runResult{"sweep": c.base}
			head := map[string][]runResult{}
			if c.head != nil {
				head["sweep"] = c.head
			}
			var failed []verdict
			for _, v := range decide([]string{"sweep"}, testBounds, base, head) {
				if v.Fail {
					failed = append(failed, v)
				}
				if v.Unresolved != (c.unresolved && v.Metric == "cpu_ns_per_access") {
					t.Errorf("%v: unresolved = %v", v, v.Unresolved)
				}
				if v.Unresolved && (v.Tolerance != testBounds[v.Metric] || !strings.Contains(v.String(), "unresolved")) {
					t.Errorf("%v: want tolerance at the bound %v and an unresolved status", v, testBounds[v.Metric])
				}
			}
			switch {
			case c.fail == "" && len(failed) > 0:
				t.Fatalf("want pass, got %v", failed)
			case c.fail != "" && len(failed) != 1:
				t.Fatalf("want one failure, got %v", failed)
			case c.fail == "run":
				if v := failed[0]; v.Metric != "" || !strings.Contains(v.String(), c.reason) || !strings.Contains(v.String(), "sweep") {
					t.Errorf("got %q, want a sweep run failure naming %q", v, c.reason)
				}
			case c.fail != "":
				if v := failed[0]; v.Metric != c.fail || !strings.Contains(v.String(), "sweep") || !strings.Contains(v.String(), c.fail) {
					t.Errorf("got %q, want sweep %s to fail", v, c.fail)
				}
			}
		})
	}
}

func TestAttributeNamesWorstLayer(t *testing.T) {
	layers := []layer{
		{"distill.access_ns", "lower"},
		{"exp.cell_p50_ms", "lower"},
		{"distill.loc_hit_ratio", "higher"},
		{"distill.copyback_per_kacc", "higher"},
		{"host.ref_kernel_ns", "lower"},
	}
	base := map[string]float64{"distill.access_ns": 20, "exp.cell_p50_ms": 10, "distill.loc_hit_ratio": 0.8, "host.ref_kernel_ns": 2}
	head := map[string]float64{"distill.access_ns": 28, "exp.cell_p50_ms": 11, "distill.loc_hit_ratio": 0.4, "host.ref_kernel_ns": 4, "distill.copyback_per_kacc": 9}
	if name, change := attribute(layers, base, head); name != "distill.loc_hit_ratio" || change != 0.5 {
		t.Errorf("attribute = %s %v, want distill.loc_hit_ratio 0.5", name, change)
	}
	head["distill.loc_hit_ratio"] = 0.9
	if name, change := attribute(layers, base, head); name != "distill.access_ns" || change != 0.4 {
		t.Errorf("attribute = %s %v, want distill.access_ns 0.4", name, change)
	}
}
