// Command benchab is the same-host A/B benchmark gate. It checks a base
// revision out into a temporary git worktree under .bench_build/, runs
// every BENCHMARK.json workload through perfbench in the base tree and
// in the working tree, in pairs that alternate which side goes first,
// and applies decide to the results. A failing workload gets one traced
// pair that names the layer that moved most.
//
//	make bench-ab BASE=<rev>
//
// Exit status: 0 pass, 1 regression or failed run, 2 usage error.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
)

// benchmarkFile is the part of BENCHMARK.json the gate reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct{ Name string }
	EndToEnd   []struct {
		Name  string
		Bound float64
	} `json:"end_to_end"`
	PerLayer []layer `json:"per_layer"`
}

func main() { os.Exit(run()) }

func run() int {
	exit := func(code int, format string, a ...any) int {
		fmt.Fprintf(os.Stderr, "benchab: "+format+"\n", a...)
		return code
	}
	if len(os.Args) != 2 || os.Args[1] == "" {
		return exit(2, "usage: benchab <base-revision>")
	}
	var bench benchmarkFile
	data, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(data, &bench)
	}
	if err != nil {
		return exit(2, "run from the repository root: %v", err)
	}
	bounds := map[string]float64{}
	for _, m := range bench.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	rev, err := exec.Command("git", "rev-parse", "--verify", "--quiet", os.Args[1]+"^{commit}").Output()
	if err != nil {
		return exit(2, "%s is not a revision", os.Args[1])
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.MkdirAll(".bench_build", 0o755)
	tmp, err := os.MkdirTemp(".bench_build", "ab-")
	if err != nil {
		return exit(1, "%v", err)
	}
	tmp, _ = filepath.Abs(tmp) // cannot fail: the working directory exists
	trees := [2]string{filepath.Join(tmp, "base"), "."}
	defer func() {
		exec.Command("git", "worktree", "remove", "--force", trees[0]).Run()
		os.RemoveAll(tmp)
		exec.Command("git", "worktree", "prune").Run()
	}()
	add := exec.Command("git", "worktree", "add", "--quiet", "--detach", trees[0], strings.TrimSpace(string(rev)))
	if out, err := add.CombinedOutput(); err != nil {
		return exit(1, "git worktree add: %v: %s", err, out)
	}
	if _, err := os.Stat(filepath.Join(trees[0], "perfbench", "run.sh")); err != nil {
		return exit(2, "base %s has no perfbench/, so there is nothing to compare against", os.Args[1])
	}

	sides := [2]string{"base", "head"}
	var reports [2]string
	runSide := func(side int, w string, trace int, tag string) runResult {
		reports[side] = filepath.Join(tmp, w+"-"+sides[side]+"-"+tag+".json")
		return perfbench(ctx, trees[side], w, bench.RunSeconds, trace, reports[side])
	}
	compare := func() bool { // perfbench refuses a pair from two hosts
		cmd := exec.Command("bash", "perfbench/run.sh", "--compare", reports[0], reports[1])
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		return cmd.Run() == nil
	}
	var names []string
	failed := false
	results := [2]map[string][]runResult{{}, {}}
	for _, wl := range bench.Workloads {
		w := wl.Name
		names = append(names, w)
		for i := range pairs {
			for k := range 2 {
				side := (i + k) % 2                       // even pairs run the base first
				r := runSide(side, w, 0, strconv.Itoa(i)) // fails at once after an interrupt
				fmt.Printf("%-12s pair %d/%d %s: cpu_ns_per_access %.3f alloc_bytes_per_access %.4f %s\n",
					w, i+1, pairs, sides[side], r.Metrics[gated[0]], r.Metrics[gated[1]], r.problem())
				results[side][w] = append(results[side][w], r)
			}
		}
		failed = !compare() || failed
	}

	for _, v := range decide(names, bounds, results[0], results[1]) {
		fmt.Println(v)
		failed = failed || v.Fail
		if !v.Fail || v.Metric == "" {
			continue
		}
		base, head := runSide(0, v.Workload, 1, "traced"), runSide(1, v.Workload, 1, "traced")
		compare()
		name, change := attribute(bench.PerLayer, base.Metrics, head.Metrics)
		fmt.Printf("benchab: %s %s regressed: median head/base %.5f > 1 + tolerance %.5f; layer that moved most: %s (%+.1f%% in its worse direction)\n",
			v.Workload, v.Metric, v.Ratio, v.Tolerance, name, 100*change)
	}
	if failed {
		return 1
	}
	fmt.Printf("benchab: ok against %s\n", os.Args[1])
	return 0
}

// perfbench runs one perfbench workload in tree and reads its contract
// line, the last line of standard output.
func perfbench(ctx context.Context, tree, workload string, seconds, trace int, report string) runResult {
	cmd := exec.CommandContext(ctx, "bash", "perfbench/run.sh", "--workload", workload,
		"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace), "--report", report)
	cmd.Dir = tree
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	var contract struct {
		Correct bool
		Failed  int
		Metrics map[string]struct{ Value float64 }
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &contract); jerr != nil && err == nil {
		err = fmt.Errorf("no contract line: %w", jerr)
	}
	r := runResult{Correct: contract.Correct, Failed: contract.Failed, Metrics: map[string]float64{}}
	if err != nil {
		r.Err = fmt.Errorf("%s: %w: %s", tree, err, strings.TrimSpace(stderr.String()))
	}
	for name, m := range contract.Metrics {
		r.Metrics[name] = m.Value
	}
	return r
}
