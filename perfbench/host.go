package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// fingerprint identifies the host and the code a report came from.
type fingerprint struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Commit is a content hash of the module's Go sources, so it
	// identifies the code even in a checkout without git metadata.
	Commit string `json:"commit"`
}

func hostFingerprint(root string) fingerprint {
	return fingerprint{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     sourceHash(root),
	}
}

// comparable refuses a pair of reports measured on different hosts or
// toolchains: their numbers differ for reasons no code change explains.
// The commit is expected to differ and is not compared.
func (f fingerprint) comparable(g fingerprint) error {
	a, b := f, g
	a.Commit, b.Commit = "", ""
	if a != b {
		return fmt.Errorf("host fingerprints differ: %+v vs %+v", a, b)
	}
	return nil
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceHash hashes every .go file and go.mod under root in path
// order, skipping dot directories such as the build output.
func sourceHash(root string) string {
	var paths []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return "unknown"
		}
		rel, _ := filepath.Rel(root, p) // p was found under root
		fmt.Fprintf(h, "%s\x00", rel)
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "unknown"
		}
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// moduleRoot finds the directory of the ldis module's go.mod at or
// above the working directory.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(data), "module ldis\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no ldis go.mod at or above the working directory")
		}
		dir = parent
	}
}

// refSink keeps the reference kernel's result live.
var refSink uint64

// refKernelNs times a fixed integer kernel, independent of the
// simulator, and returns the median ns per operation over five
// repeats. It shows how fast the host was during a run, so a slow host
// or a noisy neighbour is visible next to the simulator's numbers.
func refKernelNs() float64 {
	const ops = 1 << 20
	var table [4096]uint64 // 32KB: stays in the L1/L2 of any current CPU
	reps := make([]float64, 5)
	for r := range reps {
		x := uint64(0x9e3779b97f4a7c15)
		start := time.Now()
		for i := 0; i < ops; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			table[x%uint64(len(table))] += x
		}
		reps[r] = float64(time.Since(start).Nanoseconds()) / ops
		refSink += table[x%uint64(len(table))]
	}
	return median(reps)
}

// report is the full record of one run, written by --report and read
// by --compare.
type report struct {
	Workload    string             `json:"workload"`
	Seed        uint64             `json:"seed"`
	Trace       int                `json:"trace"`
	Fingerprint fingerprint        `json:"fingerprint"`
	RefKernelNs float64            `json:"ref_kernel_ns"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Metrics     map[string]float64 `json:"metrics"`
}

func readReport(path string) (report, error) {
	var r report
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// compareReports prints each metric of report b against report a. It
// refuses reports from different hosts or of different runs.
func compareReports(w io.Writer, aPath, bPath string) error {
	a, err := readReport(aPath)
	if err != nil {
		return err
	}
	b, err := readReport(bPath)
	if err != nil {
		return err
	}
	if err := a.Fingerprint.comparable(b.Fingerprint); err != nil {
		return fmt.Errorf("refusing to compare: %w", err)
	}
	if a.Workload != b.Workload || a.Trace != b.Trace {
		return fmt.Errorf("refusing to compare: workload %s trace %d vs workload %s trace %d",
			a.Workload, a.Trace, b.Workload, b.Trace)
	}
	fmt.Fprintf(w, "%s (trace %d): %s -> %s; reference kernel %.3f -> %.3f ns/op\n",
		a.Workload, a.Trace, a.Fingerprint.Commit, b.Fingerprint.Commit, a.RefKernelNs, b.RefKernelNs)
	names := make([]string, 0, len(a.Metrics))
	for name := range a.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		av, bv := a.Metrics[name], b.Metrics[name]
		change := "-"
		if av != 0 {
			change = fmt.Sprintf("%+.2f%%", 100*(bv-av)/av)
		}
		fmt.Fprintf(w, "  %-40s %14.6g %14.6g %10s\n", name, av, bv, change)
	}
	return nil
}
