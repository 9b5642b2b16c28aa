// Package benchgate owns the throughput-report format written by
// `ldisexp -throughput` and the regression check `make bench-gate`
// applies to it: a committed baseline report under benchmarks/baseline
// is compared against a freshly generated one, and any experiment whose
// accesses-per-second figure dropped by more than the tolerance fails
// the gate. Promotion (replacing the baseline) is a separate, explicit
// step — the gate itself never writes.
package benchgate

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// Entry is one experiment's throughput measurement. Seconds is the
// wall time of the repeat with the median wall time, and
// AccessesPerSec is SimAccesses over it — the same definition as the
// repository benchmark's sim_accesses_per_s. DecodeSeconds is the
// record-production time inside that repeat, summed across workers;
// it is reported for context and never subtracted.
type Entry struct {
	ID             string  `json:"id"`
	SimAccesses    uint64  `json:"sim_accesses"`
	Seconds        float64 `json:"seconds"`
	DecodeSeconds  float64 `json:"decode_seconds"`
	AccessesPerSec float64 `json:"accesses_per_sec"`
}

// Rate returns the entry's throughput figure, preferring the stored
// accesses_per_sec and falling back to recomputing it from wall time.
func (e Entry) Rate() float64 {
	if e.AccessesPerSec > 0 {
		return e.AccessesPerSec
	}
	if e.Seconds > 0 {
		return float64(e.SimAccesses) / e.Seconds
	}
	return 0
}

// Report is the full throughput report: scheduler configuration plus
// one Entry per experiment and a total.
type Report struct {
	Generated  string  `json:"generated"`
	GoMaxProcs int     `json:"go_max_procs"`
	Workers    int     `json:"workers"`
	Repeats    int     `json:"repeats,omitempty"`
	Accesses   int     `json:"accesses"`
	Total      Entry   `json:"total"`
	Results    []Entry `json:"results"`
}

// Load reads and decodes a throughput report.
func Load(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("benchgate: %w", err)
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("benchgate: %s: %w", path, err)
	}
	return &r, nil
}

// Regression is one experiment that fails the gate: either its
// throughput dropped past the tolerance, or it vanished from the
// latest report.
type Regression struct {
	ID       string
	Baseline float64 // accesses/sec in the baseline
	Latest   float64 // accesses/sec in the latest report (0 if missing)
	Change   float64 // fractional change; -0.07 means 7% slower
	Missing  bool    // experiment absent from the latest report
}

func (r Regression) String() string {
	if r.Missing {
		return fmt.Sprintf("%s: missing from latest report (baseline %.0f acc/s)", r.ID, r.Baseline)
	}
	return fmt.Sprintf("%s: %.0f -> %.0f acc/s (%+.1f%%, tolerance exceeded)",
		r.ID, r.Baseline, r.Latest, 100*r.Change)
}

// Compare returns every per-experiment regression beyond tol (a
// fraction: 0.05 allows a 5% slowdown), in experiment-id order, plus
// the total row under the id "total". Experiments present only in the
// latest report are improvements by definition and never flagged.
func Compare(baseline, latest *Report, tol float64) []Regression {
	byID := make(map[string]Entry, len(latest.Results))
	for _, e := range latest.Results {
		byID[e.ID] = e
	}
	var regs []Regression
	check := func(id string, base, cur Entry, present bool) {
		b := base.Rate()
		if b <= 0 {
			return // nothing to regress against
		}
		if !present {
			regs = append(regs, Regression{ID: id, Baseline: b, Missing: true})
			return
		}
		change := cur.Rate()/b - 1
		if change < -tol {
			regs = append(regs, Regression{ID: id, Baseline: b, Latest: cur.Rate(), Change: change})
		}
	}
	ids := make([]string, 0, len(baseline.Results))
	for _, e := range baseline.Results {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	for _, id := range ids {
		for _, e := range baseline.Results {
			if e.ID == id {
				cur, ok := byID[id]
				check(id, e, cur, ok)
				break
			}
		}
	}
	check("total", baseline.Total, latest.Total, true)
	return regs
}

// Gate runs Compare and renders the failures as one error (nil when
// the latest report holds the line everywhere).
func Gate(baseline, latest *Report, tol float64) error {
	regs := Compare(baseline, latest, tol)
	if len(regs) == 0 {
		return nil
	}
	lines := make([]string, len(regs))
	for i, r := range regs {
		lines[i] = "  " + r.String()
	}
	return fmt.Errorf("benchgate: %d regression(s) beyond %.0f%% tolerance:\n%s",
		len(regs), 100*tol, strings.Join(lines, "\n"))
}
