package benchgate

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func report(total float64, rates map[string]float64) *Report {
	r := &Report{Total: Entry{ID: "total", AccessesPerSec: total}}
	for id, aps := range rates {
		r.Results = append(r.Results, Entry{ID: id, AccessesPerSec: aps})
	}
	return r
}

// The acceptance criterion made executable: the gate must fail on a
// synthetically regressed snapshot and pass on equal or improved ones.
func TestGateFailsOnSyntheticRegression(t *testing.T) {
	base := report(3_000_000, map[string]float64{"fig6": 1_000_000, "fig7": 2_000_000})

	regressed := report(2_400_000, map[string]float64{"fig6": 1_000_000, "fig7": 1_400_000})
	err := Gate(base, regressed, 0.05)
	if err == nil {
		t.Fatal("gate passed a 30% fig7 regression")
	}
	if !strings.Contains(err.Error(), "fig7") || !strings.Contains(err.Error(), "total") {
		t.Errorf("gate error names neither fig7 nor total: %v", err)
	}
	if strings.Contains(err.Error(), "fig6:") {
		t.Errorf("gate error flags the unregressed fig6: %v", err)
	}

	if err := Gate(base, base, 0.05); err != nil {
		t.Errorf("gate failed on identical reports: %v", err)
	}
	improved := report(4_000_000, map[string]float64{"fig6": 1_500_000, "fig7": 2_500_000})
	if err := Gate(base, improved, 0.05); err != nil {
		t.Errorf("gate failed on an improvement: %v", err)
	}
}

func TestCompareToleranceBoundary(t *testing.T) {
	base := report(1_000_000, map[string]float64{"fig6": 1_000_000})
	within := report(960_000, map[string]float64{"fig6": 960_000}) // -4%
	if regs := Compare(base, within, 0.05); len(regs) != 0 {
		t.Errorf("-4%% flagged at 5%% tolerance: %v", regs)
	}
	beyond := report(940_000, map[string]float64{"fig6": 940_000}) // -6%
	regs := Compare(base, beyond, 0.05)
	if len(regs) != 2 { // fig6 and total
		t.Fatalf("got %d regressions, want 2: %v", len(regs), regs)
	}
	if regs[0].ID != "fig6" || regs[1].ID != "total" {
		t.Errorf("regression order = %v", regs)
	}
	if regs[0].Change > -0.05 {
		t.Errorf("change = %v, want about -0.06", regs[0].Change)
	}
}

func TestCompareMissingExperiment(t *testing.T) {
	base := report(2_000_000, map[string]float64{"fig6": 1_000_000, "fig7": 1_000_000})
	latest := report(2_000_000, map[string]float64{"fig6": 2_000_000})
	regs := Compare(base, latest, 0.05)
	found := false
	for _, r := range regs {
		if r.ID == "fig7" && r.Missing {
			found = true
			if !strings.Contains(r.String(), "missing") {
				t.Errorf("missing-ID rendering: %q", r.String())
			}
		}
	}
	if !found {
		t.Fatalf("vanished experiment not flagged: %v", regs)
	}
	// New experiments in the latest report are never flagged.
	extra := report(2_000_000, map[string]float64{"fig6": 1_000_000, "fig7": 1_000_000, "fig9": 1})
	if regs := Compare(base, extra, 0.05); len(regs) != 0 {
		t.Errorf("new experiment flagged: %v", regs)
	}
}

// Rate must fall back to wall time when accesses_per_sec is absent.
func TestEntryRateFallbacks(t *testing.T) {
	cases := []struct {
		name string
		e    Entry
		want float64
	}{
		{"stored", Entry{AccessesPerSec: 42, SimAccesses: 10, Seconds: 1}, 42},
		{"wall-seconds", Entry{SimAccesses: 100, Seconds: 4}, 25},
		{"empty", Entry{}, 0},
	}
	for _, tc := range cases {
		if got := tc.e.Rate(); got != tc.want {
			t.Errorf("%s: Rate() = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "r.json")
	want := report(123, map[string]float64{"fig6": 123})
	want.Generated = "2026-01-01T00:00:00Z"
	want.Workers = 1
	data, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Total.Rate() != 123 || len(got.Results) != 1 || got.Results[0].ID != "fig6" {
		t.Errorf("round trip = %+v", got)
	}
	if _, err := Load(filepath.Join(dir, "absent.json")); err == nil {
		t.Error("loading a missing file succeeded")
	}
	if err := os.WriteFile(path, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Error("loading malformed JSON succeeded")
	}
}
