package partition

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"ldis/internal/mem"
)

// replayMix is one synthetic tenant drive: per-tenant cyclic working
// sets in two phases (so allocations drift and rebalances happen),
// with word-sparse tenants so the grains disagree.
type replayMix struct {
	name     string
	ways     int
	lines    [2][]int
	words    []int
	perPhase int
}

func replayMixes() []replayMix {
	return []replayMix{
		{
			name: "2-tenant", ways: 8,
			lines:    [2][]int{{96, 111}, {16, 96}},
			words:    []int{1, 0},
			perPhase: 1 << 13,
		},
		{
			name: "4-tenant", ways: 16,
			lines:    [2][]int{{96, 16, 48, 111}, {24, 120, 16, 64}},
			words:    []int{1, 0, 2, 0},
			perPhase: 1 << 14,
		},
	}
}

func (m replayMix) config(policy Policy) Config {
	n := len(m.words)
	return Config{
		Tenants:       n,
		TotalWays:     m.ways,
		WayBytes:      1024,
		EpochAccesses: 1024,
		Policy:        policy,
		SampleRate:    0.5,
		Seed:          7,
		DecayAlpha:    0.75,
		Shadow:        true,
		AccessBudget:  2 * m.perPhase,
	}
}

// run drives both phases through observe.
func (m replayMix) run(observe func(int, mem.LineAddr, int)) {
	for _, lines := range m.lines {
		driveFunc(observe, lines, m.words, m.perPhase)
	}
}

// changes drives a controller through the mix and returns the
// positions whose Observe reported an adopted change.
func (m replayMix) changes(c *Controller) []int {
	var out []int
	i := 0
	m.run(func(t int, line mem.LineAddr, w int) {
		if c.Observe(t, line, w) {
			out = append(out, i)
		}
		i++
	})
	return out
}

// TestReplayEqualsLive: one recorded curve log, replayed under each
// policy, reproduces a live controller's every decision bit for bit —
// the property that lets the partition experiment record a scenario's
// curves once and replay them in every policy column.
func TestReplayEqualsLive(t *testing.T) {
	for _, mix := range replayMixes() {
		rec, err := NewRecorder(mix.config(nil))
		if err != nil {
			t.Fatal(err)
		}
		mix.run(rec.Observe)
		log := rec.Finish()
		for _, name := range PolicyNames {
			policy, _ := ByName(name)
			cfg := mix.config(policy)
			live, err := NewController(cfg)
			if err != nil {
				t.Fatal(err)
			}
			replay, err := NewReplayController(cfg, log)
			if err != nil {
				t.Fatal(err)
			}
			liveChanges, replayChanges := mix.changes(live), mix.changes(replay)
			where := mix.name + "/" + name
			if live.Epochs() == 0 || live.Epochs() != replay.Epochs() {
				t.Fatalf("%s: %d epochs live, %d replayed", where, live.Epochs(), replay.Epochs())
			}
			agree, total := live.Agreement()
			t.Logf("%s: %d epochs, %d rebalances, %d grain disagreements, %d/%d agree",
				where, live.Epochs(), live.Rebalances(), live.GrainDisagreements(), agree, total)
			if name != "static" && live.Rebalances() == 0 {
				t.Errorf("%s: the drive never rebalanced; the comparison is vacuous", where)
			}
			if !reflect.DeepEqual(liveChanges, replayChanges) {
				t.Errorf("%s: Observe reported changes at %v live, %v replayed", where, liveChanges, replayChanges)
			}
			compareDecisions(t, where, live.Decisions(), replay.Decisions())
			if !reflect.DeepEqual(live.Alloc(), replay.Alloc()) {
				t.Errorf("%s: Alloc %v live, %v replayed", where, live.Alloc(), replay.Alloc())
			}
			if live.Rebalances() != replay.Rebalances() {
				t.Errorf("%s: Rebalances %d live, %d replayed", where, live.Rebalances(), replay.Rebalances())
			}
			if ra, rt := replay.Agreement(); ra != agree || rt != total {
				t.Errorf("%s: Agreement %d/%d live, %d/%d replayed", where, agree, total, ra, rt)
			}
			if live.GrainDisagreements() != replay.GrainDisagreements() {
				t.Errorf("%s: GrainDisagreements %d live, %d replayed", where, live.GrainDisagreements(), replay.GrainDisagreements())
			}
			for tn := 0; tn < cfg.Tenants; tn++ {
				ll, lw := live.Curves(tn, "t")
				rl, rw := replay.Curves(tn, "t")
				if !reflect.DeepEqual(ll, rl) || !reflect.DeepEqual(lw, rw) {
					t.Errorf("%s: tenant %d curves differ between live and replay", where, tn)
				}
			}
		}
	}
}

// compareDecisions checks two decision logs field by field, floats by
// their bits.
func compareDecisions(t *testing.T, where string, live, replay []Decision) {
	t.Helper()
	if len(live) != len(replay) {
		t.Fatalf("%s: %d decisions live, %d replayed", where, len(live), len(replay))
	}
	for i, l := range live {
		r := replay[i]
		type field struct {
			name string
			l, r any
		}
		for _, f := range []field{
			{"Epoch", l.Epoch, r.Epoch},
			{"Proposed", l.Proposed, r.Proposed},
			{"Adopted", l.Adopted, r.Adopted},
			{"Exact", l.Exact, r.Exact},
			{"LineAlloc", l.LineAlloc, r.LineAlloc},
			{"WordAlloc", l.WordAlloc, r.WordAlloc},
			{"Changed", l.Changed, r.Changed},
			{"AgreeWithin1", l.AgreeWithin1, r.AgreeWithin1},
			{"GrainsDiffer", l.GrainsDiffer, r.GrainsDiffer},
			{"PredictedSaving", math.Float64bits(l.PredictedSaving), math.Float64bits(r.PredictedSaving)},
		} {
			if f.l != f.r {
				t.Errorf("%s: decision %d %s = %v live, %v replayed", where, i, f.name, f.l, f.r)
			}
		}
	}
}

// TestReplayRejectsForeignLog: a replay must run under the curve
// configuration its log was recorded with, and only on a finished log.
func TestReplayRejectsForeignLog(t *testing.T) {
	mix := replayMixes()[0]
	cfg := mix.config(UCP{})
	rec, err := NewRecorder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mix.run(rec.Observe)
	if _, err := NewReplayController(cfg, rec.log); err == nil || !strings.Contains(err.Error(), "unfinished") {
		t.Errorf("unfinished log accepted (err %v)", err)
	}
	log := rec.Finish()
	for i, mutate := range []func(*Config){
		func(c *Config) { c.Seed++ },
		func(c *Config) { c.EpochAccesses *= 2 },
		func(c *Config) { c.DecayAlpha = 0.5 },
		func(c *Config) { c.SampleRate = 0.25 },
		func(c *Config) { c.Shadow = false },
	} {
		bad := cfg
		mutate(&bad)
		if _, err := NewReplayController(bad, log); err == nil {
			t.Errorf("case %d: log replayed under a different curve configuration", i)
		}
	}
	// Decider-only fields are the replay's own.
	own := cfg
	own.Policy, own.Hysteresis, own.MinWays = LDISAware{}, 0.05, 2
	if _, err := NewReplayController(own, log); err != nil {
		t.Errorf("replay with its own decider settings rejected: %v", err)
	}
	// Replaying past the recorded epochs is a misuse that must not
	// decide from stale curves.
	r, err := NewReplayController(cfg, log)
	if err != nil {
		t.Fatal(err)
	}
	mix.run(func(tn int, line mem.LineAddr, w int) { r.Observe(tn, line, w) })
	defer func() {
		if recover() == nil {
			t.Error("replay ran past its log without panicking")
		}
	}()
	for i := 0; i < cfg.EpochAccesses; i++ {
		r.Observe(i%cfg.Tenants, 0, 0)
	}
}
