package exp

import (
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"ldis/internal/faultinject"
	"ldis/internal/partition"
)

func partitionOpts() Options {
	return Options{Accesses: 150_000, WarmupFrac: 0.25}
}

// renderPartition renders every table of a partition run into one
// string, the byte-identity unit of the determinism tests.
func renderPartition(rows []PartitionResult) string {
	var b strings.Builder
	for _, t := range PartitionTables(rows) {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestPartitionUCPBeatsStatic is the first smoke gate: on every
// bundled scenario, utility-driven allocation must not lose to the
// static equal split on aggregate miss ratio.
func TestPartitionUCPBeatsStatic(t *testing.T) {
	rows, err := Partition(partitionOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		var static, ucp *partitionCell
		for i := range r.Cells {
			switch r.Cells[i].Policy {
			case "static":
				static = &r.Cells[i]
			case "ucp":
				ucp = &r.Cells[i]
			}
		}
		if static == nil || ucp == nil {
			t.Fatalf("%s: missing policy columns", r.Scenario)
		}
		s, u := static.aggMissRatio(), ucp.aggMissRatio()
		t.Logf("%s: static %.4f ucp %.4f (ucp alloc %s, %d rebalances)",
			r.Scenario, s, u, allocString(*ucp), ucp.Rebalances)
		if u > s+1e-9 {
			t.Errorf("%s: ucp aggregate miss ratio %.4f worse than static %.4f", r.Scenario, u, s)
		}
	}
}

// TestPartitionShardsAgreesWithExact is the second smoke gate: the
// online SHARDS-sampled allocator must match the exact-Mattson
// allocation within one way per tenant on at least 90%% of epochs.
func TestPartitionShardsAgreesWithExact(t *testing.T) {
	rows, err := Partition(partitionOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		for _, c := range r.Cells {
			if c.Policy == "static" {
				continue // static ignores the curves; agreement is vacuous
			}
			if c.ShadowEpochs == 0 {
				t.Fatalf("%s/%s: no shadow-validated epochs", r.Scenario, c.Policy)
			}
			frac := float64(c.AgreeEpochs) / float64(c.ShadowEpochs)
			t.Logf("%s/%s: %d/%d epochs agree (%.0f%%)", r.Scenario, c.Policy, c.AgreeEpochs, c.ShadowEpochs, 100*frac)
			if frac < 0.9 {
				t.Errorf("%s/%s: sampled allocator agreed with exact on only %.0f%% of epochs, want >= 90%%",
					r.Scenario, c.Policy, 100*frac)
			}
		}
	}
}

// TestPartitionLDISAwareDiffers is the third smoke gate: word-grain
// curves must change the allocation relative to line grain on at least
// one bundled scenario, and the summary's effective-capacity gain must
// show distillation reclaiming capacity.
func TestPartitionLDISAwareDiffers(t *testing.T) {
	rows, err := Partition(partitionOpts())
	if err != nil {
		t.Fatal(err)
	}
	differs := 0
	gained := false
	for _, r := range rows {
		for _, c := range r.Cells {
			if c.Policy != "ldis" {
				continue
			}
			t.Logf("%s/ldis: %d grain disagreements over %d epochs, mean eff gain %.2fx",
				r.Scenario, c.GrainDiffers, c.Epochs, c.meanEffGain())
			differs += c.GrainDiffers
			if c.meanEffGain() > 1.01 {
				gained = true
			}
		}
	}
	if differs == 0 {
		t.Error("word-grain curves never changed the allocation on any bundled scenario")
	}
	if !gained {
		t.Error("no scenario reported a word-grain effective-capacity gain above 1x")
	}
}

// TestPartitionDeterminism: the rendered tables are byte-identical
// across worker counts.
func TestPartitionDeterminism(t *testing.T) {
	base := partitionOpts()
	rows, err := Partition(base)
	if err != nil {
		t.Fatal(err)
	}
	want := renderPartition(rows)

	variants := []Options{
		{Accesses: base.Accesses, WarmupFrac: base.WarmupFrac, Parallel: 4},
	}
	for i, o := range variants {
		rows, err := Partition(o)
		if err != nil {
			t.Fatal(err)
		}
		if got := renderPartition(rows); got != want {
			t.Errorf("variant %d (parallel=%d) diverged from sequential output", i, o.Parallel)
		}
	}
}

// TestPartitionCheckpointResume: a resumed run replays every cell from
// the checkpoint and renders byte-identical tables.
func TestPartitionCheckpointResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "partition.ck")
	o := partitionOpts()
	o.Tenants = []string{"twolf", "mcf"} // one scenario keeps the double run cheap

	ck, err := OpenCheckpoint(path, o)
	if err != nil {
		t.Fatal(err)
	}
	o.Checkpoint = ck
	rows, err := Partition(o)
	if err != nil {
		t.Fatal(err)
	}
	want := renderPartition(rows)
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}

	o.Checkpoint = nil
	ck2, err := OpenCheckpoint(path, o)
	if err != nil {
		t.Fatal(err)
	}
	defer ck2.Close()
	o.Checkpoint = ck2
	rows2, err := Partition(o)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderPartition(rows2); got != want {
		t.Error("resumed run diverged from the original")
	}
	if ck2.Replayed() != 3 {
		t.Errorf("resumed run replayed %d cells, want all 3", ck2.Replayed())
	}
}

// partitionDigest60k is the SHA-256 of the bundled scenarios' rendered
// partition tables at 60k accesses (WarmupFrac 0.25), as the
// per-column controllers produced them before curves were recorded
// once per row. Replaying the row's curves must not move a byte.
const partitionDigest60k = "cd49d921df1620a0b549a51bf37398f5d37cfaec59942bfd6df8db402027d197"

// partitionRun runs the registered partition experiment and returns
// the SHA-256 of its rendered tables plus the rows recorded.
func partitionRun(t *testing.T, o Options) (digest string, recordings int64) {
	t.Helper()
	before := curveRecordings.Load()
	tables, err := Run("partition", o)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, tb := range tables {
		b.WriteString(tb.String())
		b.WriteByte('\n')
	}
	return fmt.Sprintf("%x", sha256.Sum256([]byte(b.String()))), curveRecordings.Load() - before
}

// TestPartitionRecordsOncePerRow: every scenario row records its
// curves exactly once, whatever the worker count, under injected
// faults absorbed by retries, and not at all when every cell replays
// from a checkpoint; the tables stay on the pinned digest throughout.
func TestPartitionRecordsOncePerRow(t *testing.T) {
	rows := int64(len(bundledScenarios()))
	base := Options{Accesses: 60_000, WarmupFrac: 0.25}
	for _, parallel := range []int{1, 3} {
		o := base
		o.Parallel = parallel
		digest, recs := partitionRun(t, o)
		if digest != partitionDigest60k {
			t.Errorf("Parallel=%d: tables digest %s, want %s", parallel, digest, partitionDigest60k)
		}
		if recs != rows {
			t.Errorf("Parallel=%d: %d recordings for %d rows", parallel, recs, rows)
		}
	}

	// Faults: the first seed whose injected panics on the partition
	// grid are all transient, with at least two of them, so one retry
	// absorbs every fault in fail-fast mode.
	o := base
	o.Parallel, o.Retries = 3, 1
	for seed := uint64(1); o.FaultSeed == 0; seed++ {
		inj := faultinject.NewDefault(seed)
		faults, permanent := 0, false
		for _, s := range bundledScenarios() {
			for col := range partition.PolicyNames {
				faulty, transient := inj.Site(fmt.Sprintf("partition/%s/%d", s.Name, col))
				if faulty {
					faults++
					permanent = permanent || !transient
				}
			}
		}
		if faults >= 2 && !permanent {
			o.FaultSeed = seed
		}
	}
	digest, recs := partitionRun(t, o)
	if digest != partitionDigest60k {
		t.Errorf("FaultSeed=%d: tables digest %s, want %s", o.FaultSeed, digest, partitionDigest60k)
	}
	if recs != rows {
		t.Errorf("FaultSeed=%d: %d recordings for %d rows", o.FaultSeed, recs, rows)
	}

	// A run replayed entirely from its checkpoint records nothing.
	path := filepath.Join(t.TempDir(), "partition.ck")
	o = base
	for pass := 0; pass < 2; pass++ {
		o.Checkpoint = nil
		ck, err := OpenCheckpoint(path, o)
		if err != nil {
			t.Fatal(err)
		}
		o.Checkpoint = ck
		digest, recs := partitionRun(t, o)
		if err := ck.Close(); err != nil {
			t.Fatal(err)
		}
		if digest != partitionDigest60k {
			t.Errorf("checkpoint pass %d: tables digest %s, want %s", pass, digest, partitionDigest60k)
		}
		want := rows
		if pass == 1 {
			want = 0
		}
		if recs != want {
			t.Errorf("checkpoint pass %d: %d recordings, want %d", pass, recs, want)
		}
	}
}

// TestCurveLogSlotRetriesAfterPanic: a recording that panics leaves
// the row's slot empty, so the retried cell records again; once
// filled, the slot never records twice.
func TestCurveLogSlotRetriesAfterPanic(t *testing.T) {
	var slot curveLogSlot
	calls := 0
	record := func() (*partition.CurveLog, error) {
		calls++
		if calls == 1 {
			panic("injected")
		}
		return &partition.CurveLog{}, nil
	}
	func() {
		defer func() { _ = recover() }()
		_, _ = slot.get(record)
	}()
	first, err := slot.get(record)
	if err != nil || first == nil {
		t.Fatalf("retry after a panicking recording: %v, %v", first, err)
	}
	if again, _ := slot.get(record); again != first || calls != 2 {
		t.Errorf("filled slot recorded again (%d recordings)", calls)
	}
}
