package exp

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// ckOptions are the small options the checkpoint tests sweep with:
// 2 benchmarks × 5 Table 6 sizes = 10 cells.
func ckOptions() Options {
	return Options{Accesses: 20_000, WarmupFrac: 0.25,
		Benchmarks: []string{"ammp", "mcf"}, Parallel: 2}
}

// TestCheckpointKillAndResume is the resumability contract: a sweep
// killed mid-run — simulated by truncating the checkpoint inside its
// final record, exactly what a SIGKILL during the append leaves behind
// — resumes by replaying the surviving cells and re-running only the
// remainder, and renders byte-identical tables to an uninterrupted run.
func TestCheckpointKillAndResume(t *testing.T) {
	o := ckOptions()
	want := renderAll(t, "table6", o)

	path := filepath.Join(t.TempDir(), CheckpointFile)
	ck, err := OpenCheckpoint(path, o)
	if err != nil {
		t.Fatal(err)
	}
	full := o
	full.Checkpoint = ck
	if got := renderAll(t, "table6", full); got != want {
		t.Fatalf("checkpointed run differs from plain run:\n%s\nvs\n%s", got, want)
	}
	if ck.Recorded() != 10 {
		t.Fatalf("Recorded = %d, want 10", ck.Recorded())
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}

	// Kill mid-append: tear the last record by chopping bytes off the
	// tail. The resumed run must discard the torn record, replay the
	// intact prefix, and re-simulate the rest.
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-7); err != nil {
		t.Fatal(err)
	}

	ck2, err := OpenCheckpoint(path, o)
	if err != nil {
		t.Fatal(err)
	}
	defer ck2.Close()
	if n := ck2.Loaded(); n != 9 {
		t.Fatalf("Loaded after torn tail = %d, want 9", n)
	}
	resume := o
	resume.Checkpoint = ck2
	if got := renderAll(t, "table6", resume); got != want {
		t.Fatalf("resumed run differs from uninterrupted run:\n%s\nvs\n%s", got, want)
	}
	if ck2.Replayed() != 9 {
		t.Errorf("Replayed = %d, want 9", ck2.Replayed())
	}
	if ck2.Recorded() != 1 {
		t.Errorf("Recorded = %d, want 1 (only the torn cell re-ran)", ck2.Recorded())
	}
	if len(ck2.Cells()) != 10 {
		t.Errorf("Cells = %d, want 10", len(ck2.Cells()))
	}
}

// TestCheckpointGarbageTail: appended garbage (a corrupt tail that is
// not merely truncated) is detected by the CRC and truncated away.
func TestCheckpointGarbageTail(t *testing.T) {
	o := ckOptions()
	path := filepath.Join(t.TempDir(), CheckpointFile)
	ck, err := OpenCheckpoint(path, o)
	if err != nil {
		t.Fatal(err)
	}
	full := o
	full.Checkpoint = ck
	renderAll(t, "table6", full)
	ck.Close()

	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x20, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, _ := os.Stat(path)

	ck2, err := OpenCheckpoint(path, o)
	if err != nil {
		t.Fatal(err)
	}
	defer ck2.Close()
	if n := ck2.Loaded(); n != 10 {
		t.Errorf("Loaded = %d, want 10 intact records", n)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size() {
		t.Errorf("corrupt tail not truncated: size %d -> %d", before.Size(), after.Size())
	}
}

// TestCheckpointRejectsDifferentOptions: resuming under options that
// change simulated results is refused via the header fingerprint.
func TestCheckpointRejectsDifferentOptions(t *testing.T) {
	o := ckOptions()
	path := filepath.Join(t.TempDir(), CheckpointFile)
	ck, err := OpenCheckpoint(path, o)
	if err != nil {
		t.Fatal(err)
	}
	ck.Close()

	other := o
	other.Accesses = 30_000
	if _, err := OpenCheckpoint(path, other); err == nil ||
		!strings.Contains(err.Error(), "different options") {
		t.Errorf("mismatched options: err = %v, want fingerprint refusal", err)
	}

	// Scheduling and resilience knobs do not change results and must
	// not invalidate a checkpoint.
	sched := o
	sched.Parallel = 7
	sched.KeepGoing = true
	sched.Retries = 3
	ck2, err := OpenCheckpoint(path, sched)
	if err != nil {
		t.Fatalf("scheduling knobs invalidated the checkpoint: %v", err)
	}
	ck2.Close()
}

// TestCheckpointFingerprintPinned pins the options fingerprint to
// literal values, so a change to Options or to the hash input cannot
// silently orphan existing checkpoints: every file written by an
// earlier build must keep replaying.
func TestCheckpointFingerprintPinned(t *testing.T) {
	custom := Options{
		Accesses: 250_000, WarmupFrac: 0.2, Benchmarks: []string{"mcf", "twolf"},
		MRCSampleRate: 0.05, MRCMaxSamples: 4096, MRCResolution: 128 << 10, MRCMaxBytes: 2 << 20,
		Tenants: []string{"twolf", "mcf"}, PartitionPolicy: "ucp", EpochAccesses: 8000,
		OrgToucheSBLines: 8, OrgCopyBackMaxReuse: 512 << 10, OrgWayMemoEntries: 8,
	}
	if err := custom.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		o    Options
		want uint64
	}{
		{"default", DefaultOptions(), 0x5c5b049a4c6b4581},
		{"custom", custom, 0x97910d1d832e9744},
	} {
		if got := c.o.Fingerprint(); got != c.want {
			t.Errorf("%s: Fingerprint() = %#x, want %#x", c.name, got, c.want)
		}
	}
}

// TestCheckpointFaultedSweepResumes: an actual mid-sweep crash — a
// deterministic injected panic aborting the fail-fast run — leaves a
// usable checkpoint; resuming after the "fix" (no injection) completes
// and matches the fault-free tables.
func TestCheckpointFaultedSweepResumes(t *testing.T) {
	o := ckOptions()
	o.Benchmarks = []string{"swim", "health"} // seed 1 faults one cell of each
	want := renderAll(t, "table6", o)

	path := filepath.Join(t.TempDir(), CheckpointFile)
	ck, err := OpenCheckpoint(path, o)
	if err != nil {
		t.Fatal(err)
	}
	crash := o
	crash.Checkpoint = ck
	crash.FaultSeed = 1
	if _, err := Run("table6", crash); err == nil {
		t.Fatal("injected fault should abort the fail-fast sweep")
	}
	recorded := ck.Recorded()
	ck.Close()

	ck2, err := OpenCheckpoint(path, o)
	if err != nil {
		t.Fatal(err)
	}
	defer ck2.Close()
	if ck2.Loaded() != recorded {
		t.Errorf("Loaded = %d, want %d", ck2.Loaded(), recorded)
	}
	resume := o
	resume.Checkpoint = ck2
	if got := renderAll(t, "table6", resume); got != want {
		t.Fatalf("resume after crash differs from fault-free run:\n%s\nvs\n%s", got, want)
	}
}
