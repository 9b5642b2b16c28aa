package exp

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"
)

// goldenFile pins one SHA-256 per registered experiment, in
// sha256sum's "digest  id" line format, sorted by id.
const goldenFile = "testdata/golden.sha256"

// goldenOptions is the pinned scale: 100k accesses is enough for the
// 1MB LOC to distill (fig6's art and mcf reductions are non-zero), so
// the digests see the WOC, the mode switches and the partition epochs.
func goldenOptions() Options {
	return Options{Accesses: 100_000, WarmupFrac: 0.25}
}

// goldenDigests renders every registered experiment at the pinned
// scale and returns the golden file's content for them.
func goldenDigests(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	for _, id := range IDs() {
		tables, err := Run(id, goldenOptions())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		h := sha256.New()
		for _, tb := range tables {
			h.Write([]byte(tb.String()))
			h.Write([]byte{'\n'})
		}
		fmt.Fprintf(&b, "%x  %s\n", h.Sum(nil), id)
	}
	return b.String()
}

// TestGolden is the behaviour gate: every registered experiment's
// rendered tables must hash to the committed digest. A mismatch is a
// behaviour change; if it is intended, `make golden-promote` rewrites
// the file so the change shows in review. Each line is also logged
// with a "golden: " prefix, which is what golden-promote collects.
func TestGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment at 100k accesses")
	}
	got := goldenDigests(t)
	for _, line := range strings.SplitAfter(got, "\n") {
		if line != "" {
			t.Logf("golden: %s", strings.TrimSuffix(line, "\n"))
		}
	}
	want, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("read %s: %v (run `make golden-promote` to create it)", goldenFile, err)
	}
	if got != string(want) {
		t.Errorf("rendered tables moved off the committed digests (run `make golden-promote` only for an intended change)\ngot:\n%scommitted:\n%s", got, want)
	}
}
