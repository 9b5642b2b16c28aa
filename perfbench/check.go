package main

import (
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"
	"strings"

	"ldis/internal/stats"
	"ldis/internal/workload"
)

// digests pins every experiment's rendered tables at the benchmark's
// scale, keyed "workload/experiment". The experiments are
// deterministic at any worker count, so a mismatch is a behaviour
// change: either a bug, or an intended change whose new digest (printed
// in the mismatch error) replaces the old one here in the same commit.
var digests = map[string]string{
	"sweep/fig6":         "34087994fa7a3957013eddb4629824eb0146cdf5c357007dd735a59966b2d162",
	"sweep/fig7":         "9fb56a877bc15444c9468f8801abd2a69adf712ce3ed1efcd3ec7feaaf83416a",
	"sweep/fig8":         "526cd2eb720b887b65b1312efc485de29c073d31afb176ceec3d3a0fafebc419",
	"insensitive/table5": "8c9055dedccb0c847c6e3c12219dc6192f70ce1dfaef73294283439bd5fab32a",
	"tenants/partition":  "ce2de2ac3f0e24f450f92cf9156216b4f9c9494004d4c5bc8e79af6abefb8bfb",
	"tenants/table2":     "9093487a588a277371961671bcc72cc0f121e10f462ead6f32b19c90ff26128d",
	"orgs-par/orgs":      "37f24c7c96201abb18b3fb8b93c803dc2537254f119b37efcf420019f3342e3c",
}

// tableDigest hashes an experiment's tables exactly as ldisexp prints
// them.
func tableDigest(tables []*stats.Table) string {
	h := sha256.New()
	for _, t := range tables {
		h.Write([]byte(t.String()))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkOutput compares an experiment's rendered tables with the
// committed digest for key.
func checkOutput(key string, tables []*stats.Table) error {
	got := tableDigest(tables)
	want, ok := digests[key]
	if !ok {
		return fmt.Errorf("%s: no committed digest (rendered tables hash to %s)", key, got)
	}
	if got != want {
		return fmt.Errorf("%s: rendered tables hash to %s, committed digest is %s", key, got, want)
	}
	return nil
}

// paperErrPct returns the mean |simulated - published| / published MPKI,
// in percent, over the rows of the first table that has column col and
// whose first cell names a profile with a published MPKI.
func paperErrPct(tables []*stats.Table, col string) (float64, error) {
	for _, t := range tables {
		rows, err := csv.NewReader(strings.NewReader(t.CSV())).ReadAll()
		if err != nil {
			return 0, fmt.Errorf("%s: %w", t.Title(), err)
		}
		idx := -1
		for i, h := range rows[0] {
			if h == col {
				idx = i
			}
		}
		if idx < 0 {
			continue
		}
		sum, n := 0.0, 0
		for _, row := range rows[1:] {
			prof, err := workload.ByName(row[0])
			if err != nil || prof.PaperMPKI == 0 {
				continue // summary rows such as "avg"
			}
			sim, err := strconv.ParseFloat(row[idx], 64)
			if err != nil {
				return 0, fmt.Errorf("%s: %s row %s: %w", t.Title(), col, row[0], err)
			}
			sum += math.Abs(sim-prof.PaperMPKI) / prof.PaperMPKI
			n++
		}
		if n == 0 {
			return 0, fmt.Errorf("%s: no row of column %q names a profile with a published MPKI", t.Title(), col)
		}
		return 100 * sum / float64(n), nil
	}
	return 0, fmt.Errorf("no table has a column %q", col)
}
