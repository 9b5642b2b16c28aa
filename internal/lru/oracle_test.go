package lru_test

import (
	"fmt"
	"testing"

	"ldis/internal/cache"
	"ldis/internal/l1"
	"ldis/internal/mem"
	"ldis/internal/mrc"
	"ldis/internal/sampler"
	"ldis/internal/workload"
)

// The LRU oracle checks the simulator's LRU sets against Mattson's
// stack-distance property instead of against themselves: a W-way LRU
// set misses on an access exactly when the line's stack distance within
// its set — one plus the number of distinct lines of that set touched
// since the line's previous access — exceeds W, or the line was never
// touched. One exact mrc.Engine per set supplies the distance from its
// Fenwick tree (CurrentLineDistanceBytes / 64), sharing no code with
// the set arrays under test.
//
// Checked: cache.Cache unpartitioned, with and without way
// memoization; l1.Cache, where a line is present on a hit or a sector
// miss; and the sampler's auxiliary tag directory, whose misses count
// in ATDMisses. Out of scope: compress.CMPR, whose sets hold
// variable-size compressed lines (perfect LRU over variable sizes is
// not a stack algorithm, so no single distance decides a miss), and the
// distill cache's LOC, whose content depends on WOC hits that bypass
// it, not on the reference stream alone.

const (
	oracleSets    = 32
	profileAccess = 20_000
)

// oracleWays are the associativities checked; 1 is the degenerate
// direct-mapped edge, 3 a non-power-of-two.
var oracleWays = []int{1, 3, 8}

// lruSet is one structure under test: access performs a reference and
// reports whether it hit.
type lruSet struct {
	name   string
	ways   int
	access func(i int, a mem.Access) bool
}

func structures(ways int) []lruSet {
	bytes := oracleSets * ways * mem.LineSize
	plain := cache.New(cache.Config{Name: "plain", SizeBytes: bytes, Ways: ways})
	memo := cache.New(cache.Config{Name: "memo", SizeBytes: bytes, Ways: ways,
		WayMemo: &cache.WayMemoConfig{EntriesPerSet: 2}})
	l1d := l1.New(l1.Config{SizeBytes: bytes, Ways: ways})
	atd := sampler.New(sampler.Config{NumSets: oracleSets, LeaderSets: oracleSets, ATDWays: ways,
		PSELBits: 8, LowWatermark: 64, HighWatermark: 192})
	return []lruSet{
		{"cache", ways, func(_ int, a mem.Access) bool {
			return plain.AccessInstallTenant(a.Line(), a.Word(), a.IsWrite(), 0)
		}},
		{"cache+waymemo", ways, func(_ int, a mem.Access) bool {
			return memo.AccessInstallTenant(a.Line(), a.Word(), a.IsWrite(), 0)
		}},
		{"l1", ways, func(i int, a mem.Access) bool {
			la, word, write := a.Line(), a.Word(), a.IsWrite()
			out, _, _ := l1d.AccessEvict(la, word, write)
			// Partial fills make later accesses sector-miss; either
			// fill entry point installs a missing line.
			valid := mem.FootprintOfWord(word) | mem.Footprint(uint64(la)*0x9e3779b97f4a7c15>>56)
			switch {
			case out == l1.SectorMiss || (out == l1.LineMiss && i%2 == 0):
				l1d.Fill(la, valid, word, write)
			case out == l1.LineMiss:
				l1d.FillNew(la, valid, word, write)
			}
			return out != l1.LineMiss
		}},
		{"sampler-atd", ways, func(_ int, a mem.Access) bool {
			before := atd.ATDMisses
			atd.ObserveATD(int(uint64(a.Line())%oracleSets), a.Line())
			return atd.ATDMisses == before
		}},
	}
}

// checkOracle drives trace through every structure at every checked
// associativity and fails at the first access whose outcome disagrees
// with the per-set stack distance.
func checkOracle(t *testing.T, name string, trace []mem.Access) {
	t.Helper()
	var perSet [oracleSets]int
	for _, a := range trace {
		perSet[uint64(a.Line())%oracleSets]++
	}
	var engines [oracleSets]*mrc.Engine
	for s, n := range perSet {
		e, err := mrc.New(mrc.Config{ResolutionBytes: mem.LineSize, MaxBytes: 64 * mem.LineSize}, n+1)
		if err != nil {
			t.Fatal(err)
		}
		engines[s] = e
	}
	var sets []lruSet
	for _, w := range oracleWays {
		sets = append(sets, structures(w)...)
	}
	for i, a := range trace {
		e := engines[uint64(a.Line())%oracleSets]
		d, seen := e.CurrentLineDistanceBytes(a.Line())
		for _, s := range sets {
			wantHit := seen && int(d)/mem.LineSize <= s.ways
			if got := s.access(i, a); got != wantHit {
				t.Fatalf("%s: %s %d-way: access %d to line %#x: hit=%v, stack distance %d (seen %v) says hit=%v",
					name, s.name, s.ways, i, uint64(a.Line()), got, int(d)/mem.LineSize, seen, wantHit)
			}
		}
		e.Access(a.Line(), a.Word())
	}
}

// TestLRUOracleProfiles drives every registered workload profile.
func TestLRUOracleProfiles(t *testing.T) {
	for _, name := range workload.Names() {
		p, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		checkOracle(t, name, p.Trace(profileAccess))
	}
}

// TestLRUOracleRandom drives a random stream over a few lines per set,
// so reuse at every stack depth around the associativities is common.
func TestLRUOracleRandom(t *testing.T) {
	rng := uint64(0x5eed)
	trace := make([]mem.Access, 100_000)
	for i := range trace {
		rng = rng*6364136223846793005 + 1442695040888963407
		line := mem.LineAddr(rng>>40) % (oracleSets * 12)
		kind := mem.Load
		if rng>>63 == 1 {
			kind = mem.Store
		}
		trace[i] = mem.Access{Addr: line.WordAddr(int(rng>>20) % mem.WordsPerLine), Kind: kind}
	}
	checkOracle(t, fmt.Sprintf("random(%d lines)", oracleSets*12), trace)
}
