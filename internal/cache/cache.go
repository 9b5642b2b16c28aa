// Package cache implements a traditional set-associative cache with LRU
// replacement — the paper's baseline L2 organization (Table 1) — plus
// the per-line footprint instrumentation the motivation experiments need
// (Figures 1 and 2) and per-tenant way partitioning (see SetPartition).
package cache

import (
	"fmt"

	"ldis/internal/lru"
	"ldis/internal/mem"
	"ldis/internal/obs"
	"ldis/internal/stats"
)

// Config describes a traditional cache.
type Config struct {
	// Name labels the cache in stats output.
	Name string
	// SizeBytes is the data capacity (must be sets*ways*64).
	SizeBytes int
	// Ways is the associativity.
	Ways int
	// WayMemo, when non-nil, enables the way-memoization memo buffer
	// (see WayMemoConfig): per-set last-hit-way tracking whose hit/skip
	// counters feed costmodel.WayMemoEnergy. Functional behaviour is
	// unchanged.
	WayMemo *WayMemoConfig
	// Obs, when non-nil, receives eviction/writeback counters for the
	// owning grid cell. Counters land on the install (miss) path only —
	// the per-access hit path stays untouched — and the handles no-op
	// when Obs is nil, so disabled observability costs one branch per
	// eviction.
	Obs *obs.Cell
}

// Sets returns the number of sets implied by the config.
func (c Config) Sets() int { return c.SizeBytes / (mem.LineSize * c.Ways) }

// Validate checks structural invariants: power-of-two set count, at
// least one way.
func (c Config) Validate() error {
	if c.Ways <= 0 {
		return fmt.Errorf("cache %q: ways must be positive, got %d", c.Name, c.Ways)
	}
	sets := c.Sets()
	if sets <= 0 || sets*c.Ways*mem.LineSize != c.SizeBytes {
		return fmt.Errorf("cache %q: size %dB not divisible into %d ways of 64B lines", c.Name, c.SizeBytes, c.Ways)
	}
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %q: set count %d not a power of two", c.Name, sets)
	}
	if c.WayMemo != nil {
		if err := c.WayMemo.Validate(); err != nil {
			return fmt.Errorf("cache %q: %v", c.Name, err)
		}
	}
	return nil
}

// Line is one tag entry. MaxFPPos tracks the maximum recency position
// the line occupied at any access that changed its footprint — the
// statistic behind the paper's Figure 2. Tenant records which sharer
// installed the line (always 0 outside partitioned mode).
type Line struct {
	Valid     bool
	Dirty     bool
	Tag       uint64
	Footprint mem.Footprint
	MaxFPPos  uint8
	Tenant    uint8
}

// Stats aggregates the cache's behaviour.
type Stats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64

	// Way-memoization counters (Config.WayMemo; zero otherwise).
	MemoRefs          uint64
	MemoHits          uint64
	MemoProbesSkipped uint64

	// WordsUsedAtEvict histograms footprint popcounts of evicted lines
	// (buckets 0..8); bucket 0 stays empty because installs mark the
	// demand word. This is Figure 1 and Table 6.
	WordsUsedAtEvict *stats.Histogram

	// FPChangePos histograms, per evicted line, the maximum recency
	// position at which its footprint changed (Figure 2).
	FPChangePos *stats.Histogram
}

// HitRate returns hits/accesses.
func (s *Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// Cache is a set-associative LRU cache over 64B lines.
type Cache struct {
	cfg  Config
	sets [][]Line // sets[i] ordered MRU-first
	st   Stats

	// Set-indexing geometry, precomputed at construction so the access
	// path does not rederive it (Config.Sets divides; LineAddr.Tag
	// shift-loops) on every access.
	setMask  uint64
	tagShift uint

	// Per-tenant way quotas (nil when unpartitioned). Installed by
	// SetPartition and consulted only on the AccessInstallTenant miss
	// path: hits are never restricted, matching way-partitioned
	// hardware, where partitioning constrains replacement, not lookup.
	quota []int32
	// owners is the miss path's scratch view of a set for lru.Victim
	// (allocated with the first partition).
	owners []uint8

	// Way-memoization state (Config.WayMemo; nil when disabled): one
	// tag arena of EntriesPerSet slots per set, plus a per-set validity
	// bitmask.
	memoTags  []uint64
	memoValid []uint64
	memoEPS   int
	memoShift uint

	// Observability handles, registered once at construction; nil when
	// the config carries no obs cell.
	obsEvictions   *obs.Counter
	obsWritebacks  *obs.Counter
	obsMemoHits    *obs.Counter
	obsMemoSkipped *obs.Counter
}

// New builds a cache; it panics on an invalid config (configs are
// programmer-supplied constants, not user input).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	numSets := cfg.Sets()
	sets := make([][]Line, numSets)
	for i := range sets {
		sets[i] = make([]Line, cfg.Ways)
	}
	c := &Cache{cfg: cfg, sets: sets, setMask: uint64(numSets - 1)}
	for n := numSets; n > 1; n >>= 1 {
		c.tagShift++
	}
	// Histograms are allocated eagerly so the access path never tests for
	// them on the hot path.
	c.st.WordsUsedAtEvict = stats.NewHistogram(cfg.Name+" words used", mem.WordsPerLine+1)
	c.st.FPChangePos = stats.NewHistogram(cfg.Name+" fp-change pos", cfg.Ways)
	if cfg.WayMemo != nil {
		wm := cfg.WayMemo.withDefaults()
		c.memoEPS = wm.EntriesPerSet
		c.memoTags = make([]uint64, numSets*c.memoEPS)
		c.memoValid = make([]uint64, numSets)
		c.memoShift = 64
		for n := c.memoEPS; n > 1; n >>= 1 {
			c.memoShift--
		}
	}
	c.obsEvictions = cfg.Obs.Counter("cache_evictions")
	c.obsWritebacks = cfg.Obs.Counter("cache_writebacks")
	c.obsMemoHits = cfg.Obs.Counter("cache_waymemo_hits")
	c.obsMemoSkipped = cfg.Obs.Counter("cache_waymemo_skipped_probes")
	return c
}

// setIndexOf and tagOf are the precomputed equivalents of
// mem.LineAddr.SetIndex/Tag for this cache's geometry.
func (c *Cache) setIndexOf(line mem.LineAddr) int { return int(uint64(line) & c.setMask) }
func (c *Cache) tagOf(line mem.LineAddr) uint64   { return uint64(line) >> c.tagShift }

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a pointer to the live statistics.
func (c *Cache) Stats() *Stats { return &c.st }

// Lookup reports whether the line is present without touching LRU state
// or stats (used by auxiliary structures and tests).
func (c *Cache) Lookup(line mem.LineAddr) bool {
	set := c.sets[c.setIndexOf(line)]
	tag := c.tagOf(line)
	for i := range set {
		if set[i].Valid && set[i].Tag == tag {
			return true
		}
	}
	return false
}

// promote moves the entry at pos to MRU, shifting the more recent
// entries down one position.
func (c *Cache) promote(set []Line, pos int, l Line) {
	copy(set[1:pos+1], set[0:pos])
	set[0] = l
}

// SetPartition installs per-tenant way quotas for AccessInstallTenant.
// quota[t] is the number of ways tenant t may occupy per set; the sum
// must not exceed the associativity. A nil or empty quota disables
// partitioning. Quotas may change at any time (the epoch re-balancer
// does): lines installed under the old allocation drain out through
// the over-quota victim rule rather than being flushed.
func (c *Cache) SetPartition(quota []int) {
	q, err := lru.Quotas(c.quota, quota, c.cfg.Ways)
	if err != nil {
		panic(fmt.Sprintf("cache %q: %v", c.cfg.Name, err))
	}
	c.quota = q
	if q != nil && c.owners == nil {
		c.owners = make([]uint8, c.cfg.Ways)
	}
}

// AccessInstallTenant performs a demand access for one word of a line
// and installs the line on a miss, walking the set once. A hit moves
// the line to MRU and updates its footprint; any tenant hits any
// resident line, and hits never transfer ownership. A miss installs the
// line as MRU for tenant: without a partition it replaces the LRU way,
// under the quotas installed by SetPartition it replaces the way
// lru.Victim picks. The victim's eviction and writeback are counted
// internally. Unpartitioned callers pass tenant 0. Returns whether the
// access hit.
//
//ldis:noalloc
func (c *Cache) AccessInstallTenant(line mem.LineAddr, word int, write bool, tenant int) bool {
	st := &c.st
	st.Accesses++
	si := c.setIndexOf(line)
	set := c.sets[si]
	tag := c.tagOf(line)
	c.memoLookup(si, tag)
	// MRU fast path: a hit on way 0 needs no promotion (and cannot
	// raise MaxFPPos), so it updates the line in place.
	if l := &set[0]; l.Valid && l.Tag == tag {
		st.Hits++
		l.Footprint = l.Footprint.Set(word)
		if write {
			l.Dirty = true
		}
		c.memoRecord(si, tag)
		return true
	}
	for pos := 1; pos < len(set); pos++ {
		if !set[pos].Valid || set[pos].Tag != tag {
			continue
		}
		st.Hits++
		l := set[pos]
		if !l.Footprint.Has(word) {
			l.Footprint = l.Footprint.Set(word)
			if uint8(pos) > l.MaxFPPos {
				l.MaxFPPos = uint8(pos)
			}
		}
		if write {
			l.Dirty = true
		}
		c.promote(set, pos, l)
		c.memoRecord(si, tag)
		return true
	}
	st.Misses++
	victimPos := len(set) - 1
	if c.quota != nil {
		owners := c.owners
		for pos := range set {
			owners[pos] = lru.Free
			if set[pos].Valid {
				owners[pos] = set[pos].Tenant
			}
		}
		victimPos = lru.Victim(owners, c.quota, tenant)
	}
	if v := set[victimPos]; v.Valid {
		st.Evictions++
		c.obsEvictions.Inc()
		st.WordsUsedAtEvict.Add(v.Footprint.Count())
		st.FPChangePos.Add(int(v.MaxFPPos))
		if v.Dirty {
			st.Writebacks++
			c.obsWritebacks.Inc()
		}
		c.memoInvalidate(si, v.Tag)
	}
	c.promote(set, victimPos, Line{
		Valid:     true,
		Dirty:     write,
		Tag:       tag,
		Footprint: mem.FootprintOfWord(word),
		Tenant:    uint8(tenant),
	})
	c.memoRecord(si, tag)
	return false
}

// lineFromTag reconstructs a line address from a tag and set index.
func (c *Cache) lineFromTag(tag uint64, setIdx int) mem.LineAddr {
	return mem.LineAddr(tag<<c.tagShift | uint64(setIdx))
}

// MergeWriteback applies an L1D eviction notice to the resident copy,
// if any: one set scan ORs fp into the line's footprint (new bits let
// the line's current recency position compete for MaxFPPos, so the
// Figure 1/2 statistics see the full word usage) and marks the line
// dirty when the writeback carries dirty words.
//
//ldis:noalloc
func (c *Cache) MergeWriteback(line mem.LineAddr, fp, dirty mem.Footprint) {
	set := c.sets[c.setIndexOf(line)]
	tag := c.tagOf(line)
	for pos := range set {
		if set[pos].Valid && set[pos].Tag == tag {
			e := &set[pos]
			if merged := e.Footprint.Or(fp); merged != e.Footprint {
				e.Footprint = merged
				if uint8(pos) > e.MaxFPPos {
					e.MaxFPPos = uint8(pos)
				}
			}
			if dirty != 0 {
				e.Dirty = true
			}
			return
		}
	}
}

// VisitLines calls fn for every valid line (used by the compressibility
// sampling of Figure 10). The footprint passed is the line's current
// footprint.
func (c *Cache) VisitLines(fn func(line mem.LineAddr, fp mem.Footprint)) {
	for si, set := range c.sets {
		for _, l := range set {
			if l.Valid {
				fn(c.lineFromTag(l.Tag, si), l.Footprint)
			}
		}
	}
}
