// Package exp implements one experiment per figure and table of the
// paper's evaluation. Each experiment runs the calibrated synthetic
// benchmarks through the appropriate cache organizations and renders
// the same rows/series the paper reports. DESIGN.md maps experiment ids
// to paper content; EXPERIMENTS.md records paper-vs-measured values.
package exp

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"ldis/internal/cache"
	"ldis/internal/distill"
	"ldis/internal/hierarchy"
	"ldis/internal/obs"
	"ldis/internal/partition"
	"ldis/internal/sampler"
	"ldis/internal/stats"
	"ldis/internal/trace"
	"ldis/internal/workload"
)

// Options control experiment scale. The defaults trade fidelity for
// runtime; benches and the CLI can raise Accesses.
type Options struct {
	// Accesses per benchmark per configuration.
	Accesses int
	// WarmupFrac is the fraction of accesses excluded from measurement.
	WarmupFrac float64
	// Benchmarks to run (defaults to the paper's 16).
	Benchmarks []string
	// Parallel caps the worker goroutines running (benchmark ×
	// configuration) simulation cells concurrently; 0 means GOMAXPROCS.
	// Results are deterministic regardless of the setting.
	Parallel int

	// KeepGoing runs every cell to completion instead of aborting the
	// sweep at the first failure. Failed cells are recorded in
	// Failures; benchmarks with a failed cell are pruned from the
	// results so healthy rows render exactly as in a fault-free run.
	KeepGoing bool
	// Retries gives each failing cell this many extra attempts before
	// its failure counts. Cells are pure functions of their inputs,
	// so retries only matter against injected or external transient
	// faults.
	Retries int
	// FailBudget, when positive and KeepGoing is set, abandons the
	// sweep once this many cells have failed; 0 means no limit.
	FailBudget int
	// Failures collects per-cell failures in keep-going mode. Left
	// nil, validate installs a fresh log; callers that want to read
	// the failures afterwards supply their own.
	Failures *FailureLog
	// Checkpoint, when non-nil, replays already-completed cells from
	// the checkpoint file and appends each newly completed cell to
	// it, making the sweep resumable after a crash or kill.
	Checkpoint *Checkpoint
	// FaultSeed, when nonzero, deterministically panics a seeded
	// subset of cells via internal/faultinject — the chaos-testing
	// hook. 0 disables injection.
	FaultSeed uint64

	// Obs, when non-nil, receives per-cell metrics, span timings,
	// scheduler counters, and progress for the whole sweep. A nil Obs
	// costs nothing: every handle downstream is a nil no-op. Obs is
	// reporting-only and deliberately excluded from Fingerprint —
	// toggling observability never invalidates a checkpoint.
	Obs *obs.Run

	// MRCSampleRate is the SHARDS spatial sampling rate in (0, 1) used
	// by the sampled column of the mrc experiment; 0 means the default
	// (see mrcSampleRate). The exact column ignores it.
	MRCSampleRate float64
	// MRCMaxSamples bounds concurrently tracked lines in the sampled
	// column (SHARDS fixed-size mode); 0 means the default.
	MRCMaxSamples int
	// MRCResolution is the capacity step of the miss-ratio curves in
	// bytes; 0 means the default (64KB).
	MRCResolution int
	// MRCMaxBytes is the largest curve capacity in bytes; 0 means the
	// default (4MB).
	MRCMaxBytes int

	// Tenants selects the co-running benchmarks of the partition
	// experiment's tenant mix (2..partition.MaxTenants workload names);
	// empty means the experiment's bundled scenarios. Other
	// experiments ignore it.
	Tenants []string
	// PartitionPolicy restricts the partition experiment to one policy
	// column ("static", "ucp", or "ldis"); empty runs all three.
	PartitionPolicy string
	// EpochAccesses is the partition controller's epoch length in
	// accesses; 0 means the default (see epochAccesses).
	EpochAccesses int

	// OrgToucheSBLines is the orgs experiment's Touché superblock size
	// in lines (power of two >= 2); 0 means the default (4).
	OrgToucheSBLines int
	// OrgCopyBackMaxReuse is the orgs experiment's copy-back admission
	// window in bytes; 0 means the shared cache's size (1MB).
	OrgCopyBackMaxReuse int
	// OrgWayMemoEntries is the orgs experiment's way-memo entries per
	// cache set (power of two in [1, 64]); 0 means the default (4).
	OrgWayMemoEntries int

	// expID is the registry id of the experiment being run, set by
	// Run; it keys checkpoint records and failure rows.
	expID string
}

// DefaultOptions returns a configuration good for interactive use.
func DefaultOptions() Options {
	return Options{Accesses: 1_000_000, WarmupFrac: 0.25}
}

func (o Options) benchmarks() []string {
	if len(o.Benchmarks) > 0 {
		return o.Benchmarks
	}
	return workload.MainNames
}

func (o Options) warmup() int  { return int(float64(o.Accesses) * o.WarmupFrac) }
func (o Options) measure() int { return o.Accesses - o.warmup() }

// mrc option accessors: zero means "default", and the same defaulted
// values feed both the engine configs and the checkpoint fingerprint,
// so an explicit default and an implicit one fingerprint identically.

func (o Options) mrcSampleRate() float64 {
	if o.MRCSampleRate == 0 {
		// 0.1 keeps the SHARDS curve within the 0.02 error budget on
		// every registered benchmark even at short (150k-access) test
		// traces; production-scale MRC studies can lower it.
		return 0.1
	}
	return o.MRCSampleRate
}

func (o Options) mrcMaxSamples() int {
	if o.MRCMaxSamples == 0 {
		return 16 << 10
	}
	return o.MRCMaxSamples
}

func (o Options) mrcResolution() int {
	if o.MRCResolution == 0 {
		return 64 << 10
	}
	return o.MRCResolution
}

func (o Options) mrcMaxBytes() int {
	if o.MRCMaxBytes == 0 {
		return 4 << 20
	}
	return o.MRCMaxBytes
}

// orgs option accessors: zero means "default", and the defaulted
// values feed both the cell configs and the fingerprint, so explicit
// defaults and implicit ones checkpoint identically.

func (o Options) orgToucheSBLines() int {
	if o.OrgToucheSBLines == 0 {
		return 4
	}
	return o.OrgToucheSBLines
}

func (o Options) orgCopyBackMaxReuse() int {
	if o.OrgCopyBackMaxReuse == 0 {
		return orgSizeBytes
	}
	return o.OrgCopyBackMaxReuse
}

func (o Options) orgWayMemoEntries() int {
	if o.OrgWayMemoEntries == 0 {
		return 4
	}
	return o.OrgWayMemoEntries
}

func (o Options) epochAccesses() int {
	if o.EpochAccesses == 0 {
		// ~10 epochs inside a default 100k-access smoke run: enough
		// decisions for the agreement gate to be meaningful, short
		// enough that the controller adapts within a test trace.
		return 10_000
	}
	return o.EpochAccesses
}

// OptionError is one diagnosed problem with an Options value: the
// offending field plus a human-readable message. Validate returns all
// of them joined, so callers (both CLIs) can print the complete
// problem list in one pass instead of fixing flags one at a time.
type OptionError struct {
	Field string // Options field name ("Accesses", "MRCSampleRate", ...)
	Msg   string
}

func (e *OptionError) Error() string { return "exp: " + e.Field + ": " + e.Msg }

// Validate checks every option and normalizes the ones with sensible
// defaults (a KeepGoing run with no Failures log gets a fresh one).
// It returns nil or an errors.Join of *OptionError values — one per
// problem found, never just the first.
func (o *Options) Validate() error {
	var problems []error
	bad := func(field, format string, args ...any) {
		problems = append(problems, &OptionError{Field: field, Msg: fmt.Sprintf(format, args...)})
	}
	if o.Accesses <= 0 {
		bad("Accesses", "must be positive, got %d", o.Accesses)
	}
	if o.WarmupFrac < 0 || o.WarmupFrac >= 1 {
		bad("WarmupFrac", "%v out of [0,1)", o.WarmupFrac)
	}
	if o.Parallel < 0 {
		bad("Parallel", "must be >= 0, got %d", o.Parallel)
	}
	if o.Retries < 0 {
		bad("Retries", "must be >= 0, got %d", o.Retries)
	}
	if o.FailBudget < 0 {
		bad("FailBudget", "must be >= 0, got %d", o.FailBudget)
	}
	if (o.MRCSampleRate < 0 || o.MRCSampleRate >= 1) && o.MRCSampleRate != 0 {
		bad("MRCSampleRate", "%v outside (0,1); the sampled column needs a real sampling rate", o.MRCSampleRate)
	}
	if o.MRCMaxSamples < 0 {
		bad("MRCMaxSamples", "must be >= 0, got %d", o.MRCMaxSamples)
	}
	if o.MRCResolution < 0 || o.MRCMaxBytes < 0 {
		bad("MRCResolution", "MRC curve geometry must be >= 0, got resolution %d max %d", o.MRCResolution, o.MRCMaxBytes)
	} else if o.mrcMaxBytes() < o.mrcResolution() {
		bad("MRCMaxBytes", "%d below MRCResolution %d", o.mrcMaxBytes(), o.mrcResolution())
	}
	if o.KeepGoing && o.Failures == nil {
		o.Failures = NewFailureLog()
	}
	for _, b := range o.Benchmarks {
		if _, err := workload.ByName(b); err != nil {
			problems = append(problems, err)
		}
	}
	if len(o.Tenants) > 0 {
		if len(o.Tenants) < 2 || len(o.Tenants) > partition.MaxTenants {
			bad("Tenants", "a tenant mix needs 2..%d workloads, got %d", partition.MaxTenants, len(o.Tenants))
		}
		for _, b := range o.Tenants {
			if _, err := workload.ByName(b); err != nil {
				problems = append(problems, err)
			}
		}
	}
	if o.PartitionPolicy != "" {
		if _, ok := partition.ByName(o.PartitionPolicy); !ok {
			bad("PartitionPolicy", "unknown policy %q (have %s)", o.PartitionPolicy, strings.Join(partition.PolicyNames, ", "))
		}
	}
	if o.EpochAccesses < 0 {
		bad("EpochAccesses", "must be >= 0, got %d", o.EpochAccesses)
	}
	if s := o.OrgToucheSBLines; s != 0 && (s < 2 || s&(s-1) != 0) {
		bad("OrgToucheSBLines", "superblock of %d lines not a power of two >= 2", s)
	}
	if o.OrgCopyBackMaxReuse < 0 {
		bad("OrgCopyBackMaxReuse", "must be >= 0, got %d", o.OrgCopyBackMaxReuse)
	}
	if e := o.OrgWayMemoEntries; e != 0 && (e < 1 || e > 64 || e&(e-1) != 0) {
		bad("OrgWayMemoEntries", "%d not a power of two in [1, 64]", e)
	}
	return errors.Join(problems...)
}

// baselineConfig builds a traditional cache config of the given size in
// megabytes: the paper grows capacity by adding ways at a fixed 2048
// sets (its 0.75MB LOC is 6 ways of 2048 sets), which keeps every size
// realizable with a power-of-two set count.
func baselineConfig(name string, sizeMB float64) cache.Config {
	const sets = 2048
	bytes := int(sizeMB * (1 << 20))
	ways := bytes / (64 * sets)
	return cache.Config{Name: name, SizeBytes: ways * 64 * sets, Ways: ways}
}

// LDIS configuration variants (Figure 6).
func ldisBase(wocWays int, seed uint64) distill.Config {
	return distill.Config{
		Name: "ldis-base", SizeBytes: 1 << 20, Ways: 8, WOCWays: wocWays, Seed: seed,
	}
}

func ldisMT(wocWays int, seed uint64) distill.Config {
	c := ldisBase(wocWays, seed)
	c.Name = "ldis-mt"
	c.MedianThreshold = true
	return c
}

func ldisMTRC(wocWays int, seed uint64) distill.Config {
	c := ldisMT(wocWays, seed)
	c.Name = "ldis-mt-rc"
	c.Reverter = true
	// The paper's PSEL hysteresis band (64..192) is tuned for 250M
	// instruction traces; our runs are 10-100x shorter, so low-MPKI
	// benchmarks would never accumulate enough leader-set misses to
	// cross it. A narrower band (±16 around the midpoint) preserves the
	// hysteresis mechanism while converging at our trace lengths.
	sc := sampler.DefaultConfig(c.Sets())
	sc.LowWatermark = 112
	sc.HighWatermark = 144
	c.SamplerConfig = &sc
	return c
}

// timedStream wraps a cell's record stream so every NextBatch refill is
// charged to the cell's decode span and the package-wide decode-time
// counter: manifests report record production separately from
// simulation.
type timedStream struct {
	bs trace.BatchStream
	sp *obs.Spans
}

func (t *timedStream) NextBatch(dst []trace.Record) int {
	start := decodeClock.Nanos()
	tok := t.sp.Begin(obs.StageDecode)
	n := t.bs.NextBatch(dst)
	t.sp.End(obs.StageDecode, tok)
	countDecodeNanos(decodeClock.Nanos() - start)
	return n
}

// blockSource yields a cell's records block by block: each call
// returns the next want records, fewer only when the trace ends.
type blockSource func(want int) []trace.Record

// cellBlocks returns the cell's block source. A shared row yields
// zero-copy sub-slices of its trace; otherwise blocks are refilled
// from the cell's own timed stream. Either way each block is one
// decode span, so manifests do not depend on whether a row was shared.
func cellBlocks(prof *benchmark, co *obs.Cell) blockSource {
	if recs := prof.shared(); recs != nil {
		sp := co.Spans()
		return func(want int) []trace.Record {
			tok := sp.Begin(obs.StageDecode)
			want = min(want, len(recs))
			blk := recs[:want]
			recs = recs[want:]
			sp.End(obs.StageDecode, tok)
			return blk
		}
	}
	bs := &timedStream{bs: trace.Batched(prof.Stream()), sp: co.Spans()}
	buf := make([]trace.Record, trace.DefaultBatchSize)
	return func(want int) []trace.Record { return buf[:bs.NextBatch(buf[:want])] }
}

// drive feeds up to n records from next into do in blocks of at most
// trace.DefaultBatchSize records, returning the count fed (short when
// the trace ends).
func drive(next blockSource, n int, do func([]trace.Record)) int {
	done := 0
	for done < n {
		want := min(trace.DefaultBatchSize, n-done)
		blk := next(want)
		do(blk)
		done += len(blk)
		if len(blk) < want {
			break
		}
	}
	return done
}

// runWindowed drives a benchmark through a system with warmup,
// returning the measurement window. Records flow in
// trace.DefaultBatchSize blocks into System.DoBatch: ceil(warmup/B)
// then ceil(measure/B) blocks.
func runWindowed(sys *hierarchy.System, prof *benchmark, o Options, co *obs.Cell) *hierarchy.Window {
	next := cellBlocks(prof, co)
	n := drive(next, o.warmup(), sys.DoBatch)
	w := sys.StartWindow()
	n += drive(next, o.measure(), sys.DoBatch)
	countSimAccesses(n)
	return w
}

// runTradWindowed runs one traditional-cache cell and returns the
// measurement-window totals and the cache.
func runTradWindowed(cfg cache.Config, prof *benchmark, o Options, co *obs.Cell) (hierarchy.WindowTotals, *cache.Cache) {
	sys, c := tradSystem(cfg, co)
	return runWindowed(sys, prof, o, co).Totals(), c
}

// tradSystem builds a traditional-cache system with the cell's
// observability wired in.
func tradSystem(cfg cache.Config, co *obs.Cell) (*hierarchy.System, *cache.Cache) {
	cfg.Obs = co
	return hierarchy.Traditional(cfg)
}

// distillSystem builds a distill-cache system with the cell's
// observability wired in.
func distillSystem(cfg distill.Config, co *obs.Cell) (*hierarchy.System, *distill.Cache) {
	cfg.Obs = co
	return hierarchy.Distill(cfg)
}

// baselineMPKI runs the 1MB 8-way baseline and returns the
// measurement-window totals.
func baselineMPKI(prof *benchmark, o Options, co *obs.Cell) (hierarchy.WindowTotals, *cache.Cache) {
	return runTradWindowed(cache.Config{Name: "base-1MB", SizeBytes: 1 << 20, Ways: 8}, prof, o, co)
}

// Runner is an experiment entry: it produces one or more tables.
type Runner func(Options) ([]*stats.Table, error)

var experiments = map[string]struct {
	About string
	Run   Runner
}{}

func registerExp(id, about string, run Runner) {
	if _, dup := experiments[id]; dup {
		panic("exp: duplicate experiment " + id)
	}
	experiments[id] = struct {
		About string
		Run   Runner
	}{about, run}
}

// IDs lists the registered experiment ids in sorted order.
func IDs() []string {
	ids := make([]string, 0, len(experiments))
	//ldis:nondet-ok key collection only; the slice is sorted immediately below
	for id := range experiments {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// About describes an experiment id.
func About(id string) (string, bool) {
	e, ok := experiments[id]
	if !ok {
		return "", false
	}
	return e.About, true
}

// Describe returns the one-line "id  description" text for an
// experiment, or false for an unknown id. `ldisexp -list` prints one
// line per id, and the unknown-experiment error reuses the exact same
// text, so the error doubles as the listing.
func Describe(id string) (string, bool) {
	e, ok := experiments[id]
	if !ok {
		return "", false
	}
	return fmt.Sprintf("%-20s %s", id, e.About), true
}

// describeAll renders the full experiment listing, one Describe line
// per registered id.
func describeAll() string {
	var b strings.Builder
	for _, id := range IDs() {
		line, _ := Describe(id)
		b.WriteString("  ")
		b.WriteString(line)
		b.WriteString("\n")
	}
	return b.String()
}

// Run executes the experiment with the given id.
func Run(id string, o Options) ([]*stats.Table, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	e, ok := experiments[id]
	if !ok {
		return nil, fmt.Errorf("exp: unknown experiment %q; valid experiments:\n%s", id, describeAll())
	}
	o.expID = id
	return e.Run(o)
}

// ManifestParams returns the result-relevant options as strings, for
// the run manifest's params block. Scheduling knobs stay out — they
// cannot change results — mirroring the Fingerprint field set.
func (o Options) ManifestParams() map[string]string {
	return map[string]string{
		"accesses":               fmt.Sprint(o.Accesses),
		"warmup_frac":            fmt.Sprint(o.WarmupFrac),
		"benchmarks":             strings.Join(o.benchmarks(), ","),
		"mrc_sample_rate":        fmt.Sprint(o.mrcSampleRate()),
		"mrc_max_samples":        fmt.Sprint(o.mrcMaxSamples()),
		"mrc_resolution":         fmt.Sprint(o.mrcResolution()),
		"mrc_max_bytes":          fmt.Sprint(o.mrcMaxBytes()),
		"tenants":                strings.Join(o.Tenants, ","),
		"partition_policy":       o.PartitionPolicy,
		"epoch_accesses":         fmt.Sprint(o.epochAccesses()),
		"org_touche_sb_lines":    fmt.Sprint(o.orgToucheSBLines()),
		"org_copyback_max_reuse": fmt.Sprint(o.orgCopyBackMaxReuse()),
		"org_waymemo_entries":    fmt.Sprint(o.orgWayMemoEntries()),
	}
}
