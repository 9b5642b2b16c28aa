package partition

import (
	"fmt"

	"ldis/internal/mem"
	"ldis/internal/mrc"
	"ldis/internal/obs"
)

// MaxTenants bounds the tenants one controller can manage; it matches
// cache.MaxPartitionTenants so every allocation the controller emits
// is enforceable, and lets the per-epoch Decision record use fixed
// arrays instead of allocating.
const MaxTenants = 8

// Config parameterizes one Controller.
type Config struct {
	// Tenants is the number of sharers (2..MaxTenants).
	Tenants int
	// TotalWays is the shared cache's associativity being divided.
	TotalWays int
	// WayBytes is the capacity one way represents (sets × 64B); it is
	// also the resolution of the demand curves, so allocations map
	// one-to-one onto curve points.
	WayBytes int
	// EpochAccesses is the epoch length in Observe calls summed across
	// tenants; every epoch ends with one allocation decision.
	EpochAccesses int
	// Policy converts demand curves into allocations.
	Policy Policy
	// MinWays floors every tenant's allocation; 0 means 1 (no tenant is
	// ever starved to zero ways).
	MinWays int
	// Hysteresis is the minimum predicted fractional miss saving a new
	// allocation must offer before it is adopted; 0 means the default
	// 0.02. Repartitioning is not free in hardware (quota drain churns
	// the sets), so allocations within the band stay put.
	Hysteresis float64
	// DecayAlpha scales the curve histograms at each epoch boundary
	// (exponential sliding window); 0 means the default 0.5.
	DecayAlpha float64
	// Shadow additionally runs exact-Mattson engines beside the sampled
	// ones and records, per epoch, the allocation the exact curves
	// would pick — the online-vs-exact validation the partition smoke
	// gate asserts on.
	Shadow bool
	// SampleRate is the SHARDS rate of the online engines; 0 means the
	// default 0.1.
	SampleRate float64
	// MaxSamples bounds concurrently tracked lines per online engine
	// (SHARDS fixed-size mode); 0 means the default 16384.
	MaxSamples int
	// Seed perturbs the engines' spatial hashes; each tenant's engine
	// is salted independently from it.
	Seed uint64
	// AccessBudget is the maximum total Observe calls over the
	// controller's lifetime; it sizes the engines and the curve and
	// decision logs.
	AccessBudget int
	// Obs, when non-nil, receives the epoch/rebalance counters and the
	// rebalance span timings for the owning grid cell.
	Obs *obs.Cell
}

func (c Config) minWays() int {
	if c.MinWays == 0 {
		return 1
	}
	return c.MinWays
}

func (c Config) hysteresis() float64 {
	if c.Hysteresis == 0 {
		return 0.02
	}
	return c.Hysteresis
}

func (c Config) decayAlpha() float64 {
	if c.DecayAlpha == 0 {
		return 0.5
	}
	return c.DecayAlpha
}

func (c Config) sampleRate() float64 {
	if c.SampleRate == 0 {
		return 0.1
	}
	return c.SampleRate
}

func (c Config) maxSamples() int {
	if c.MaxSamples == 0 {
		return 16 << 10
	}
	return c.MaxSamples
}

// validateCurves checks the fields the curve engines and the epoch
// clock depend on; validate adds the decider's policy.
func (c Config) validateCurves() error {
	if c.Tenants < 2 || c.Tenants > MaxTenants {
		return fmt.Errorf("partition: %d tenants outside [2, %d]", c.Tenants, MaxTenants)
	}
	if c.TotalWays < c.Tenants*c.minWays() {
		return fmt.Errorf("partition: %d ways cannot grant %d tenants %d each", c.TotalWays, c.Tenants, c.minWays())
	}
	if c.WayBytes < mem.LineSize {
		return fmt.Errorf("partition: way capacity %dB below the line size", c.WayBytes)
	}
	if c.EpochAccesses <= 0 {
		return fmt.Errorf("partition: non-positive epoch length %d", c.EpochAccesses)
	}
	if c.Hysteresis < 0 || c.DecayAlpha < 0 || c.DecayAlpha > 1 {
		return fmt.Errorf("partition: hysteresis %g / decay %g out of range", c.Hysteresis, c.DecayAlpha)
	}
	if c.AccessBudget <= 0 {
		return fmt.Errorf("partition: non-positive access budget %d", c.AccessBudget)
	}
	return nil
}

func (c Config) validate() error {
	if err := c.validateCurves(); err != nil {
		return err
	}
	if c.Policy == nil {
		return fmt.Errorf("partition: nil policy")
	}
	return nil
}

// Decision records one epoch boundary: what the policy proposed from
// the online curves, what is in force after hysteresis, and (under
// Shadow) what the exact curves would have picked. Fixed arrays keep
// the record allocation-free; entries beyond the tenant count are zero.
type Decision struct {
	Epoch int
	// Proposed is the policy's allocation from the online (sampled)
	// curves; Adopted is the allocation in force afterwards.
	Proposed [MaxTenants]uint8
	Adopted  [MaxTenants]uint8
	// Exact is the policy's allocation from the shadow exact curves
	// (valid only when the controller runs with Shadow).
	Exact [MaxTenants]uint8
	// LineAlloc and WordAlloc are the lookahead allocations at each
	// grain — the per-epoch evidence of where distillation changes the
	// decision.
	LineAlloc [MaxTenants]uint8
	WordAlloc [MaxTenants]uint8
	// Changed reports whether Proposed cleared the hysteresis band and
	// was adopted.
	Changed bool
	// AgreeWithin1 reports whether Proposed and Exact agree within one
	// way on every tenant (valid under Shadow).
	AgreeWithin1 bool
	// GrainsDiffer reports whether LineAlloc and WordAlloc differ.
	GrainsDiffer bool
	// PredictedSaving is the fractional miss reduction Proposed
	// promised over keeping the current allocation.
	PredictedSaving float64
}

// Controller drives the epoch loop: Observe advances the epoch clock,
// and every EpochAccesses accesses the controller re-runs the policy
// and, past hysteresis, adopts a new allocation. It is the decider
// half of the split described in curvelog.go: it reads every epoch's
// demand vectors from a CurveLog, which a live controller
// (NewController) fills from its own engines as it goes and a
// replaying one (NewReplayController) takes pre-recorded. All state is
// preallocated at construction — the per-epoch decision path does not
// allocate (pinned by AllocsPerRun) — and nothing here uses
// goroutines, maps, or the wall clock, so controllers are
// deterministic at any scheduling.
type Controller struct {
	cfg Config
	n   int
	rec *Recorder // live curve engines; nil when replaying
	log *CurveLog

	alloc []int // allocation in force
	seen  int
	epoch int

	rebalances   int
	shadowEpochs int
	agreeEpochs  int
	grainDiffers int

	decisions []Decision

	// Per-epoch proposal buffers, preallocated.
	proposed, exactProp []int
	lineProp, wordProp  []int

	spans         *obs.Spans
	obsEpochs     *obs.Counter
	obsRebalances *obs.Counter
	obsAgree      *obs.Counter
}

// NewController builds a live controller — one that runs its own curve
// engines — with the initial allocation set to the equal split.
func NewController(cfg Config) (*Controller, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rec, err := NewRecorder(cfg)
	if err != nil {
		return nil, err
	}
	return newController(cfg, rec, rec.log), nil
}

// NewReplayController builds a controller that runs no engines: its
// epoch decisions read the demands a Recorder logged over the same
// tenant stream. cfg must match the recording's curve configuration
// (tenants, geometry, epoch length, decay, sampling, seed, Shadow);
// Policy, MinWays, Hysteresis and Obs are the replay's own. Driven
// with the recorded stream's Observe sequence, it makes exactly the
// decisions a live controller with cfg would.
func NewReplayController(cfg Config, log *CurveLog) (*Controller, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if !log.finished() {
		return nil, fmt.Errorf("partition: replaying an unfinished curve log")
	}
	if log.key != cfg.curveKey() {
		return nil, fmt.Errorf("partition: curve log recorded under %+v, replayed under %+v", log.key, cfg.curveKey())
	}
	return newController(cfg, nil, log), nil
}

func newController(cfg Config, rec *Recorder, log *CurveLog) *Controller {
	n := cfg.Tenants
	c := &Controller{
		cfg:       cfg,
		n:         n,
		rec:       rec,
		log:       log,
		alloc:     make([]int, n),
		decisions: make([]Decision, 0, cfg.maxEpochs()),
		proposed:  make([]int, n),
		exactProp: make([]int, n),
		lineProp:  make([]int, n),
		wordProp:  make([]int, n),
	}
	equalSplit(cfg.TotalWays, c.alloc)
	c.spans = cfg.Obs.Spans()
	c.obsEpochs = cfg.Obs.Counter("partition_epochs")
	c.obsRebalances = cfg.Obs.Counter("partition_rebalances")
	c.obsAgree = cfg.Obs.Counter("partition_agree_epochs")
	return c
}

// Observe feeds one data access by the given tenant through the live
// curve engines (a replaying controller has none) and advances the
// epoch clock. It returns true when this access closed an epoch whose
// decision changed the allocation — the caller's cue to re-read Alloc
// and push new quotas into the enforced caches.
func (c *Controller) Observe(tenant int, line mem.LineAddr, word int) bool {
	if c.rec != nil {
		c.rec.access(tenant, line, word)
	}
	c.seen++
	if c.seen >= c.cfg.EpochAccesses {
		return c.endEpoch()
	}
	return false
}

// endEpoch runs one allocation decision: take the epoch's expected-
// miss demands from the curve log (closing the live engines' epoch
// into it first), run the policy, and adopt its proposal iff it
// differs and clears the hysteresis band. Under Shadow the policy
// re-runs on the exact demands for the agreement metric.
func (c *Controller) endEpoch() bool {
	tok := c.spans.Begin(obs.StageRebalance)
	if c.rec != nil {
		c.rec.closeEpoch()
	}
	cur := c.log.epochCurves(c.epoch)
	c.epoch++
	min := c.cfg.minWays()
	word := c.cfg.Policy.Grain() == GrainWord
	lineDemand, wordDemand := cur[onlineLine], cur[onlineWord]
	demands := lineDemand
	if word {
		demands = wordDemand
	}
	c.cfg.Policy.Allocate(demands, c.cfg.TotalWays, min, c.proposed)
	lookahead(lineDemand, c.cfg.TotalWays, min, c.lineProp)
	lookahead(wordDemand, c.cfg.TotalWays, min, c.wordProp)

	keep, move := 0.0, 0.0
	differs := false
	for t := 0; t < c.n; t++ {
		keep += demands[t][c.alloc[t]]
		move += demands[t][c.proposed[t]]
		if c.proposed[t] != c.alloc[t] {
			differs = true
		}
	}
	saving := 0.0
	if keep > 0 {
		saving = (keep - move) / keep
	}
	changed := differs && saving >= c.cfg.hysteresis()

	d := Decision{Epoch: c.epoch, PredictedSaving: saving, Changed: changed}
	for t := 0; t < c.n; t++ {
		d.Proposed[t] = uint8(c.proposed[t])
		d.LineAlloc[t] = uint8(c.lineProp[t])
		d.WordAlloc[t] = uint8(c.wordProp[t])
		if c.lineProp[t] != c.wordProp[t] {
			d.GrainsDiffer = true
		}
	}
	if d.GrainsDiffer {
		c.grainDiffers++
	}
	if changed {
		copy(c.alloc, c.proposed)
		c.rebalances++
		c.obsRebalances.Inc()
	}
	for t := 0; t < c.n; t++ {
		d.Adopted[t] = uint8(c.alloc[t])
	}

	if c.cfg.Shadow {
		exactDemand := cur[exactLine]
		if word {
			exactDemand = cur[exactWord]
		}
		c.cfg.Policy.Allocate(exactDemand, c.cfg.TotalWays, min, c.exactProp)
		agree := true
		for t := 0; t < c.n; t++ {
			d.Exact[t] = uint8(c.exactProp[t])
			if diff := c.exactProp[t] - c.proposed[t]; diff > 1 || diff < -1 {
				agree = false
			}
		}
		d.AgreeWithin1 = agree
		c.shadowEpochs++
		if agree {
			c.agreeEpochs++
			c.obsAgree.Inc()
		}
	}

	if len(c.decisions) == cap(c.decisions) {
		panic("partition: decision log overflow; size Config.AccessBudget with the full trace length")
	}
	c.decisions = append(c.decisions, d)
	c.seen = 0
	c.obsEpochs.Inc()
	c.spans.End(obs.StageRebalance, tok)
	return changed
}

// Alloc returns the allocation currently in force (live slice; callers
// must not modify it).
func (c *Controller) Alloc() []int { return c.alloc }

// Decisions returns every epoch decision so far (live slice).
func (c *Controller) Decisions() []Decision { return c.decisions }

// Epochs returns how many epoch decisions have run.
func (c *Controller) Epochs() int { return c.epoch }

// Rebalances returns how many decisions changed the allocation.
func (c *Controller) Rebalances() int { return c.rebalances }

// Agreement returns the shadow validation tally: epochs where the
// online proposal matched the exact one within one way on every
// tenant, over the epochs validated (zero-zero without Shadow).
func (c *Controller) Agreement() (agree, total int) {
	return c.agreeEpochs, c.shadowEpochs
}

// GrainDisagreements returns how many epochs picked different
// allocations at line vs word grain — where distillation changed the
// decision.
func (c *Controller) GrainDisagreements() int { return c.grainDiffers }

// Curves returns the named line- and word-grain curves of one tenant's
// online engine: the decayed sliding-window view at the current moment
// for a live controller, the view at the end of the recording for a
// replaying one.
func (c *Controller) Curves(tenant int, name string) (line, word mrc.Curve) {
	if c.rec != nil {
		return c.rec.curves(tenant, name)
	}
	return c.log.curves(tenant, name)
}
