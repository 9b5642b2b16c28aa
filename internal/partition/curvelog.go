package partition

import (
	"fmt"

	"ldis/internal/mem"
	"ldis/internal/mrc"
)

// A controller splits into two halves. The curve half — the
// per-tenant SHARDS engines, their exact shadows, the epoch clock and
// the decay between epochs — depends only on the interleaved tenant
// stream and the curve configuration, never on the policy or on the
// cache being steered. The decider half (Controller.endEpoch) turns
// each epoch's curves into an allocation. The CurveLog is the seam
// between them: a Recorder closes every epoch's curves into it, and
// the decider reads them back. A live controller owns a Recorder and
// fills its log as it goes; a replaying controller reads a log
// recorded earlier, so several policies over one tenant stream can
// share a single engine pass.

// Curve kinds a CurveLog holds per epoch and tenant.
const (
	onlineLine = iota
	onlineWord
	exactLine // exact kinds are present only under Shadow
	exactWord
	curveKinds
)

// curveKey is the part of a Config the recorded curves depend on, with
// defaults resolved: a replay must match its log's key exactly.
type curveKey struct {
	Tenants, TotalWays, WayBytes, EpochAccesses int
	DecayAlpha, SampleRate                      float64
	MaxSamples                                  int
	Seed                                        uint64
	Shadow                                      bool
}

func (c Config) curveKey() curveKey {
	return curveKey{
		Tenants: c.Tenants, TotalWays: c.TotalWays, WayBytes: c.WayBytes, EpochAccesses: c.EpochAccesses,
		DecayAlpha: c.decayAlpha(), SampleRate: c.sampleRate(), MaxSamples: c.maxSamples(),
		Seed: c.Seed, Shadow: c.Shadow,
	}
}

// maxEpochs is the number of epoch boundaries an AccessBudget-long run
// can cross, plus slack; it sizes the curve and decision logs.
func (c Config) maxEpochs() int { return c.AccessBudget/c.EpochAccesses + 2 }

// epochCurves is one epoch's demand vectors: [kind][tenant][ways],
// where entry w is the tenant's expected epoch misses were it granted
// w ways (its miss ratio at w × WayBytes times its epoch references).
type epochCurves [curveKinds][][]float64

// CurveLog is the policy-independent record of one tenant stream's
// curves: every epoch's demand vectors at both grains, online and
// (under Shadow) exact, plus each tenant's final online line and word
// curves. It is written by one Recorder and read-only once finished,
// so any number of replaying controllers may share it.
type CurveLog struct {
	key    curveKey
	epochs []epochCurves // preallocated; the first n are recorded
	n      int
	// line and word are the final online curves; nil until Finish.
	line, word []mrc.Curve
}

func newCurveLog(cfg Config) *CurveLog {
	kinds := exactLine
	if cfg.Shadow {
		kinds = curveKinds
	}
	l := &CurveLog{key: cfg.curveKey(), epochs: make([]epochCurves, cfg.maxEpochs())}
	n := cfg.Tenants
	vecs := makeVectors(len(l.epochs)*kinds*n, cfg.TotalWays+1)
	for e := range l.epochs {
		for k := 0; k < kinds; k++ {
			i := (e*kinds + k) * n
			l.epochs[e][k] = vecs[i : i+n : i+n]
		}
	}
	return l
}

// makeVectors carves n float64 vectors of the given width out of one
// backing array.
func makeVectors(n, width int) [][]float64 {
	backing := make([]float64, n*width)
	out := make([][]float64, n)
	for i := range out {
		out[i] = backing[i*width : (i+1)*width : (i+1)*width]
	}
	return out
}

func (l *CurveLog) finished() bool { return l.line != nil }

// next returns the slot for the next epoch to record.
func (l *CurveLog) next() *epochCurves {
	if l.n == len(l.epochs) {
		panic("partition: curve log overflow; size Config.AccessBudget with the full trace length")
	}
	l.n++
	return &l.epochs[l.n-1]
}

// epochCurves returns recorded epoch e (0-based).
func (l *CurveLog) epochCurves(e int) *epochCurves {
	if e >= l.n {
		panic(fmt.Sprintf("partition: epoch %d past the %d recorded; replay the stream the log was recorded from", e+1, l.n))
	}
	return &l.epochs[e]
}

// curves returns one tenant's final curves under the given name.
func (l *CurveLog) curves(tenant int, name string) (line, word mrc.Curve) {
	line, word = l.line[tenant], l.word[tenant]
	line.Name, word.Name = name+" line", name+" word"
	return line, word
}

// Recorder runs the curve half of a controller: per tenant an online
// SHARDS engine (plus an exact shadow under Shadow), an epoch clock,
// and the decay between epochs. Every EpochAccesses accesses it closes
// the engines' curves into its CurveLog. It ignores Config.Policy and
// Config.Obs.
type Recorder struct {
	cfg       Config
	engines   []*mrc.Engine // online SHARDS-sampled, one per tenant
	exact     []*mrc.Engine // shadow exact engines (nil unless Shadow)
	epochRefs []float64
	seen      int
	log       *CurveLog
}

// NewRecorder builds a recorder for cfg, its log preallocated to the
// epochs an AccessBudget-long stream crosses.
func NewRecorder(cfg Config) (*Recorder, error) {
	if err := cfg.validateCurves(); err != nil {
		return nil, err
	}
	n := cfg.Tenants
	r := &Recorder{
		cfg:       cfg,
		engines:   make([]*mrc.Engine, n),
		epochRefs: make([]float64, n),
	}
	ecfg := mrc.Config{
		MaxBytes:        cfg.TotalWays * cfg.WayBytes,
		ResolutionBytes: cfg.WayBytes,
		SampleRate:      cfg.sampleRate(),
	}
	if ecfg.SampleRate < 1 {
		// Fixed-size SHARDS only applies below rate 1; an exact online
		// engine (SampleRate ≥ 1, used by tests) takes no sample cap.
		ecfg.MaxSamples = cfg.maxSamples()
	}
	// Every engine gets the full budget: interleaving usually splits
	// accesses evenly, but nothing stops one tenant's stream from
	// dominating, and an engine past its budget panics. The budget
	// only caps each engine's Fenwick tree, which grows with its clock.
	for t := 0; t < n; t++ {
		ecfg.Seed = cfg.Seed + uint64(t)*0x9e3779b97f4a7c15
		eng, err := mrc.New(ecfg, cfg.AccessBudget)
		if err != nil {
			return nil, err
		}
		r.engines[t] = eng
	}
	if cfg.Shadow {
		r.exact = make([]*mrc.Engine, n)
		xcfg := mrc.Config{MaxBytes: ecfg.MaxBytes, ResolutionBytes: ecfg.ResolutionBytes}
		for t := 0; t < n; t++ {
			eng, err := mrc.New(xcfg, cfg.AccessBudget)
			if err != nil {
				return nil, err
			}
			r.exact[t] = eng
		}
	}
	r.log = newCurveLog(cfg)
	return r, nil
}

// Observe feeds one data access by the given tenant through its
// engines and, every EpochAccesses accesses, closes the epoch into the
// log — the epoch boundaries a controller driven by the same Observe
// sequence decides at.
func (r *Recorder) Observe(tenant int, line mem.LineAddr, word int) {
	r.access(tenant, line, word)
	if r.seen >= r.cfg.EpochAccesses {
		r.closeEpoch()
	}
}

func (r *Recorder) access(tenant int, line mem.LineAddr, word int) {
	r.engines[tenant].Access(line, word)
	if r.exact != nil {
		r.exact[tenant].Access(line, word)
	}
	r.epochRefs[tenant]++
	r.seen++
}

// closeEpoch logs every curve's demand vector — miss ratios scaled by
// the tenant's epoch reference count — then decays the engines so the
// next epoch sees a recency-weighted window.
func (r *Recorder) closeEpoch() {
	cur := r.log.next()
	alpha := r.cfg.decayAlpha()
	for t, eng := range r.engines {
		refs := r.epochRefs[t]
		eng.FillLineMissRatios(cur[onlineLine][t], r.cfg.WayBytes)
		eng.FillWordMissRatios(cur[onlineWord][t], r.cfg.WayBytes)
		scale(cur[onlineLine][t], refs)
		scale(cur[onlineWord][t], refs)
		eng.DecayCounts(alpha)
		if r.exact != nil {
			x := r.exact[t]
			x.FillLineMissRatios(cur[exactLine][t], r.cfg.WayBytes)
			x.FillWordMissRatios(cur[exactWord][t], r.cfg.WayBytes)
			scale(cur[exactLine][t], refs)
			scale(cur[exactWord][t], refs)
			x.DecayCounts(alpha)
		}
		r.epochRefs[t] = 0
	}
	r.seen = 0
}

func scale(v []float64, by float64) {
	for i := range v {
		v[i] *= by
	}
}

// curves returns the named curves of one tenant's online engine at the
// current moment.
func (r *Recorder) curves(tenant int, name string) (line, word mrc.Curve) {
	return r.engines[tenant].LineCurve(name + " line"), r.engines[tenant].WordCurve(name + " word")
}

// Finish ends the recording: it snapshots each tenant's online curves
// — what a live controller's Curves reports at this point — into the
// log and returns the log, ready to replay. The Recorder must not be
// used afterwards.
func (r *Recorder) Finish() *CurveLog {
	l := r.log
	l.line = make([]mrc.Curve, len(r.engines))
	l.word = make([]mrc.Curve, len(r.engines))
	for t := range r.engines {
		l.line[t], l.word[t] = r.curves(t, "")
	}
	return l
}
