// Package partition implements online way-partitioning of one shared
// L2 across N tenants, driven by live per-tenant miss-ratio curves.
//
// The Controller samples every tenant's reference stream through a
// SHARDS miss-ratio-curve engine (internal/mrc) and, at the end of
// each epoch, converts the curves into per-tenant demand vectors —
// expected epoch misses as a function of granted ways — which a Policy
// turns into a ways allocation. A hysteresis band keeps the allocation
// stable unless the predicted saving is worth the churn, and the
// adopted allocation is enforced by the cache organizations' victim
// selection (cache.SetPartition / distill.SetPartition): partitioning
// constrains replacement, never lookup, matching way-partitioned
// hardware. The curves do not depend on the policy, so a Recorder can
// log them once for a tenant stream and controllers for any number of
// policies can replay the log (see curvelog.go).
//
// Three policies ship behind the Policy interface:
//
//   - Static: fixed equal (or caller-specified) shares, the baseline
//     every utility-driven allocator must beat;
//   - UCP: Qureshi & Patt's lookahead marginal-utility algorithm over
//     the line-grain curves — the conventional utility-based cache
//     partitioning;
//   - LDISAware: the same lookahead over the distilled word-grain
//     curves, so a tenant whose lines distill densely (few used words)
//     presents a smaller effective demand and frees ways for its
//     neighbours.
package partition

// Grain selects which of the dual-grain miss-ratio curves feeds a
// policy: line grain prices every cached line at 64B (a conventional
// cache), word grain at its distilled word-slot allocation.
type Grain uint8

const (
	// GrainLine is the conventional line-grain curve.
	GrainLine Grain = iota
	// GrainWord is the distilled word-grain curve.
	GrainWord
)

// String returns the grain's display name.
func (g Grain) String() string {
	if g == GrainWord {
		return "word"
	}
	return "line"
}

// Policy maps per-tenant demand curves to a ways allocation.
// demands[t][w] is tenant t's expected epoch misses were it granted w
// ways (length totalWays+1, non-increasing in w). Allocate writes the
// chosen allocation into out (one entry per tenant): every entry at
// least minWays, entries summing to totalWays. Implementations must be
// deterministic and allocation-free — Allocate sits on the
// controller's per-epoch decision path, which is AllocsPerRun-pinned.
type Policy interface {
	Name() string
	Grain() Grain
	Allocate(demands [][]float64, totalWays, minWays int, out []int)
}

// Static partitions the ways once and ignores the curves: equal shares
// by default, or the fixed Shares when provided (must sum to the total
// ways, one entry per tenant). It is the paper-style baseline the
// utility-driven policies are measured against.
type Static struct {
	Shares []int
}

// Name implements Policy.
func (Static) Name() string { return "static" }

// Grain implements Policy (the curves are unused; line is reported).
func (Static) Grain() Grain { return GrainLine }

// Allocate implements Policy.
func (s Static) Allocate(demands [][]float64, totalWays, minWays int, out []int) {
	if len(s.Shares) == len(out) {
		copy(out, s.Shares)
		return
	}
	equalSplit(totalWays, out)
}

// equalSplit writes an equal division of totalWays into out, handing
// the remainder to the lowest tenant indices.
func equalSplit(totalWays int, out []int) {
	n := len(out)
	base := totalWays / n
	rem := totalWays - base*n
	for i := range out {
		out[i] = base
		if i < rem {
			out[i]++
		}
	}
}

// UCP is utility-based cache partitioning (Qureshi & Patt): the
// lookahead algorithm repeatedly grants the block of ways with the
// highest marginal utility — misses saved per way — until the ways run
// out, over the conventional line-grain curves.
type UCP struct{}

// Name implements Policy.
func (UCP) Name() string { return "ucp" }

// Grain implements Policy.
func (UCP) Grain() Grain { return GrainLine }

// Allocate implements Policy.
func (UCP) Allocate(demands [][]float64, totalWays, minWays int, out []int) {
	lookahead(demands, totalWays, minWays, out)
}

// LDISAware is the lookahead allocation over the distilled word-grain
// curves: distillation shrinks a tenant's effective demand (unused
// words are never stored), so the allocator sees how few ways a
// densely-distilling tenant really needs and reassigns the rest.
type LDISAware struct{}

// Name implements Policy.
func (LDISAware) Name() string { return "ldis" }

// Grain implements Policy.
func (LDISAware) Grain() Grain { return GrainWord }

// Allocate implements Policy.
func (LDISAware) Allocate(demands [][]float64, totalWays, minWays int, out []int) {
	lookahead(demands, totalWays, minWays, out)
}

// lookahead is the UCP lookahead algorithm: start every tenant at
// minWays, then repeatedly award the (tenant, block-size) pair with
// the maximum marginal utility (d[cur]-d[cur+b])/b until the balance
// is spent. Looking ahead across block sizes — not just one way at a
// time — lets it see past the flat regions of saturating-utility
// curves. Ties break to the lowest tenant index and smallest block, so
// the result is deterministic. Demand curves are non-increasing, so
// utilities are never negative; when every remaining utility is zero
// the balance goes to the first tenant able to hold it.
func lookahead(demands [][]float64, totalWays, minWays int, out []int) {
	n := len(out)
	for i := range out {
		out[i] = minWays
	}
	balance := totalWays - n*minWays
	for balance > 0 {
		best, bestB := -1, 0
		bestMU := -1.0
		for t := 0; t < n; t++ {
			d := demands[t]
			cur := out[t]
			maxB := balance
			if cur+maxB > len(d)-1 {
				maxB = len(d) - 1 - cur
			}
			for b := 1; b <= maxB; b++ {
				if mu := (d[cur] - d[cur+b]) / float64(b); mu > bestMU {
					best, bestB, bestMU = t, b, mu
				}
			}
		}
		if best < 0 {
			// Every tenant is at its curve's end; hand the leftovers out
			// round-robin so the allocation still sums to totalWays.
			for t := 0; balance > 0; t = (t + 1) % n {
				out[t]++
				balance--
			}
			return
		}
		out[best] += bestB
		balance -= bestB
	}
}

// ByName returns the registered policy with the given name ("static",
// "ucp", or "ldis"), or false.
func ByName(name string) (Policy, bool) {
	switch name {
	case "static":
		return Static{}, true
	case "ucp":
		return UCP{}, true
	case "ldis":
		return LDISAware{}, true
	}
	return nil, false
}

// PolicyNames lists the registered policy names in column order.
var PolicyNames = []string{"static", "ucp", "ldis"}
