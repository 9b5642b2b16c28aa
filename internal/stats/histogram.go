// Package stats provides the counting, histogram, and table-rendering
// utilities shared by the simulator components and the experiment
// harness. Everything here is plain arithmetic over uint64 counters so
// that simulations stay allocation-free on the hot path.
package stats

import "fmt"

// Histogram is a fixed-bucket histogram over small integer outcomes
// (words used per line, recency positions, compressibility classes...).
type Histogram struct {
	name    string
	buckets []uint64
}

// NewHistogram creates a histogram with n buckets labelled 0..n-1.
func NewHistogram(name string, n int) *Histogram {
	if n <= 0 {
		panic(fmt.Sprintf("stats: histogram %q needs at least one bucket, got %d", name, n))
	}
	return &Histogram{name: name, buckets: make([]uint64, n)}
}

// Name returns the histogram's label.
func (h *Histogram) Name() string { return h.name }

// Len returns the number of buckets.
func (h *Histogram) Len() int { return len(h.buckets) }

// Add increments bucket i. Out-of-range values clamp to the end buckets
// so callers never lose samples.
func (h *Histogram) Add(i int) {
	switch {
	case i < 0:
		h.buckets[0]++
	case i >= len(h.buckets):
		h.buckets[len(h.buckets)-1]++
	default:
		h.buckets[i]++
	}
}

// AddN increments bucket i by n.
func (h *Histogram) AddN(i int, n uint64) {
	switch {
	case i < 0:
		h.buckets[0] += n
	case i >= len(h.buckets):
		h.buckets[len(h.buckets)-1] += n
	default:
		h.buckets[i] += n
	}
}

// Count returns the value of bucket i.
func (h *Histogram) Count(i int) uint64 {
	if i < 0 || i >= len(h.buckets) {
		return 0
	}
	return h.buckets[i]
}

// Total returns the sum over all buckets.
func (h *Histogram) Total() uint64 {
	var t uint64
	for _, b := range h.buckets {
		t += b
	}
	return t
}

// Fraction returns bucket i as a fraction of the total, or 0 if empty.
func (h *Histogram) Fraction(i int) float64 {
	t := h.Total()
	if t == 0 {
		return 0
	}
	return float64(h.Count(i)) / float64(t)
}

// Fractions returns every bucket as a fraction of the total.
func (h *Histogram) Fractions() []float64 {
	fs := make([]float64, len(h.buckets))
	t := h.Total()
	if t == 0 {
		return fs
	}
	for i, b := range h.buckets {
		fs[i] = float64(b) / float64(t)
	}
	return fs
}

// Mean returns the average bucket index weighted by counts. For a
// words-used histogram indexed 0..8 this is the paper's "average number
// of words used".
func (h *Histogram) Mean() float64 {
	t := h.Total()
	if t == 0 {
		return 0
	}
	var sum uint64
	for i, b := range h.buckets {
		sum += uint64(i) * b
	}
	return float64(sum) / float64(t)
}

// Median returns the smallest bucket index at which the cumulative count
// reaches half the total, computed exactly the way the paper's
// median-threshold hardware does (Section 5.4): add counts from the
// first counter until one-half of the eviction-sum is reached.
func (h *Histogram) Median() int {
	t := h.Total()
	if t == 0 {
		return len(h.buckets) - 1
	}
	half := (t + 1) / 2
	var cum uint64
	for i, b := range h.buckets {
		cum += b
		if cum >= half {
			return i
		}
	}
	return len(h.buckets) - 1
}

// Reset zeroes all buckets.
func (h *Histogram) Reset() {
	for i := range h.buckets {
		h.buckets[i] = 0
	}
}

// Clone returns a copy of the histogram.
func (h *Histogram) Clone() *Histogram {
	c := NewHistogram(h.name, len(h.buckets))
	copy(c.buckets, h.buckets)
	return c
}

// String renders the histogram compactly for debugging.
func (h *Histogram) String() string {
	return fmt.Sprintf("%s%v", h.name, h.buckets)
}
