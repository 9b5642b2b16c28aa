package main

import (
	"time"

	"ldis/internal/hierarchy"
	"ldis/internal/mem"
	"ldis/internal/trace"
)

// The traced run times calls into each layer from outside, through the
// layers' public interfaces. Hot per-access calls are sampled one in
// sampleEvery, keyed by the call count as obs.Spans does, so the cost
// of reading the clock stays small next to the call being timed.
const sampleEvery = 64

var epoch = time.Now()

// nanotime reads the monotonic clock.
func nanotime() int64 { return int64(time.Since(epoch)) }

// span aggregates the timings of one kind of call.
type span struct {
	calls uint64
	timed uint64
	ns    int64
}

// begin counts a call and returns its start time when the call is
// sampled, or -1.
func (s *span) begin() int64 {
	s.calls++
	if (s.calls-1)%sampleEvery != 0 {
		return -1
	}
	return nanotime()
}

// beginAlways counts a call and times it unconditionally, for calls
// that are rare or coarse enough that the clock does not matter.
func (s *span) beginAlways() int64 {
	s.calls++
	return nanotime()
}

func (s *span) end(start int64) {
	if start < 0 {
		return
	}
	s.timed++
	s.ns += nanotime() - start
}

// meanNs is the mean duration of the timed calls less the cost of the
// timing itself (clockNs), or 0 when nothing was timed.
func (s *span) meanNs(clockNs float64) float64 {
	if s.timed == 0 {
		return 0
	}
	return max(float64(s.ns)/float64(s.timed)-clockNs, 0)
}

// totalNs estimates the time of all calls, sampled or not.
func (s *span) totalNs(clockNs float64) float64 { return s.meanNs(clockNs) * float64(s.calls) }

// clockOverheadNs measures what an empty timed region costs, so span
// means report the call and not the clock reads around it.
func clockOverheadNs() float64 {
	const n = 1 << 16
	var total int64
	for i := 0; i < n; i++ {
		t0 := nanotime()
		total += nanotime() - t0
	}
	return float64(total) / n
}

// timingL2 decorates a hierarchy.L2 with call timing. The wrapped
// organization does all the work, so a system built on the decorator
// simulates exactly what one built on the bare L2 does.
type timingL2 struct {
	inner     hierarchy.L2
	access    *span // Access and AccessInstr
	writeback *span // WritebackFromL1
}

func (t *timingL2) Access(la mem.LineAddr, word int, pc mem.Addr, write bool) (hierarchy.Class, mem.Footprint) {
	s := t.access.begin()
	c, fp := t.inner.Access(la, word, pc, write)
	t.access.end(s)
	return c, fp
}

func (t *timingL2) AccessInstr(la mem.LineAddr, pc mem.Addr) (hierarchy.Class, mem.Footprint) {
	s := t.access.begin()
	c, fp := t.inner.AccessInstr(la, pc)
	t.access.end(s)
	return c, fp
}

func (t *timingL2) WritebackFromL1(la mem.LineAddr, footprint, dirty mem.Footprint) {
	s := t.writeback.begin()
	t.inner.WritebackFromL1(la, footprint, dirty)
	t.writeback.end(s)
}

func (t *timingL2) Misses() uint64   { return t.inner.Misses() }
func (t *timingL2) Accesses() uint64 { return t.inner.Accesses() }

// timedStream decorates a trace.BatchStream, timing every refill and
// counting the records it yields.
type timedStream struct {
	bs      trace.BatchStream
	s       *span
	records *uint64
}

func (t timedStream) NextBatch(dst []trace.Record) int {
	s := t.s.beginAlways()
	n := t.bs.NextBatch(dst)
	t.s.end(s)
	*t.records += uint64(n)
	return n
}
