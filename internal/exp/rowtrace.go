package exp

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"ldis/internal/trace"
	"ldis/internal/workload"
)

// Generate once, simulate many. Every column of a runGrid row
// simulates the same benchmark trace, so the row's first cell to read
// records materializes the row's o.Accesses records into a read-only
// buffer that every column then reads. Fully replayed rows never
// generate: the materialization happens inside the cell function,
// after the checkpoint-replay check.
//
// The buffer returns to a grid-scoped free list when the row's last
// cell finishes for good (par's Policy.Done fires once per cell, after
// its final attempt, so a retried cell cannot release its row twice).
// Cells are handed out in row-major order, so a row holds a buffer
// only while one of its cells is in flight or it is the scheduler's
// frontier row: a grid never allocates more than Parallel+1 buffers,
// and nothing outlives the grid.

// rowTraceCap bounds one row's materialized trace in bytes. Rows whose
// trace would not fit stream per cell, so long runs keep their memory
// bounded by the simulated caches rather than by the trace (at 24
// bytes a record the cap admits ~87k accesses). It is a constant, not an option: it cannot change
// results, and one fixed value keeps peak memory predictable.
const rowTraceCap = 2 << 20

// recordBytes is the in-memory size of one trace record.
const recordBytes = int(unsafe.Sizeof(trace.Record{}))

// rowBuffers and rowFills count, across all grids since process start,
// the row buffers allocated and the row traces generated: test hooks
// for the Parallel+1 buffer bound and the one-fill-per-row guarantee.
var rowBuffers, rowFills atomic.Int64

// rowTraces is one grid's shared-trace store; nil means every cell of
// the grid streams its own records.
type rowTraces struct {
	n    int // records per row
	mu   sync.Mutex
	free [][]trace.Record
	rows []rowTrace
}

// rowTrace is one row's slot.
type rowTrace struct {
	mu   sync.Mutex
	recs []trace.Record // nil until a cell asks, and again once released
	left int            // cells of the row not yet finished
}

// newRowTraces returns the shared-trace store for a rows×cols grid,
// or nil when a row's trace would exceed rowTraceCap.
func newRowTraces(o Options, rows, cols int) *rowTraces {
	if o.Accesses > rowTraceCap/recordBytes {
		return nil
	}
	t := &rowTraces{n: o.Accesses, rows: make([]rowTrace, rows)}
	for i := range t.rows {
		t.rows[i].left = cols
	}
	return t
}

// records returns the row's shared trace, generating it from prof on
// first use. Generation is charged to the decode-time counter but to
// no cell's spans, so manifests do not depend on which column of the
// row happened to run first.
func (t *rowTraces) records(row int, prof *workload.Profile) []trace.Record {
	r := &t.rows[row]
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.recs == nil {
		buf := t.take()
		start := decodeClock.Nanos()
		n := trace.Batched(prof.Stream()).NextBatch(buf)
		countDecodeNanos(decodeClock.Nanos() - start)
		rowFills.Add(1)
		r.recs = buf[:n]
	}
	return r.recs
}

// take pops a free buffer or allocates a new one.
func (t *rowTraces) take() []trace.Record {
	t.mu.Lock()
	defer t.mu.Unlock()
	if k := len(t.free); k > 0 {
		buf := t.free[k-1]
		t.free = t.free[:k-1]
		return buf
	}
	rowBuffers.Add(1)
	return make([]trace.Record, t.n)
}

// finish records that one of the row's cells is done for good; the
// last one returns the row's buffer, if it has one, to the free list.
func (t *rowTraces) finish(row int) {
	if t == nil {
		return
	}
	r := &t.rows[row]
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.left--; r.left == 0 && r.recs != nil {
		t.mu.Lock()
		t.free = append(t.free, r.recs[:t.n])
		t.mu.Unlock()
		r.recs = nil
	}
}

// benchmark is a grid row's benchmark as its cells see it: the
// workload profile plus the grid's shared-trace store.
type benchmark struct {
	*workload.Profile
	rows *rowTraces
	row  int
}

// shared returns the row's materialized trace, or nil when the row
// streams.
func (b *benchmark) shared() []trace.Record {
	if b.rows == nil {
		return nil
	}
	return b.rows.records(b.row, b.Profile)
}

// Stream returns a fresh stream of the benchmark's records: a reader
// over the row's shared trace when it has one, the profile's own
// generator otherwise. It shadows Profile.Stream, so every cell that
// asks for a stream reads the shared trace; the records are identical
// either way.
func (b *benchmark) Stream() trace.Stream {
	if recs := b.shared(); recs != nil {
		return trace.NewSliceStream(recs)
	}
	return b.Profile.Stream()
}
