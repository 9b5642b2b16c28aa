package exp

import (
	"fmt"
	"sync/atomic"

	"ldis/internal/faultinject"
	"ldis/internal/obs"
	"ldis/internal/par"
	"ldis/internal/workload"
)

// The experiment engine fans out over (benchmark × configuration)
// cells: every cell is one full simulation — its own caches, its own
// deterministic stream — so a 16-benchmark, 6-configuration figure
// exposes 96 independent units of work to the scheduler instead of 16.
// Cells are pure functions of (benchmark, column), which keeps the
// assembled tables byte-identical at any worker count.
//
// The fan-out is also where the engine's resilience features hook in,
// from innermost to outermost wrapper around the cell function:
//
//   - fault injection (Options.FaultSeed): a deterministic, seeded
//     injector panics selected cells — the chaos-suite's way of
//     proving the layers above isolate failures;
//   - checkpointing (Options.Checkpoint): completed cells are
//     appended to the checkpoint file and replayed on resume instead
//     of re-simulated;
//   - panic isolation and policy (internal/par): a panicking cell
//     becomes a *par.TaskError; fail-fast aborts the sweep on the
//     smallest-index failure, keep-going runs every cell and reports
//     all failures deterministically.

// cellSep joins experiment, benchmark, and column into the cell site
// keys used by fault injection and error messages.
const cellSep = "/"

// runGrid runs one simulation cell per (benchmark, column) pair, up to
// o.Parallel workers (GOMAXPROCS when zero). It returns the surviving
// benchmark names and their result rows, aligned index-for-index: in
// the default fail-fast mode that is every requested benchmark or an
// error, while under Options.KeepGoing benchmarks with a failed cell
// are pruned from the results (and logged to Options.Failures) so the
// healthy rows still render exactly as in a fault-free run. fn must
// derive all randomness from the profile's seed so results are
// independent of scheduling.
//
// A row's cells share one materialized trace when it fits under
// rowTraceCap (see rowtrace.go): fn reads it through the benchmark's
// Stream method and the run helpers (runWindowed, cellBlocks).
//
// fn's co argument is the cell's observability surface (nil when
// Options.Obs is nil): fn wires it into the simulator configs it
// builds, so the cache/distill/mrc counters land on the right
// (experiment × benchmark × column) coordinates in the manifest.
func runGrid[T any](o Options, cols int, fn func(prof *benchmark, col int, co *obs.Cell) (T, error)) ([]string, [][]T, error) {
	names := o.benchmarks()
	rows := newRowTraces(o, len(names), cols)
	return runNamedGrid(o, names, cols, rows.finish, func(row, col int, co *obs.Cell) (T, error) {
		prof, err := workload.ByName(names[row])
		if err != nil {
			var zero T
			return zero, err
		}
		return fn(&benchmark{Profile: prof, rows: rows, row: row}, col, co)
	})
}

// runNamedGrid is the engine under runGrid with the row vocabulary
// generalized: rows are arbitrary names (single benchmarks for the
// classic figure sweeps, tenant-mix scenarios for the partition
// experiment), and fn receives the row index instead of a resolved
// workload profile. All the grid machinery — span wrapping, fault
// injection, checkpoint replay/record keyed (expID, name, col), panic
// isolation, fail-fast/keep-going row pruning — lives here, so every
// grid-shaped experiment shares one deterministic fan-out path.
// done, when non-nil, is called once per cell that ran (replayed,
// succeeded, or failed after its last retry) with the cell's row.
func runNamedGrid[T any](o Options, names []string, cols int, done func(row int), fn func(row, col int, co *obs.Cell) (T, error)) ([]string, [][]T, error) {
	sim := fn
	cell := func(row, col int, co *obs.Cell) (T, error) {
		tok := co.Spans().Begin(obs.StageSimulate)
		v, err := sim(row, col, co)
		co.Spans().End(obs.StageSimulate, tok)
		return v, err
	}
	if o.FaultSeed != 0 {
		inj := faultinject.NewDefault(o.FaultSeed)
		inner := cell
		cell = func(row, col int, co *obs.Cell) (T, error) {
			inj.MaybePanic(o.expID + cellSep + names[row] + cellSep + fmt.Sprint(col))
			return inner(row, col, co)
		}
	}
	if o.Checkpoint != nil {
		inner := cell
		cell = func(row, col int, co *obs.Cell) (T, error) {
			if data, ok := o.Checkpoint.lookup(o.expID, names[row], col); ok {
				var v T
				if err := decodeCell(data, &v); err == nil {
					co.MarkReplayed()
					return v, nil
				}
				// Undecodable but CRC-valid record (e.g. a row type
				// changed shape): fall through and re-simulate.
			}
			v, err := inner(row, col, co)
			if err != nil {
				return v, err
			}
			data, err := encodeCell(v)
			if err != nil {
				return v, err
			}
			tok := co.Spans().Begin(obs.StageCheckpointWrite)
			err = o.Checkpoint.record(o.expID, names[row], col, data)
			co.Spans().End(obs.StageCheckpointWrite, tok)
			return v, err
		}
	}

	o.Obs.Progress().AddTotal(len(names) * cols)
	p := par.Policy{Retries: o.Retries, FailFast: !o.KeepGoing, Budget: o.FailBudget, Obs: o.Obs.Sched()}
	if done != nil {
		p.Done = func(i int) { done(i / cols) }
	}
	grid, errs := par.GridPolicy(p, o.Parallel, len(names), cols, func(row, col int) (T, error) {
		co := o.Obs.StartCell(o.expID, names[row], col)
		v, err := cell(row, col, co)
		status := obs.StatusOK
		switch {
		case err != nil:
			status = obs.StatusFailed
		case co.Replayed():
			status = obs.StatusReplayed
		}
		o.Obs.FinishCell(co, status)
		return v, err
	})
	if errs == nil {
		return names, grid, nil
	}
	if !o.KeepGoing {
		// Deterministic smallest-index failure, annotated with its
		// cell coordinates.
		prefix := ""
		if o.expID != "" {
			prefix = o.expID + cellSep
		}
		for r := range errs {
			for c, err := range errs[r] {
				te, ok := err.(*par.TaskError)
				if !ok || te == nil || te.Attempts == 0 {
					continue
				}
				if te.Panic == nil && te.Err != nil {
					return nil, nil, fmt.Errorf("cell %s%s%s%d: %w", prefix, names[r], cellSep, c, te.Err)
				}
				return nil, nil, fmt.Errorf("cell %s%s%s%d: %w", prefix, names[r], cellSep, c, te)
			}
		}
		return nil, nil, fmt.Errorf("exp: scheduler reported failure without an error")
	}
	// Keep-going: log every failed cell, keep only fully-healthy rows.
	keepNames := make([]string, 0, len(names))
	keep := make([][]T, 0, len(grid))
	for r, name := range names {
		healthy := true
		for c, err := range errs[r] {
			if err != nil {
				healthy = false
				o.Failures.add(o.expID, name, c, err)
			}
		}
		if healthy {
			keepNames = append(keepNames, name)
			keep = append(keep, grid[r])
		}
	}
	return keepNames, keep, nil
}

// mapBenchmarks runs fn once per benchmark: a one-column grid, kept
// for experiments whose unit of work is the whole benchmark (e.g. the
// Figure 10 content sampling). Like runGrid it returns the surviving
// benchmark names alongside the results.
func mapBenchmarks[T any](o Options, fn func(prof *benchmark, co *obs.Cell) (T, error)) ([]string, []T, error) {
	names, grid, err := runGrid(o, 1, func(prof *benchmark, _ int, co *obs.Cell) (T, error) {
		return fn(prof, co)
	})
	if err != nil {
		return nil, nil, err
	}
	out := make([]T, len(grid))
	for i := range grid {
		out[i] = grid[i][0]
	}
	return names, out, nil
}

// simAccesses counts processor-side accesses driven through simulated
// systems, across all workers, since the last reset. cmd/ldisexp's
// -throughput mode divides it by wall time for an accesses/sec figure.
var simAccesses atomic.Uint64

func countSimAccesses(n int) { simAccesses.Add(uint64(n)) }

// SimAccesses returns the cumulative simulated-access count.
func SimAccesses() uint64 { return simAccesses.Load() }

// ResetSimAccesses zeroes the counter (call before a measured run).
func ResetSimAccesses() { simAccesses.Store(0) }

// decodeClock times record generation; it is the observability clock,
// so timings stay out of simulation logic per the nowallclock rule.
var decodeClock = obs.SystemClock()

// decodeNanos accumulates time spent producing records — synthetic
// generation, shared-row fills, and block refills — summed across
// workers since the last reset. It is reported alongside throughput
// figures, never subtracted from them.
var decodeNanos atomic.Int64

func countDecodeNanos(d int64) { decodeNanos.Add(d) }

// DecodeNanos returns the cumulative record-generation time.
func DecodeNanos() int64 { return decodeNanos.Load() }

// ResetDecodeNanos zeroes the counter (call before a measured run).
func ResetDecodeNanos() { decodeNanos.Store(0) }
