// Package par is the simulator's deterministic fan-out substrate: a
// bounded-worker task runner over index spaces. The experiment engine
// schedules one task per (benchmark × configuration) simulation, so a
// figure over 16 benchmarks and 6 configurations exposes 96 units of
// parallel work instead of 16. Results are returned in task-index
// order and every task is a pure function of its index, so the output
// is byte-identical at any worker count.
//
// The runner is also the engine's panic boundary: a panicking task
// never takes down the process or its sibling cells. The panic is
// recovered, captured with its stack as a *TaskError, and reported
// through the same per-index error channel as an ordinary task error.
// A Policy chooses between fail-fast (the default: stop handing out
// work at the first failure) and run-to-completion (every task runs;
// every result-or-error is returned in deterministic index order),
// with optional per-task retries for transient faults.
package par

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"ldis/internal/obs"
)

// TaskError records the failure of one task after all retry attempts
// were exhausted. Exactly one of Panic and Err is non-nil: Panic (with
// Stack) when the final attempt panicked, Err when it returned an
// error.
type TaskError struct {
	// Index is the task's position in the index space (row*cols+col
	// for grids).
	Index int
	// Attempts is how many times the task was run (1 + retries used).
	Attempts int
	// Panic is the recovered panic value of the final attempt, nil if
	// the task failed with an ordinary error.
	Panic any
	// Stack is the goroutine stack captured at the final panic.
	Stack []byte
	// Err is the error returned by the final attempt, nil on panic.
	Err error
}

// Error implements error. The stack is deliberately excluded so the
// message is deterministic and safe to render into output tables.
func (e *TaskError) Error() string {
	if e.Panic != nil {
		return fmt.Sprintf("task %d panicked after %d attempt(s): %v", e.Index, e.Attempts, e.Panic)
	}
	return fmt.Sprintf("task %d failed after %d attempt(s): %v", e.Index, e.Attempts, e.Err)
}

// Unwrap exposes the task's underlying error to errors.Is/As chains.
func (e *TaskError) Unwrap() error { return e.Err }

// Policy controls how Map/Grid respond to task failures.
type Policy struct {
	// Retries is the number of extra attempts a failing task gets
	// before its failure is recorded. Tasks are pure functions of
	// their index, so retries only help against injected or external
	// transient faults.
	Retries int
	// FailFast stops handing out new tasks after the first
	// unrecovered failure. In-flight tasks still finish.
	FailFast bool
	// Budget, when positive and FailFast is false, stops handing out
	// new tasks once this many tasks have failed; zero means
	// run-to-completion regardless of the failure count.
	Budget int
	// Obs, when non-nil, receives scheduler-level counts (tasks run,
	// retries, recovered panics, skipped tasks). The hooks are nil-safe
	// no-ops, so the scheduler never branches on observability.
	Obs *obs.SchedMetrics
	// Done, when non-nil, is called exactly once for every task that
	// ran, after its final attempt (success or failure, however many
	// retries it took), on the worker that ran it. Skipped tasks never
	// report.
	Done func(i int)
}

// call runs one attempt of fn(i) with a panic boundary.
func call[T any](fn func(i int) (T, error), i int) (v T, err error, pv any, stack []byte) {
	defer func() {
		if r := recover(); r != nil {
			pv = r
			stack = debug.Stack()
		}
	}()
	v, err = fn(i)
	return
}

// attempt runs fn(i) under the policy's retry budget, storing the
// result into *out on success and returning a *TaskError on final
// failure.
func attempt[T any](p Policy, i int, fn func(i int) (T, error), out *T) *TaskError {
	for a := 0; ; a++ {
		v, err, pv, stack := call(fn, i)
		if pv != nil {
			p.Obs.Panic()
		}
		if pv == nil && err == nil {
			*out = v
			return nil
		}
		if a >= p.Retries {
			return &TaskError{Index: i, Attempts: a + 1, Panic: pv, Stack: stack, Err: err}
		}
		p.Obs.Retry()
	}
}

// MapPolicy runs fn(0), ..., fn(n-1) on up to workers goroutines
// (GOMAXPROCS when workers <= 0) under the given failure policy. It
// returns results and errors in task-index order: errs is nil when
// every task succeeded, otherwise errs[i] is nil for successful tasks
// and a *TaskError for failed ones. Tasks skipped by fail-fast or an
// exhausted budget report a *TaskError with Attempts == 0, so the
// caller can always distinguish "ran and failed" from "never ran".
func MapPolicy[T any](p Policy, workers, n int, fn func(i int) (T, error)) ([]T, []error) {
	if n <= 0 {
		return nil, nil
	}
	if p.Retries < 0 {
		p.Retries = 0
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	out := make([]T, n)
	errs := make([]error, n)
	var failures atomic.Int64
	var minFail atomic.Int64
	minFail.Store(int64(n)) // n = no failure recorded yet
	stopped := func() bool {
		f := failures.Load()
		if f == 0 {
			return false
		}
		if p.FailFast {
			return true
		}
		return p.Budget > 0 && f >= int64(p.Budget)
	}
	runTask := func(i int) {
		if te := attempt(p, i, fn, &out[i]); te != nil {
			errs[i] = te
			failures.Add(1)
			for {
				m := minFail.Load()
				if int64(i) >= m || minFail.CompareAndSwap(m, int64(i)) {
					break
				}
			}
		}
		if p.Done != nil {
			p.Done(i)
		}
		p.Obs.TaskDone()
	}
	// Under fail-fast the reported error must be the smallest-index
	// failure regardless of scheduling. A task already handed out when
	// the stop fired still runs if its index is below every failure
	// seen so far — otherwise a higher-indexed task racing to fail
	// first would get a lower-indexed, also-failing task skipped and
	// make the reported error depend on worker timing.
	skip := func(i int) bool {
		if !stopped() {
			return false
		}
		return !p.FailFast || int64(i) >= minFail.Load()
	}

	started := n
	if workers == 1 {
		// Run inline: same semantics, no goroutine overhead.
		for i := 0; i < n; i++ {
			if stopped() {
				started = i
				break
			}
			runTask(i)
		}
	} else {
		work := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range work {
					if skip(i) {
						errs[i] = &TaskError{Index: i}
						p.Obs.Skipped()
						continue
					}
					runTask(i)
				}
			}()
		}
		for i := 0; i < n; i++ {
			if stopped() {
				started = i
				break
			}
			work <- i
		}
		close(work)
		wg.Wait()
	}
	for i := started; i < n; i++ {
		errs[i] = &TaskError{Index: i}
		p.Obs.Skipped()
	}

	if failures.Load() == 0 {
		return out, nil
	}
	return out, errs
}

// Map runs fn(0), fn(1), ..., fn(n-1) on up to workers goroutines
// (GOMAXPROCS when workers <= 0) and returns the results in index
// order. After any task fails, no further tasks are handed out; the
// error with the smallest task index is returned, so the reported
// failure does not depend on scheduling. A panicking task does not
// crash the process: its panic is recovered and returned as a
// *TaskError carrying the panic value and stack.
func Map[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	out, errs := MapPolicy(Policy{FailFast: true}, workers, n, fn)
	if err := firstError(errs); err != nil {
		return nil, err
	}
	return out, nil
}

// firstError returns the smallest-index real failure (skipping
// never-ran markers), unwrapping plain task errors so fail-fast
// callers see exactly what their task returned.
func firstError(errs []error) error {
	for _, err := range errs {
		if err == nil {
			continue
		}
		te := err.(*TaskError)
		if te.Attempts == 0 {
			continue // skipped, not failed
		}
		if te.Panic == nil && te.Err != nil {
			return te.Err
		}
		return te
	}
	return nil
}

// Grid runs fn over an rows×cols task matrix — one task per cell, all
// cells independent — and returns the results indexed [row][col]. The
// flattening is row-major, so neighbouring configurations of the same
// benchmark land on different workers as readily as different
// benchmarks do.
func Grid[T any](workers, rows, cols int, fn func(row, col int) (T, error)) ([][]T, error) {
	if rows <= 0 || cols <= 0 {
		return nil, nil
	}
	flat, err := Map(workers, rows*cols, func(i int) (T, error) {
		return fn(i/cols, i%cols)
	})
	if err != nil {
		return nil, err
	}
	out, _ := reshape(flat, nil, rows, cols)
	return out, nil
}

// GridPolicy is Grid under an explicit failure policy: it returns the
// cell results and errors indexed [row][col], errs nil when every cell
// succeeded. With FailFast false the whole grid runs to completion and
// every cell's result-or-error is reported in deterministic row-major
// order.
func GridPolicy[T any](p Policy, workers, rows, cols int, fn func(row, col int) (T, error)) ([][]T, [][]error) {
	if rows <= 0 || cols <= 0 {
		return nil, nil
	}
	flat, ferrs := MapPolicy(p, workers, rows*cols, func(i int) (T, error) {
		return fn(i/cols, i%cols)
	})
	return reshape(flat, ferrs, rows, cols)
}

// reshape slices a row-major flat result (and optional error) vector
// into [row][col] views.
func reshape[T any](flat []T, ferrs []error, rows, cols int) ([][]T, [][]error) {
	out := make([][]T, rows)
	for r := range out {
		out[r] = flat[r*cols : (r+1)*cols : (r+1)*cols]
	}
	if ferrs == nil {
		return out, nil
	}
	errs := make([][]error, rows)
	for r := range errs {
		errs[r] = ferrs[r*cols : (r+1)*cols : (r+1)*cols]
	}
	return out, errs
}
