package par

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestMapOrdering(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		got, err := Map(workers, 100, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != 100 {
			t.Fatalf("workers=%d: %d results", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: got[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	got, err := Map(4, 0, func(int) (int, error) { return 0, errors.New("never") })
	if err != nil || got != nil {
		t.Fatalf("empty map: %v, %v", got, err)
	}
}

func TestMapError(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		_, err := Map(workers, 50, func(i int) (int, error) {
			if i == 7 {
				return 0, boom
			}
			return i, nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
	}
}

// TestMapSmallestIndexError: when several tasks fail, the reported
// error is the one with the smallest index regardless of scheduling.
func TestMapSmallestIndexError(t *testing.T) {
	_, err := Map(8, 40, func(i int) (int, error) {
		if i%3 == 1 {
			return 0, fmt.Errorf("task %d", i)
		}
		return i, nil
	})
	if err == nil || err.Error() != "task 1" {
		t.Fatalf("err = %v, want task 1", err)
	}
}

// TestMapEarlyCancel: after the first failure the runner must stop
// handing out tasks instead of draining the whole queue.
func TestMapEarlyCancel(t *testing.T) {
	var executed atomic.Int64
	_, err := Map(2, 10_000, func(i int) (int, error) {
		executed.Add(1)
		if i == 0 {
			return 0, errors.New("fail fast")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	// A handful of in-flight tasks may still run; the queue must not.
	if n := executed.Load(); n > 100 {
		t.Errorf("%d tasks executed after early failure", n)
	}
}

func TestGrid(t *testing.T) {
	got, err := Grid(3, 4, 5, func(r, c int) (int, error) { return r*10 + c, nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("rows = %d", len(got))
	}
	for r := range got {
		if len(got[r]) != 5 {
			t.Fatalf("row %d has %d cols", r, len(got[r]))
		}
		for c, v := range got[r] {
			if v != r*10+c {
				t.Errorf("got[%d][%d] = %d", r, c, v)
			}
		}
	}
}

func TestGridEmpty(t *testing.T) {
	if got, err := Grid(2, 0, 3, func(int, int) (int, error) { return 0, nil }); err != nil || got != nil {
		t.Fatalf("empty grid: %v, %v", got, err)
	}
}

// TestMapPanicIsolated: a panicking task must not crash the process;
// it surfaces as a *TaskError carrying the panic value and stack.
func TestMapPanicIsolated(t *testing.T) {
	for _, workers := range []int{1, 4} {
		_, err := Map(workers, 20, func(i int) (int, error) {
			if i == 3 {
				panic("cell exploded")
			}
			return i, nil
		})
		var te *TaskError
		if !errors.As(err, &te) {
			t.Fatalf("workers=%d: err = %v, want *TaskError", workers, err)
		}
		if te.Index != 3 || te.Panic != "cell exploded" || te.Attempts != 1 {
			t.Errorf("workers=%d: TaskError = %+v", workers, te)
		}
		if len(te.Stack) == 0 {
			t.Errorf("workers=%d: panic stack not captured", workers)
		}
	}
}

// TestMapPolicyRunToCompletion: with FailFast off every task runs and
// every result-or-error comes back in index order.
func TestMapPolicyRunToCompletion(t *testing.T) {
	for _, workers := range []int{1, 8} {
		out, errs := MapPolicy(Policy{}, workers, 30, func(i int) (int, error) {
			switch {
			case i%5 == 2:
				return 0, fmt.Errorf("err %d", i)
			case i%7 == 3:
				panic(fmt.Sprintf("panic %d", i))
			}
			return i * 2, nil
		})
		if errs == nil {
			t.Fatalf("workers=%d: expected errors", workers)
		}
		for i := 0; i < 30; i++ {
			switch {
			case i%5 == 2:
				var te *TaskError
				if !errors.As(errs[i], &te) || te.Panic != nil || te.Err.Error() != fmt.Sprintf("err %d", i) {
					t.Errorf("workers=%d: errs[%d] = %v", workers, i, errs[i])
				}
			case i%7 == 3:
				var te *TaskError
				if !errors.As(errs[i], &te) || te.Panic == nil {
					t.Errorf("workers=%d: errs[%d] = %v, want panic", workers, i, errs[i])
				}
			default:
				if errs[i] != nil || out[i] != i*2 {
					t.Errorf("workers=%d: task %d: out=%d errs=%v", workers, i, out[i], errs[i])
				}
			}
		}
	}
}

// TestMapPolicyNoFailures: errs is nil when everything succeeds.
func TestMapPolicyNoFailures(t *testing.T) {
	out, errs := MapPolicy(Policy{}, 4, 10, func(i int) (int, error) { return i, nil })
	if errs != nil {
		t.Fatalf("errs = %v", errs)
	}
	if len(out) != 10 {
		t.Fatalf("out = %v", out)
	}
}

// TestMapPolicyRetries: a fault that clears after the first attempt is
// absorbed by Retries and never surfaces.
func TestMapPolicyRetries(t *testing.T) {
	var firstTries [12]atomic.Int32
	out, errs := MapPolicy(Policy{Retries: 1}, 3, 12, func(i int) (int, error) {
		if i%4 == 1 && firstTries[i].Add(1) == 1 {
			return 0, errors.New("transient")
		}
		return i, nil
	})
	if errs != nil {
		t.Fatalf("transient errors not retried away: %v", errs)
	}
	for i, v := range out {
		if v != i {
			t.Errorf("out[%d] = %d", i, v)
		}
	}
}

// TestMapPolicyRetriesExhausted reports the attempt count.
func TestMapPolicyRetriesExhausted(t *testing.T) {
	_, errs := MapPolicy(Policy{Retries: 2}, 1, 3, func(i int) (int, error) {
		if i == 1 {
			panic("always")
		}
		return i, nil
	})
	var te *TaskError
	if !errors.As(errs[1], &te) || te.Attempts != 3 {
		t.Fatalf("errs[1] = %v, want 3 attempts", errs[1])
	}
}

// TestMapPolicyDone: Done fires exactly once per task that ran — after
// its final attempt, whether that succeeded, failed, or panicked — and
// never for skipped tasks.
func TestMapPolicyDone(t *testing.T) {
	for _, workers := range []int{1, 3} {
		var tries, done [12]atomic.Int32
		_, errs := MapPolicy(Policy{Retries: 2, Done: func(i int) { done[i].Add(1) }}, workers, 12, func(i int) (int, error) {
			n := tries[i].Add(1)
			switch {
			case i%4 == 1 && n == 1:
				return 0, errors.New("transient")
			case i == 6:
				panic("always")
			case i == 7:
				return 0, errors.New("always")
			}
			return i, nil
		})
		if len(errs) == 0 || errs[6] == nil || errs[7] == nil {
			t.Fatalf("workers=%d: permanent failures not reported: %v", workers, errs)
		}
		for i := range done {
			if got := done[i].Load(); got != 1 {
				t.Errorf("workers=%d: task %d reported done %d times after %d attempts", workers, i, got, tries[i].Load())
			}
		}
	}
	var done atomic.Int32
	MapPolicy(Policy{Budget: 1, Done: func(int) { done.Add(1) }}, 1, 10, func(i int) (int, error) {
		return 0, errors.New("boom")
	})
	if got := done.Load(); got != 1 {
		t.Errorf("budget-stopped run reported %d tasks done, want 1 (the rest were skipped)", got)
	}
}

// TestMapPolicyBudget: after Budget failures no further tasks start;
// the untouched tail is marked skipped (Attempts == 0).
func TestMapPolicyBudget(t *testing.T) {
	var executed atomic.Int64
	_, errs := MapPolicy(Policy{Budget: 2}, 1, 1000, func(i int) (int, error) {
		executed.Add(1)
		if i < 2 {
			return 0, errors.New("boom")
		}
		return i, nil
	})
	if n := executed.Load(); n != 2 { // tasks 0 and 1 fail, exhausting the budget
		t.Errorf("executed %d tasks, want 2", n)
	}
	var te *TaskError
	if !errors.As(errs[999], &te) || te.Attempts != 0 {
		t.Errorf("tail task not marked skipped: %v", errs[999])
	}
}

// TestGridPolicyShape: results and errors come back [row][col] with
// failures in deterministic cells.
func TestGridPolicyShape(t *testing.T) {
	out, errs := GridPolicy(Policy{}, 4, 3, 4, func(r, c int) (int, error) {
		if r == 1 && c == 2 {
			return 0, errors.New("cell boom")
		}
		return r*100 + c, nil
	})
	if len(out) != 3 || len(errs) != 3 {
		t.Fatalf("shape: %d rows, %d err rows", len(out), len(errs))
	}
	for r := 0; r < 3; r++ {
		for c := 0; c < 4; c++ {
			if r == 1 && c == 2 {
				if errs[r][c] == nil {
					t.Error("failed cell has no error")
				}
				continue
			}
			if errs[r][c] != nil || out[r][c] != r*100+c {
				t.Errorf("cell [%d][%d]: out=%d errs=%v", r, c, out[r][c], errs[r][c])
			}
		}
	}
}

// TestTaskErrorUnwrap: errors.Is reaches the task's own error through
// the TaskError wrapper.
func TestTaskErrorUnwrap(t *testing.T) {
	sentinel := errors.New("sentinel")
	_, errs := MapPolicy(Policy{}, 1, 1, func(int) (int, error) { return 0, sentinel })
	if !errors.Is(errs[0], sentinel) {
		t.Errorf("errs[0] = %v does not unwrap to sentinel", errs[0])
	}
}
