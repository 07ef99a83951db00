// Package parallel is the repository's deterministic fan-out runner. Every
// embarrassingly parallel loop — experiment sweeps over (k, topology,
// trial) cells, all-pairs BFS sources — goes through Map or ForEach, which
// distribute the index range [0, n) over a bounded worker pool and merge
// results in index order. The contract that makes the experiment tables
// reproducible is: for a pure per-index function, the merged output is
// identical for every worker count, including 1. Callers therefore never
// need a separate sequential code path.
//
// The Ctx variants accept a context.Context and stop handing out new
// indices as soon as it is done; in-flight calls finish and the context's
// error is returned (a real per-cell error observed before cancellation
// still wins). Worker panics never take down the process: they are
// recovered into a *PanicError carrying the cell index and stack, and
// cancel the pool like any other error.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Workers resolves a parallelism knob to an effective worker count: a
// positive value is used as-is, anything else (the "auto" default) becomes
// runtime.GOMAXPROCS(0), i.e. every available core.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// PanicError is the error returned when a per-index function panics. The
// panic is recovered inside the worker so the pool shuts down cleanly; the
// original panic value and the goroutine stack at the panic site are kept
// for the report.
type PanicError struct {
	Index int    // index whose call panicked
	Value any    // the recovered panic value
	Stack []byte // debug.Stack() captured at recovery
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: panic in cell %d: %v\n%s", e.Index, e.Value, e.Stack)
}

// safeCall invokes fn(i), converting a panic into a *PanicError.
func safeCall(i int, fn func(i int) error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Index: i, Value: v, Stack: debug.Stack()}
		}
	}()
	return fn(i)
}

// ForEach calls fn(i) for every i in [0, n), spread across Workers(workers)
// goroutines. Indices are handed out dynamically (an atomic counter), so
// uneven per-index costs still balance.
//
// On error the pool cancels: workers stop taking new indices, in-flight
// calls finish, and ForEach returns the error of the lowest-indexed call
// observed to fail. With workers <= 1 the calls run sequentially on the
// caller's goroutine and the first error returns immediately, exactly like
// the hand-written loop it replaces. A panicking fn is reported as a
// *PanicError rather than crashing the process.
func ForEach(n, workers int, fn func(i int) error) error {
	return ForEachCtx(context.Background(), n, workers, fn)
}

// ForEachCtx is ForEach with cancellation: no new index is started once
// ctx is done. In-flight calls are not interrupted (fn does not receive
// the context; long-running cells should capture it themselves). When the
// sweep is cut short by the context and no per-cell error was observed
// first, the return value is ctx.Err().
func ForEachCtx(ctx context.Context, n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := safeCall(i, fn); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next    atomic.Int64
		stopped atomic.Bool
		mu      sync.Mutex
		errIdx  int
		firstE  error
		wg      sync.WaitGroup
	)
	record := func(i int, err error) {
		// Stop the other workers before contending for the lock.
		stopped.Store(true)
		mu.Lock()
		if firstE == nil || i < errIdx {
			firstE, errIdx = err, i
		}
		mu.Unlock()
	}
	done := ctx.Done()
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for !stopped.Load() {
				select {
				case <-done:
					return
				default:
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := safeCall(i, fn); err != nil {
					record(i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstE != nil {
		return firstE
	}
	return ctx.Err()
}

// Map evaluates fn(i) for every i in [0, n) across Workers(workers)
// goroutines and returns the results in index order. Error semantics match
// ForEach: the result slice is nil and the error is from the lowest-indexed
// failing call observed before cancellation. fn must be safe for concurrent
// invocation; it is never called twice for the same index.
func Map[T any](n, workers int, fn func(i int) (T, error)) ([]T, error) {
	return MapCtx(context.Background(), n, workers, fn)
}

// MapCtx is Map with cancellation, mirroring ForEachCtx: once ctx is done
// no new index is evaluated, the partial results are discarded, and the
// error is ctx.Err() unless a lower-indexed per-cell error was observed
// first.
func MapCtx[T any](ctx context.Context, n, workers int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, ctx.Err()
	}
	out := make([]T, n)
	err := ForEachCtx(ctx, n, workers, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
