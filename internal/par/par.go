// Package par provides a bounded worker pool for fanning independent
// simulation grid points out across CPUs.
//
// Every unit of work in this repository's evaluation — one (cluster,
// path-set, window) panel, one static tuning size — builds its own
// sim.Simulator and shares nothing with its siblings, so the only
// requirements on the pool are a concurrency bound and deterministic
// result handling. ForEach supplies both: callers index results into
// pre-sized slices by work-item index, and errors are reported by the
// lowest failing index regardless of scheduling order, so a parallel run
// is observationally identical to a sequential one.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultWorkers returns the worker count used when parallelism is
// requested without an explicit degree: one worker per available CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// ForEach runs fn(i) for every i in [0, n), with at most workers calls in
// flight at once. With workers <= 1 it runs inline and sequentially,
// stopping at the first error — exactly the semantics of the plain loop it
// replaces. With workers > 1 it stops issuing new work after a failure
// (already-started items finish) and returns the error with the lowest
// index, so the reported error is deterministic. A panic in fn is re-raised
// in the caller.
func ForEach(n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	if workers > n {
		workers = n
	}
	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup

		panicMu  sync.Mutex
		panicked any
	)
	next.Store(-1)
	errs := make([]error, n)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n || failed.Load() {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							panicMu.Lock()
							if panicked == nil {
								panicked = r
							}
							panicMu.Unlock()
							failed.Store(true)
						}
					}()
					if err := fn(i); err != nil {
						errs[i] = err
						failed.Store(true)
					}
				}()
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
