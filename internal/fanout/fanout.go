// Package fanout is the stack's one index-parallel loop. The frontend,
// the porting pipeline, the alias-map build, the weakener's screening,
// the stress sweep and the differential harness all fan work out over
// an index range with Each, so every layer shares one claim order, one
// early stop and one way of bringing a worker panic home.
package fanout

import (
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/diag"
)

// Each calls fn(w, i) for every i in [0, n) on min(workers, n) workers
// and returns the error of the lowest failing index: the error the
// sequential loop
//
//	for i := 0; i < n; i++ { if err := fn(0, i); err != nil { return err } }
//
// returns. w names the worker running the call, below min(workers, n)
// (0 when fn runs inline), so a caller can keep per-worker state
// (scratch buffers, detectors, pooled VMs, trace tracks) in a slice
// indexed by w; fn must otherwise touch only what index i owns. When
// min(workers, n) <= 1, fn runs inline: on the calling goroutine, in
// index order.
//
// Workers claim indices in increasing order from one cursor, run every
// index they claim, and stop claiming once any call has failed. So when
// index f is the lowest failure, every index below f was claimed before
// f and has run to completion by the time Each returns, and no index
// ran twice: the outcome of indices [0, f] is exactly the sequential
// loop's, whatever the worker count. Indices above f may or may not
// have run.
//
// A panic in fn is re-raised on the calling goroutine after every
// worker has exited, as a *diag.InternalError carrying the panic value
// and the panicking worker's stack. Panics and errors share the
// lowest-index rule: a panic at index p comes back only when no index
// below p failed. diag.Guard reports the re-raised value under its own
// stage, so a contained worker panic reads the same at every -j.
func Each(workers, n int, fn func(w, i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		defer func() {
			if r := recover(); r != nil {
				panic(internal(r))
			}
		}()
		for i := 0; i < n; i++ {
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
		mu     sync.Mutex
		low    = n // lowest failing index so far
		lowErr error
		lowPan *diag.InternalError
	)
	fail := func(i int, err error, pan *diag.InternalError) {
		failed.Store(true)
		mu.Lock()
		if i < low {
			low, lowErr, lowPan = i, err, pan
		}
		mu.Unlock()
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			i := -1
			defer func() {
				if r := recover(); r != nil {
					fail(i, nil, internal(r))
				}
			}()
			for !failed.Load() {
				if i = int(next.Add(1)) - 1; i >= n {
					return
				}
				if err := fn(w, i); err != nil {
					fail(i, err, nil)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if lowPan != nil {
		panic(lowPan)
	}
	return lowErr
}

// internal wraps a recovered panic value with the stack of the
// goroutine that panicked; a value that already is one (a nested Each)
// keeps its original stack.
func internal(r any) *diag.InternalError {
	if ie, ok := r.(*diag.InternalError); ok {
		return ie
	}
	return &diag.InternalError{Stage: "fanout.Each", Value: r, Stack: string(debug.Stack())}
}
