// Package fanout is the one worker pool behind the experiment drivers'
// trials, experiments.RunAll, and the cluster's per-span host runs.
package fanout

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Each calls fn(i) for every i in [0, n) and returns once every call
// has returned. With width <= 1 the calls run in index order on the
// calling goroutine, as a plain loop. Otherwise up to width goroutines
// claim indices from a shared counter in no fixed order, so fn must
// touch no state another call writes and publish only to index-distinct
// slots; the join gives the caller a happens-before edge over every
// call.
//
// A worker's panic does not kill the process from the worker: the pool
// stops handing out indices, joins, and re-panics on the calling
// goroutine with an error naming the index (the lowest, if several
// calls panicked), the original value and the worker's stack.
func Each(n, width int, fn func(i int)) {
	if width > n {
		width = n
	}
	if width <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		mu       sync.Mutex
		failedAt int
		failure  error
	)
	wg.Add(width)
	for g := 0; g < width; g++ {
		go func() {
			i := 0
			defer func() {
				if v := recover(); v != nil {
					mu.Lock()
					if failure == nil || i < failedAt {
						failedAt = i
						failure = fmt.Errorf("fanout: call %d panicked: %v\n\nworker stack:\n%s", i, v, debug.Stack())
					}
					mu.Unlock()
					// Every later claim yields an index >= n, so the
					// other workers finish their calls and exit.
					next.Store(int64(n))
				}
				wg.Done()
			}()
			for {
				if i = int(next.Add(1)) - 1; i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	if failure != nil {
		panic(failure)
	}
}
