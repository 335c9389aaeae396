// Package pool is memnet's one run pool: the index-claiming worker pool
// behind experiments.Runner.Warm, campaign.RunShard and
// core.RunMachine. It is a leaf package so that core, which experiments
// imports, can use it too.
package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEach calls fn(i) for every i in [0, n) on a pool of workers.
// workers <= 0 means GOMAXPROCS, and the count is clamped to n.
//
// Workers claim indices in increasing order from a shared counter.
// Once any fn fails, no further index is claimed, but every claimed
// index runs to completion. ForEach returns the error of the lowest
// failing index: every index below it was claimed before it, so that
// error is the same at every worker count.
func ForEach(workers, n int, fn func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	var (
		next   atomic.Int64
		failed atomic.Bool
		mu     sync.Mutex
		errIdx = n
		lowErr error
		wg     sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Check before claiming, never after: a claimed index
			// must run, or a lower failure could go unreported.
			for !failed.Load() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if i < errIdx {
						errIdx, lowErr = i, err
					}
					mu.Unlock()
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	return lowErr
}
