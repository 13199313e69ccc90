package sim

import (
	"sync"
	"sync/atomic"
)

// ForEach runs jobs 0..n-1 on up to parallel goroutines and waits for
// them. Each job writes its result into caller-owned storage indexed by
// its job number, so aggregation in index order is deterministic at any
// parallelism level.
//
// The first job error cancels the pool: jobs not yet started are
// skipped, in-flight jobs finish, and ForEach returns the error of the
// lowest-numbered failed job (again independent of scheduling).
// parallel < 1 is treated as 1; parallel == 1 runs the jobs inline in
// order with no goroutines.
func ForEach(parallel, n int, job func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if parallel > n {
		parallel = n
	}
	if parallel <= 1 {
		for i := 0; i < n; i++ {
			if err := job(i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next     atomic.Int64
		stop     atomic.Bool
		mu       sync.Mutex
		firstErr error
		firstIdx int
		wg       sync.WaitGroup
	)
	fail := func(i int, err error) {
		mu.Lock()
		if firstErr == nil || i < firstIdx {
			firstErr, firstIdx = err, i
		}
		mu.Unlock()
		stop.Store(true)
	}
	wg.Add(parallel)
	for w := 0; w < parallel; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || stop.Load() {
					return
				}
				if err := job(i); err != nil {
					fail(i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}
