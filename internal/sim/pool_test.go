package sim

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachRunsAllJobs(t *testing.T) {
	for _, parallel := range []int{0, 1, 4, 64} {
		var count atomic.Int64
		done := make([]bool, 100)
		err := ForEach(parallel, len(done), func(i int) error {
			count.Add(1)
			done[i] = true
			return nil
		})
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		if count.Load() != 100 {
			t.Fatalf("parallel=%d: ran %d jobs, want 100", parallel, count.Load())
		}
		for i, d := range done {
			if !d {
				t.Fatalf("parallel=%d: job %d skipped", parallel, i)
			}
		}
	}
}

func TestForEachZeroJobs(t *testing.T) {
	if err := ForEach(8, 0, func(int) error { return errors.New("boom") }); err != nil {
		t.Fatal(err)
	}
}

func TestForEachCancelsOnError(t *testing.T) {
	boom := errors.New("boom")
	var started atomic.Int64
	err := ForEach(4, 10_000, func(i int) error {
		started.Add(1)
		if i == 5 {
			return boom
		}
		// Every other job costs a millisecond, so the three other
		// workers need over three seconds to drain the list: far longer
		// than the failing worker can be descheduled between its job's
		// return and the pool's stop flag.
		time.Sleep(time.Millisecond)
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// The pool must stop well short of draining the whole job list.
	if n := started.Load(); n >= 10_000 {
		t.Fatalf("pool ran all %d jobs despite the error", n)
	}
}

func TestForEachReturnsLowestIndexError(t *testing.T) {
	// Every job fails; the reported error must deterministically be job
	// 0's regardless of scheduling.
	for trial := 0; trial < 20; trial++ {
		err := ForEach(8, 50, func(i int) error {
			return fmt.Errorf("job %d", i)
		})
		if err == nil || err.Error() != "job 0" {
			t.Fatalf("trial %d: err = %v, want job 0", trial, err)
		}
	}
}

func TestForEachSerialErrorShortCircuits(t *testing.T) {
	var ran int
	err := ForEach(1, 10, func(i int) error {
		ran++
		if i == 3 {
			return errors.New("stop")
		}
		return nil
	})
	if err == nil || ran != 4 {
		t.Fatalf("ran = %d err = %v, want 4 jobs and an error", ran, err)
	}
}
