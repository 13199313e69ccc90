package sim

import (
	"testing"
	"time"
)

// TestCPUCompletesInQueueOrder pins the property a caller may build on
// to pair completions with queued work in a FIFO: CPU work completes in
// the order Run queued it, with jitter on, with zero durations, and when
// items complete at one instant.
func TestCPUCompletesInQueueOrder(t *testing.T) {
	ms := time.Millisecond
	for _, tc := range []struct {
		name string
		rng  *Rand // non-nil jitters every item by ±10 %
		durs []Duration
	}{
		{"jitter", NewRand(7), []Duration{3 * ms, 1 * ms, 5 * ms, 2 * ms, 1 * ms, 4 * ms, 1 * ms, 2 * ms}},
		{"zero durations", nil, []Duration{0, 0, 0, 0, 0}},
		{"equal instants", nil, []Duration{2 * ms, 0, 0, 3 * ms, 0, 1 * ms, 0}},
		{"zero durations with jitter", NewRand(3), []Duration{0, 2 * ms, 0, 0, 1 * ms}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New()
			cpu := NewCPU(s, tc.rng)
			// got lists completed items by the ordinal of their Run call;
			// ends lists the completion instants in Run order.
			var got []int
			var ends []Time
			done := func(a any) { got = append(got, *a.(*int)) }
			queue := func(i int) {
				n := len(ends)
				ends = append(ends, cpu.Run(tc.durs[i], done, &n))
			}
			// Half the work is queued at once; the rest is queued while
			// the CPU is busy, by events at instants where it completes
			// an item.
			half := len(tc.durs) / 2
			for i := 0; i < half; i++ {
				queue(i)
			}
			for i := half; i < len(tc.durs); i++ {
				s.At(ends[(i-half)%half], func() { queue(i) })
			}
			s.Run()
			if len(got) != len(tc.durs) {
				t.Fatalf("%d of %d items completed", len(got), len(tc.durs))
			}
			for i, g := range got {
				if g != i {
					t.Fatalf("completion order %v, want Run order", got)
				}
			}
			for i := 1; i < len(ends); i++ {
				if ends[i] < ends[i-1] {
					t.Fatalf("item %d ends at %v, before item %d at %v", i, ends[i], i-1, ends[i-1])
				}
			}
		})
	}
}

// cpuDone is a package-level work item, as allocation-free callers use.
func cpuDone(a any) { *a.(*int)++ }

func TestCPURunAllocatesNothing(t *testing.T) {
	s := New()
	cpu := NewCPU(s, NewRand(1))
	n := 0
	if allocs := testing.AllocsPerRun(100, func() {
		cpu.Run(time.Millisecond, cpuDone, &n)
		s.Run()
	}); allocs != 0 {
		t.Errorf("CPU.Run allocates %v times per item, want 0", allocs)
	}
	if n != 101 {
		t.Errorf("%d items completed, want 101", n)
	}
}
