package sim

import "testing"

// TestQueueMatchesSlice drives a Queue and a plain slice FIFO with the
// same random pushes and pops: the Queue must hand items back in the
// same order whether it drains, wraps its head index or compacts.
func TestQueueMatchesSlice(t *testing.T) {
	rng := NewRand(11)
	var q Queue[int]
	var ref []int
	next := 0
	for step := 0; step < 20000; step++ {
		// Bias towards pushes in long stretches, so the queue both drains
		// and runs long enough to compact.
		push := rng.Intn(10) < 5+int(step/1000%2)*2
		if push || len(ref) == 0 {
			q.Push(next)
			ref = append(ref, next)
			next++
		} else {
			got, want := q.Pop(), ref[0]
			ref = ref[1:]
			if got != want {
				t.Fatalf("step %d: Pop = %d, want %d", step, got, want)
			}
		}
		if q.Len() != len(ref) {
			t.Fatalf("step %d: Len = %d, want %d", step, q.Len(), len(ref))
		}
		if items := q.Items(); len(items) > 0 && items[0] != ref[0] {
			t.Fatalf("step %d: Items()[0] = %d, want %d", step, items[0], ref[0])
		}
	}
	q.Reset()
	if q.Len() != 0 || len(q.Items()) != 0 {
		t.Fatalf("after Reset: Len = %d, Items = %v", q.Len(), q.Items())
	}
}

// A queue that is filled and drained, or kept at a steady depth, reuses
// its array: after the first fill no Push allocates.
func TestQueueReusesItsArray(t *testing.T) {
	var q Queue[*int]
	x := new(int)
	for i := 0; i < 8; i++ {
		q.Push(x)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 4; i++ {
			q.Pop()
			q.Push(x)
		}
		for q.Len() > 0 {
			q.Pop()
		}
		for i := 0; i < 8; i++ {
			q.Push(x)
		}
	}); allocs != 0 {
		t.Errorf("steady-state Push allocates %v times per run, want 0", allocs)
	}
}
