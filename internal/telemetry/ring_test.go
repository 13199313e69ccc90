package telemetry

import (
	"math/rand"
	"testing"
)

// naiveTail is the reference model: an unbounded slice truncated to its
// last cap elements on read.
type naiveTail struct {
	all []int
	cap int
}

func (n *naiveTail) push(v int) { n.all = append(n.all, v) }

func (n *naiveTail) tail() []int {
	if len(n.all) <= n.cap {
		return n.all
	}
	return n.all[len(n.all)-n.cap:]
}

func (n *naiveTail) dropped() uint64 {
	if len(n.all) <= n.cap {
		return 0
	}
	return uint64(len(n.all) - n.cap)
}

// TestRingMatchesNaiveModel drives rings of many capacities with random
// push counts and checks every observable (snapshot contents and order,
// length, dropped count) against the reference model.
func TestRingMatchesNaiveModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, capacity := range []int{1, 2, 3, 7, 64, 1000} {
		r := NewRing[int](capacity)
		model := &naiveTail{cap: capacity}
		for round := 0; round < 50; round++ {
			for i, n := 0, rng.Intn(3*capacity); i < n; i++ {
				v := rng.Int()
				r.Push(v)
				model.push(v)
			}
			want := model.tail()
			got := r.Snapshot()
			if len(got) != len(want) {
				t.Fatalf("cap %d round %d: snapshot length %d, want %d", capacity, round, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("cap %d round %d: snapshot[%d] = %d, want %d", capacity, round, i, got[i], want[i])
				}
			}
			if r.Len() != len(want) {
				t.Fatalf("cap %d: Len %d, want %d", capacity, r.Len(), len(want))
			}
			if r.Dropped() != model.dropped() {
				t.Fatalf("cap %d: Dropped %d, want %d", capacity, r.Dropped(), model.dropped())
			}
		}
	}
}

func TestRingWraparound(t *testing.T) {
	r := NewRing[int](3)
	for v := 1; v <= 5; v++ {
		r.Push(v)
	}
	got := r.Snapshot()
	want := []int{3, 4, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("snapshot = %v, want %v", got, want)
		}
	}
	if r.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2", r.Dropped())
	}
	if len(r.buf) != 3 || r.Len() != 3 {
		t.Fatalf("capacity/Len = %d/%d, want 3/3", len(r.buf), r.Len())
	}
}

func TestRingMinimumCapacity(t *testing.T) {
	r := NewRing[string](0)
	if len(r.buf) != 1 {
		t.Fatalf("capacity = %d, want 1 for capacity 0", len(r.buf))
	}
	r.Push("a")
	r.Push("b")
	if snap := r.Snapshot(); len(snap) != 1 || snap[0] != "b" {
		t.Fatalf("snapshot = %v, want [b]", snap)
	}
}

// TestRingSnapshotIsFresh verifies the snapshot does not alias the
// ring's buffer: a dump must stay stable while the run keeps pushing.
func TestRingSnapshotIsFresh(t *testing.T) {
	r := NewRing[int](2)
	r.Push(1)
	r.Push(2)
	snap := r.Snapshot()
	r.Push(3)
	if snap[0] != 1 || snap[1] != 2 {
		t.Fatalf("snapshot mutated by later Push: %v", snap)
	}
}
