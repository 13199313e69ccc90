package exp

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
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

func TestCollectorDeterministicOrder(t *testing.T) {
	mk := func(perm []int) *Collector {
		c := NewCollector()
		for _, i := range perm {
			c.Add(Metrics{
				Experiment: fmt.Sprintf("e%d", i%3),
				Scenario:   fmt.Sprintf("s%d", i%5),
				Seed:       uint64(i % 7),
				Run:        i,
				Packets:    i,
			})
		}
		return c
	}
	base := make([]int, 60)
	for i := range base {
		base[i] = i
	}
	perm := append([]int(nil), base...)
	rand.New(rand.NewSource(1)).Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })

	var a, b bytes.Buffer
	if err := mk(base).WriteCSV(&a); err != nil {
		t.Fatal(err)
	}
	if err := mk(perm).WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("CSV output depends on insertion order")
	}
	if got := mk(base).Len(); got != 60 {
		t.Fatalf("Len = %d, want 60", got)
	}
}

func TestCollectorCSVShape(t *testing.T) {
	c := NewCollector()
	c.Add(Metrics{Experiment: "4", Scenario: "Jigsaw/HTTP/1.0/LAN/First Time Retrieval", Seed: 9, Packets: 530, OverheadPct: 9.8})
	var buf bytes.Buffer
	if err := c.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d, want header + 1 row", len(lines))
	}
	if !strings.HasPrefix(lines[0], "experiment,scenario,seed,run,packets,") {
		t.Fatalf("header = %q", lines[0])
	}
	wantCols := len(csvColumns)
	if got := len(strings.Split(lines[1], ",")); got != wantCols {
		t.Fatalf("row has %d columns, want %d", got, wantCols)
	}
	if !strings.Contains(lines[1], "530") || !strings.Contains(lines[1], "9.800000") {
		t.Fatalf("row missing values: %q", lines[1])
	}
}

func TestRegistry(t *testing.T) {
	// The registry is process-global; use uniquely named test entries.
	gen := func(s *Session) (any, error) { return 42, nil }
	Register(Experiment{Name: "test-a", Title: "a", Generate: gen})
	Register(Experiment{Name: "test-b", Title: "b", Generate: gen, Skip: true})

	if _, ok := Lookup("test-a"); !ok {
		t.Fatal("test-a not registered")
	}
	names := Names()
	hasA, hasB := false, false
	for _, n := range names {
		if n == "test-a" {
			hasA = true
		}
		if n == "test-b" {
			hasB = true
		}
	}
	if !hasA {
		t.Fatal("Names() missing test-a")
	}
	if hasB {
		t.Fatal("Names() includes skipped test-b")
	}
	all := AllNames()
	found := false
	for _, n := range all {
		if n == "test-b" {
			found = true
		}
	}
	if !found {
		t.Fatal("AllNames() missing skipped test-b")
	}

	s := &Session{}
	v, err := s.Generate("test-a")
	if err != nil || v != 42 {
		t.Fatalf("Generate = %v, %v", v, err)
	}
	if _, err := s.Generate("nope"); err == nil {
		t.Fatal("unknown experiment accepted")
	}

	for _, bad := range []Experiment{
		{Name: "", Generate: gen},
		{Name: "test-nilgen"},
		{Name: "test-a", Generate: gen}, // duplicate
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Register(%q) did not panic", bad.Name)
				}
			}()
			Register(bad)
		}()
	}
}
