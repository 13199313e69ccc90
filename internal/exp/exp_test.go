package exp

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

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
	Register(Experiment{Name: "test-0", Title: "0", Generate: gen})

	if _, ok := Lookup("test-a"); !ok {
		t.Fatal("test-a not registered")
	}
	// Names keeps registration order; AllNames sorts.
	if names := Names(); !slices.Equal(names[len(names)-2:], []string{"test-a", "test-0"}) {
		t.Fatalf("Names() = %v, want test-a then test-0 last", names)
	}
	if all := AllNames(); !slices.IsSorted(all) || !slices.Contains(all, "test-0") {
		t.Fatalf("AllNames() = %v, want every name, sorted", all)
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
