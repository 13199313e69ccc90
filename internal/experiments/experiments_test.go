package experiments

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
)

func session(t *testing.T, parallel int) *exp.Session {
	t.Helper()
	site, err := core.DefaultSite()
	if err != nil {
		t.Fatal(err)
	}
	return &exp.Session{Site: site, Runs: 2, Parallel: parallel, Collector: exp.NewCollector()}
}

// render generates the named experiment under the session and returns
// the rendered table bytes.
func render(t *testing.T, s *exp.Session, name string) []byte {
	t.Helper()
	e, ok := exp.Lookup(name)
	if !ok {
		t.Fatalf("experiment %q not registered", name)
	}
	data, err := e.Generate(s)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var buf bytes.Buffer
	if err := e.Render(&buf, s, data); err != nil {
		t.Fatalf("%s: render: %v", name, err)
	}
	return buf.Bytes()
}

// TestRegisteredNames pins the registry to the historical step order.
func TestRegisteredNames(t *testing.T) {
	want := []string{"1", "3", "4", "5", "6", "7", "8", "9", "10", "11",
		"modem", "tagcase", "css", "png", "nagle", "reset", "flush",
		"range", "headers", "cwnd", "proxy", "faults", "variance", "mux",
		"mux-faults", "blame"}
	got := exp.Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names()[%d] = %q, want %q (full: %v)", i, got[i], want[i], got)
		}
	}
	if all := exp.AllNames(); len(all) != len(want) {
		t.Errorf("AllNames() = %v: every registered experiment runs by default", all)
	}
}

// TestRenderedBytesDeterministic requires the full rendered output of a
// scenario-driven experiment — and its collected metrics CSV — to be
// byte-identical between a serial and a wide worker pool. nagle mixes
// server overrides and proxy runs the two-link topology.
func TestRenderedBytesDeterministic(t *testing.T) {
	for _, name := range []string{"3", "nagle", "proxy", "faults", "variance", "mux", "mux-faults", "blame"} {
		s1 := session(t, 1)
		s8 := session(t, 8)
		out1 := render(t, s1, name)
		out8 := render(t, s8, name)
		if !bytes.Equal(out1, out8) {
			t.Errorf("%s: rendered table differs between -parallel 1 and 8:\n%s\nvs\n%s", name, out1, out8)
		}
		var csv1, csv8 bytes.Buffer
		if err := s1.Collector.WriteCSV(&csv1); err != nil {
			t.Fatal(err)
		}
		if err := s8.Collector.WriteCSV(&csv8); err != nil {
			t.Fatal(err)
		}
		if s1.Collector.Len() == 0 {
			t.Errorf("%s: no metrics collected", name)
		}
		if !bytes.Equal(csv1.Bytes(), csv8.Bytes()) {
			t.Errorf("%s: metrics CSV differs between -parallel 1 and 8", name)
		}
	}
}

// TestRenderUsesGeneratedData pins that an experiment renders the value
// its Generate produced instead of computing it again: converting the
// site's images takes over a hundred thousand allocations, printing the
// report of it a few hundred.
func TestRenderUsesGeneratedData(t *testing.T) {
	s := session(t, 1)
	for _, name := range []string{"png", "css"} {
		e, _ := exp.Lookup(name)
		data, err := e.Generate(s)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if err := e.Render(io.Discard, s, data); err != nil {
				t.Fatal(err)
			}
		})
		if allocs >= 1000 {
			t.Errorf("rendering %s allocates %.0f objects; it must not recompute its report", name, allocs)
		}
	}
}
