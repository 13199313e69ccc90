package exp

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/telemetry"
	"repro/internal/webgen"
)

// Session carries the sweep-wide settings every experiment generator
// receives: the site under test, the averaging depth, the parallelism
// budget, the collector that gathers per-run metrics across the whole
// invocation, and the monitor that watches it.
type Session struct {
	// Site is the synthesized web site all scenarios fetch.
	Site *webgen.Site
	// Runs is the number of averaging repetitions per cell (the paper
	// used five); Seeds widens each cell with that many independent
	// seed families, multiplying the averaged population.
	Runs  int
	Seeds int
	// Parallel is the worker-pool width for independent runs.
	Parallel int
	// Collector, when non-nil, receives one Metrics record per
	// simulation run.
	Collector *Collector
	// Stats enables per-request latency collection on every run of the
	// sweep (core.WithStats): collected records gain their Dist
	// quantiles, at the cost of recording request-lifecycle spans.
	// Measurements are unperturbed either way.
	Stats bool
	// Monitor, when non-nil, watches every run of the sweep live:
	// progress, engine metrics and flight dumps (internal/telemetry).
	Monitor *telemetry.Monitor
}

// Experiment is one registered, regenerable experiment: a declarative
// replacement for a hardcoded step table. Generate produces the
// experiment's data (running scenarios through the session's pool);
// Render prints it as the paper-style text table.
type Experiment struct {
	Name string
	// Title is a one-line description for listings.
	Title string
	// Skip excludes the experiment from Names() — it runs only when
	// requested explicitly (used for extra sweeps that are not part of
	// the paper's table set).
	Skip bool

	Generate func(s *Session) (any, error)
	Render   func(w io.Writer, s *Session, data any) error
}

var registry = struct {
	sync.Mutex
	byName map[string]Experiment
	order  []string
}{byName: make(map[string]Experiment)}

// Register adds an experiment to the registry. It panics on an empty
// name, a nil Generate, or a duplicate registration — all programming
// errors in the registering package's init.
func Register(e Experiment) {
	if e.Name == "" {
		panic("exp: Register with empty name")
	}
	if e.Generate == nil {
		panic("exp: Register " + e.Name + " with nil Generate")
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.byName[e.Name]; dup {
		panic("exp: duplicate experiment " + e.Name)
	}
	registry.byName[e.Name] = e
	registry.order = append(registry.order, e.Name)
}

// Lookup returns the named experiment.
func Lookup(name string) (Experiment, bool) {
	registry.Lock()
	defer registry.Unlock()
	e, ok := registry.byName[name]
	return e, ok
}

// Names returns the non-skipped experiment names in registration order —
// the default "run everything" sequence.
func Names() []string {
	registry.Lock()
	defer registry.Unlock()
	var out []string
	for _, name := range registry.order {
		if !registry.byName[name].Skip {
			out = append(out, name)
		}
	}
	return out
}

// AllNames returns every registered name, sorted, for error messages.
func AllNames() []string {
	registry.Lock()
	defer registry.Unlock()
	out := make([]string, len(registry.order))
	copy(out, registry.order)
	sort.Strings(out)
	return out
}

// Generate runs the named experiment under the session.
func (s *Session) Generate(name string) (any, error) {
	e, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("exp: unknown experiment %q", name)
	}
	return e.Generate(s)
}
