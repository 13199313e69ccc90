package exp

import (
	"fmt"
	"io"
	"slices"
	"sync"

	"repro/internal/telemetry"
	"repro/internal/webgen"
)

// Session carries the sweep-wide settings every experiment generator
// receives: the site under test, the averaging depth, the parallelism
// budget, the collector that gathers per-run metrics across the whole
// invocation, and the flight recorder armed on its runs.
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
	// Flight, when non-nil, arms the flight recorder on every run of the
	// sweep (internal/telemetry).
	Flight *telemetry.Flight
}

// Experiment is one registered, regenerable experiment: a declarative
// replacement for a hardcoded step table. Generate produces the
// experiment's data (running scenarios through the session's pool);
// Render prints it as the paper-style text table.
type Experiment struct {
	Name string
	// Title is a one-line description for listings.
	Title string

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

// Names returns the experiment names in registration order — the
// default "run everything" sequence.
func Names() []string {
	registry.Lock()
	defer registry.Unlock()
	return slices.Clone(registry.order)
}

// AllNames returns every registered name, sorted, for error messages.
func AllNames() []string {
	out := Names()
	slices.Sort(out)
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
