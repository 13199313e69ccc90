// Package experiments declares the paper's regenerable experiments in
// the exp registry. Blank-importing the package populates the registry.
//
// A scenario-driven experiment is data: for each of its tables a grid —
// the row labels and the complete scenario, seed included, of every cell,
// the seed stride the table has always used and the observers its columns
// need — and a layout whose columns reduce a cell's runs to one value.
// One path executes them all: the grid's cells run through a core.Sweep
// built from the session (averaging depth, seed families, parallelism,
// metrics collection), the columns reduce the results into a
// report.Table, and the table renders itself. Because the cells are
// values they can also be enumerated without running anything; see
// Scenarios.
package experiments

import (
	"io"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/httpclient"
	"repro/internal/httpserver"
	"repro/internal/netem"
	"repro/internal/report"
)

type (
	row = core.Measured
	col = report.Col[row]
)

// table is one declared table: the grid it measures and the layout its
// measured rows print in.
type table struct {
	spec report.Spec[row]
	grid core.Grid
}

// cell is a plain scenario: the server profile's tuned configuration and
// the client mode's own, to which a declaration adds what it varies.
func cell(server httpserver.Profile, mode httpclient.Mode, env netem.Environment, wl httpclient.Workload, seed uint64) core.Scenario {
	return core.Scenario{Server: server, Client: mode, Env: env, Workload: wl, Seed: seed}
}

// oneCell declares a one-cell row under the labels.
func oneCell(sc core.Scenario, labels ...any) core.GridRow {
	return core.GridRow{Labels: labels, Cells: []core.Scenario{sc}}
}

// experiment is one declaration. The zero generate and render are the
// generic path — every table measured, tabulated and printed in order,
// a blank line between tables; an experiment sets its own where its
// result has a typed shape (Tables 3-11), a section that is not a grid
// (mux, blame), or no scenarios at all.
type experiment struct {
	name, title string
	tables      []table

	generate func(s *exp.Session, e *experiment) (any, error)
	render   func(w io.Writer, s *exp.Session, data any) error
}

// sweep derives the core.Sweep the experiment's scenarios run under,
// stamping its name on collected metrics records.
func (e *experiment) sweep(s *exp.Session) core.Sweep {
	return core.Sweep{
		Runs:       s.Runs,
		Seeds:      s.Seeds,
		Parallel:   s.Parallel,
		Experiment: e.name,
		Collector:  s.Collector,
		Stats:      s.Stats,
		Flight:     s.Flight,
	}
}

// measure runs the given tables in order and reduces each, returning the
// measured rows as well for a section that views them a second way.
func (e *experiment) measure(s *exp.Session, tables []table) ([]*report.Table, [][]row, error) {
	out, measured := make([]*report.Table, len(tables)), make([][]row, len(tables))
	for i, t := range tables {
		var err error
		if measured[i], err = e.sweep(s).Measure(t.grid, s.Site); err != nil {
			return nil, nil, err
		}
		out[i] = report.Tabulate(t.spec, measured[i])
	}
	return out, measured, nil
}

// measureTables is the generic generate: every declared table, in order.
func measureTables(s *exp.Session, e *experiment) (any, error) {
	tables, _, err := e.measure(s, e.tables)
	return tables, err
}

// renderWith adapts one of the report package's printers to an
// experiment's render, asserting the type its generate produced.
func renderWith[T any](print func(io.Writer, T)) func(io.Writer, *exp.Session, any) error {
	return func(w io.Writer, _ *exp.Session, data any) error {
		print(w, data.(T))
		return nil
	}
}

// renderTables prints tables in order, a blank line between them.
var renderTables = renderWith(func(w io.Writer, tables []*report.Table) {
	for i, t := range tables {
		if i > 0 {
			io.WriteString(w, "\n")
		}
		t.Render(w)
	}
})

// declared lists every experiment in the historical step order, which
// is the registry's.
var declared = slices.Concat(
	[]experiment{environments, table3},
	paperTables(),
	[]experiment{modem, tagCase, css, png, nagle, reset, flush, rangeProbe, headers, cwnd,
		proxy, faultInjection, variance, mux, muxFaults, blame},
)

func init() {
	for i := range declared {
		e := &declared[i]
		generate, render := e.generate, e.render
		if generate == nil {
			generate = measureTables
		}
		if render == nil {
			render = renderTables
		}
		exp.Register(exp.Experiment{
			Name: e.name, Title: e.title,
			Generate: func(s *exp.Session) (any, error) { return generate(s, e) },
			Render:   render,
		})
	}
}

// Scenarios returns the scenario population of the named experiments,
// or with no name of the default sequence exp.Names(): every declared
// cell at repetition 0 — what a one-run pass executes first in each cell
// — one per display string, the last declaration of a string winning,
// sorted by that string.
func Scenarios(names ...string) []core.Scenario {
	byLabel := map[string]core.Scenario{}
	for _, e := range declared {
		if wanted := slices.Contains(names, e.name) || len(names) == 0; !wanted {
			continue
		}
		for _, t := range e.tables {
			for _, r := range t.grid.Rows {
				for _, sc := range r.Cells {
					byLabel[sc.String()] = sc
				}
			}
		}
	}
	out := make([]core.Scenario, 0, len(byLabel))
	for _, sc := range byLabel {
		out = append(out, sc)
	}
	slices.SortFunc(out, func(a, b core.Scenario) int { return strings.Compare(a.String(), b.String()) })
	return out
}

// Grids returns the grids the named experiment declares, in order.
func Grids(name string) []core.Grid {
	var grids []core.Grid
	for _, e := range declared {
		if e.name == name {
			for _, t := range e.tables {
				grids = append(grids, t.grid)
			}
		}
	}
	return grids
}

// Column builders. A label column prints one of the row's declared
// labels; a value column reduces the repetitions of the row's first cell
// — reval shifts a column to the second, the cache-validation cell of a
// two-workload row.

func label(i int) func(row) any { return func(m row) any { return m.Labels[i] } }

func reval(c col) col {
	first := c.Value
	c.Value = func(m row) any { return first(row{Labels: m.Labels, Results: m.Results[1:]}) }
	return c
}

// num is a column averaging f.
func num(head, format string, f func(*core.RunResult) float64) col {
	return col{Head: head, Format: format, Value: func(m row) any { return core.Mean(m.Results[0], f) }}
}

// client lifts one of the robot's counters to a per-run quantity.
func client[T int | int64 | float64](f func(*httpclient.Result) T) func(*core.RunResult) float64 {
	return func(res *core.RunResult) float64 { return float64(f(&res.Client)) }
}

// kb scales a byte quantity to kilobytes.
func kb(f func(*core.RunResult) float64) func(*core.RunResult) float64 {
	return func(res *core.RunResult) float64 { return f(res) / 1024 }
}

var separator = col{Format: "|"}

// protocolModes are the four measured client configurations, in table
// order.
var protocolModes = []httpclient.Mode{
	httpclient.ModeHTTP10,
	httpclient.ModeHTTP11Serial,
	httpclient.ModeHTTP11Pipelined,
	httpclient.ModeHTTP11PipelinedDeflate,
}

var bothWorkloads = []httpclient.Workload{httpclient.FirstTime, httpclient.Revalidate}

// The experiments that run no scenarios.

var environments = experiment{
	name: "1", title: "Table 1 - Tested network environments",
	generate: func(*exp.Session, *experiment) (any, error) { return nil, nil },
	render: func(w io.Writer, _ *exp.Session, _ any) error {
		report.Environments(w)
		return nil
	},
}

var tagCase = experiment{
	name: "tagcase", title: "HTML tag case vs deflate ratio",
	generate: func(*exp.Session, *experiment) (any, error) { return core.TagCaseTable() },
	render:   renderWith(report.TagCase),
}

var css = experiment{
	name: "css", title: "Figure 1 + whole-page CSS replacement",
	generate: func(s *exp.Session, _ *experiment) (any, error) { return s.Site.CSSReplacements(), nil },
	render:   renderWith(report.CSS),
}

var png = experiment{
	name: "png", title: "GIF->PNG / animated GIF->MNG conversion",
	generate: func(s *exp.Session, _ *experiment) (any, error) { return s.Site.ConvertImages() },
	render:   renderWith(report.PNG),
}

var headers = experiment{
	name: "headers", title: "Request-redundancy (compact encoding) estimate",
	generate: func(s *exp.Session, _ *experiment) (any, error) { return core.HeaderRedundancy(s.Site) },
	render:   renderWith(report.HeaderRedundancy),
}
