// Package report renders the regenerated experiment tables as aligned
// text, side by side with the paper's published numbers where available.
// Every table is described declaratively as a Spec (tablespec.go) — a
// column list with formats and value extractors — and rendered by the
// one shared engine. The scenario-driven experiments declare their Specs
// next to their grids in internal/experiments and reach this package as
// Tables; what is rendered here by name is what has a layout or a typed
// result of its own.
package report

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/netem"
	"repro/internal/webgen"
)

// line writes one formatted row.
func line(w io.Writer, format string, args ...any) {
	fmt.Fprintf(w, format+"\n", args...)
}

func rule(w io.Writer, n int) {
	fmt.Fprintln(w, strings.Repeat("-", n))
}

// avgCols builds the four measurement columns (Pa, Bytes, Sec, %ov) for
// one workload of a main-table row.
func avgCols(pick func(core.Row) core.Cell) []Col[core.Row] {
	return []Col[core.Row]{
		{Head: "Pa", Format: "%8.1f", Value: func(r core.Row) any { return pick(r).Packets }},
		{Head: "Bytes", Format: "%9.0f", Value: func(r core.Row) any { return pick(r).Bytes }},
		{Head: "Sec", Format: "%7.2f", Value: func(r core.Row) any { return pick(r).Seconds }},
		{Head: "%ov", Format: "%5.1f", Value: func(r core.Row) any { return pick(r).OverheadPct }},
	}
}

// MainTable renders a Tables 4-9 style table with paper comparison rows.
func MainTable(w io.Writer, t core.Table) {
	cols := []Col[core.Row]{{Format: "%-36s", Value: func(r core.Row) any { return r.Label }}}
	cols = append(cols, avgCols(func(r core.Row) core.Cell { return r.First })...)
	cols = append(cols, Col[core.Row]{Format: "|"})
	cols = append(cols, avgCols(func(r core.Row) core.Cell { return r.Reval })...)
	s := Spec[core.Row]{
		Title:     t.Title,
		Width:     112,
		PreHeader: []string{fmt.Sprintf("%-36s %s  %35s", "", "First Time Retrieval", "Cache Validation")},
		Cols:      cols,
		SubRows: func(r core.Row) []string {
			if r.Paper == nil {
				return nil
			}
			p := r.Paper
			return []string{fmt.Sprintf("%-36s %8.1f %9.0f %7.2f %5s | %8.1f %9.0f %7.2f %5s",
				"  (paper)",
				p.First.Packets, p.First.Bytes, p.First.Seconds, "",
				p.Reval.Packets, p.Reval.Bytes, p.Reval.Seconds, "")}
		},
	}
	s.Render(w, t.Rows)
}

// table3Metric is one transposed row of Table 3: a metric across all
// variant columns.
type table3Metric struct {
	name  string
	cell  func(core.Table3Row) string
	paper []float64
}

// Table3 renders the initial-investigation table in the paper's layout
// (metrics as rows, variants as columns).
func Table3(w io.Writer, rows []core.Table3Row) {
	cols := []Col[table3Metric]{{Format: "%-34s", Value: func(m table3Metric) any { return m.name }}}
	for _, r := range rows {
		r := r
		cols = append(cols, Col[table3Metric]{Head: r.Label, Format: "%19s",
			Value: func(m table3Metric) any { return m.cell(r) }})
	}
	p := core.PaperTable3
	metrics := []table3Metric{
		{"Max simultaneous sockets", func(r core.Table3Row) string { return fmt.Sprintf("%d", r.MaxSockets) }, p.MaxSockets},
		{"Total number of sockets used", func(r core.Table3Row) string { return fmt.Sprintf("%d", r.TotalSockets) }, p.TotalSockets},
		{"Packets from client to server", func(r core.Table3Row) string { return fmt.Sprintf("%.1f", r.PktsC2S) }, p.PktsC2S},
		{"Packets from server to client", func(r core.Table3Row) string { return fmt.Sprintf("%.1f", r.PktsS2C) }, p.PktsS2C},
		{"Total number of packets", func(r core.Table3Row) string { return fmt.Sprintf("%.1f", r.PktsTotal) }, p.PktsAll},
		{"Total elapsed time [secs]", func(r core.Table3Row) string { return fmt.Sprintf("%.2f", r.Elapsed) }, p.Elapsed},
	}
	s := Spec[table3Metric]{
		Title: "Table 3 - Jigsaw - Initial High Bandwidth, Low Latency Cache Revalidation Test",
		Width: 96,
		Cols:  cols,
		SubRows: func(m table3Metric) []string {
			if m.paper == nil {
				return nil
			}
			out := fmt.Sprintf("%-34s", "  (paper)")
			for _, v := range m.paper {
				out += fmt.Sprintf(" %19.2f", v)
			}
			return []string{out}
		},
	}
	s.Render(w, metrics)
}

// Environments renders Table 1.
func Environments(w io.Writer) {
	s := Spec[netem.Environment]{
		Title: "Table 1 - Tested Network Environments",
		Width: 86,
		Cols: []Col[netem.Environment]{
			{Head: "Channel", Format: "%-30s", Value: func(e netem.Environment) any { return netem.Profiles[e].Channel }},
			{Head: "Connection", Format: "%-32s", Value: func(e netem.Environment) any { return netem.Profiles[e].Connection }},
			{Head: "RTT", Format: "%8s", Value: func(e netem.Environment) any { return netem.Profiles[e].RTT }},
			{Head: "MSS", Format: "%6d", Value: func(e netem.Environment) any { return netem.Profiles[e].MSS }},
		},
	}
	s.Render(w, netem.Environments)
}

// TagCase renders the markup-case compression experiment.
func TagCase(w io.Writer, rows []core.TagCaseRow) {
	s := Spec[core.TagCaseRow]{
		Title: "HTML tag case vs deflate compression (paper: lower ≈ 0.27, mixed ≈ 0.35)",
		Width: 64,
		Cols: []Col[core.TagCaseRow]{
			{Format: "%-24s", Value: func(r core.TagCaseRow) any { return r.Label }},
			{Head: "HTML", Format: "%10d", Value: func(r core.TagCaseRow) any { return r.HTMLBytes }},
			{Head: "deflated", Format: "%10d", Value: func(r core.TagCaseRow) any { return r.Deflated }},
			{Head: "ratio", Format: "%8.3f", Value: func(r core.TagCaseRow) any { return r.Ratio }},
		},
	}
	s.Render(w, rows)
}

// cssSpec lists the image→CSS replacements.
var cssSpec = Spec[webgen.Replacement]{
	Cols: []Col[webgen.Replacement]{
		{Head: "image", Format: "%-22s", Value: func(r webgen.Replacement) any { return r.Name }},
		{Head: "role", Format: "%-10s", Value: func(r webgen.Replacement) any { return r.Role }},
		{Head: "GIF", Format: "%10d", Value: func(r webgen.Replacement) any { return r.GIFBytes }},
		{Head: "HTML+CSS", Format: "%10d", Value: func(r webgen.Replacement) any { return r.CSSBytes() }},
		{Head: "saved", Format: "%8d", Value: func(r webgen.Replacement) any { return r.Saved() }},
	},
}

// CSS renders the image→CSS replacement analysis (Figure 1 and the
// whole-page estimate).
func CSS(w io.Writer, rep webgen.CSSReport) {
	fig := webgen.FigureOneReplacement()
	line(w, "Figure 1 - the %q banner", "solutions")
	line(w, "  GIF: %d bytes; HTML+CSS replacement: %d bytes (paper: 682 -> ~150)", fig.GIFBytes, fig.CSSBytes())
	line(w, "  reduction factor: %.1fx", float64(fig.GIFBytes)/float64(fig.CSSBytes()))
	line(w, "")
	line(w, "Whole-page image -> HTML+CSS analysis")
	rule(w, 70)
	line(w, "  images replaced:        %d of %d", len(rep.Replacements), len(rep.Replacements)+len(rep.Kept))
	line(w, "  HTTP requests saved:    %d of 43", rep.RequestsSaved)
	line(w, "  image bytes removed:    %d", rep.GIFBytesRemoved)
	line(w, "  HTML+CSS bytes added:   %d", rep.CSSBytesAdded)
	line(w, "  net payload saving:     %d bytes", rep.NetSavings())
	rule(w, 70)
	line(w, "%s", cssSpec.HeaderLine())
	for _, r := range rep.Replacements {
		line(w, "%s", cssSpec.Row(r))
	}
	rule(w, 70)
}

// pngSpec lists the GIF→PNG/MNG conversions.
var pngSpec = Spec[webgen.Conversion]{
	Cols: []Col[webgen.Conversion]{
		{Head: "image", Format: "%-22s", Value: func(c webgen.Conversion) any { return c.Name }},
		{Head: "role", Format: "%-10s", Value: func(c webgen.Conversion) any { return c.Role }},
		{Head: "GIF", Format: "%10d", Value: func(c webgen.Conversion) any { return c.GIFBytes }},
		{Head: "PNG/MNG", Format: "%10d", Value: func(c webgen.Conversion) any { return c.NewBytes }},
		{Head: "saved", Format: "%8d", Value: func(c webgen.Conversion) any { return c.Saved() }},
	},
}

// PNG renders the GIF→PNG / animated GIF→MNG conversion report.
func PNG(w io.Writer, rep webgen.ConversionReport) {
	line(w, "GIF -> PNG and animated GIF -> MNG conversion")
	rule(w, 76)
	line(w, "  static GIFs:  %d -> %d bytes (saved %d, %.1f%%)  [paper: 103299 -> 92096]",
		rep.StaticGIF, rep.StaticPNG, rep.StaticSaved(), 100*float64(rep.StaticSaved())/float64(rep.StaticGIF))
	line(w, "  animations:   %d -> %d bytes (saved %d, %.1f%%)  [paper: 24988 -> 16329]",
		rep.AnimGIF, rep.AnimMNG, rep.AnimSaved(), 100*float64(rep.AnimSaved())/float64(rep.AnimGIF))
	rule(w, 76)
	line(w, "%s", pngSpec.HeaderLine())
	for _, c := range rep.Static {
		line(w, "%s", pngSpec.Row(c))
	}
	for _, c := range rep.Animations {
		line(w, "%s", pngSpec.Row(c))
	}
	rule(w, 76)
}

// HeaderRedundancy renders the compact-wire-representation estimate.
func HeaderRedundancy(w io.Writer, rows []core.HeaderRedundancyRow) {
	s := Spec[core.HeaderRedundancyRow]{
		Title: "Request redundancy on the 43-request revalidation (paper: ~10% of bytes change between requests)",
		Width: 86,
		Cols: []Col[core.HeaderRedundancyRow]{
			{Format: "%-52s", Value: func(r core.HeaderRedundancyRow) any { return r.Label }},
			{Head: "bytes", Format: "%12d", Value: func(r core.HeaderRedundancyRow) any { return r.RequestBytes }},
			{Head: "ratio", Format: "%8.3f", Value: func(r core.HeaderRedundancyRow) any { return r.Ratio }},
		},
	}
	s.Render(w, rows)
}
