package report

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"strings"
)

// Col is one column of a table Spec: a header label, the fmt verb used
// for data cells, and the value extractor. A Format containing no verb
// is a literal separator column, emitted as-is in the header and in
// every row (MainTable's "|" between the two workloads).
type Col[R any] struct {
	Head   string
	Format string
	Value  func(R) any
	// Name, when set, names the column in a Table where the printed Head
	// is blank or repeats.
	Name string
}

// Spec is a declarative table description. Render reproduces the layout
// every hand-written printer in this package used: title, rule,
// optional pre-header lines, a column-header row derived from the cell
// formats, rule, one line per row plus any sub-rows, optional footer
// lines, closing rule. Cells on a line are joined by single spaces.
type Spec[R any] struct {
	Title string
	// Width is the horizontal-rule length.
	Width int
	// PreHeader lines print between the opening rule and the column
	// header (MainTable's workload banner).
	PreHeader []string
	Cols      []Col[R]
	// SubRows, when non-nil, returns extra pre-formatted lines printed
	// after a row (the paper-comparison rows).
	SubRows func(R) []string
	// Footer, when non-nil, returns pre-formatted lines printed before
	// the closing rule.
	Footer func() []string
}

// headFormat converts a cell verb into its header verb, keeping flags
// and width but dropping precision and the type: "%8.1f" → "%8s",
// "%-12d" → "%-12s".
func headFormat(cell string) string {
	i := strings.IndexByte(cell, '%')
	j := i + 1
	for j < len(cell) && strings.IndexByte("-+ 0#", cell[j]) >= 0 {
		j++
	}
	for j < len(cell) && cell[j] >= '0' && cell[j] <= '9' {
		j++
	}
	return cell[:j] + "s"
}

// literal reports a separator column, whose Format is its text.
func (c Col[R]) literal() bool { return !strings.ContainsRune(c.Format, '%') }

// appendHeader appends the column-header row, cells joined by spaces.
func (s Spec[R]) appendHeader(b []byte) []byte {
	for i, c := range s.Cols {
		if i > 0 {
			b = append(b, ' ')
		}
		if c.literal() {
			b = append(b, c.Format...)
		} else {
			b = fmt.Appendf(b, headFormat(c.Format), c.Head)
		}
	}
	return b
}

// appendRow appends one data row, cells joined by spaces.
func (s Spec[R]) appendRow(b []byte, r R) []byte {
	for i, c := range s.Cols {
		if i > 0 {
			b = append(b, ' ')
		}
		if c.literal() {
			b = append(b, c.Format...)
		} else {
			b = fmt.Appendf(b, c.Format, c.Value(r))
		}
	}
	return b
}

// HeaderLine renders the column-header row.
func (s Spec[R]) HeaderLine() string { return string(s.appendHeader(nil)) }

// Row renders one data row.
func (s Spec[R]) Row(r R) string { return string(s.appendRow(nil, r)) }

// Render writes the whole table, built in one buffer, with one Write.
func (s Spec[R]) Render(w io.Writer, rows []R) {
	var b []byte
	lines := func(ls ...string) {
		for _, l := range ls {
			b = append(append(b, l...), '\n')
		}
	}
	rule := strings.Repeat("-", s.Width)
	if s.Title != "" {
		lines(s.Title)
	}
	lines(rule)
	lines(s.PreHeader...)
	b = append(s.appendHeader(b), '\n')
	lines(rule)
	for _, r := range rows {
		b = append(s.appendRow(b, r), '\n')
		if s.SubRows != nil {
			lines(s.SubRows(r)...)
		}
	}
	if s.Footer != nil {
		lines(s.Footer()...)
	}
	lines(rule)
	_, _ = w.Write(b) // Render reports no error, as the Fprintf per line it replaces did not
}

// Table is what a declared table reduces to once its rows are measured:
// the column values themselves, by name. It is what -json encodes, what
// Value looks a measurement up in, and — together with the layout of the
// Spec it came from — all that Render prints.
type Table struct {
	Title   string   `json:"title"`
	Columns []string `json:"columns"`
	Rows    [][]any  `json:"rows"`

	layout Spec[[]any]
}

// Tabulate evaluates the Spec's columns over the rows, once. Separator
// columns print but carry no value.
func Tabulate[R any](s Spec[R], rows []R) *Table {
	t := &Table{Title: s.Title, Rows: make([][]any, len(rows)),
		layout: Spec[[]any]{Title: s.Title, Width: s.Width, PreHeader: s.PreHeader, Footer: s.Footer}}
	for _, c := range s.Cols {
		col := Col[[]any]{Head: c.Head, Format: c.Format}
		if !c.literal() {
			i := len(t.Columns)
			col.Value = func(r []any) any { return r[i] }
			t.Columns = append(t.Columns, cmp.Or(c.Name, c.Head))
		}
		t.layout.Cols = append(t.layout.Cols, col)
	}
	for i, r := range rows {
		vals := make([]any, 0, len(t.Columns))
		for _, c := range s.Cols {
			if !c.literal() {
				vals = append(vals, c.Value(r))
			}
		}
		t.Rows[i] = vals
	}
	return t
}

// Render writes the table in its Spec's layout.
func (t *Table) Render(w io.Writer) { t.layout.Render(w, t.Rows) }

// Value returns the named column's value in the first row whose leading
// values are the given labels, or nil when no such column or row exists.
func (t *Table) Value(column string, labels ...any) any {
	col := slices.Index(t.Columns, column)
	if col < 0 {
		return nil
	}
	for _, r := range t.Rows {
		if len(labels) <= len(r) && slices.Equal(r[:len(labels)], labels) {
			return r[col]
		}
	}
	return nil
}
