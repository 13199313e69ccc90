package report

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/webgen"
)

func TestEnvironmentsRendersTable1(t *testing.T) {
	var buf bytes.Buffer
	Environments(&buf)
	out := buf.String()
	for _, want := range []string{"Table 1", "10Mbit Ethernet", "28.8k modem", "1460"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestMainTableRendersPaperRows(t *testing.T) {
	tab := core.Table{
		Number: 4,
		Title:  "Table 4 - test",
		Rows: []core.Row{{
			Label: "HTTP/1.0",
			First: core.Cell{Packets: 533, Bytes: 196898, Seconds: 0.84, OverheadPct: 9.8},
			Reval: core.Cell{Packets: 442, Bytes: 69516, Seconds: 0.82, OverheadPct: 20.3},
			Paper: &core.PaperRow{
				Label: "HTTP/1.0",
				First: core.PaperCell{Packets: 510.2, Bytes: 216289, Seconds: 0.97},
				Reval: core.PaperCell{Packets: 374.8, Bytes: 61117, Seconds: 0.78},
			},
		}},
	}
	var buf bytes.Buffer
	MainTable(&buf, tab)
	out := buf.String()
	for _, want := range []string{"Table 4 - test", "HTTP/1.0", "(paper)", "533.0", "510.2"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestTable3Renders(t *testing.T) {
	rows := []core.Table3Row{
		{Label: "HTTP/1.0", MaxSockets: 6, TotalSockets: 43, PktsC2S: 229, PktsS2C: 218, PktsTotal: 447, Elapsed: 0.82},
		{Label: "HTTP/1.1 Persistent", MaxSockets: 1, TotalSockets: 1, PktsC2S: 48, PktsS2C: 48, PktsTotal: 96, Elapsed: 3.69},
		{Label: "HTTP/1.1 Pipeline", MaxSockets: 1, TotalSockets: 1, PktsC2S: 17, PktsS2C: 14, PktsTotal: 31, Elapsed: 4.91},
	}
	var buf bytes.Buffer
	Table3(&buf, rows)
	out := buf.String()
	for _, want := range []string{"Max simultaneous sockets", "Total elapsed time", "(paper)", "497.00"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
}

func TestSmallRenderers(t *testing.T) {
	var buf bytes.Buffer
	TagCase(&buf, []core.TagCaseRow{{Label: "lower", HTMLBytes: 42000, Deflated: 11000, Ratio: 0.26}})
	HeaderRedundancy(&buf, []core.HeaderRedundancyRow{{Label: "x", RequestBytes: 7000, Ratio: 1}})
	out := buf.String()
	for _, want := range []string{"tag case", "redundancy"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
}

// A Table holds each column's values once, under the column's name,
// prints exactly what its Spec prints over the same rows — separators,
// pre-header and footer included — and finds a value by row labels and
// column name.
func TestTabulate(t *testing.T) {
	type cell struct {
		buf     int
		timeout time.Duration
		pa      float64
	}
	s := Spec[cell]{
		Title: "flush", Width: 40, PreHeader: []string{"pre"},
		Cols: []Col[cell]{
			{Head: "buffer", Format: "%-8d", Value: func(c cell) any { return c.buf }},
			{Name: "timer", Format: "%-6s", Value: func(c cell) any { return c.timeout }},
			{Format: "|"},
			{Head: "Pa", Format: "%8.1f", Value: func(c cell) any { return c.pa }},
		},
		Footer: func() []string { return []string{"foot"} },
	}
	rows := []cell{{256, time.Millisecond, 198.5}, {256, time.Second, 243}, {512, time.Second, 201}}
	tab := Tabulate(s, rows)
	if got := fmt.Sprint(tab.Columns); got != "[buffer timer Pa]" {
		t.Errorf("columns = %s", got)
	}
	var direct, viaTable bytes.Buffer
	s.Render(&direct, rows)
	tab.Render(&viaTable)
	if direct.String() != viaTable.String() || !strings.Contains(direct.String(), "1s     |    243.0") {
		t.Errorf("table renders\n%s\nits spec\n%s", viaTable.String(), direct.String())
	}
	if v := tab.Value("Pa", 256, time.Second); v != 243.0 {
		t.Errorf("Value(Pa, 256, 1s) = %v, want 243", v)
	}
	if v := tab.Value("Pa", 512); v != 201.0 {
		t.Errorf("Value(Pa, 512) = %v, want 201 (a label prefix selects the first such row)", v)
	}
	if tab.Value("Sec", 256) != nil || tab.Value("Pa", 1024) != nil || tab.Value("Pa", 256, time.Second, 243.0, 1) != nil {
		t.Error("a missing column, row, or too many labels must yield nil")
	}
	js, err := json.Marshal(tab)
	if err != nil || string(js) != `{"title":"flush","columns":["buffer","timer","Pa"],"rows":[[256,1000000,198.5],[256,1000000000,243],[512,1000000000,201]]}` {
		t.Errorf("json = %s, %v", js, err)
	}
}

func TestCSSAndPNGRender(t *testing.T) {
	site, err := webgen.Microscape(webgen.Options{Seed: 4, HTMLBytes: 4000})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	CSS(&buf, site.CSSReplacements())
	if !strings.Contains(buf.String(), "solutions") {
		t.Error("CSS report missing Figure 1")
	}
	buf.Reset()
	rep, err := site.ConvertImages()
	if err != nil {
		t.Fatal(err)
	}
	PNG(&buf, rep)
	if !strings.Contains(buf.String(), "MNG") {
		t.Error("PNG report missing MNG line")
	}
}

// countingWriter counts Writes.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.writes++
	return c.Buffer.Write(p)
}

// TestSpecRenderWritesOnce: a table reaches the caller's writer whole,
// in one Write, and its header and rows are what HeaderLine and Row
// return.
func TestSpecRenderWritesOnce(t *testing.T) {
	type row struct {
		name string
		v    float64
	}
	spec := Spec[row]{
		Title: "T", Width: 12, PreHeader: []string{"pre"},
		Cols: []Col[row]{
			{Head: "name", Format: "%-5s", Value: func(r row) any { return r.name }},
			{Format: "|"},
			{Head: "v", Format: "%4.1f", Value: func(r row) any { return r.v }},
		},
		SubRows: func(r row) []string { return []string{"  sub " + r.name} },
		Footer:  func() []string { return []string{"foot"} },
	}
	rows := []row{{"a", 1.25}, {"b", 10}}
	var w countingWriter
	spec.Render(&w, rows)
	want := "T\n------------\npre\n" + spec.HeaderLine() + "\n------------\n" +
		spec.Row(rows[0]) + "\n  sub a\n" + spec.Row(rows[1]) + "\n  sub b\nfoot\n------------\n"
	if w.String() != want {
		t.Errorf("rendered\n%s\nwant\n%s", w.String(), want)
	}
	if spec.HeaderLine() != "name  |    v" || spec.Row(rows[0]) != "a     |  1.2" {
		t.Errorf("header %q, row %q", spec.HeaderLine(), spec.Row(rows[0]))
	}
	if w.writes != 1 {
		t.Errorf("Render made %d Writes, want 1", w.writes)
	}
}

// TestFixedNsMatchesFmt compares the integer rendering of the
// waterfall's seconds and milliseconds with fmt's %.3f and %.1f on
// random values, on every exact half (where the fallback decides) and
// on the boundaries of the integer path.
func TestFixedNsMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vals := []int64{0, 1, 49999, 50000, 50001, 99999, 100000, 149999, 150000, 150001, 250000, 350000,
		499999, 500000, 500001, 999500000, 999499999, 1500000, 2500000, 999999999999999, 1e15, 1e15 + 50000,
		-1, -50000, -1500000, math.MaxInt64, math.MinInt64}
	for i := 0; i < 50000; i++ {
		v := rng.Int63n(1 << uint(1+rng.Intn(60)))
		vals = append(vals, v, v/100000*100000+50000, v/1000000*1000000+500000)
	}
	for _, ns := range vals {
		if got, want := fixedNs(ns, 6, 1), fmt.Sprintf("%.1f", float64(ns)/1e6); got != want {
			t.Fatalf("fixedNs(%d, 6, 1) = %q, %%.1f gives %q", ns, got, want)
		}
		if got, want := fixedNs(ns, 9, 3), fmt.Sprintf("%.3f", sim.Time(ns).Seconds()); got != want {
			t.Fatalf("fixedNs(%d, 9, 3) = %q, %%.3f gives %q", ns, got, want)
		}
	}
}
