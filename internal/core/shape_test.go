package core_test

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	_ "repro/internal/experiments"
	"repro/internal/report"
)

// The shape tests check what each declared experiment shows, by row label
// and column head, at one run per cell.

// generate runs the named experiment at one run per cell.
func generate(t *testing.T, name string) any {
	t.Helper()
	site, err := core.DefaultSite()
	if err != nil {
		t.Fatal(err)
	}
	data, err := (&exp.Session{Site: site, Runs: 1}).Generate(name)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// value is the named column's number in the row under the labels.
func value(t *testing.T, tab *report.Table, column string, labels ...any) float64 {
	t.Helper()
	v, ok := tab.Value(column, labels...).(float64)
	if !ok {
		t.Fatalf("%s: no number in column %q of row %v", tab.Title, column, labels)
	}
	return v
}

func TestModemTableShape(t *testing.T) {
	tab := generate(t, "modem").([]*report.Table)[1] // Apache
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tab.Rows))
	}
	const (
		raw     = "Uncompressed HTML, modem compression off"
		modem   = "Uncompressed HTML, V.42bis modem compression"
		deflate = "Deflate-compressed HTML, modem compression off"
	)
	// V.42bis helps the raw transfer...
	if value(t, tab, "Sec", modem) >= value(t, tab, "Sec", raw) {
		t.Errorf("modem compression did not help: %.2f vs %.2f", value(t, tab, "Sec", modem), value(t, tab, "Sec", raw))
	}
	// ...but deflate beats it (the paper's point).
	if value(t, tab, "Sec", deflate) >= value(t, tab, "Sec", modem) {
		t.Errorf("deflate (%.2fs) should beat modem compression (%.2fs)", value(t, tab, "Sec", deflate), value(t, tab, "Sec", modem))
	}
	// Packet counts collapse roughly threefold with deflate (67 -> 21).
	if value(t, tab, "Pa", deflate) > value(t, tab, "Pa", raw)/2 {
		t.Errorf("deflate packets %.0f vs raw %.0f, want ≈1/3", value(t, tab, "Pa", deflate), value(t, tab, "Pa", raw))
	}
}

func TestNagleTableShape(t *testing.T) {
	tab := generate(t, "nagle").([]*report.Table)[0]
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tab.Rows))
	}
	noDelay, nagle := value(t, tab, "Sec", "Serial client, server TCP_NODELAY"), value(t, tab, "Sec", "Serial client, server Nagle")
	if nagle < 1.3*noDelay {
		t.Errorf("serial+Nagle (%.2fs) should be dramatically slower than serial+NODELAY (%.2fs)", nagle, noDelay)
	}
}

func TestResetTableShape(t *testing.T) {
	tab := generate(t, "reset").([]*report.Table)[0]
	const graceful, naive = "Graceful half-close after 5 requests", "Naive full close after 5 requests"
	if resets := value(t, tab, "Resets", graceful); resets != 0 {
		t.Errorf("graceful close produced %v resets", resets)
	}
	if value(t, tab, "Resets", naive) == 0 {
		t.Error("naive close produced no reset")
	}
	if g, n := value(t, tab, "Responses", graceful), value(t, tab, "Responses", naive); g != 43 || n != 43 {
		t.Errorf("both variants must eventually serve 43 responses: %v / %v", g, n)
	}
	if g, n := value(t, tab, "Sec", graceful), value(t, tab, "Sec", naive); n <= g {
		t.Errorf("naive close (%.2fs) should cost more than graceful (%.2fs)", n, g)
	}
}

func TestFlushAblationShape(t *testing.T) {
	tab := generate(t, "flush").([]*report.Table)[0]
	if len(tab.Rows) != 15 {
		t.Fatalf("rows = %d, want 15", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		if value(t, tab, "Pa", r[0], r[1]) <= 0 || value(t, tab, "Sec", r[0], r[1]) <= 0 {
			t.Fatalf("degenerate cell: %v", r)
		}
	}
	if value(t, tab, "Pa", 1024, 50*time.Millisecond) <= 0 {
		t.Error("the 1024-byte, 50ms cell is not addressable by its labels")
	}
}

func TestMainTableStructure(t *testing.T) {
	tab := generate(t, "5").(core.Table)
	if len(tab.Rows) != 4 {
		t.Fatalf("Table 5 rows = %d, want 4", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		if r.Paper == nil {
			t.Errorf("row %q missing paper comparison", r.Label)
		}
	}
	if ppp := generate(t, "8").(core.Table); len(ppp.Rows) != 3 {
		t.Fatalf("Table 8 rows = %d, want 3 (no HTTP/1.0 over PPP)", len(ppp.Rows))
	}
	if _, ok := exp.Lookup("12"); ok {
		t.Fatal("bogus table number accepted")
	}
}

func TestTable3Shape(t *testing.T) {
	rows := generate(t, "3").([]core.Table3Row)
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	h10, persistent, pipeline := rows[0], rows[1], rows[2]
	// "a significant saving in TCP packets using HTTP/1.1 but also a big
	// increase in elapsed time".
	if persistent.PktsTotal >= h10.PktsTotal/2 {
		t.Errorf("persistent packets %.0f vs 1.0 %.0f, want big saving", persistent.PktsTotal, h10.PktsTotal)
	}
	if persistent.Elapsed <= h10.Elapsed {
		t.Errorf("initial persistent elapsed %.2f should exceed HTTP/1.0 %.2f", persistent.Elapsed, h10.Elapsed)
	}
	// "Elapsed time performance of HTTP/1.1 with pipelining was worse
	// than HTTP/1.0 in this initial implementation, though the number of
	// packets used were dramatically better."
	if pipeline.Elapsed <= h10.Elapsed {
		t.Errorf("initial pipeline elapsed %.2f should exceed HTTP/1.0 %.2f", pipeline.Elapsed, h10.Elapsed)
	}
	if pipeline.PktsTotal >= h10.PktsTotal/5 {
		t.Errorf("pipeline packets %.0f vs 1.0 %.0f, want dramatic saving", pipeline.PktsTotal, h10.PktsTotal)
	}
	if h10.TotalSockets != 43 || persistent.TotalSockets != 1 || pipeline.TotalSockets != 1 {
		t.Errorf("socket counts: %d/%d/%d, want 43/1/1",
			h10.TotalSockets, persistent.TotalSockets, pipeline.TotalSockets)
	}
}

func TestBrowserTables(t *testing.T) {
	jig, apa := generate(t, "10").(core.Table), generate(t, "11").(core.Table)
	for _, tab := range []core.Table{jig, apa} {
		if len(tab.Rows) != 2 {
			t.Fatalf("Table %d rows = %d, want 2", tab.Number, len(tab.Rows))
		}
	}
	// The Table 10 anomaly: IE revalidating against Jigsaw costs several
	// times the packets of IE against Apache (301 vs 117 in the paper).
	ieJig := jig.Rows[1].Reval
	ieApa := apa.Rows[1].Reval
	if ieJig.Packets < 2*ieApa.Packets {
		t.Errorf("IE reval on Jigsaw (%.0f packets) should far exceed on Apache (%.0f)",
			ieJig.Packets, ieApa.Packets)
	}
}

func TestRangeTableShape(t *testing.T) {
	tab := generate(t, "range").([]*report.Table)[0]
	const plain, probe = "Conditional GET (full changed bodies inline)", "Conditional GET + Range probe (512 bytes)"
	if n := value(t, tab, "206s", plain); n != 0 {
		t.Fatalf("conditional GET produced %v 206s", n)
	}
	if n := value(t, tab, "206s", probe); n < 10 {
		t.Fatalf("probe variant produced only %v 206s", n)
	}
	// The paper's predicted benefit: object metadata completes much
	// earlier because large changed entities cannot monopolize the
	// connection.
	if p, q := value(t, tab, "Metadata Sec", probe), value(t, tab, "Metadata Sec", plain); p >= 0.75*q {
		t.Fatalf("probe metadata %.2fs vs plain %.2fs: no multiplexing benefit", p, q)
	}
	// And the cost is modest: total time and bytes within ~20%.
	if p, q := value(t, tab, "Sec", probe), value(t, tab, "Sec", plain); p > 1.25*q {
		t.Fatalf("probe total %.2fs vs plain %.2fs: cost too high", p, q)
	}
	if p, q := value(t, tab, "Bytes", probe), value(t, tab, "Bytes", plain); p > 1.2*q {
		t.Fatalf("probe bytes %.0f vs plain %.0f", p, q)
	}
}

// TestFidelityEnvelope guards the calibration: every cell of the
// regenerated main tables must stay within a fixed band of the paper's
// published value. Packets are protocol-determined and held tight;
// elapsed time depends on modeled CPU costs and gets a wider band.
func TestFidelityEnvelope(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full table matrix")
	}
	const (
		paLo, paHi   = 0.60, 1.45
		secLo, secHi = 0.30, 2.00
	)
	for _, name := range []string{"4", "5", "6", "7", "8", "9"} {
		tab := generate(t, name).(core.Table)
		for _, row := range tab.Rows {
			if row.Paper == nil {
				t.Fatalf("table %s row %q has no paper data", name, row.Label)
			}
			check := func(kind string, got, want float64, lo, hi float64) {
				if want == 0 {
					return
				}
				r := got / want
				if r < lo || r > hi {
					t.Errorf("table %s, %s, %s: measured %.1f vs paper %.1f (ratio %.2f outside [%.2f, %.2f])",
						name, row.Label, kind, got, want, r, lo, hi)
				}
			}
			check("first Pa", row.First.Packets, row.Paper.First.Packets, paLo, paHi)
			check("reval Pa", row.Reval.Packets, row.Paper.Reval.Packets, paLo, paHi)
			check("first Sec", row.First.Seconds, row.Paper.First.Seconds, secLo, secHi)
			check("reval Sec", row.Reval.Seconds, row.Paper.Reval.Seconds, secLo, secHi)
			check("first Bytes", row.First.Bytes, row.Paper.First.Bytes, 0.7, 1.3)
			check("reval Bytes", row.Reval.Bytes, row.Paper.Reval.Bytes, 0.7, 1.3)
		}
	}
}

func TestCwndTableShape(t *testing.T) {
	tab := generate(t, "cwnd").([]*report.Table)[0]
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tab.Rows))
	}
	const plain, deflate = "IW=1, identity HTML", "IW=1, deflate HTML"
	// Deflate always removes packets; with IW=1 it must not be slower.
	if d, p := value(t, tab, "Pa", deflate), value(t, tab, "Pa", plain); d >= p {
		t.Errorf("deflate did not reduce packets at IW=1: %.0f vs %.0f", d, p)
	}
	if d, p := value(t, tab, "Sec", deflate), value(t, tab, "Sec", plain); d > p*1.02 {
		t.Errorf("deflate slower at IW=1: %.2f vs %.2f", d, p)
	}
}

// TestProxyTableShape checks the cache columns against what each cache
// state means, for every protocol mode.
func TestProxyTableShape(t *testing.T) {
	tab := generate(t, "proxy").([]*report.Table)[0]
	if len(tab.Rows) != 3*4 {
		t.Fatalf("got %d rows, want 3 cache states × 4 modes", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		mode, state := r[0], r[1]
		hit, origin := value(t, tab, "hit%", mode, state), value(t, tab, "originPa", mode, state)
		switch state {
		case "cold":
			if hit != 0 || origin == 0 {
				t.Errorf("cold %s: hit ratio %.2f%%, origin packets %.1f", mode, hit, origin)
			}
		case "warm":
			if saved := value(t, tab, "KBsaved", mode, state); hit != 100 || origin != 0 || saved == 0 {
				t.Errorf("warm %s: hit ratio %.2f%%, origin packets %.1f, saved %.0f KB", mode, hit, origin, saved)
			}
		case "stale":
			if up := value(t, tab, "upReq", mode, state); origin == 0 || up == 0 {
				t.Errorf("stale %s: origin packets %.1f, upstream requests %.1f", mode, origin, up)
			}
		}
	}
}
