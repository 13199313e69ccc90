package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// explain runs one scenario with every observer armed — the single run
// the paper's authors read through tcpdump, tcpshow and xplot — and
// prints its report: the packet summary, the request waterfall with
// per-request delay attribution, the attribution totals, the page-load
// critical path and the per-request latency histograms. With dir set it
// also writes the run's artifacts there: run.pcap, run.json (Perfetto,
// with the critical-path track), dump.txt, the xplot and time-sequence
// files of each end, and report.txt, the report itself.
func explain(spec string, seed uint64, dir string, flight *telemetry.Flight, stdout, stderr io.Writer) error {
	sc, err := core.ParseScenario(spec)
	if err != nil {
		return err
	}
	sc.Seed = seed
	site, err := core.DefaultSite()
	if err != nil {
		return err
	}
	res, err := core.Run(sc, site, core.WithCapture(), core.WithTimeline(), core.WithStats(), core.WithBlame(), core.WithFlight(flight))
	if err != nil {
		return err
	}

	var out bytes.Buffer
	st := res.Stats
	fmt.Fprintf(&out, "explain %s  seed %d\n", spec, seed)
	fmt.Fprintf(&out, "\n%s\n", sc)
	fmt.Fprintf(&out, "packets: %d (%d c→s, %d s→c, %d retransmitted, %d dropped)\n",
		st.Packets, st.ClientToServer, st.ServerToClient, st.Retransmissions, st.Dropped)
	fmt.Fprintf(&out, "payload bytes: %d   overhead: %.1f%%   connections: %d\n",
		st.PayloadBytes, st.OverheadPct(), st.Connections)
	fmt.Fprintf(&out, "elapsed: %.3fs\n\n", res.Elapsed.Seconds())
	report.WriteWaterfall(&out, res.Timeline, res.Blame)
	report.BlameSummary(&out, res.Blame)
	fmt.Fprintln(&out)
	report.CriticalPath(&out, res.Blame)
	fmt.Fprintf(&out, "\n%s  (%d requests)\n\n", sc, res.Latency.Count())
	res.Latency.Fprint(&out)
	if _, err := stdout.Write(out.Bytes()); err != nil || dir == "" {
		return err
	}

	title := sc.String()
	files := []struct {
		name  string
		write func(io.Writer) error
	}{
		{"run.pcap", res.Capture.WritePcap},
		{"run.json", func(w io.Writer) error { return res.Timeline.WritePerfettoPath(w, res.Blame.PerfettoPath()) }},
		{"dump.txt", res.Capture.Dump},
		{"client.xplot", func(w io.Writer) error { return res.Capture.WriteXplot(w, "client", title) }},
		{"server.xplot", func(w io.Writer) error { return res.Capture.WriteXplot(w, "server", title) }},
		{"client.seq", func(w io.Writer) error { return writeSeq(w, res.Capture, "client") }},
		{"server.seq", func(w io.Writer) error { return writeSeq(w, res.Capture, "server") }},
		{"report.txt", func(w io.Writer) error { _, err := w.Write(out.Bytes()); return err }},
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, f := range files {
		var b bytes.Buffer
		if err := f.write(&b); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, f.name), b.Bytes(), 0o644); err != nil {
			return err
		}
	}
	// The capture holds every hop, so on a proxy run the pcap has more
	// records than the client-side packet count of the summary.
	fmt.Fprintf(stderr, "httpperf: wrote %d files to %s (run.pcap: %d packets; timeline: %d events, %d spans)\n",
		len(files), dir, len(res.Capture.Events()), res.Timeline.Len(), len(res.Timeline.Spans()))
	return nil
}

// writeSeq prints the time-sequence points of the packets fromHost sent,
// one "time seq-lo seq-hi kind" line each.
func writeSeq(w io.Writer, c *trace.Capture, fromHost string) error {
	for _, p := range c.TimeSequence(fromHost) {
		if _, err := fmt.Fprintf(w, "%.6f %d %d %s\n", p.Time.Seconds(), p.SeqLo, p.SeqHi, p.Kind); err != nil {
			return err
		}
	}
	return nil
}
