// Package telemetry is the harness's crash-dump flight recorder. When an
// observed run panics, the client's fault-recovery watchdog fires, or the
// run does not finish, core reads the tail of the run's internal/obs
// event record and hands it to Flight.Dump, which writes it as Perfetto
// JSON plus a synthetic pcap and announces the dump on one line of the
// dump directory's index.txt.
//
// The recorder is off by default and strictly non-perturbing: it reads
// the run's record after the drive and schedules nothing, so every
// table, metrics record and exported artifact is byte-identical with it
// armed (enforced by core's TestTelemetryDoesNotPerturb).
//
// The package holds no process state. cmd/httpperf builds one Flight
// from -flight and hands it down to the runs it observes (exp.Session →
// core.Sweep → core.Run); a run without one is unobserved.
package telemetry

import (
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
)

// DefaultFlightEvents is how many of a run's last bus events a dump
// keeps: enough tail to see the stall or reset that killed a run. The
// bus holds the whole run, and no declared scenario publishes more than
// 1 763 events, so the bound only shortens the dump of a run that never
// finishes.
const DefaultFlightEvents = 4096

// indexFile is the file in the dump directory that announces each dump.
const indexFile = "index.txt"

// Flight is a flight recorder's dump directory. The runs of a sweep dump
// through one Flight from pool workers: each dump takes the next number,
// and index lines are appended one at a time, in the order the dumps
// finish.
type Flight struct {
	dir string
	seq atomic.Int64
	mu  sync.Mutex // serializes appends to the index
}

// NewFlight prepares a recorder writing dumps into dir.
func NewFlight(dir string) (*Flight, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("telemetry: flight dir: %w", err)
	}
	return &Flight{dir: dir}, nil
}

// DumpSource is everything a dump needs from the failing run: a label
// (the scenario string), the trigger reason ("panic", "watchdog",
// "error"), how many events the dump keeps and how many earlier ones it
// drops, and exporter closures for the two artifact formats. A nil
// exporter skips that artifact.
type DumpSource struct {
	Label   string
	Reason  string
	Events  int
	Dropped int

	Perfetto func(w *os.File) error
	Pcap     func(w *os.File) error
}

// Dump writes the kept events into the dump directory and appends
// one tab-separated line to its index.txt: the dump's number, the
// reason, the label, the events kept and dropped, the artifacts written
// and, when a write failed, the first error:
//
//	002	watchdog	Apache/HTTP/1.1/PPP/First Time Retrieval/flap	kept 926	dropped 0	flight-002-….perfetto.json flight-002-….pcap
//
// Dump never panics: a dump is a best-effort black box retrieved on the
// way down.
func (f *Flight) Dump(src DumpSource) error {
	n := f.seq.Add(1)
	base := fmt.Sprintf("flight-%03d-%s-%s", n, sanitizeLabel(src.Label), src.Reason)
	var written []string
	var firstErr error
	write := func(name string, export func(w *os.File) error) {
		if export == nil {
			return
		}
		path := filepath.Join(f.dir, name)
		if err := writeFile(path, os.O_TRUNC, export); err != nil {
			os.Remove(path) // best effort: the index names only whole artifacts
			firstErr = cmp.Or(firstErr, fmt.Errorf("telemetry: flight dump %s: %w", name, err))
			return
		}
		written = append(written, name)
	}
	write(base+".perfetto.json", src.Perfetto)
	write(base+".pcap", src.Pcap)

	line := fmt.Sprintf("%03d\t%s\t%s\tkept %d\tdropped %d\t%s", n, src.Reason, src.Label,
		src.Events, src.Dropped, strings.Join(written, " "))
	if firstErr != nil {
		line += "\t" + firstErr.Error()
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	err := writeFile(filepath.Join(f.dir, indexFile), os.O_APPEND, func(w *os.File) error {
		_, err := w.WriteString(line + "\n")
		return err
	})
	if err != nil {
		firstErr = cmp.Or(firstErr, fmt.Errorf("telemetry: flight index: %w", err))
	}
	return firstErr
}

// writeFile opens path for writing, created if missing and truncated or
// appended to as mode (os.O_TRUNC or os.O_APPEND) says, and fills it
// through export.
func writeFile(path string, mode int, export func(w *os.File) error) error {
	file, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|mode, 0o644)
	if err != nil {
		return err
	}
	err = export(file)
	if cerr := file.Close(); err == nil {
		err = cerr
	}
	return err
}

// sanitizeLabel turns a scenario string into a filename-safe token.
func sanitizeLabel(s string) string {
	if s == "" {
		return "run"
	}
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '.', r == '_':
			return r
		default:
			return '-'
		}
	}, s)
}
