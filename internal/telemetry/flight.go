package telemetry

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
)

// Flight is the crash-dump flight recorder's per-monitor half: the dump
// directory and the per-run retention depth. The per-run half is a
// Ring of obs events that core attaches as a bus subscriber; when a run
// panics, the recovery watchdog fires, or a sweep cell errors, core
// calls Dump with exporter closures and the retained window lands on
// disk as Perfetto JSON plus a synthetic pcap.
type Flight struct {
	dir    string
	events int
	seq    atomic.Int64
}

// DefaultFlightEvents is the default ring depth: enough tail to see the
// stall or reset that killed a run, small enough to cost nothing.
const DefaultFlightEvents = 4096

// NewFlight prepares a recorder writing dumps into dir, each run
// retaining the last events bus events (≤0 selects the default).
func NewFlight(dir string, events int) (*Flight, error) {
	if events <= 0 {
		events = DefaultFlightEvents
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("telemetry: flight dir: %w", err)
	}
	return &Flight{dir: dir, events: events}, nil
}

// Events returns the per-run ring depth.
func (f *Flight) Events() int { return f.events }

// DumpSource is everything a dump needs from the failing run: a label
// (the scenario string), the trigger reason ("panic", "watchdog",
// "error"), the retained-window accounting, and exporter closures for
// the two artifact formats. A nil exporter skips that artifact.
type DumpSource struct {
	Label   string
	Reason  string
	Events  int
	Dropped uint64

	Perfetto func(w *os.File) error
	Pcap     func(w *os.File) error
}

// Dump writes the retained window to disk and returns the artifact
// paths. Every dump also lands as a flight record on st (the monitor's
// stream; nil for none), so a machine consumer learns about crashes from
// the same JSON-lines feed as progress. Dump never panics: a dump is a
// best-effort black box retrieved on the way down.
func (f *Flight) Dump(st *Stream, src DumpSource) ([]string, error) {
	n := f.seq.Add(1)
	base := filepath.Join(f.dir, fmt.Sprintf("flight-%03d-%s-%s", n, sanitizeLabel(src.Label), src.Reason))
	var paths []string
	var firstErr error
	write := func(suffix string, export func(w *os.File) error) {
		if export == nil {
			return
		}
		path := base + suffix
		file, err := os.Create(path)
		if err == nil {
			err = export(file)
			if cerr := file.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("telemetry: flight dump %s: %w", path, err)
			}
			return
		}
		paths = append(paths, path)
	}
	write(".perfetto.json", src.Perfetto)
	write(".pcap", src.Pcap)

	if st != nil {
		rec := FlightRecord{
			T:       RecordFlight,
			WallMS:  st.WallMS(),
			Label:   src.Label,
			Reason:  src.Reason,
			Paths:   paths,
			Events:  src.Events,
			Dropped: src.Dropped,
		}
		if firstErr != nil {
			rec.Error = firstErr.Error()
		}
		st.Emit(rec)
	}
	return paths, firstErr
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
