package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"
)

// SchemaVersion marks the JSON-lines layout for downstream consumers;
// the first record of every stream is a meta record carrying it.
const SchemaVersion = "telemetry/1"

// Record types, carried in every record's "t" field.
const (
	RecordMeta     = "meta"
	RecordSample   = "sample"
	RecordProgress = "progress"
	RecordFlight   = "flight"
)

// MetaRecord opens a stream: schema version plus the environment facts
// needed to interpret wall-clock rates (paralleling the env stamp of a
// bench/ result file, so streams from different machines are
// comparable).
type MetaRecord struct {
	T           string `json:"t"`
	Schema      string `json:"schema"`
	StartUnixMS int64  `json:"start_unix_ms"`
	GoVersion   string `json:"go"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"num_cpu"`
}

// SampleRecord is one periodic sampler snapshot: Go runtime memory and
// GC state, the metric set's counters/gauges/histograms, and the sampler's
// EWMA of engine events per wall-clock second.
type SampleRecord struct {
	T      string  `json:"t"`
	WallMS float64 `json:"wall_ms"` // since stream start

	HeapAllocBytes  uint64  `json:"heap_alloc_bytes"`
	HeapObjects     uint64  `json:"heap_objects"`
	TotalAllocBytes uint64  `json:"total_alloc_bytes"`
	NumGC           uint32  `json:"gc_count"`
	GCPauseTotalMS  float64 `json:"gc_pause_total_ms"`
	Goroutines      int     `json:"goroutines"`

	Counters map[string]int64        `json:"counters,omitempty"`
	Gauges   map[string]int64        `json:"gauges,omitempty"`
	Hists    map[string]HistSnapshot `json:"hists,omitempty"`

	// SimEventsPerSec is an exponentially weighted moving average of the
	// sim_events_total counter's rate between samples.
	SimEventsPerSec float64 `json:"sim_events_per_sec"`
}

// ProgressRecord is one sweep-progress event: a simulation run (and
// possibly its whole cell) completing, with the reporter's EWMA rate
// and — when an experiment total is known — an ETA extrapolation.
type ProgressRecord struct {
	T      string  `json:"t"`
	WallMS float64 `json:"wall_ms"`

	Experiment string  `json:"experiment,omitempty"`
	Scenario   string  `json:"scenario,omitempty"`
	Seed       uint64  `json:"seed,omitempty"`
	Run        int     `json:"run"`
	CellDone   bool    `json:"cell_done,omitempty"`
	SimSeconds float64 `json:"sim_seconds,omitempty"`

	RunsDone   int64   `json:"runs_done"`
	CellsDone  int64   `json:"cells_done"`
	RunsPerSec float64 `json:"runs_per_sec"`

	ExperimentsDone  int     `json:"experiments_done,omitempty"`
	ExperimentsTotal int     `json:"experiments_total,omitempty"`
	ETASeconds       float64 `json:"eta_sec,omitempty"`
}

// FlightRecord notes a flight-recorder dump: why it fired and where the
// artifacts were written.
type FlightRecord struct {
	T      string  `json:"t"`
	WallMS float64 `json:"wall_ms"`

	Label   string   `json:"label"`
	Reason  string   `json:"reason"`
	Paths   []string `json:"paths"`
	Events  int      `json:"events"`
	Dropped uint64   `json:"dropped,omitempty"`
	Error   string   `json:"error,omitempty"`
}

// Stream is a concurrency-safe JSON-lines sink. Writers from the
// sampler goroutine, pool workers, and crash paths interleave whole
// records, never partial lines.
type Stream struct {
	mu    sync.Mutex
	enc   *json.Encoder
	start time.Time
	err   error
}

// NewStream wraps w and immediately emits the meta record. The stream
// owns no file handle; the caller closes w after the last Emit.
func NewStream(w io.Writer) *Stream {
	st := &Stream{enc: json.NewEncoder(w), start: time.Now()}
	st.Emit(MetaRecord{
		T:           RecordMeta,
		Schema:      SchemaVersion,
		StartUnixMS: st.start.UnixMilli(),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
	})
	return st
}

// WallMS returns milliseconds of wall clock since the stream opened —
// the timestamp base every record uses.
func (s *Stream) WallMS() float64 {
	return float64(time.Since(s.start)) / float64(time.Millisecond)
}

// Emit appends one record as a JSON line. The first encoding error
// sticks; subsequent emits are dropped silently (telemetry must never
// take down the run it observes).
func (s *Stream) Emit(rec any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	s.err = s.enc.Encode(rec)
}

// Err returns the first error the stream encountered, if any.
func (s *Stream) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// ValidateStream checks a JSON-lines telemetry stream against the
// telemetry/1 schema: the first record must be a meta record with the
// right schema tag, every record must carry a known "t" type, and
// sample/progress records must carry their required fields. It returns
// the record count per type, so callers can additionally require a
// minimum population (the CI smoke job wants ≥1 sample and ≥1 progress
// record).
func ValidateStream(r io.Reader) (map[string]int, error) {
	counts := map[string]int{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal(raw, &rec); err != nil {
			return counts, fmt.Errorf("line %d: invalid JSON: %v", line, err)
		}
		t, _ := rec["t"].(string)
		switch t {
		case RecordMeta:
			if schema, _ := rec["schema"].(string); schema != SchemaVersion {
				return counts, fmt.Errorf("line %d: schema %q, want %q", line, schema, SchemaVersion)
			}
		case RecordSample:
			for _, key := range []string{"wall_ms", "heap_alloc_bytes", "gc_count", "sim_events_per_sec"} {
				if _, ok := rec[key].(float64); !ok {
					return counts, fmt.Errorf("line %d: sample record missing numeric %q", line, key)
				}
			}
		case RecordProgress:
			for _, key := range []string{"wall_ms", "runs_done", "runs_per_sec"} {
				if _, ok := rec[key].(float64); !ok {
					return counts, fmt.Errorf("line %d: progress record missing numeric %q", line, key)
				}
			}
		case RecordFlight:
			if _, ok := rec["reason"].(string); !ok {
				return counts, fmt.Errorf("line %d: flight record missing \"reason\"", line)
			}
		default:
			return counts, fmt.Errorf("line %d: unknown record type %q", line, t)
		}
		if line == 1 && t != RecordMeta {
			return counts, fmt.Errorf("line 1: first record is %q, want %q", t, RecordMeta)
		}
		counts[t]++
	}
	if err := sc.Err(); err != nil {
		return counts, err
	}
	if line == 0 {
		return counts, fmt.Errorf("empty stream")
	}
	return counts, nil
}
