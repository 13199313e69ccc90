package telemetry

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// ProgressEvent is one unit of sweep progress: a single simulation run
// finishing inside a cell, with CellDone set when that run was the
// cell's last. The sweep driver (core.Sweep.Measure) hands these to its
// monitor's reporter from pool workers.
type ProgressEvent struct {
	// Experiment is the registered experiment name ("" when the run is
	// not part of a registered experiment).
	Experiment string
	// Scenario labels the cell (the scenario's display string).
	Scenario string
	// Seed is the run's RNG seed; Run its replicate index in the cell.
	Seed uint64
	Run  int
	// CellDone marks the completion of the cell's last run.
	CellDone bool
	// SimSeconds is the run's simulated page-load time in seconds.
	SimSeconds float64
}

// Reporter consumes sweep-progress events and turns them into a live
// view: run and cell counters and a run-duration histogram in the
// monitor's metric set, progress records on the telemetry stream,
// an EWMA-smoothed runs-per-second rate, and — when the caller declares
// how many experiments the invocation will run — an ETA extrapolated
// from the EWMA of completed experiment durations. An optional human
// writer (stderr) gets a single self-overwriting status line.
type Reporter struct {
	mu sync.Mutex

	st    *Stream   // nil: no machine stream
	human io.Writer // nil: no stderr line
	now   func() time.Time

	m *Metrics

	start      time.Time
	lastRun    time.Time
	ewmaGapSec float64 // EWMA of inter-run wall gaps → rate = 1/gap

	runsDone  int64
	cellsDone int64
	lastExp   string

	expTotal    int
	expDone     int
	lastExpMark time.Time
	ewmaExpSec  float64

	lastLine time.Time
}

// humanThrottle caps the stderr line's redraw rate.
const humanThrottle = 100 * time.Millisecond

// NewReporter returns a reporter publishing into m and, optionally, st
// (machine records) and human (live status line).
func NewReporter(m *Metrics, st *Stream, human io.Writer) *Reporter {
	r := &Reporter{st: st, human: human, now: time.Now, m: m}
	r.start = r.now()
	r.lastExpMark = r.start
	return r
}

// SetTotalExperiments declares how many experiments the invocation will
// run, enabling the ETA extrapolation.
func (r *Reporter) SetTotalExperiments(n int) {
	r.mu.Lock()
	r.expTotal = n
	r.mu.Unlock()
}

// Observe consumes one sweep-progress event. It is safe for concurrent
// calls from pool workers.
func (r *Reporter) Observe(ev ProgressEvent) {
	r.mu.Lock()
	now := r.now()
	r.runsDone++
	r.m.Runs.Add(1)
	r.m.RunSimMS.Observe(int64(ev.SimSeconds * 1000))
	if ev.CellDone {
		r.cellsDone++
		r.m.Cells.Add(1)
	}
	if ev.Experiment != "" {
		r.lastExp = ev.Experiment
	}

	// Rate: EWMA over inter-arrival gaps, so a stall decays the rate
	// instead of being averaged away by a long history.
	if !r.lastRun.IsZero() {
		gap := now.Sub(r.lastRun).Seconds()
		if gap < 1e-6 {
			gap = 1e-6
		}
		if r.ewmaGapSec == 0 {
			r.ewmaGapSec = gap
		} else {
			r.ewmaGapSec = ewmaAlpha*gap + (1-ewmaAlpha)*r.ewmaGapSec
		}
	}
	r.lastRun = now

	rec := ProgressRecord{
		T:          RecordProgress,
		Experiment: ev.Experiment,
		Scenario:   ev.Scenario,
		Seed:       ev.Seed,
		Run:        ev.Run,
		CellDone:   ev.CellDone,
		SimSeconds: ev.SimSeconds,
		RunsDone:   r.runsDone,
		CellsDone:  r.cellsDone,
		RunsPerSec: r.rateLocked(),
	}
	rec.ExperimentsDone, rec.ExperimentsTotal, rec.ETASeconds = r.etaLocked()
	st, human := r.st, r.human
	redraw := human != nil && (ev.CellDone || now.Sub(r.lastLine) >= humanThrottle)
	if redraw {
		r.lastLine = now
	}
	line := ""
	if redraw {
		line = r.lineLocked()
	}
	r.mu.Unlock()

	if st != nil {
		rec.WallMS = st.WallMS()
		st.Emit(rec)
	}
	if redraw {
		fmt.Fprint(human, line)
	}
}

// ExperimentDone marks one registered experiment as fully generated,
// feeding the ETA's per-experiment duration EWMA.
func (r *Reporter) ExperimentDone(name string) {
	r.mu.Lock()
	now := r.now()
	r.expDone++
	dur := now.Sub(r.lastExpMark).Seconds()
	r.lastExpMark = now
	if r.ewmaExpSec == 0 {
		r.ewmaExpSec = dur
	} else {
		r.ewmaExpSec = ewmaAlpha*dur + (1-ewmaAlpha)*r.ewmaExpSec
	}
	rec := ProgressRecord{
		T:          RecordProgress,
		Experiment: name,
		Run:        -1, // experiment-level record, not a run
		RunsDone:   r.runsDone,
		CellsDone:  r.cellsDone,
		RunsPerSec: r.rateLocked(),
	}
	rec.ExperimentsDone, rec.ExperimentsTotal, rec.ETASeconds = r.etaLocked()
	st, human := r.st, r.human
	line := ""
	if human != nil {
		r.lastLine = now
		line = r.lineLocked()
	}
	r.mu.Unlock()

	if st != nil {
		rec.WallMS = st.WallMS()
		st.Emit(rec)
	}
	if human != nil {
		fmt.Fprint(human, line)
	}
}

// Close finishes the stderr line with a newline so the shell prompt
// does not land mid-line.
func (r *Reporter) Close() {
	r.mu.Lock()
	human := r.human
	r.human = nil
	r.mu.Unlock()
	if human != nil {
		fmt.Fprintln(human)
	}
}

func (r *Reporter) rateLocked() float64 {
	if r.ewmaGapSec > 0 {
		return 1 / r.ewmaGapSec
	}
	if elapsed := r.now().Sub(r.start).Seconds(); elapsed > 0 && r.runsDone > 0 {
		return float64(r.runsDone) / elapsed
	}
	return 0
}

// etaLocked extrapolates the remaining wall time from the EWMA of
// completed experiment durations. Zero when no total was declared or
// nothing has completed yet.
func (r *Reporter) etaLocked() (done, total int, etaSec float64) {
	done, total = r.expDone, r.expTotal
	if total > 0 && done > 0 && done < total && r.ewmaExpSec > 0 {
		etaSec = r.ewmaExpSec * float64(total-done)
	}
	return done, total, etaSec
}

// lineLocked renders the self-overwriting stderr status line.
func (r *Reporter) lineLocked() string {
	line := fmt.Sprintf("\r[%s] %d cells / %d runs · %.1f runs/s",
		r.lastExp, r.cellsDone, r.runsDone, r.rateLocked())
	if done, total, eta := r.etaLocked(); total > 0 {
		line += fmt.Sprintf(" · exp %d/%d", done, total)
		if eta > 0 {
			line += " · ETA ~" + formatETA(eta)
		}
	}
	// Pad so a shrinking line fully overwrites its predecessor.
	const width = 78
	if len(line) < width {
		line += fmt.Sprintf("%*s", width-len(line), "")
	}
	return line
}

// formatETA renders seconds as a compact human duration.
func formatETA(sec float64) string {
	d := time.Duration(sec * float64(time.Second))
	switch {
	case d >= time.Hour:
		return fmt.Sprintf("%dh%02dm", int(d.Hours()), int(d.Minutes())%60)
	case d >= time.Minute:
		return fmt.Sprintf("%dm%02ds", int(d.Minutes()), int(d.Seconds())%60)
	default:
		return fmt.Sprintf("%ds", int(d.Seconds()+0.5))
	}
}
