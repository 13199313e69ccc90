package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call the bench made into a layer.
type span struct {
	name       string
	start, end time.Duration // since the recorder's origin
	parent     int           // index of the enclosing span, -1 at the top
	op         int           // op index within its round, -1 outside an op
}

// recorder is the traced run's in-memory span log. Spans are recorded
// only from the bench's own goroutine, around its calls into each
// layer's public API; nothing inside the simulator is instrumented. A
// nil recorder records nothing, which is the untraced run.
type recorder struct {
	origin  time.Time
	spans   []span
	stack   []int
	samples map[string][]float64
}

func newRecorder() *recorder {
	return &recorder{origin: time.Now(), spans: make([]span, 0, 1<<14)}
}

// begin opens a span under the innermost open one and returns its id.
func (r *recorder) begin(name string, op int) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{name: name, start: time.Since(r.origin), parent: parent, op: op})
	r.stack = append(r.stack, id)
	return id
}

// end closes the span begin returned; spans close innermost first.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	if n := len(r.stack); n == 0 || r.stack[n-1] != id {
		panic(fmt.Sprintf("bench: span %d closed out of order", id))
	}
	r.spans[id].end = time.Since(r.origin)
	r.stack = r.stack[:len(r.stack)-1]
}

// time runs fn inside a span and returns how long it took; on a nil
// recorder it only times.
func (r *recorder) time(name string, op int, fn func()) time.Duration {
	id := r.begin(name, op)
	start := time.Now()
	fn()
	d := time.Since(start)
	r.end(id)
	return d
}

// selfTimes returns, per span, its duration minus the part of that
// interval its direct children cover. Children are clipped to the
// parent and overlapping children are counted once.
func selfTimes(spans []span) []time.Duration {
	type iv struct{ lo, hi time.Duration }
	children := make(map[int][]iv)
	for _, s := range spans {
		if s.parent < 0 {
			continue
		}
		p := spans[s.parent]
		lo, hi := max(s.start, p.start), min(s.end, p.end)
		if hi > lo {
			children[s.parent] = append(children[s.parent], iv{lo, hi})
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		ivs := children[i]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		covered, edge := time.Duration(0), s.start
		for _, c := range ivs {
			if c.hi <= edge {
				continue
			}
			covered += c.hi - max(c.lo, edge)
			edge = c.hi
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// writeChromeTrace writes the spans as Chrome trace-event JSON (load in
// chrome://tracing or ui.perfetto.dev): one complete event per span,
// with its op id, parent and self time as arguments.
func (r *recorder) writeChromeTrace(w io.Writer) error {
	bw := bufio.NewWriter(w)
	self := selfTimes(r.spans)
	if _, err := bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[` + "\n"); err != nil {
		return err
	}
	for i, s := range r.spans {
		name, err := json.Marshal(s.name)
		if err != nil {
			return err
		}
		sep := ","
		if i == len(r.spans)-1 {
			sep = ""
		}
		fmt.Fprintf(bw, `{"name":%s,"ph":"X","pid":1,"tid":1,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d,"op":%d,"self_us":%.3f}}%s`+"\n",
			name, us(s.start), us(s.end-s.start), i, s.parent, s.op, us(self[i]), sep)
	}
	if _, err := bw.WriteString("]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// observe files one sample of a per-layer quantity under its metric
// name; the traced run reports the median of each name's samples.
func (r *recorder) observe(key string, v float64) {
	if r == nil {
		return
	}
	if r.samples == nil {
		r.samples = make(map[string][]float64)
	}
	r.samples[key] = append(r.samples[key], v)
}

// writeFile writes the Chrome trace to path, creating its directory.
func (r *recorder) writeFile(path string) (string, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", err
	}
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := r.writeChromeTrace(f); err != nil {
		f.Close()
		return "", fmt.Errorf("writing %s: %w", path, err)
	}
	return path, f.Close()
}
