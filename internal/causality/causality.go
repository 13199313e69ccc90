// Package causality turns the obs event bus into an answer to "where
// did the time go?". For every completed client request it decomposes
// elapsed time (queued → done) into exclusive, exhaustive categories —
// connection setup, RTO recovery, Nagle holds, mux flow-control
// stalls, TCP window (slow-start) stalls, server think time, pipeline
// head-of-line queueing, and wire transmission — with an exact
// conservation invariant: because the simulator clock is integer
// nanoseconds and the categories partition the request window, the
// category sum equals the elapsed time exactly, not approximately.
//
// It also reconstructs the page-load dependency chain (the critical
// path): walking back from the last-finishing request through the
// binding constraint at each step — the previous response serialized
// on the same connection, or the discovery of the object in the HTML —
// yields the chain of requests that explains the page time, and the
// same partition restricted to the chain segments explains *why* that
// chain was slow.
//
// Analyze reads a finished run's bus after the drive: it schedules and
// publishes nothing, so an armed run is byte-identical to an unarmed one
// (pinned by test, like the timeline and the flight recorder).
package causality

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Category is one exclusive delay bucket. Declaration order is blame
// priority: when two causes overlap an instant (e.g. an RTO fires
// while the server thinks), the earlier category claims it.
type Category int

const (
	// CatConnect is TCP connection setup: SYN sent until ESTABLISHED.
	CatConnect Category = iota
	// CatRTO is retransmission-timeout recovery: the dead time a
	// retransmission timer spent running before it fired.
	CatRTO
	// CatNagle is sender data held back by the Nagle algorithm.
	CatNagle
	// CatFlow is a mux sender blocked on stream or connection
	// flow-control windows.
	CatFlow
	// CatSlowStart is a TCP sender with data pending but the
	// congestion window exhausted: waiting for the ACK clock, the
	// slow-start cost the paper counts in round trips.
	CatSlowStart
	// CatServer is server think time: request parsed, response not yet
	// issued (per-request CPU cost).
	CatServer
	// CatHOL is head-of-line queueing: the request existed but had not
	// been written yet (waiting for a free socket, a pipeline slot, or
	// earlier requests on the same connection).
	CatHOL
	// CatWire is the residual after the request was written: bytes
	// flowing, constrained only by link bandwidth and propagation.
	CatWire

	// NumCategories bounds a Blame vector.
	NumCategories
)

var categoryNames = [NumCategories]string{
	"connect", "rto", "nagle", "flow", "slowstart", "server", "hol", "wire",
}

// String names the category.
func (c Category) String() string {
	if c >= 0 && c < NumCategories {
		return categoryNames[c]
	}
	return "unknown"
}

// Blame is a per-category delay vector in simulator time.
type Blame [NumCategories]sim.Duration

// Add accumulates o into b.
func (b *Blame) Add(o Blame) {
	for i := range b {
		b[i] += o[i]
	}
}

// Sum is the total across categories.
func (b Blame) Sum() sim.Duration {
	var t sim.Duration
	for _, d := range b {
		t += d
	}
	return t
}

// Ms converts one category to milliseconds.
func (b Blame) Ms(c Category) float64 { return float64(b[c]) / 1e6 }

// RequestBlame is one completed client request's attribution.
type RequestBlame struct {
	Span    obs.SpanID
	Path    string
	Elapsed sim.Duration // Done - Queued; equals B.Sum() exactly
	OnPath  bool         // member of the critical path
	B       Blame
}

// ChainLink is one segment of the critical path: span Span explains
// the page interval [From, To).
type ChainLink struct {
	Span     obs.SpanID
	From, To sim.Time
}

// Analysis is the per-run attribution result.
type Analysis struct {
	// Requests holds every completed client-originated span (proxy
	// upstream fetches are excluded), in span order.
	Requests []RequestBlame
	// Total sums Requests' blame vectors; Elapsed sums their elapsed
	// times (request-seconds, not wall seconds: concurrent requests
	// each count their own wait).
	Total   Blame
	Elapsed sim.Duration
	// Chain is the critical path, earliest first. CriticalPath is its
	// length (the page interval it tiles) and CriticalBlame the same
	// partition restricted to the chain segments; CriticalBlame.Sum()
	// == CriticalPath exactly.
	Chain         []ChainLink
	CriticalPath  sim.Duration
	CriticalBlame Blame
	// PathErr is set when the critical-path walk could not reach the
	// root document; Chain then holds the part it walked.
	PathErr error
}

// farFuture caps intervals still open when the run ends; window
// clipping bounds them to the spans they touch.
const farFuture = sim.Time(math.MaxInt64)

// catNone marks a tracked interval that maps to no category (e.g. a
// peer-receive-window stall, which is charged to the residual).
const catNone = Category(-1)

// interval is one closed cause interval on a connection.
type interval struct {
	cat        Category
	start, end sim.Time
}

// edge is one end of an interval: the number of open intervals of cat
// changes by delta at instant at.
type edge struct {
	at    sim.Time
	cat   Category
	delta int32
}

// liveCounts is the number of open intervals per category.
type liveCounts [NumCategories]int32

// connTrack accumulates cause intervals for one connection.
type connTrack struct {
	ivs []interval
	// edges, open and indexed are the window index; see index.
	edges   []edge
	open    []liveCounts // open[i]: intervals open after edges[:i]
	indexed int

	connectStart sim.Time
	stallStart   sim.Time
	stallCat     Category
	flowStart    sim.Time
	serverOpen   []sim.Time // FIFO queue of open server-recv instants
}

// collector accumulates cause intervals from the bus events observe
// is fed, in order; finish then computes the analysis. It never
// mutates anything it observes.
type collector struct {
	tracks map[obs.ConnID]*connTrack
}

func (c *collector) track(id obs.ConnID) *connTrack {
	t := c.tracks[id]
	if t == nil {
		t = &connTrack{connectStart: obs.NoTime, stallStart: obs.NoTime, flowStart: obs.NoTime}
		c.tracks[id] = t
	}
	return t
}

// observe consumes one bus event.
func (c *collector) observe(ev obs.Event) {
	switch ev.Kind {
	case obs.KindConnState:
		if ev.Note == "ESTABLISHED" {
			t := c.track(ev.Conn)
			if t.connectStart != obs.NoTime {
				t.ivs = append(t.ivs, interval{CatConnect, t.connectStart, ev.Time})
				t.connectStart = obs.NoTime
			}
		}
	case obs.KindRTOFire:
		start := ev.Time - sim.Time(ev.A) // A = the timeout that just elapsed
		if start < 0 {
			start = 0
		}
		t := c.track(ev.Conn)
		t.ivs = append(t.ivs, interval{CatRTO, start, ev.Time})
	case obs.KindSendStall:
		t := c.track(ev.Conn)
		cat := catNone
		switch ev.Note {
		case "nagle":
			cat = CatNagle
		case "cwnd":
			cat = CatSlowStart
		}
		t.stallStart, t.stallCat = ev.Time, cat
	case obs.KindSendResume:
		t := c.track(ev.Conn)
		if t.stallStart != obs.NoTime {
			if t.stallCat != catNone {
				t.ivs = append(t.ivs, interval{t.stallCat, t.stallStart, ev.Time})
			}
			t.stallStart = obs.NoTime
		}
	case obs.KindFlowStall:
		t := c.track(ev.Conn)
		if t.flowStart == obs.NoTime {
			t.flowStart = ev.Time
		}
	case obs.KindMuxFrame:
		// The first DATA frame after a flow stall closes it: the
		// window update arrived and the pump moved again.
		if ev.Note != "DATA" {
			return
		}
		t := c.track(ev.Conn)
		if t.flowStart != obs.NoTime {
			t.ivs = append(t.ivs, interval{CatFlow, t.flowStart, ev.Time})
			t.flowStart = obs.NoTime
		}
	case obs.KindServerRecv:
		t := c.track(ev.Conn)
		t.serverOpen = append(t.serverOpen, ev.Time)
	case obs.KindServerSend:
		t := c.track(ev.Conn)
		if len(t.serverOpen) > 0 {
			t.ivs = append(t.ivs, interval{CatServer, t.serverOpen[0], ev.Time})
			t.serverOpen = t.serverOpen[1:]
		}
	}
}

// close caps every still-open interval: a connection that never
// established, a stall never resumed, a request never answered. The
// spans such intervals could affect are abandoned (never Done) and
// excluded anyway; clipping bounds the rest.
func (t *connTrack) close() {
	if t.connectStart != obs.NoTime {
		t.ivs = append(t.ivs, interval{CatConnect, t.connectStart, farFuture})
		t.connectStart = obs.NoTime
	}
	if t.stallStart != obs.NoTime {
		if t.stallCat != catNone {
			t.ivs = append(t.ivs, interval{t.stallCat, t.stallStart, farFuture})
		}
		t.stallStart = obs.NoTime
	}
	if t.flowStart != obs.NoTime {
		t.ivs = append(t.ivs, interval{CatFlow, t.flowStart, farFuture})
		t.flowStart = obs.NoTime
	}
	for _, s := range t.serverOpen {
		t.ivs = append(t.ivs, interval{CatServer, s, farFuture})
	}
	t.serverOpen = nil
}

// finish closes open intervals and computes the analysis from the
// bus's connection and span tables. The collector must have observed
// every event the bus recorded.
func (c *collector) finish(b *obs.Bus) *Analysis {
	for _, t := range c.tracks {
		t.close()
	}
	conns, spans := b.Conns(), b.Spans()

	// A connection's peer is the endpoint with the reversed address
	// pair; a client span is blamed against intervals on its own
	// connection *and* the peer, so a server-side Nagle hold (the
	// paper's §4 stall) lands on the client request it delayed.
	type addrs struct{ local, remote string }
	byAddr := make(map[addrs]obs.ConnID, len(conns))
	for _, ci := range conns {
		byAddr[addrs{ci.Local, ci.Remote}] = ci.ID
	}
	peer := make(map[obs.ConnID]obs.ConnID, len(conns))
	for _, ci := range conns {
		if p, ok := byAddr[addrs{ci.Remote, ci.Local}]; ok {
			peer[ci.ID] = p
		}
	}

	a := &Analysis{}
	for _, sp := range spans {
		if sp.Via != "" || sp.Done == obs.NoTime || sp.Queued == obs.NoTime {
			continue // upstream hop, abandoned, or never started
		}
		own, far := c.spanTracks(sp.Conn, peer)
		bl := blameWindow(own, far, sp.Queued, sp.Written, sp.Done)
		rb := RequestBlame{
			Span: sp.ID, Path: sp.Path,
			Elapsed: sp.Done.Sub(sp.Queued), B: bl,
		}
		a.Requests = append(a.Requests, rb)
		a.Total.Add(bl)
		a.Elapsed += rb.Elapsed
	}

	c.criticalPath(a, spans, peer)
	return a
}

// spanTracks gathers the interval sources relevant to a span: its
// connection and that connection's peer, nil where there is none.
func (c *collector) spanTracks(conn obs.ConnID, peer map[obs.ConnID]obs.ConnID) (own, far *connTrack) {
	own = c.tracks[conn]
	if p, ok := peer[conn]; ok {
		far = c.tracks[p]
	}
	return own, far
}

// Analyze attributes the delay of every completed client request in a
// finished run's bus and reconstructs its critical path. Each
// connection's setup interval starts at its Opened instant in the bus's
// conn table and ends at its first ESTABLISHED event.
func Analyze(b *obs.Bus) *Analysis {
	c := &collector{tracks: make(map[obs.ConnID]*connTrack)}
	for _, ci := range b.Conns() {
		c.track(ci.ID).connectStart = ci.Opened
	}
	for _, ev := range b.Events() {
		c.observe(ev)
	}
	return c.finish(b)
}

// index lists the ends of the track's non-empty intervals in time order
// with the running per-category count of open intervals, once however
// many windows then query it. ivs only grows, so the index is current
// when it was built from as many intervals. The order of edges at one
// instant does not matter: a window is charged only between distinct
// instants.
func (t *connTrack) index() {
	if t.open != nil && t.indexed == len(t.ivs) {
		return
	}
	t.indexed = len(t.ivs)
	t.edges = slices.Grow(t.edges[:0], 2*len(t.ivs))
	for _, iv := range t.ivs {
		if iv.end > iv.start {
			t.edges = append(t.edges, edge{iv.start, iv.cat, +1}, edge{iv.end, iv.cat, -1})
		}
	}
	slices.SortFunc(t.edges, func(a, b edge) int { return cmp.Compare(a.at, b.at) })
	t.open = make([]liveCounts, len(t.edges)+1)
	for i, e := range t.edges {
		t.open[i+1] = t.open[i]
		t.open[i+1][e.cat] += e.delta
	}
}

// enter starts a window at q: it adds the intervals open at q to live
// and returns the edges after q, soonest first. A nil track has none.
func (t *connTrack) enter(q sim.Time, live *liveCounts) []edge {
	if t == nil {
		return nil
	}
	t.index()
	i := sort.Search(len(t.edges), func(i int) bool { return t.edges[i].at > q })
	for cat, n := range t.open[i] {
		live[cat] += n
	}
	return t.edges[i:]
}

// blameWindow partitions the window [q, d) by sweeping the interval
// edges inside it, on the request's own connection and on the peer's,
// keeping a live count per category: each elementary segment between
// two edges goes to the highest-priority category open over it, and
// segments no cause claims go to head-of-line queueing before the
// request hit the wire at w, wire transmission after. Segment lengths
// tile the window, so the result sums to d - q exactly — the
// conservation invariant.
func blameWindow(own, peer *connTrack, q, w, d sim.Time) Blame {
	var bl Blame
	var live liveCounts
	a, b := own.enter(q, &live), peer.enter(q, &live)
	for at := q; at < d; {
		from := &a // whichever track has the next edge
		if len(a) == 0 || len(b) > 0 && b[0].at < a[0].at {
			from = &b
		}
		next := d
		if len(*from) > 0 && (*from)[0].at < d {
			next = (*from)[0].at
		}
		if seg := next.Sub(at); seg > 0 {
			cat := CatConnect
			for cat < NumCategories && live[cat] == 0 {
				cat++
			}
			if cat < NumCategories {
				bl[cat] += seg
			} else {
				hol := seg
				if w != obs.NoTime {
					hol = min(max(w.Sub(at), 0), seg)
				}
				bl[CatHOL] += hol
				bl[CatWire] += seg - hol
			}
		}
		at = next
		if next < d {
			live[(*from)[0].cat] += (*from)[0].delta
			*from = (*from)[1:]
		}
	}
	return bl
}
