package causality

import (
	"fmt"

	"repro/internal/obs"
)

// PerfettoPath converts the critical-path chain into the overlay
// slices obs.Bus.WritePerfettoPath renders as a highlighted track.
func (a *Analysis) PerfettoPath() []obs.PathSlice {
	if a == nil {
		return nil
	}
	out := make([]obs.PathSlice, len(a.Chain))
	for i, l := range a.Chain {
		out[i] = obs.PathSlice{Span: l.Span, From: l.From, To: l.To}
	}
	return out
}

// criticalPath reconstructs the page-load dependency chain and fills
// a.Chain / a.CriticalPath / a.CriticalBlame, marking the member
// requests OnPath.
//
// Walking back from the last-finishing request, each step follows the
// binding constraint: if the previous response on the same connection
// finished after this request was queued, that serialization gated it
// (pipeline and mux scheduling order); otherwise the request started
// the moment it was discovered, which points back at the root
// document's arrival (HTML parse → object, and push promises, which
// are queued when promised). The chain segments tile the page interval
// contiguously, so CriticalBlame.Sum() == CriticalPath exactly.
func (c *Collector) criticalPath(a *Analysis, spans []obs.SpanInfo, peer map[obs.ConnID]obs.ConnID) {
	// Client spans in queue order; the first is the root document.
	var client []*obs.SpanInfo
	for i := range spans {
		sp := &spans[i]
		if sp.Via != "" || sp.Done == obs.NoTime || sp.Queued == obs.NoTime {
			continue
		}
		client = append(client, sp)
	}
	if len(client) == 0 {
		return
	}
	root := client[0]
	last := client[0]
	for _, sp := range client {
		if sp.Done >= last.Done {
			last = sp
		}
	}

	// connPred finds the previous response serialized on s's
	// connection: the latest-finishing span queued before s (by span id
	// when queued at the same instant) whose response completed before
	// s's first byte. Only earlier-queued spans qualify, so pipelined
	// responses that complete in one segment, and so share a Done
	// instant, still chain back in queue order instead of pointing at
	// each other. Overlapping mux streams have no such predecessor and
	// fall back to the discovery edge.
	connPred := func(s *obs.SpanInfo) *obs.SpanInfo {
		var best *obs.SpanInfo
		for _, p := range client {
			if p.Conn != s.Conn || p.Queued > s.Queued || p.Queued == s.Queued && p.ID >= s.ID {
				continue
			}
			if s.FirstByte != obs.NoTime && p.Done <= s.FirstByte {
				if best == nil || p.Done > best.Done {
					best = p
				}
			}
		}
		return best
	}

	// Each step moves to an earlier-queued span or to the root, so the
	// walk ends within len(client)+1 steps; running out of them is a bug
	// in the edges, reported rather than left as a short path.
	cur, cut := last, last.Done
	for steps := 0; ; steps++ {
		if steps > len(client)+1 {
			a.PathErr = fmt.Errorf("causality: critical-path walk from span %d did not reach the root span %d in %d steps",
				last.ID, root.ID, steps)
			break
		}
		p := connPred(cur)
		gate := cur.Queued
		if p != nil && p.Done > gate {
			gate = p.Done
		} else {
			p = nil
		}
		if gate > cut {
			gate = cut
		}
		if cut > gate {
			a.Chain = append(a.Chain, ChainLink{Span: cur.ID, From: gate, To: cut})
			own, far := c.spanTracks(cur.Conn, peer)
			a.CriticalBlame.Add(blameWindow(own, far, gate, cur.Written, cut))
		}
		if p != nil {
			cur, cut = p, gate
			continue
		}
		if cur == root || gate <= root.Queued {
			break
		}
		// Discovery edge: the object was found while the root document
		// arrived; the remainder of the path is the root up to that
		// discovery instant.
		cur, cut = root, gate
	}

	// Earliest-first, and the path length is what the chain tiles.
	for i, j := 0, len(a.Chain)-1; i < j; i, j = i+1, j-1 {
		a.Chain[i], a.Chain[j] = a.Chain[j], a.Chain[i]
	}
	for _, l := range a.Chain {
		a.CriticalPath += l.To.Sub(l.From)
	}
	onPath := make(map[obs.SpanID]bool, len(a.Chain))
	for _, l := range a.Chain {
		onPath[l.Span] = true
	}
	for i := range a.Requests {
		a.Requests[i].OnPath = onPath[a.Requests[i].Span]
	}
}
