// Package faults is the deterministic, seed-driven fault-injection
// layer. A Profile names a scripted failure scenario — server-side
// (early close, mid-response truncation, abort with pipelined requests
// outstanding, stall-forever), link-level (Gilbert–Elliott burst loss,
// fixed-window outages, one-direction blackholes), or none — and
// Script instantiates it for one run's seed: every schedule is a pure
// function of the seed, so fault runs are byte-identical at any
// parallelism level and compose with every topology (on a multi-hop
// proxy run the same script applies to the origin server and the
// proxy↔origin link).
//
// The package also defines the recovery policy shared by the
// client (internal/httpclient) and the proxy's upstream fetcher
// (internal/proxy): per-request timeout, capped exponential backoff,
// a retry budget, and a protocol fallback ladder — all sim-clock
// driven and RNG-free, so recovery never perturbs a fault-free run.
package faults

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/netem"
)

// Profile names a scripted fault scenario.
type Profile int

// Fault profiles.
const (
	// None injects nothing; the zero value.
	None Profile = iota
	// EarlyClose makes the server close every connection — both TCP
	// halves at once — after 5 responses, the paper's §4 reset scenario:
	// pipelined requests still in flight draw an RST.
	EarlyClose
	// Truncate cuts one response's body short and closes the
	// connection: the client sees a mid-response failure (injected once).
	Truncate
	// Abort resets (RST) the connection right after one response while
	// pipelined requests are outstanding (injected once).
	Abort
	// Stall sends only the headers of one response and then goes silent
	// on that connection forever; only a client timeout clears it
	// (injected once).
	Stall
	// BurstLoss runs Gilbert–Elliott burst loss on both directions of
	// the faulted link.
	BurstLoss
	// Flap drops fixed windows of consecutive packets on both
	// directions (link outages).
	Flap
	// Blackhole drops a window of packets in the server→client
	// direction only.
	Blackhole
	// MuxRst makes the server reset one response stream mid-body with
	// RST_STREAM(INTERNAL_ERROR) on framed connections (injected once).
	MuxRst
	// MuxTruncate cuts a framed connection mid-DATA-frame: the N-th
	// response's body stops partway through a frame and the connection
	// fully closes, so the client's frame reader sees a truncated
	// stream (injected once).
	MuxTruncate
	// MuxGarbage injects a corrupt frame — an unknown type on an
	// absurd stream id — ahead of one response, tripping the client's
	// strict frame validator (injected once).
	MuxGarbage
	// MuxPushAbort promises and begins one server push, then resets
	// the pushed stream mid-body, forcing the client to invalidate its
	// push cache and re-fetch (injected once).
	MuxPushAbort
	// MuxStall wedges the framed connection right after emitting a
	// SETTINGS frame at the N-th response: no further frames, forever;
	// only the client's stream watchdog clears it (injected once).
	MuxStall
)

// profileNames maps names (as used in scenario specs and flags) to
// profiles, in display order.
var profileNames = []struct {
	name string
	p    Profile
}{
	{"none", None},
	{"early-close", EarlyClose},
	{"truncate", Truncate},
	{"abort", Abort},
	{"stall", Stall},
	{"burst-loss", BurstLoss},
	{"flap", Flap},
	{"blackhole", Blackhole},
	{"mux-rst", MuxRst},
	{"mux-truncate", MuxTruncate},
	{"mux-garbage", MuxGarbage},
	{"mux-push-abort", MuxPushAbort},
	{"mux-stall", MuxStall},
}

// Names lists the valid profile names in display order.
func Names() []string {
	out := make([]string, len(profileNames))
	for i, e := range profileNames {
		out[i] = e.name
	}
	return out
}

// String names the profile.
func (p Profile) String() string {
	for _, e := range profileNames {
		if e.p == p {
			return e.name
		}
	}
	return fmt.Sprintf("Profile(%d)", int(p))
}

// Parse maps a name to a profile; the error enumerates the valid names.
func Parse(s string) (Profile, error) {
	for _, e := range profileNames {
		if strings.EqualFold(s, e.name) {
			return e.p, nil
		}
	}
	return 0, fmt.Errorf("unknown fault profile %q (want %s)", s, strings.Join(Names(), ", "))
}

// ServerFault is one scripted server-side failure; the zero value
// injects nothing. Kind names it, and the server's fault switch for
// each framing keys on it. At is the 1-based response ordinal the
// fault fires on, counted server-wide so that a retried request on a
// fresh connection does not re-trigger a one-shot fault (for
// EarlyClose: the responses each connection serves before it closes).
// Bytes is how much of the faulted body goes out first.
type ServerFault struct {
	Kind      Profile
	At, Bytes int
}

// Script is one run's instantiated fault plan: the server-side fault
// plus per-direction link loss models, all derived from the run seed.
// Zero-value fields inject nothing.
type Script struct {
	Server ServerFault
	// LossC2S and LossS2C apply to the faulted link's client→server and
	// server→client directions (on a proxy topology: the proxy↔origin
	// link). Each is a fresh instance — stateful models are never
	// shared between directions or runs.
	LossC2S, LossS2C netem.LossFunc
}

// Script instantiates the profile for one run seed. Link-loss schedules
// draw only from SplitMix64 streams seeded here, never from the run's
// jitter RNG, so configuring a fault cannot perturb the rest of the
// simulation and an unset profile consumes nothing.
func (p Profile) Script(seed uint64) Script {
	var sc Script
	switch p {
	case EarlyClose:
		sc.Server = ServerFault{Kind: p, At: 5}
	case Truncate:
		sc.Server = ServerFault{Kind: p, At: 3, Bytes: 512}
	case Abort:
		sc.Server = ServerFault{Kind: p, At: 4}
	case Stall:
		sc.Server = ServerFault{Kind: p, At: 3}
	case BurstLoss:
		// Mean bad-state dwell of 4 packets dropping 25%, entered ~1.5%
		// of the time: bursty but recoverable within TCP's retry limit.
		sc.LossC2S = netem.GilbertElliott(seed^0x9E3779B97F4A7C15, 0.015, 0.25, 0.003, 0.25)
		sc.LossS2C = netem.GilbertElliott(seed^0xD1B54A32D192ED03, 0.015, 0.25, 0.003, 0.25)
	case Flap:
		// A 12-packet outage every 300 packets, first at packet 60 —
		// long enough to force RTO recovery, short enough that the
		// in-flight window advances the schedule past the outage.
		sc.LossC2S = netem.OutageWindows(60, 300, 12)
		sc.LossS2C = netem.OutageWindows(60, 300, 12)
	case Blackhole:
		sc.LossS2C = netem.Blackhole(40, 52)
	case MuxRst:
		sc.Server = ServerFault{Kind: p, At: 3, Bytes: 600}
	case MuxTruncate:
		sc.Server = ServerFault{Kind: p, At: 3, Bytes: 700}
	case MuxGarbage:
		sc.Server = ServerFault{Kind: p, At: 2}
	case MuxPushAbort:
		sc.Server = ServerFault{Kind: p, At: 1, Bytes: 300}
	case MuxStall:
		sc.Server = ServerFault{Kind: p, At: 3}
	}
	return sc
}

// The shared recovery policy: how long to wait for response progress,
// how to back off before redialing, how many re-issues a fetch may
// spend, and when to degrade the protocol. All decisions are
// deterministic functions of the sim clock and attempt counts.
const (
	// RequestTimeout is the response progress watchdog: if a connection
	// with requests outstanding receives no bytes for this long, the
	// connection is aborted and its requests re-issued.
	RequestTimeout = 4 * time.Second
	// RetryBudget caps the total request re-issues of one fetch; a
	// request whose re-issue would exceed it fails permanently.
	RetryBudget = 64
	// FallbackAfter degrades the protocol one level (pipelined →
	// persistent serial → HTTP/1.0) after this many consecutive
	// connection failures.
	FallbackAfter = 3

	baseBackoff = 200 * time.Millisecond
	maxBackoff  = 3200 * time.Millisecond
)

// Backoff returns the redial delay after the n-th consecutive
// connection failure (n is 1-based): 200 ms, doubling up to a cap of
// 3.2 s.
func Backoff(n int) time.Duration {
	d := baseBackoff
	for i := 1; i < n && d < maxBackoff; i++ {
		d *= 2
	}
	return min(d, maxBackoff)
}

// Allow reports whether a re-issue is within RetryBudget given the
// number of retries already spent.
func Allow(retriesSpent int) bool { return retriesSpent < RetryBudget }
