package netem

import (
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Environment names the three network environments of the paper's Table 1.
type Environment int

const (
	// LAN is the high-bandwidth, low-latency environment:
	// 10 Mbit Ethernet, RTT < 1 ms, MSS 1460.
	LAN Environment = iota
	// WAN is the high-bandwidth, high-latency environment:
	// transcontinental Internet, RTT ~90 ms, MSS 1460.
	WAN
	// PPP is the low-bandwidth, high-latency environment:
	// 28.8 kbit/s dialup, RTT ~150 ms, MSS 1460.
	PPP
)

// String returns the environment's short name as used in the paper.
func (e Environment) String() string {
	switch e {
	case LAN:
		return "LAN"
	case WAN:
		return "WAN"
	case PPP:
		return "PPP"
	}
	return fmt.Sprintf("Environment(%d)", int(e))
}

// Environments lists all three environments in paper order.
var Environments = []Environment{LAN, WAN, PPP}

// Profile summarizes an environment for display (Table 1).
type Profile struct {
	Env        Environment
	Channel    string
	Connection string
	RTT        time.Duration
	MSS        int
	Bandwidth  int64 // bits per second, per direction
}

// Profiles reproduces Table 1 of the paper.
var Profiles = map[Environment]Profile{
	LAN: {
		Env:        LAN,
		Channel:    "High bandwidth, low latency",
		Connection: "LAN - 10Mbit Ethernet",
		RTT:        600 * time.Microsecond,
		MSS:        1460,
		Bandwidth:  10_000_000,
	},
	WAN: {
		Env:        WAN,
		Channel:    "High bandwidth, high latency",
		Connection: "WAN - MA (MIT/LCS) to CA (LBL)",
		RTT:        90 * time.Millisecond,
		MSS:        1460,
		Bandwidth:  1_500_000,
	},
	PPP: {
		Env:        PPP,
		Channel:    "Low bandwidth, high latency",
		Connection: "PPP - 28.8k modem line",
		RTT:        150 * time.Millisecond,
		MSS:        1460,
		Bandwidth:  28_800,
	},
}

// PathOptions tunes profile instantiation.
type PathOptions struct {
	// ModemCompression enables a V.42bis-style stream compressor on both
	// directions (only meaningful for PPP).
	ModemCompression func() StreamCompressor
	// RTTJitterFrac perturbs propagation delay by ±frac using rng
	// (reproduces run-to-run network fluctuation). Zero disables.
	RTTJitterFrac float64
	Rng           *sim.Rand
	// Loss injects deterministic loss on both directions. Stateful loss
	// models must not be shared between directions; use LossAB/LossBA.
	Loss LossFunc
	// LossAB and LossBA, when non-nil, take precedence over Loss for
	// their direction (AB = endpoint A toward B, i.e. client→server).
	// They allow asymmetric faults — e.g. a one-direction blackhole —
	// and give each direction its own instance of a stateful model.
	LossAB, LossBA LossFunc
	// Obs, if non-nil, records every packet on both directions.
	Obs *obs.Bus
}

// NewEnvPath instantiates an environment as a Path. Endpoint A is the
// client, B the server.
func NewEnvPath(s *sim.Simulator, env Environment, opts PathOptions) *Path {
	p, ok := Profiles[env]
	if !ok {
		panic(fmt.Sprintf("netem: unknown environment %v", env))
	}
	rtt := p.RTT
	if opts.RTTJitterFrac > 0 && opts.Rng != nil {
		rtt = opts.Rng.Jitter(rtt, opts.RTTJitterFrac)
	}
	cfg := Config{
		BitsPerSecond:    p.Bandwidth,
		PropagationDelay: rtt / 2,
		MTU:              p.MSS + IPTCPHeaderBytes,
		Loss:             opts.Loss,
		Obs:              opts.Obs,
	}
	if env == PPP {
		// PPP framing: flag, address, control, protocol, FCS ≈ 8 bytes.
		cfg.PerPacketOverheadBytes = 8
	}
	ab, ba := cfg, cfg
	if opts.LossAB != nil {
		ab.Loss = opts.LossAB
	}
	if opts.LossBA != nil {
		ba.Loss = opts.LossBA
	}
	if opts.ModemCompression != nil {
		ab.Compressor = opts.ModemCompression()
		ba.Compressor = opts.ModemCompression()
	}
	return NewAsymPath(s, env.String(), ab, ba)
}

// GilbertElliott returns a two-state burst-loss model (Gilbert–Elliott):
// a Markov chain alternating between a good state dropping with
// probability lossGood and a bad state dropping with probability
// lossBad, switching good→bad with probability pGB and bad→good with
// pBG per packet. The chain starts good. All randomness comes from a
// SplitMix64 stream seeded with seed, so the drop schedule is a pure
// function of (seed, packet index) — byte-identical at any parallelism.
// The returned closure is stateful: build one instance per link
// direction, never share it.
func GilbertElliott(seed uint64, pGB, pBG, lossGood, lossBad float64) LossFunc {
	rng := sim.NewRand(seed)
	bad := false
	return func(index, wireBytes int) bool {
		if bad {
			if rng.Float64() < pBG {
				bad = false
			}
		} else if rng.Float64() < pGB {
			bad = true
		}
		p := lossGood
		if bad {
			p = lossBad
		}
		return rng.Float64() < p
	}
}

// OutageWindows returns a link-flap loss model: within every period of
// `period` packets, the first `outage` packets are dropped, starting
// with the window at packet index `offset`. Packets before offset pass.
// The schedule depends only on the packet index, so it needs no RNG and
// the closure is stateless — but build one per direction anyway for
// symmetry with the stateful models.
func OutageWindows(offset, period, outage int) LossFunc {
	if period <= 0 {
		panic("netem: OutageWindows period must be positive")
	}
	return func(index, wireBytes int) bool {
		if index < offset {
			return false
		}
		return (index-offset)%period < outage
	}
}

// Blackhole returns a loss model dropping every packet with index in
// [from, to) — applied to a single direction via PathOptions.LossAB or
// LossBA it models a one-direction blackhole window.
func Blackhole(from, to int) LossFunc {
	return func(index, wireBytes int) bool {
		return index >= from && index < to
	}
}
