package tcpsim

import "time"

// The era's TCP, fixed for every connection: "MSS 1460 everywhere", the
// classic BSD 1 s minimum RTO (long-delay links such as PPP depend on it
// to avoid spurious go-back-N retransmission), exponential backoff capped
// at 64 s, the BSD 200 ms delayed-ACK fast timer and an immediate ACK for
// every second segment.
const (
	mss            = 1460
	initialRTO     = time.Second
	minRTO         = time.Second
	maxRTO         = 64 * time.Second
	delAckInterval = 200 * time.Millisecond
	ackEvery       = 2
	// timeWait is the TIME_WAIT linger before the connection record is
	// destroyed, kept short to bound simulation work; correctness in
	// loss-free runs does not depend on it.
	timeWait = 500 * time.Millisecond
)

// Options tunes a connection's TCP behaviour. The zero value selects the
// defaults documented on each field (applied by normalize).
type Options struct {
	// NoDelay disables the Nagle algorithm (TCP_NODELAY). Default off:
	// Nagle enabled, as on 1997 stacks.
	NoDelay bool
	// InitialCwndSegments is the slow-start initial window in segments.
	// The paper notes stacks of the era used one or two; default 2.
	InitialCwndSegments int
	// RecvWindow is the advertised receive window in bytes. Default 65535.
	RecvWindow int
	// MaxRetries is the number of consecutive retransmissions before the
	// connection errors with ErrTimeout. Default 10.
	MaxRetries int
}

func (o Options) normalize() Options {
	if o.InitialCwndSegments == 0 {
		o.InitialCwndSegments = 2
	}
	if o.RecvWindow == 0 {
		o.RecvWindow = 65535
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = 10
	}
	return o
}
