package netem

import "time"

// SerializationDelay returns how long wireBytes take to serialize at the
// link rate, ignoring compression.
func (l *Link) SerializationDelay(wireBytes int) time.Duration {
	if l.cfg.BitsPerSecond <= 0 {
		return 0
	}
	bits := int64(wireBytes+l.cfg.PerPacketOverheadBytes) * 8
	return time.Duration(bits * int64(time.Second) / l.cfg.BitsPerSecond)
}

// Send is SendArg with a closure run at delivery.
func (l *Link) Send(raw []byte, wireBytes int, deliver func()) bool {
	return l.SendArg(raw, wireBytes, callFunc, deliver)
}

// callFunc invokes a boxed func(): Send's delivery function.
func callFunc(a any) { a.(func())() }

// Config returns the link's configuration.
func (l *Link) Config() Config { return l.cfg }
