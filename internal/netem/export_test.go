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
