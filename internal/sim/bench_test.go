package sim

import (
	"testing"
	"time"
)

// BenchmarkScheduleAndRun drives a mixed workload shaped like the TCP
// simulation: mostly near-term events (segment arrivals, delayed ACKs),
// a slice of RTO-range timers that are rescheduled before firing, and
// an occasional far-future event that exercises the overflow path.
func BenchmarkScheduleAndRun(b *testing.B) {
	b.ReportAllocs()
	s := New()
	noop := func(any) {}
	var rto TimerHandle
	for i := 0; i < b.N; i++ {
		switch i & 7 {
		case 0:
			if !rto.Reschedule(time.Second) {
				rto = s.ScheduleArg(time.Second, noop, nil)
			}
		case 1:
			s.ScheduleArg(200*time.Millisecond, noop, nil)
		default:
			s.ScheduleArg(time.Duration(i%1000)*time.Microsecond, noop, nil)
		}
		if i%1024 == 1023 {
			s.Run()
		}
	}
	s.Run()
}
