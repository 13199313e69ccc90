package sim

// CPU models a single processor as a busy-until chain: work items run
// back to back, never in parallel. The simulated client and server each
// get one, which is what serializes per-request processing cost across
// concurrent connections — the effect behind the paper's elapsed-time
// differences between Jigsaw (interpreted Java) and Apache on a LAN.
type CPU struct {
	sim       *Simulator
	busyUntil Time
	rng       *Rand
	total     Duration
}

// cpuJitter is the ±fraction (10 %) by which a jittered CPU perturbs
// each work item.
const cpuJitter = 0.10

// NewCPU returns a CPU on simulator s. A non-nil rng adds reproducible
// run-to-run variation of ±cpuJitter to every work item; nil adds none.
func NewCPU(s *Simulator, rng *Rand) *CPU {
	return &CPU{sim: s, rng: rng}
}

// Run schedules fn(arg) after d of CPU work, queued behind any work
// already scheduled, and returns the completion instant. Work completes
// in the order it was queued, whatever the jitter: each item ends no
// earlier than the one before it, and items ending at one instant fire
// in scheduling order. Like Simulator.AtArg, it allocates nothing when
// fn is a package-level function and arg a pointer.
func (c *CPU) Run(d Duration, fn func(any), arg any) Time {
	if c.rng != nil {
		d = c.rng.Jitter(d, cpuJitter)
	}
	start := c.sim.Now()
	if c.busyUntil > start {
		start = c.busyUntil
	}
	end := start.Add(d)
	c.busyUntil = end
	c.total += d
	c.sim.AtArg(end, fn, arg)
	return end
}

// Nop is a work item that only takes CPU time: Run(d, Nop, nil) charges
// d and runs nothing when it completes.
func Nop(any) {}

// TotalWork returns the cumulative CPU time consumed.
func (c *CPU) TotalWork() Duration { return c.total }
