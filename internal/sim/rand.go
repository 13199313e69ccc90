package sim

// Rand is a small deterministic pseudo-random source (SplitMix64) used to
// add reproducible jitter to simulated runs. It is deliberately independent
// of math/rand so that the sequence is stable across Go releases.
type Rand struct {
	state uint64
}

// NewRand returns a generator seeded with seed.
func NewRand(seed uint64) *Rand {
	return &Rand{state: seed}
}

// Uint64 returns the next value in the sequence.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(float64(r.Uint64()>>11) / float64(1<<53)) // rounded here, never fused into a caller's sum
}

// Intn returns a value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Jitter returns d scaled by a random factor in [1-frac, 1+frac].
// frac must be in [0, 1].
func (r *Rand) Jitter(d Duration, frac float64) Duration {
	if frac == 0 || d == 0 {
		return d
	}
	// Each product is rounded on its own (float64(…) forbids a fused
	// multiply-add), so the scale is the same on every architecture.
	scale := 1 + float64(frac*(float64(2*r.Float64())-1))
	return Duration(float64(d) * scale)
}
