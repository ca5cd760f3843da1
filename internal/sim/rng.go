package sim

// RNG is a small deterministic pseudo-random number generator
// (xorshift64*). It exists so simulations are reproducible without
// depending on math/rand's global state.
type RNG struct{ state uint64 }

// NewRNG returns a generator seeded with seed (0 is remapped to a fixed
// non-zero constant, since xorshift cannot leave the all-zero state).
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &RNG{state: seed}
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545f4914f6cdd1d
}

// Float64 returns a pseudo-random value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Jitter returns v scaled by a random factor in [1-spread, 1+spread].
func (r *RNG) Jitter(v, spread float64) float64 {
	return v * (1 + spread*(2*r.Float64()-1))
}
