package sim

import "math/rand"

// RNG is a deterministic random stream. Components derive their own child
// streams by name so that adding randomness consumption to one component
// does not perturb the draws seen by another — a property the experiment
// harness relies on for reproducible sweeps.
//
// An RNG is NOT goroutine-safe: concurrent draws from one stream race and
// destroy reproducibility. Concurrent consumers must each derive their own
// stream via Child/ChildN — the campaign engine does exactly that, giving
// every trial a private stream keyed by (seed base, point, trial index).
type RNG struct {
	seed uint64
	r    *rand.Rand
	// stale marks r as not yet seeded with seed: Reseed defers seeding
	// math/rand's 607-word state to the first draw, so a stream that is
	// rekeyed but never drawn from never pays for it.
	stale bool
}

// NewRNG returns a stream seeded with seed.
func NewRNG(seed uint64) *RNG {
	return &RNG{seed: seed, r: rand.New(rand.NewSource(int64(seed)))}
}

// FNV-1a parameters (64-bit).
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvUint64 feeds v's eight little-endian bytes into the FNV-1a state h.
func fnvUint64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= uint64(byte(v >> (8 * i)))
		h *= fnvPrime
	}
	return h
}

// fnvString feeds s's bytes into the FNV-1a state h.
func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// ChildSeed is the seed of NewRNG(seed).Child(name), computed without
// building either stream: FNV-1a over the little-endian seed and the name.
func ChildSeed(seed uint64, name string) uint64 {
	return fnvString(fnvUint64(fnvOffset, seed), name)
}

// ChildNSeed is the seed of NewRNG(seed).ChildN(name, n), computed without
// building either stream: ChildSeed's hash extended with the little-endian
// index. Rekey uses the same derivation with the name "rekey".
func ChildNSeed(seed uint64, name string, n uint64) uint64 {
	return fnvUint64(ChildSeed(seed, name), n)
}

// Child derives an independent stream from this stream's seed and a name.
// Calling Child never consumes randomness from the parent.
func (g *RNG) Child(name string) *RNG {
	return NewRNG(ChildSeed(g.seed, name))
}

// ChildN derives an independent stream from this stream's seed, a name and
// an index — Child for indexed families (trial i of a sweep point, device
// i of a fleet). Like Child it is a pure function of (seed, name, n): it
// never consumes randomness from the parent, and the derivation (FNV-1a
// over the seed, the name and the little-endian index) is stable across Go
// versions.
func (g *RNG) ChildN(name string, n int) *RNG {
	return NewRNG(ChildNSeed(g.seed, name, uint64(n)))
}

// Seed returns the seed of this stream.
func (g *RNG) Seed() uint64 { return g.seed }

// src returns the generator, first seeding it if a Reseed is pending.
func (g *RNG) src() *rand.Rand {
	if g.stale {
		g.stale = false
		g.r.Seed(int64(g.seed))
	}
	return g.r
}

// Float64 returns a uniform sample in [0, 1).
func (g *RNG) Float64() float64 { return g.src().Float64() }

// NormFloat64 returns a standard normal sample.
func (g *RNG) NormFloat64() float64 { return g.src().NormFloat64() }

// Intn returns a uniform int in [0, n). n must be positive.
func (g *RNG) Intn(n int) int { return g.src().Intn(n) }

// Uint32 returns a uniform 32-bit value.
func (g *RNG) Uint32() uint32 { return g.src().Uint32() }

// Uint64 returns a uniform 64-bit value.
func (g *RNG) Uint64() uint64 { return g.src().Uint64() }

// Bytes fills b with random bytes.
func (g *RNG) Bytes(b []byte) {
	_, _ = g.src().Read(b)
}

// Duration returns a uniform duration in [0, d).
func (g *RNG) Duration(d Duration) Duration {
	if d <= 0 {
		return 0
	}
	return Duration(g.src().Int63n(int64(d)))
}

// Normal returns a normal sample with the given mean and standard deviation.
func (g *RNG) Normal(mean, stddev float64) float64 {
	return mean + stddev*g.src().NormFloat64()
}

// Bool returns true with probability p.
func (g *RNG) Bool(p float64) bool { return g.src().Float64() < p }
