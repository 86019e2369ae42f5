// Package randx provides deterministic, seedable random number generation
// and the noise distributions used by the differential privacy mechanisms
// in this module (Laplace, exponential, Bernoulli).
//
// All randomness in the repository flows through *Rand so that every
// experiment, test, and benchmark is reproducible from a single seed.
// Independent sub-streams are derived with Split, which uses a SplitMix64
// step so that child streams are decorrelated from the parent.
package randx

import (
	"math"
	"math/rand/v2"
)

// Rand is a deterministic random source with samplers for the
// distributions required by the estimators and mechanisms.
//
// pcg is the generator that src wraps, so both advance one shared
// state; Uint64 and Float64 call pcg directly, without src's dynamic
// call through the rand.Source interface, and consume the stream
// exactly as src's methods would.
type Rand struct {
	pcg *rand.PCG
	src *rand.Rand
}

// New returns a Rand seeded with the given seed. Equal seeds yield
// identical streams.
func New(seed uint64) *Rand {
	pcg := rand.NewPCG(seed, splitmix64(seed))
	return &Rand{pcg: pcg, src: rand.New(pcg)}
}

// splitmix64 is the finalizer of the SplitMix64 generator; it is used to
// expand one 64-bit seed into the second PCG word and to derive child seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Split derives a new Rand whose stream is independent of the receiver's
// future output. The receiver advances by one draw.
func (r *Rand) Split() *Rand {
	return New(splitmix64(r.Uint64()))
}

// Float64 returns a uniform sample in [0, 1): the low 53 bits of one
// Uint64 draw over 2^53, which is math/rand/v2's Rand.Float64.
func (r *Rand) Float64() float64 { return float64(r.pcg.Uint64()<<11>>11) / (1 << 53) }

// Uint64 returns a uniform 64-bit value.
func (r *Rand) Uint64() uint64 { return r.pcg.Uint64() }

// IntN returns a uniform sample in [0, n). It panics if n <= 0.
func (r *Rand) IntN(n int) int { return r.src.IntN(n) }

// Perm returns a uniform random permutation of [0, n).
func (r *Rand) Perm(n int) []int { return r.src.Perm(n) }

// Normal returns a standard normal sample.
func (r *Rand) Normal() float64 { return r.src.NormFloat64() }

// Bernoulli returns true with probability p (clamped to [0, 1]).
func (r *Rand) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Exponential returns a sample from Exp(rate), i.e. with mean 1/rate.
// It panics if rate <= 0.
func (r *Rand) Exponential(rate float64) float64 {
	if rate <= 0 {
		panic("randx: Exponential rate must be positive")
	}
	return r.src.ExpFloat64() / rate
}

// Laplace returns a sample from the Laplace distribution with mean zero
// and the given scale (density 1/(2b)·exp(-|x|/b)). A scale of zero
// returns 0 so callers can express "no noise" uniformly.
func (r *Rand) Laplace(scale float64) float64 {
	if scale == 0 {
		return 0
	}
	if scale < 0 {
		panic("randx: Laplace scale must be non-negative")
	}
	// Inverse CDF on u ~ Uniform(-1/2, 1/2):
	// x = -b * sgn(u) * ln(1 - 2|u|).
	u := r.Float64() - 0.5
	if u >= 0 {
		return -scale * math.Log(1-2*u)
	}
	return scale * math.Log(1+2*u)
}
