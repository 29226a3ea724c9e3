// Package xrand provides a small, deterministic pseudo-random number
// generator substrate used by every stochastic component in this repository.
//
// All samplers, classifiers, and experiment drivers take an explicit *Rand so
// that every experiment is reproducible from a single seed. The generator is
// xoshiro256**, seeded through SplitMix64, matching the reference
// implementation by Blackman and Vigna. Sub-streams derived with Split are
// statistically independent for our purposes, which lets concurrent
// experiment trials share one root seed without sharing state.
package xrand

import (
	"math"
	"math/bits"
)

// Rand is a deterministic xoshiro256** pseudo-random number generator.
// The zero value is not valid; use New or Split.
type Rand struct {
	s0, s1, s2, s3 uint64

	// cached second normal variate from Box-Muller
	haveGauss bool
	gauss     float64
}

// splitMix64 advances a SplitMix64 state and returns the next output.
// It is used to expand a single seed into the four xoshiro words.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded deterministically from seed.
func New(seed uint64) *Rand {
	r := &Rand{}
	st := seed
	r.s0 = splitMix64(&st)
	r.s1 = splitMix64(&st)
	r.s2 = splitMix64(&st)
	r.s3 = splitMix64(&st)
	// Guard against the (astronomically unlikely) all-zero state.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = 0x9e3779b97f4a7c15
	}
	return r
}

// Split derives an independent sub-stream generator. The parent stream
// advances by one draw; the child is seeded from that draw, so distinct
// Split calls yield distinct streams.
func (r *Rand) Split() *Rand {
	return New(r.Uint64())
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// IntN returns a uniform value in [0, n). It panics if n <= 0.
// Uses Lemire's nearly-divisionless bounded generation.
func (r *Rand) IntN(n int) int {
	if n <= 0 {
		panic("xrand: IntN with non-positive n")
	}
	un := uint64(n)
	hi, lo := bits.Mul64(r.Uint64(), un)
	if lo < un {
		thresh := (-un) % un
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), un)
		}
	}
	return int(hi)
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle randomizes the order of n elements using swap, Fisher-Yates style.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.IntN(i + 1)
		if i != j {
			swap(i, j)
		}
	}
}

// NormFloat64 returns a standard normal variate (Box-Muller, with caching).
func (r *Rand) NormFloat64() float64 {
	if r.haveGauss {
		r.haveGauss = false
		return r.gauss
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(s) / s)
	r.gauss = v * f
	r.haveGauss = true
	return u * f
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool { return r.Float64() < p }
