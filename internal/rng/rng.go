// Package rng provides the deterministic random number generation used by
// every stochastic component in the repository. Simulations are seeded with
// a single 64-bit value and fan out into independent named streams, so an
// entire 24-hour metaverse run — and therefore every row of the
// paper-vs-measured report (TestCalibrationReport, run with -v) — is
// bit-for-bit reproducible.
//
// The generator is xoshiro256** seeded through splitmix64, implemented here
// so the library depends only on the standard library and so streams can be
// split by label (something math/rand does not offer).
package rng

import "math"

// Source is a deterministic pseudo-random source. It is not safe for
// concurrent use; derive per-goroutine streams with Split instead of
// sharing one Source.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from a single 64-bit value via splitmix64,
// as recommended by the xoshiro authors.
func New(seed uint64) *Source {
	var src Source
	src.reseed(seed)
	return &src
}

func (r *Source) reseed(seed uint64) {
	sm := seed
	for i := range r.s {
		sm, r.s[i] = splitmix64(sm)
	}
	// xoshiro must not be seeded with all zeros; splitmix64 of any seed
	// cannot produce four zero outputs, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9E3779B97F4A7C15
	}
}

// splitmix64 advances the splitmix state and returns (newState, output).
func splitmix64(state uint64) (uint64, uint64) {
	state += 0x9E3779B97F4A7C15
	z := state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return state, z ^ (z >> 31)
}

// Uint64 returns the next 64 uniformly random bits (xoshiro256**).
func (r *Source) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Split derives an independent stream identified by a label. Splitting the
// same parent state with the same label always yields the same stream, and
// distinct labels yield streams that do not overlap in practice. Split does
// not advance the parent.
func (r *Source) Split(label string) *Source {
	// Mix the label into the parent state with FNV-1a, then re-key
	// through splitmix64.
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= prime64
	}
	seed := h ^ rotl(r.s[0], 13) ^ rotl(r.s[2], 29)
	return New(seed)
}

// SplitIndexed derives an independent stream identified by a label and an
// index, convenient for per-avatar or per-land streams.
func (r *Source) SplitIndexed(label string, idx uint64) *Source {
	child := r.Split(label)
	child.reseed(child.Uint64() ^ (idx+1)*0x9E3779B97F4A7C15)
	return child
}

// State returns the generator's internal state, so a mid-stream source
// can be serialised — the estate service ships an avatar's personal
// stream across region servers this way — and later resumed with
// Restore to continue the exact same sequence.
func (r *Source) State() [4]uint64 { return r.s }

// Restore sets the internal state to one previously captured with State.
// An all-zero state (never produced by State on a real source) is
// re-keyed through the default seed guard, since xoshiro cannot run on
// zeros.
func (r *Source) Restore(state [4]uint64) {
	r.s = state
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9E3779B97F4A7C15
	}
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics when n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method, unbiased.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul128(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul128 returns the 128-bit product of a and b as (hi, lo).
func mul128(a, b uint64) (hi, lo uint64) {
	const mask = 0xFFFFFFFF
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo * bLo
	lo = t & mask
	c := t >> 32
	t = aHi*bLo + c
	c = t >> 32
	m := t & mask
	t = aLo*bHi + m
	lo |= (t & mask) << 32
	hi = aHi*bHi + c + t>>32
	return hi, lo
}

// Range returns a uniform float64 in [lo, hi). It panics when hi < lo.
func (r *Source) Range(lo, hi float64) float64 {
	if hi < lo {
		panic("rng: Range with hi < lo")
	}
	return lo + (hi-lo)*r.Float64()
}

// Bool returns true with probability p.
func (r *Source) Bool(p float64) bool { return r.Float64() < p }

// NormFloat64 returns a standard normal variate (Marsaglia polar method).
func (r *Source) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}

// Perm returns a random permutation of [0, n).
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle randomises the order of n elements using the provided swap
// function (Fisher–Yates).
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.Intn(i+1))
	}
}
