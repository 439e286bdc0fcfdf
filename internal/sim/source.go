package sim

import "math/rand"

// The engine's random source: math/rand's Go 1 additive lagged Fibonacci
// generator, reimplemented so it can count its own draws and seed faster.
// For every seed it delivers the stream rand.NewSource(seed) delivers, bit
// for bit; every trace, digest and report depends on that stream.
//
// The generator is x[n] = x[n-607] + x[n-273] mod 2^64 over a 607-word
// register. Seeding fills the register word i with three outputs of the
// Lehmer generator y' = 48271·y mod (2^31−1), shifted and XORed, then XORed
// with a fixed table (math/rand's rngCooked). The reference seeds with one
// serial chain of 1,841 Schrage steps, each with two divisions; this one
// reduces with a Mersenne fold and runs the three words' chains side by
// side on the multiplier 48271^3, so the steps overlap in the pipeline.

const (
	srcLen  = 607 // register length: the long lag
	srcTap  = 273 // the short lag
	srcFeed = srcLen - srcTap

	lehmerP    = 1<<31 - 1 // the Lehmer modulus, a Mersenne prime
	lehmerA    = 48271
	lehmerA3   = lehmerA * lehmerA % lehmerP * lehmerA % lehmerP
	lehmerWarm = 20       // Lehmer steps math/rand discards before word 0
	seedZero   = 89482311 // what math/rand seeds in place of 0
)

// source is the engine's rand.Source64. draws counts the raw values it has
// produced since the last Seed: the serializable half of the RNG state,
// since (seed, draws) rebuilds the source exactly by fast-forwarding.
type source struct {
	tap, feed int
	vec       [srcLen]uint64
	draws     uint64
}

var _ rand.Source64 = (*source)(nil)

// cooked is math/rand's rngCooked table, recovered from math/rand itself.
var cooked = recoverCooked()

// mulModP returns x·m mod 2^31−1 for x, m < 2^31 without a division: with
// 2^31 ≡ 1, the product's high and low 31 bits sum to it modulo p, and the
// sum is below 2p, so one conditional subtraction finishes the reduction.
//
//lint:allocfree integer arithmetic only
func mulModP(x, m uint64) uint64 {
	y := x * m
	r := y&lehmerP + y>>31
	if r >= lehmerP {
		r -= lehmerP
	}
	return r
}

// normalizeSeed maps any int64 seed to math/rand's Lehmer start value in
// [1, 2^31−2]: seed mod p, negatives wrapped, and 0 replaced.
func normalizeSeed(seed int64) uint64 {
	seed %= lehmerP
	if seed < 0 {
		seed += lehmerP
	}
	if seed == 0 {
		seed = seedZero
	}
	return uint64(seed)
}

// fill sets vec[i] to seed's i-th Lehmer word XOR mask[i]. Word i is
// y[21+3i]<<40 ^ y[22+3i]<<20 ^ y[23+3i], where y[0] is the normalized seed,
// so each of its three parts steps by 48271^3 from word to word.
func fill(vec, mask *[srcLen]uint64, seed int64) {
	a := normalizeSeed(seed)
	for i := 0; i <= lehmerWarm; i++ {
		a = mulModP(a, lehmerA)
	}
	b := mulModP(a, lehmerA)
	c := mulModP(b, lehmerA)
	for i := range vec {
		vec[i] = (a<<40 ^ b<<20 ^ c) ^ mask[i]
		a, b, c = mulModP(a, lehmerA3), mulModP(b, lehmerA3), mulModP(c, lehmerA3)
	}
}

// recoverCooked reads the seeding table out of math/rand rather than
// copying its constants. Right after Seed the register is vec = L ^ cooked,
// L being the seed's Lehmer words, and draw k (from 1) adds the feed word
// vec[334−k] to the tap word vec[607−k] and stores the sum at the feed.
// Draws 1–273 add two untouched register words; from draw 274 on, the tap
// word is the draw 273 before, and the feed word is untouched (register
// positions 0–60 for draws 274–334, 334–606 for draws 335–607). Three
// subtraction passes give back the whole register, and L ^ vec the table.
func recoverCooked() [srcLen]uint64 {
	const seed = 1
	std := rand.NewSource(seed).(rand.Source64)
	var out [srcLen + 1]uint64 // out[k] is draw k
	for k := 1; k <= srcLen; k++ {
		out[k] = std.Uint64()
	}
	var vec [srcLen]uint64
	for k := srcTap + 1; k <= srcFeed; k++ {
		vec[srcFeed-k] = out[k] - out[k-srcTap]
	}
	for k := srcFeed + 1; k <= srcLen; k++ {
		vec[srcFeed+srcLen-k] = out[k] - out[k-srcTap]
	}
	for k := 1; k <= srcTap; k++ {
		vec[srcFeed-k] = out[k] - vec[srcLen-k]
	}
	var table [srcLen]uint64
	fill(&table, &vec, seed)
	return table
}

// Seed resets the source to seed's stream position zero, as
// rand.NewSource(seed) starts, and zeroes the draw count.
func (s *source) Seed(seed int64) {
	s.tap, s.feed, s.draws = 0, srcFeed, 0
	fill(&s.vec, &cooked, seed)
}

// Uint64 returns the next 64-bit value of the stream.
//
//lint:allocfree two index steps, one add
func (s *source) Uint64() uint64 {
	s.draws++
	s.tap--
	if s.tap < 0 {
		s.tap += srcLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += srcLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x
}

// Int63 returns the next value with its top bit cleared, as math/rand's
// source does; it is one draw.
//
//lint:allocfree one Uint64
func (s *source) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }
