package sim

import (
	"math"
	"math/rand"
	"testing"
)

// sourceSeeds cover math/rand's seed normalization: zero (replaced), the
// modulus and its neighbours (2^31−1 reduces to zero), the replacement
// value itself, negatives and both int64 extremes.
var sourceSeeds = []int64{
	0, 1, -1, 7, 42, 1<<31 - 2, 1<<31 - 1, 1 << 31, seedZero,
	math.MinInt64, math.MaxInt64,
}

// TestSourceMatchesMathRand pins the engine's source to rand.NewSource:
// the same raw stream for every seed, through Uint64 and Int63 alike, and
// again after a reseed, with the draw count reset by Seed and advanced by
// one per raw value either way.
func TestSourceMatchesMathRand(t *testing.T) {
	const draws = 10_000
	for _, seed := range sourceSeeds {
		ref := rand.NewSource(seed).(rand.Source64)
		var s source
		s.Seed(seed)
		for i := 0; i < draws; i++ {
			if i%3 == 2 {
				if got, want := s.Int63(), ref.Int63(); got != want {
					t.Fatalf("seed %d: Int63 draw %d = %d, want %d", seed, i, got, want)
				}
				continue
			}
			if got, want := s.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %d: Uint64 draw %d = %#x, want %#x", seed, i, got, want)
			}
		}
		if s.draws != draws {
			t.Fatalf("seed %d: %d draws counted, want %d", seed, s.draws, draws)
		}

		// Reseed mid-stream: position zero of the new seed, count reset.
		next := seed ^ 0x5eed
		s.Seed(next)
		ref.Seed(next)
		if s.draws != 0 {
			t.Fatalf("seed %d: Seed left %d draws counted", seed, s.draws)
		}
		for i := 0; i < draws; i++ {
			if got, want := s.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("reseed %d: Uint64 draw %d = %#x, want %#x", next, i, got, want)
			}
			if got, want := s.Int63(), ref.Int63(); got != want {
				t.Fatalf("reseed %d: Int63 draw %d = %d, want %d", next, i, got, want)
			}
		}
		if s.draws != 2*draws {
			t.Fatalf("reseed %d: %d draws counted, want %d", next, s.draws, 2*draws)
		}
	}
}

// TestEngineRandMatchesMathRand checks the engine's *rand.Rand end to end
// against one over rand.NewSource, through the derived draws the
// workloads use.
func TestEngineRandMatchesMathRand(t *testing.T) {
	for _, seed := range sourceSeeds {
		compareRands(t, seed, NewEngine(seed).Rand(), rand.New(rand.NewSource(seed)), 2_000)
	}
}

// compareRands draws n rounds of Uint64, Int63, Int63n, Float64,
// ExpFloat64 and NormFloat64 from got and want and fails on the first
// difference.
func compareRands(t *testing.T, seed int64, got, want *rand.Rand, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if g, w := got.Uint64(), want.Uint64(); g != w {
			t.Fatalf("seed %d round %d: Uint64 %#x, want %#x", seed, i, g, w)
		}
		if g, w := got.Int63(), want.Int63(); g != w {
			t.Fatalf("seed %d round %d: Int63 %d, want %d", seed, i, g, w)
		}
		bound := int64(i%1000 + 1)
		if i%2 == 1 {
			bound = 1<<62 + int64(i) // rejection sampling redraws often here
		}
		if g, w := got.Int63n(bound), want.Int63n(bound); g != w {
			t.Fatalf("seed %d round %d: Int63n(%d) %d, want %d", seed, i, bound, g, w)
		}
		if g, w := got.Float64(), want.Float64(); g != w {
			t.Fatalf("seed %d round %d: Float64 %v, want %v", seed, i, g, w)
		}
		if g, w := got.ExpFloat64(), want.ExpFloat64(); g != w {
			t.Fatalf("seed %d round %d: ExpFloat64 %v, want %v", seed, i, g, w)
		}
		if g, w := got.NormFloat64(), want.NormFloat64(); g != w {
			t.Fatalf("seed %d round %d: NormFloat64 %v, want %v", seed, i, g, w)
		}
	}
}

// FuzzSourceMatchesMathRand compares the two sources at fuzz-chosen seeds.
func FuzzSourceMatchesMathRand(f *testing.F) {
	for _, seed := range sourceSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		var s source
		s.Seed(seed)
		compareRands(t, seed, rand.New(&s), rand.New(rand.NewSource(seed)), 2_000)
	})
}

// TestMulModP checks the Mersenne fold against division on the values
// seeding reaches: the multipliers it uses, and operands at the range ends.
func TestMulModP(t *testing.T) {
	xs := []uint64{1, 2, lehmerA, lehmerA3, 1 << 30, 1<<31 - 3, lehmerP - 1, seedZero}
	for _, x := range xs {
		for _, m := range xs {
			if got, want := mulModP(x, m), x*m%lehmerP; got != want {
				t.Fatalf("mulModP(%d, %d) = %d, want %d", x, m, got, want)
			}
		}
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100_000; i++ {
		x, m := uint64(rng.Int63n(lehmerP-1)+1), uint64(rng.Int63n(lehmerP-1)+1)
		if got, want := mulModP(x, m), x*m%lehmerP; got != want {
			t.Fatalf("mulModP(%d, %d) = %d, want %d", x, m, got, want)
		}
	}
}

// TestSourceSeedZeroAlloc: reseeding an engine's source allocates nothing.
func TestSourceSeedZeroAlloc(t *testing.T) {
	var s source
	if n := testing.AllocsPerRun(10, func() { s.Seed(7) }); n != 0 {
		t.Fatalf("Seed allocated %v times", n)
	}
}
