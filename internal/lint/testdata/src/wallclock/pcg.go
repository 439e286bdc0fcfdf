package wall

import (
	randv2 "math/rand/v2"
	"time"
)

// The math/rand/v2 generators take their seeds as arguments, so building
// one from a fixed seed is clean.
func pcg() uint64 {
	r := randv2.New(randv2.NewPCG(1, 2)) // explicit seeds: clean
	return r.Uint64()
}

func chacha() uint64 {
	var seed [32]byte
	return randv2.New(randv2.NewChaCha8(seed)).Uint64() // explicit seed: clean
}

// clockPCG seeds a PCG from the host clock: still a seeding finding.
func clockPCG() *randv2.Rand {
	// want+2:wallclock "time.Now reads the host clock"
	// want+1:wallclock "rand.NewPCG seeded from the host clock"
	return randv2.New(randv2.NewPCG(uint64(time.Now().UnixNano()), 2))
}
