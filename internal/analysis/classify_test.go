package analysis

import (
	"fmt"
	"math/rand"
	"testing"

	"timerstudy/internal/sim"
)

// TestShardConstantValueMatchesReference checks the histogram form of the
// constant-value rule against constantValue over the full multiset, on
// seeded random multisets of 1 to 20,000 distinct values clustered around a
// base so they straddle the 2 ms tolerance, with odd and even totals.
func TestShardConstantValueMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sh := standardPipeline().newShard()
	outcomes := map[string]int{}
	for trial := 0; trial < 300; trial++ {
		k := 1 + rng.Intn(8)
		switch trial % 3 {
		case 1:
			k = 1 + rng.Intn(1000)
		case 2:
			k = 1 + rng.Intn(20_000)
		}
		base := sim.Duration(1+rng.Intn(1000)) * sim.Millisecond
		near := []float64{0.8, 0.88, 0.9, 0.92, 1}[rng.Intn(5)]
		var st streamTimer
		var uses []Use
		for seen := map[sim.Duration]bool{}; len(seen) < k; {
			v := base + sim.Duration(rng.Int63n(int64(6*sim.Millisecond))) - 3*sim.Millisecond
			if rng.Float64() >= near {
				v = base + sim.Duration(rng.Int63n(int64(10*sim.Second)))
			}
			if seen[v] {
				continue
			}
			seen[v] = true
			for c := 1 + rng.Intn(3); c > 0; c-- {
				st.addTval(v)
				st.closed++
				uses = append(uses, Use{Timeout: v})
			}
		}
		got, want := sh.constantValue(&st), constantValue(uses)
		if got != want {
			t.Fatalf("trial %d (k=%d, n=%d): shard.constantValue = %v, reference = %v", trial, k, len(uses), got, want)
		}
		outcomes[fmt.Sprintf("constant=%v", want)]++
		outcomes[fmt.Sprintf("odd=%v", len(uses)%2 == 1)]++
	}
	for _, o := range []string{"constant=true", "constant=false", "odd=true", "odd=false"} {
		if outcomes[o] == 0 {
			t.Errorf("no trial had %s; the generator no longer straddles the rule", o)
		}
	}
}
