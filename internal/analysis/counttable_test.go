package analysis

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"timerstudy/internal/jiffies"
	"timerstudy/internal/sim"
)

// toMap copies t's counts into a map, for comparisons.
func (t *countTable) toMap() map[int64]int {
	m := make(map[int64]int, t.len())
	for _, e := range t.entries {
		m[e.key] = e.n
	}
	return m
}

// checkCountTable compares t against the map oracle want and the
// first-seen key order: every key's count, the entries' order, absent
// keys, and the table's shape (entries capacity exactly ¾ of the index, a
// power of two, and every entry indexed once).
func checkCountTable(t *testing.T, ct *countTable, want map[int64]int, order []int64, absent []int64) {
	t.Helper()
	if ct.len() != len(want) || len(order) != len(want) {
		t.Fatalf("table holds %d keys, oracle %d (order %d)", ct.len(), len(want), len(order))
	}
	for i, e := range ct.entries {
		if e.key != order[i] {
			t.Fatalf("entry %d is key %d, first-seen order says %d", i, e.key, order[i])
		}
		if n, ok := ct.lookup(e.key); !ok || n != want[e.key] {
			t.Fatalf("lookup(%d) = %d, %v; oracle %d", e.key, n, ok, want[e.key])
		}
	}
	for _, k := range absent {
		if _, in := want[k]; in {
			continue
		}
		if n, ok := ct.lookup(k); ok || n != 0 {
			t.Fatalf("lookup(%d) of an absent key = %d, %v", k, n, ok)
		}
	}
	if size := len(ct.index); size != 0 {
		if size&(size-1) != 0 || cap(ct.entries) != size/4*3 {
			t.Fatalf("index %d slots, entries capacity %d: want a power of two and exactly ¾", size, cap(ct.entries))
		}
		indexed := 0
		for _, e := range ct.index {
			if e != 0 {
				indexed++
			}
		}
		if indexed != ct.len() {
			t.Fatalf("index holds %d entries, table %d", indexed, ct.len())
		}
	}
}

// keySequences are the key streams the oracle test feeds: random keys
// with repeats, the fold's real strides (4 ms jiffies, 100 µs user bins),
// power-of-two strides that defeat a low-bits hash, and negative packed
// jiffy keys.
func keySequences() map[string][]int64 {
	rng := rand.New(rand.NewSource(7))
	seqs := map[string][]int64{}
	var random, small []int64
	for i := 0; i < 5000; i++ {
		random = append(random, rng.Int63()-rng.Int63())
		small = append(small, rng.Int63n(300)) // heavy repeats
	}
	seqs["random"], seqs["repeats"] = random, small
	stride := func(name string, n int, f func(i int) int64) {
		s := make([]int64, n)
		for i := range s {
			s[i] = f(i)
		}
		seqs[name] = s
	}
	stride("jiffy multiples", 3000, func(i int) int64 { return int64(i) * int64(jiffies.JiffyDuration) })
	stride("user bins", 3000, func(i int) int64 { return int64(i) * int64(userBin) })
	stride("negative packed", 3000, func(i int) int64 { return valueKey(0, uint64(i+1)) })
	for _, shift := range []int{1, 12, 20, 32, 48} {
		stride(fmt.Sprintf("stride 1<<%d", shift), 2000, func(i int) int64 { return int64(i) << shift })
	}
	stride("countdown", 3000, func(i int) int64 { return int64(30*sim.Second) - int64(i)*int64(sim.Millisecond) })
	stride("extremes", 6, func(i int) int64 {
		return []int64{math.MinInt64, math.MaxInt64, 0, -1, 1, math.MinInt64 + 1}[i]
	})
	return seqs
}

// TestCountTableMatchesMap: over every key sequence the table agrees with
// a map[int64]int at each growth boundary — the inserts just before,
// at and after the entries fill — and at the end, including lookups of
// keys it never saw.
func TestCountTableMatchesMap(t *testing.T) {
	for name, keys := range keySequences() {
		t.Run(name, func(t *testing.T) {
			var ct countTable
			want := map[int64]int{}
			var order []int64
			absent := []int64{math.MinInt64, -1, 0, 1, math.MaxInt64, 12345}
			for i, k := range keys {
				n := 1 + i%3
				before := cap(ct.entries)
				if _, ok := want[k]; !ok {
					order = append(order, k)
					absent = append(absent, ^k, k+1)
				}
				want[k] += n
				ct.add(k, n)
				if full := len(ct.entries) >= before-1 && len(ct.entries) <= before+1; full || cap(ct.entries) != before {
					checkCountTable(t, &ct, want, order, absent)
				}
			}
			checkCountTable(t, &ct, want, order, absent)
		})
	}
}

// TestCountTableSum: sum visits every key of either table once with the
// summed count, t's keys first, and a nil second table adds nothing.
func TestCountTableSum(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var a, b countTable
	want := map[int64]int{}
	for i := 0; i < 4000; i++ {
		k := rng.Int63n(3000) * int64(userBin)
		if i%2 == 0 {
			a.add(k, 1)
		} else {
			b.add(k, 2)
		}
		want[k] += 1 + i%2
	}
	check := func(name string, x, y *countTable, want map[int64]int) {
		got := map[int64]int{}
		var keys []int64
		x.sum(y, func(k int64, n int) {
			if _, dup := got[k]; dup {
				t.Fatalf("%s: key %d visited twice", name, k)
			}
			got[k] = n
			keys = append(keys, k)
		})
		if len(got) != len(want) {
			t.Fatalf("%s: %d keys, want %d", name, len(got), len(want))
		}
		for k, n := range want {
			if got[k] != n {
				t.Fatalf("%s: key %d summed to %d, want %d", name, k, got[k], n)
			}
		}
		for i, e := range x.entries {
			if keys[i] != e.key {
				t.Fatalf("%s: visit %d is key %d, want the first table's key %d first", name, i, keys[i], e.key)
			}
		}
	}
	check("a+b", &a, &b, want)
	check("b+a", &b, &a, want)
	check("a+nil", &a, nil, a.toMap())
	var empty countTable
	check("empty+b", &empty, &b, b.toMap())
	if n, ok := (*countTable)(nil).lookup(0); ok || n != 0 || (*countTable)(nil).len() != 0 {
		t.Fatal("a nil table is not empty")
	}
}

// TestValueKeyRoundTrip: every bin binAttrs can return packs to a key that
// unpacks to the same bin, and distinct bins never share a key — except
// the kernel 0-jiffy bin and the user 0 bin, which are one bar.
func TestValueKeyRoundTrip(t *testing.T) {
	opts := ValueOptions{JiffyBinKernel: true}
	values := []sim.Duration{math.MinInt64, -1, 0, 1, 49 * sim.Microsecond, 50 * sim.Microsecond,
		sim.Millisecond, 4 * sim.Millisecond, 4*sim.Millisecond + 1, 5 * sim.Second,
		math.MaxInt64 - userBin, math.MaxInt64 - userBin/2, math.MaxInt64}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		values = append(values, sim.Duration(rng.Int63()))
	}
	type bin struct {
		v sim.Duration
		j uint64
	}
	byKey := map[int64]bin{}
	for _, v := range values {
		for _, user := range []bool{false, true} {
			b, j := opts.binAttrs(user, v)
			k := valueKey(b, j)
			if gb, gj := unpackValueKey(k); gb != b || gj != j {
				t.Fatalf("bin (%d, %d) packs to %d, unpacks to (%d, %d)", b, j, k, gb, gj)
			}
			if prev, ok := byKey[k]; ok && prev != (bin{b, j}) {
				t.Fatalf("bins %+v and (%d, %d) share key %d", prev, b, j, k)
			}
			byKey[k] = bin{b, j}
		}
	}
	if kb, kj := opts.binAttrs(false, 0); valueKey(kb, kj) != valueKey(opts.binAttrs(true, 0)) {
		t.Fatal("the kernel 0-jiffy bin and the user 0 bin are different keys")
	}
	if j := jiffies.MsecsToJiffies(math.MaxInt64); int64(j) != maxJiffyBin {
		t.Fatalf("maxJiffyBin = %d, the largest jiffy bin is %d", maxJiffyBin, j)
	}
}

// TestCountTableResetRefillZeroAlloc: reset keeps the entries and the
// index, so refilling a table to its old size allocates nothing.
func TestCountTableResetRefillZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is skewed under -race")
	}
	var ct countTable
	for i := int64(0); i < 1000; i++ {
		ct.add(i*int64(userBin), 1)
	}
	avg := testing.AllocsPerRun(50, func() {
		ct.reset()
		for i := int64(999); i >= 0; i-- { // another order, the same keys
			ct.add(i*int64(userBin), 2)
		}
		for i := int64(0); i < 1000; i++ {
			ct.add(i*int64(userBin), 1)
		}
	})
	if avg != 0 {
		t.Fatalf("refill after reset allocated %.2f times per run, want 0", avg)
	}
	if ct.len() != 1000 {
		t.Fatalf("refilled table holds %d keys, want 1000", ct.len())
	}
}

// insertDisplacement replays keys into a fresh table one add at a time
// and returns the mean and the largest distance, in slots, of each new
// key from its home slot right after its insert: the probes that insert
// walked past occupied slots.
func insertDisplacement(keys []int64) (mean float64, most int) {
	var ct countTable
	total := 0
	for _, k := range keys {
		ct.add(k, 1)
		mask := uint32(len(ct.index) - 1)
		d := 0
		for s := ct.home(k); ct.entries[ct.index[s]-1].key != k; s = (s + 1) & mask {
			d++
		}
		total += d
		most = max(most, d)
	}
	return float64(total) / float64(len(keys)), most
}

// TestCountTableDrainProbeBound guards against draining in slot order. A
// table filled to its last free entry drains into a fresh one, and the
// destination's entries — the order the drain inserted them — replay
// with a short mean probe. Replaying the source's keys in slot order,
// which is hash order, clusters every insert; the test checks that order
// breaks the bound, so the bound can catch a drain that walks the index.
func TestCountTableDrainProbeBound(t *testing.T) {
	const bound = 4.0
	rng := rand.New(rand.NewSource(11))
	for name, gen := range map[string]func(i int) int64{
		"random":       func(int) int64 { return rng.Int63() },
		"user bins":    func(i int) int64 { return int64(i) * int64(userBin) },
		"jiffy packed": func(i int) int64 { return valueKey(0, uint64(i+1)) },
		"stride 1<<32": func(i int) int64 { return int64(i) << 32 },
	} {
		t.Run(name, func(t *testing.T) {
			var src countTable
			for i := 0; len(src.entries) < minCountIndex<<11*3/4; i++ {
				src.add(gen(i), 1)
			}
			if len(src.entries) != cap(src.entries) {
				t.Fatalf("fixture: source holds %d of %d entries, want full", len(src.entries), cap(src.entries))
			}
			var dst countTable
			dst.addAll(&src)
			if !slices.Equal(dst.entries, src.entries) {
				t.Fatal("drain changed the entries or their order")
			}
			drained := make([]int64, len(dst.entries))
			for i, e := range dst.entries {
				drained[i] = e.key
			}
			mean, most := insertDisplacement(drained)
			if mean > bound {
				t.Errorf("drain order: mean insert probe %.2f slots (longest %d), want ≤ %.0f", mean, most, bound)
			}
			var slotOrder []int64
			for _, e := range src.index {
				if e != 0 {
					slotOrder = append(slotOrder, src.entries[e-1].key)
				}
			}
			slotMean, slotMost := insertDisplacement(slotOrder)
			if slotMean <= bound {
				t.Errorf("slot order: mean insert probe %.2f slots (longest %d) is within the bound; the guard cannot tell the orders apart", slotMean, slotMost)
			}
			t.Logf("mean insert probe: drain order %.2f (longest %d), slot order %.2f (longest %d)", mean, most, slotMean, slotMost)
		})
	}
}
