package trace

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"timerstudy/internal/sim"
)

func feedSink(s Sink, shift uint64) {
	tcp := s.Origin("kernel/tcp:retransmit")
	sel := s.Origin("firefox/select")
	for i := uint64(0); i < 100; i++ {
		s.Log(Record{T: sim.Time(1000 + shift + i), TimerID: i, Timeout: 3e9, Origin: tcp, Op: OpSet})
		if i%3 == 0 {
			s.Log(Record{T: sim.Time(2000 + shift + i), TimerID: i, PID: 7, Origin: sel, Op: OpCancel, Flags: FlagSatisfied})
		} else {
			s.Log(Record{T: sim.Time(2000 + shift + i), TimerID: i, Origin: tcp, Op: OpExpire})
		}
	}
	s.Log(Record{T: 9999, Op: Op(250)}) // out-of-enum op still counted
}

// TestHashSinkDeterminism pins the property the fleet gate relies on: equal
// operation streams give equal digests, and any divergence — in record
// content or in origin intern order — changes the digest.
func TestHashSinkDeterminism(t *testing.T) {
	a, b := NewHashSink(), NewHashSink()
	feedSink(a, 0)
	feedSink(b, 0)
	if a.Sum64() != b.Sum64() {
		t.Fatalf("identical streams digest %x vs %x", a.Sum64(), b.Sum64())
	}
	if a.Counters() != b.Counters() {
		t.Fatalf("identical streams counters %+v vs %+v", a.Counters(), b.Counters())
	}

	c := NewHashSink()
	feedSink(c, 1) // shifted timestamps
	if c.Sum64() == a.Sum64() {
		t.Fatal("shifted stream produced the same digest")
	}

	// Same records, different intern order.
	d, e := NewHashSink(), NewHashSink()
	x1, y1 := d.Origin("x"), d.Origin("y")
	y2, x2 := e.Origin("y"), e.Origin("x")
	if x1 == x2 || y1 == y2 {
		t.Fatal("intern order did not change IDs")
	}
	if d.Sum64() == e.Sum64() {
		t.Fatal("different intern order produced the same digest")
	}
}

// refOrigins is the oracle for HashSink's origin table: every label
// indexed in a map, as HashSink kept it before it scanned, folded into an
// FNV-1a digest the way HashSink folds it.
type refOrigins struct {
	h     uint64
	names []string
	ids   map[string]uint32
}

func newRefOrigins() *refOrigins {
	r := &refOrigins{h: fnvOffset64, names: []string{"?"}, ids: map[string]uint32{}}
	r.fold("?", 0)
	return r
}

func (r *refOrigins) fold(name string, id uint32) {
	for i := 0; i < len(name); i++ {
		r.h = (r.h ^ uint64(name[i])) * fnvPrime64
	}
	for i := 0; i < 4; i++ {
		r.h = (r.h ^ uint64(byte(id>>(8*i)))) * fnvPrime64
	}
}

func (r *refOrigins) Origin(name string) uint32 {
	if id, ok := r.ids[name]; ok {
		return id
	}
	id := uint32(len(r.names))
	r.names = append(r.names, name)
	r.ids[name] = id
	r.fold(name, id)
	return id
}

// labelStream returns every label of a pool of the given size once, plus
// n draws from it, shuffled. The pool holds the empty label, "?" (which
// interns as a label of its own, not as origin 0) and labels that differ
// only in their last byte.
func labelStream(rng *rand.Rand, pool, n int) []string {
	labels := []string{"", "?"}
	for i := 0; len(labels) < pool; i++ {
		labels = append(labels, fmt.Sprintf("kernel/tcp:retransmit%d%c", i/26, 'a'+i%26))
	}
	out := slices.Clone(labels)
	for i := 0; i < n; i++ {
		out = append(out, labels[rng.Intn(pool)])
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// TestHashSinkMatchesBuffer checks HashSink mirrors Buffer's observable
// contract: origin IDs, resolution, and counters. Random label streams,
// some with more distinct labels than a lookup scans, must give the same
// IDs and names from HashSink, from Buffer and from a map-indexed oracle,
// and the oracle's digest. The origin table leaves fewer than originBlock
// slots unused.
func TestHashSinkMatchesBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, pool := range []int{2, 10, originScanMax - 1, originScanMax, originScanMax + 1, 300} {
		h, b, ref := NewHashSink(), NewBuffer(0), newRefOrigins()
		for i, n := range labelStream(rng, pool, 3*pool) {
			hi, bi, ri := h.Origin(n), b.Origin(n), ref.Origin(n)
			if hi != ri || bi != ri {
				t.Fatalf("pool %d, label %d: Origin(%q) = %d (hash sink), %d (buffer), want %d", pool, i, n, hi, bi, ri)
			}
		}
		if n, c := int(h.n), len(h.origins)*originBlock; c-n >= originBlock {
			t.Errorf("pool %d: %d origins in %d slots, want fewer than %d unused", pool, n, c, originBlock)
		}
		if indexed := h.originID != nil; indexed != (len(ref.names) > originScanMax) {
			t.Errorf("pool %d: %d labels interned, map index built = %v", pool, len(ref.names), indexed)
		}
		for id := uint32(0); id <= uint32(len(ref.names)); id++ {
			want := "?"
			if int(id) < len(ref.names) {
				want = ref.names[id]
			}
			if hn, bn := h.OriginName(id), b.OriginName(id); hn != want || bn != want {
				t.Fatalf("pool %d: OriginName(%d) = %q (hash sink), %q (buffer), want %q", pool, id, hn, bn, want)
			}
		}
		if h.Sum64() != ref.h {
			t.Fatalf("pool %d: Sum64 = %x, want %x", pool, h.Sum64(), ref.h)
		}
	}

	h, b := NewHashSink(), NewBuffer(DefaultCapacity)
	names := []string{"a", "b", "a", "c", "b"}
	for _, n := range names {
		if hi, bi := h.Origin(n), b.Origin(n); hi != bi {
			t.Fatalf("Origin(%q): hash sink %d, buffer %d", n, hi, bi)
		}
	}
	if h.OriginName(2) != b.OriginName(2) || h.OriginName(999) != "?" {
		t.Fatalf("OriginName mismatch: %q vs %q", h.OriginName(2), b.OriginName(2))
	}
	feedSink(h, 0)
	feedSink(b, 0)
	hc, bc := h.Counters(), b.Counters()
	if hc != bc {
		t.Fatalf("counters diverge: hash %+v buffer %+v", hc, bc)
	}
	var sum uint64
	for _, n := range hc.ByOp {
		sum += n
	}
	if sum+hc.Unknown != hc.Total {
		t.Fatalf("invariant broken: sum(ByOp)=%d unknown=%d total=%d", sum, hc.Unknown, hc.Total)
	}
	if hc.Dropped != 0 {
		t.Fatalf("hash sink reported drops: %+v", hc)
	}
}
