package trace

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
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

// The FNV-1a 64 parameters, restated so the oracles below share no code
// with the sink they check.
const (
	refOffset64 = 14695981039346656037
	refPrime64  = 1099511628211
)

// refOrigins is the oracle for HashSink's origin table: every label
// indexed in a map, as HashSink kept it before it scanned, folded into an
// FNV-1a digest the way HashSink folds it.
type refOrigins struct {
	h     uint64
	names []string
	ids   map[string]uint32
}

func newRefOrigins() *refOrigins {
	r := &refOrigins{h: refOffset64, names: []string{"?"}, ids: map[string]uint32{}}
	r.fold("?", 0)
	return r
}

func (r *refOrigins) fold(name string, id uint32) {
	for i := 0; i < len(name); i++ {
		r.h = (r.h ^ uint64(name[i])) * refPrime64
	}
	for i := 0; i < 4; i++ {
		r.h = (r.h ^ uint64(byte(id>>(8*i)))) * refPrime64
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

// fnvOracle keeps the bytes a HashSink claims to fold — the "?" origin,
// each new label and its 4-byte ID, each record's putRecord encoding — and
// digests them with hash/fnv.
type fnvOracle struct {
	b []byte
}

func newFNVOracle() *fnvOracle {
	o := &fnvOracle{}
	o.origin("?", 0)
	return o
}

func (o *fnvOracle) origin(name string, id uint32) {
	o.b = binary.LittleEndian.AppendUint32(append(o.b, name...), id)
}

func (o *fnvOracle) record(r Record) {
	var enc [RecordSize]byte
	putRecord(enc[:], &r)
	o.b = append(o.b, enc[:]...)
}

func (o *fnvOracle) sum() uint64 {
	h := fnv.New64a()
	h.Write(o.b)
	return h.Sum64()
}

// wideRecords are records that use every byte of every field: timestamps
// past 2^32, IDs past 2^56, negative timeouts and PIDs, interior zero
// bytes, flags past 255 and ops outside the enum.
var wideRecords = []Record{
	{},
	{T: 1 << 32, TimerID: 1 << 56, Timeout: -1, PID: -1, Origin: 0xffffffff, Op: 0xff, Flags: 0xffff},
	{T: 0x0100, TimerID: 0x0100, Timeout: 0x0100, PID: 0x0100, Origin: 0x0100, Op: 0x01, Flags: 0x0100},
	{T: sim.Time(math.MaxInt64), TimerID: math.MaxUint64, Timeout: math.MinInt64, PID: math.MinInt32, Origin: 1 << 31, Op: nOps, Flags: 256},
	{T: 0x0001000000010000, TimerID: 0x00ff00ff00ff00ff, Timeout: -0x0100, PID: 1 << 24, Origin: 0x00010001, Op: OpWait, Flags: FlagUser | 1<<15},
	{T: 3_000_000_000, TimerID: 7, Timeout: 3e9, PID: 1000, Origin: 12, Op: OpSet, Flags: FlagUser | FlagSatisfied},
}

// TestHashSinkLogMatchesFNV checks that Log digests each record's exact
// putRecord encoding: wide records interleaved with interned labels must
// give hash/fnv's digest over those bytes after every step.
func TestHashSinkLogMatchesFNV(t *testing.T) {
	s, o := NewHashSink(), newFNVOracle()
	if s.Sum64() != o.sum() {
		t.Fatalf("fresh sink digest %x, want %x", s.Sum64(), o.sum())
	}
	for i, r := range wideRecords {
		label := fmt.Sprintf("label-%d", i)
		o.origin(label, s.Origin(label))
		for _, rec := range []Record{r, {T: r.T}, {Op: r.Op}, {Flags: r.Flags}, {PID: r.PID}} {
			s.Log(rec)
			o.record(rec)
			if s.Sum64() != o.sum() {
				t.Fatalf("after record %+v: digest %x, want %x", rec, s.Sum64(), o.sum())
			}
		}
	}
}

// FuzzHashSinkMatchesFNV compares a HashSink with hash/fnv over the bytes
// it claims to fold, at fuzz-chosen field values and a fuzz-chosen label.
func FuzzHashSinkMatchesFNV(f *testing.F) {
	for _, r := range wideRecords {
		f.Add(int64(r.T), r.TimerID, r.Timeout, r.PID, r.Origin, uint8(r.Op), uint16(r.Flags), "kernel/tcp:retransmit")
	}
	f.Fuzz(func(t *testing.T, ts int64, id uint64, timeout int64, pid int32, origin uint32, op uint8, flags uint16, label string) {
		s, o := NewHashSink(), newFNVOracle()
		o.origin(label, s.Origin(label))
		r := Record{T: sim.Time(ts), TimerID: id, Timeout: timeout, PID: pid, Origin: origin, Op: Op(op), Flags: Flags(flags)}
		s.Log(r)
		o.record(r)
		if s.Sum64() != o.sum() {
			t.Fatalf("label %q, record %+v: digest %x, want %x", label, r, s.Sum64(), o.sum())
		}
	})
}

// TestHashSinkLogZeroAlloc guards the fleet's per-record digest path. Run
// without -race in CI, like the other alloc guards.
func TestHashSinkLogZeroAlloc(t *testing.T) {
	s := NewHashSink()
	rec := wideRecords[1]
	if allocs := testing.AllocsPerRun(1000, func() { s.Log(rec) }); allocs != 0 {
		t.Errorf("HashSink.Log allocates %.1f objects/op, want 0", allocs)
	}
}

// fleetShapedRecords returns n records with the field sizes of a fleet
// host's trace (the benchmark plane at seed 1): timestamps under 2^32 ns,
// one-byte timer IDs and origins, half the timeouts zero and the rest
// milliseconds to minutes, PIDs 0 or in the thousands, flags 0, 1 or 17.
func fleetShapedRecords(n int) []Record {
	rng := rand.New(rand.NewSource(1))
	timeouts := []int64{0, 0, 0, 0, 4e6, 2e8, 5e9, 3e10}
	pids := []int32{0, 0, 0, 1000, 1042}
	flags := []Flags{0, 0, 0, 0, FlagUser, FlagUser | FlagSatisfied}
	ops := []Op{OpSet, OpSet, OpCancel, OpCancel, OpExpire, OpInit}
	recs := make([]Record, n)
	t := sim.Time(1e9)
	for i := range recs {
		t += sim.Time(rng.Intn(200_000))
		recs[i] = Record{
			T: t, TimerID: uint64(1 + rng.Intn(200)), Timeout: timeouts[rng.Intn(len(timeouts))],
			PID: pids[rng.Intn(len(pids))], Origin: uint32(1 + rng.Intn(40)),
			Op: ops[rng.Intn(len(ops))], Flags: flags[rng.Intn(len(flags))],
		}
	}
	return recs
}

// wideValueRecords returns n records whose every field is random at full
// width.
func wideValueRecords(n int) []Record {
	rng := rand.New(rand.NewSource(2))
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			T: sim.Time(rng.Int63()), TimerID: rng.Uint64(), Timeout: int64(rng.Uint64()),
			PID: int32(rng.Uint32()), Origin: rng.Uint32(), Op: Op(rng.Intn(256)), Flags: Flags(rng.Intn(1 << 16)),
		}
	}
	return recs
}

// BenchmarkHashSinkLog times one record's digest fold and count.
func BenchmarkHashSinkLog(b *testing.B) {
	for _, mix := range []struct {
		name string
		recs []Record
	}{
		{"fleet", fleetShapedRecords(4096)},
		{"wide", wideValueRecords(4096)},
	} {
		b.Run(mix.name, func(b *testing.B) {
			s := NewHashSink()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Log(mix.recs[i&4095])
			}
			benchDigest = s.Sum64()
		})
	}
}

// benchDigest keeps BenchmarkHashSinkLog's digest live.
var benchDigest uint64
