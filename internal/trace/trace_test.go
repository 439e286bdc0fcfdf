package trace

import (
	"testing"
	"testing/quick"

	"timerstudy/internal/sim"
)

func TestOriginInterning(t *testing.T) {
	b := NewBuffer(10)
	a := b.Origin("kernel/tcp:retransmit")
	if a2 := b.Origin("kernel/tcp:retransmit"); a2 != a {
		t.Fatalf("re-intern gave %d, want %d", a2, a)
	}
	c := b.Origin("firefox/select")
	if c == a {
		t.Fatal("distinct origins share an ID")
	}
	if got := b.OriginName(a); got != "kernel/tcp:retransmit" {
		t.Fatalf("OriginName = %q", got)
	}
	if got := b.OriginName(9999); got != "?" {
		t.Fatalf("unknown origin = %q, want ?", got)
	}
}

func TestBufferDropsWhenFull(t *testing.T) {
	b := NewBuffer(2)
	for i := 0; i < 5; i++ {
		b.Log(Record{T: sim.Time(i), Op: OpSet})
	}
	if b.Len() != 2 {
		t.Fatalf("Len = %d, want 2", b.Len())
	}
	// relayfs semantics: the *first* two records are kept.
	if b.Records()[0].T != 0 || b.Records()[1].T != 1 {
		t.Fatalf("wrong records kept: %+v", b.Records())
	}
	c := b.Counters()
	if c.Total != 5 || c.Dropped != 3 || c.ByOp[OpSet] != 5 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestZeroCapacityCountsOnly(t *testing.T) {
	b := NewBuffer(0)
	b.Log(Record{Op: OpExpire})
	if b.Len() != 0 {
		t.Fatal("stored a record at cap 0")
	}
	if b.Counters().ByOp[OpExpire] != 1 {
		t.Fatal("did not count")
	}
}

func TestOpString(t *testing.T) {
	cases := map[Op]string{OpInit: "init", OpSet: "set", OpCancel: "cancel", OpExpire: "expire", OpWait: "wait", Op(99): "op(99)"}
	for op, want := range cases {
		if op.String() != want {
			t.Errorf("Op(%d).String() = %q, want %q", op, op.String(), want)
		}
	}
}

func TestFlags(t *testing.T) {
	r := Record{Flags: FlagUser | FlagDeferrable}
	if !r.IsUser() {
		t.Fatal("IsUser = false")
	}
	if (Record{Flags: FlagDeferrable}).IsUser() {
		t.Fatal("IsUser = true for kernel record")
	}
}

func TestReset(t *testing.T) {
	b := NewBuffer(10)
	id := b.Origin("x")
	b.Log(Record{Op: OpSet, Origin: id})
	b.Reset()
	if b.Len() != 0 || b.Counters().Total != 0 {
		t.Fatal("reset did not clear records/counters")
	}
	if b.Origin("x") != id {
		t.Fatal("reset lost interned origins")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	origins := []string{"kernel/arp", "apache/event-loop"}
	recs := []Record{
		{T: 1, TimerID: 0xdeadbeef, Timeout: int64(5 * sim.Second), PID: 0, Origin: 1, Op: OpSet, Flags: FlagDeferrable},
		{T: 2, TimerID: 0xdeadbeef, Op: OpCancel},
		{T: 3, TimerID: 42, Timeout: int64(sim.Second), PID: 1234, Origin: 2, Op: OpWait, Flags: FlagUser},
		{T: int64e9(4), TimerID: 42, Op: OpExpire, Flags: FlagUser},
		{T: 5, TimerID: 7, Timeout: -12, PID: -1, Origin: 2, Op: OpInit},
	}
	got, err := decodeAll(t, encodeV2(t, 2, origins, recs))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.recs) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got.recs), len(recs))
	}
	for i, r := range got.recs {
		if r != recs[i] {
			t.Fatalf("record %d: got %+v, want %+v", i, r, recs[i])
		}
	}
	if got.names[0] != "kernel/arp" || got.names[2] != "apache/event-loop" {
		t.Fatalf("origins did not survive round trip: %q", got.names)
	}
}

func int64e9(s int64) sim.Time { return sim.Time(s * int64(sim.Second)) }

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := decodeAll(t, []byte("not a trace file at all.....")); err == nil {
		t.Fatal("decoded garbage")
	}
	if _, err := decodeAll(t, nil); err == nil {
		t.Fatal("decoded empty input")
	}
}

// Property: any record survives a binary round trip bit-exactly.
func TestRecordCodecProperty(t *testing.T) {
	f := func(tm int64, id uint64, to int64, pid int32, origin uint32, op uint8, flags uint16) bool {
		r := Record{
			T: sim.Time(tm), TimerID: id, Timeout: to, PID: pid,
			Origin: origin, Op: Op(op), Flags: Flags(flags),
		}
		var buf [RecordSize]byte
		putRecord(buf[:], &r)
		var got Record
		decodeRecord(&got, buf[:])
		return got == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
