package fleet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"testing"

	"timerstudy/internal/analysis"
	"timerstudy/internal/netsim"
	"timerstudy/internal/sim"
	"timerstudy/internal/trace"
)

// testTopology is a small but fully wired datacenter: cross-host request
// traffic, retransmits, watchdogs, background daemons.
func testTopology() Topology {
	return Topology{
		Webservers: 2,
		Desktops:   6,
		Seed:       42,
		ThinkMean:  20 * sim.Millisecond,
	}
}

// runOnce builds the test fleet with every host teed into a Buffer and a v2
// StreamWriter, runs it, and returns the per-host stream bytes plus the
// per-host analysis summaries.
func runOnce(t *testing.T, top Topology, end sim.Time, workers int) ([][]byte, []analysis.Summary, RunStats) {
	t.Helper()
	streams := make(map[string]*bytes.Buffer)
	top.NewSink = func(name string) trace.Sink {
		streams[name] = new(bytes.Buffer)
		return trace.Tee(trace.NewBuffer(trace.DefaultCapacity), trace.NewStreamWriter(streams[name]))
	}
	f := top.Build()
	stats := f.StartSession(end, workers).Finish()
	encs := make([][]byte, len(f.Hosts()))
	sums := make([]analysis.Summary, len(f.Hosts()))
	for i, h := range f.Hosts() {
		fan := trace.Fan(h.Sink)
		buf, ok := fan[0].(*trace.Buffer)
		if !ok || len(fan) != 2 {
			t.Fatalf("host %s sink fans out to %d sinks, want a Buffer and a StreamWriter", h.Name, len(fan))
		}
		if err := fan[1].(*trace.StreamWriter).Close(); err != nil {
			t.Fatalf("encode %s: %v", h.Name, err)
		}
		encs[i] = streams[h.Name].Bytes()
		sums[i] = analysis.Summarize(buf)
	}
	return encs, sums, stats
}

// TestFleetDeterminismSweep is the tentpole's acceptance property in
// miniature: per-host traces and per-host analysis summaries are
// byte-identical at every worker count.
func TestFleetDeterminismSweep(t *testing.T) {
	top := testTopology()
	const end = sim.Time(2 * sim.Second)
	base, baseSums, baseStats := runOnce(t, top, end, 1)
	if baseStats.Sent == 0 || baseStats.Delivered == 0 {
		t.Fatalf("no cross-host traffic moved: %+v", baseStats)
	}
	if !baseStats.Bounded || baseStats.Lookahead <= 0 {
		t.Fatalf("expected positive lookahead, got %+v", baseStats)
	}
	workerCounts := []int{2, runtime.NumCPU(), 4 * runtime.NumCPU()}
	for _, w := range workerCounts {
		encs, sums, stats := runOnce(t, top, end, w)
		if stats.Windows != baseStats.Windows || stats.Events != baseStats.Events ||
			stats.Sent != baseStats.Sent || stats.Delivered != baseStats.Delivered ||
			stats.Lost != baseStats.Lost {
			t.Errorf("workers=%d stats diverge: %+v vs %+v", w, stats, baseStats)
		}
		for i := range encs {
			if !bytes.Equal(encs[i], base[i]) {
				t.Errorf("workers=%d host %d trace differs from serial (lens %d vs %d)",
					w, i, len(encs[i]), len(base[i]))
			}
			if sums[i] != baseSums[i] {
				t.Errorf("workers=%d host %d summary differs:\n%+v\nvs\n%+v",
					w, i, sums[i], baseSums[i])
			}
		}
	}
}

// byteRecorder is a Sink that keeps exactly the bytes a HashSink folds:
// the pre-interned "?" and each new origin's label and 4-byte ID, in intern
// order, and each record's 40-byte v2 encoding (trace.Record's layout).
type byteRecorder struct {
	ids map[string]uint32
	b   []byte
}

func newByteRecorder() *byteRecorder {
	r := &byteRecorder{ids: map[string]uint32{}}
	r.b = append(r.b, "?\x00\x00\x00\x00"...)
	return r
}

func (r *byteRecorder) Origin(name string) uint32 {
	if id, ok := r.ids[name]; ok {
		return id
	}
	id := uint32(len(r.ids) + 1)
	r.ids[name] = id
	r.b = binary.LittleEndian.AppendUint32(append(r.b, name...), id)
	return id
}

func (r *byteRecorder) Log(rec trace.Record) {
	le := binary.LittleEndian
	b := le.AppendUint64(r.b, uint64(rec.T))
	b = le.AppendUint64(b, rec.TimerID)
	b = le.AppendUint64(b, uint64(rec.Timeout))
	b = le.AppendUint32(b, uint32(rec.PID))
	b = le.AppendUint32(b, rec.Origin)
	b = append(b, byte(rec.Op))
	b = le.AppendUint16(b, uint16(rec.Flags))
	r.b = append(b, 0, 0, 0, 0, 0)
}

// TestFleetHashSinkMatchesBuffer: the digest-only sink used at 10k hosts
// digests exactly the bytes a byte-level record of the run holds. Every
// host's HashSink is teed with a byteRecorder, and on the test topology's
// real traffic each host's Sum64 must equal hash/fnv's FNV-1a over the
// recorded bytes, and the fleet digest FNV-1a over the host digests. The
// fleet digest must also agree across worker counts and move with the
// seed.
func TestFleetHashSinkMatchesBuffer(t *testing.T) {
	top := testTopology()
	const end = sim.Time(sim.Second)
	recorders := map[string]*byteRecorder{}
	top.NewSink = func(name string) trace.Sink {
		recorders[name] = newByteRecorder()
		return trace.Tee(trace.NewHashSink(), recorders[name])
	}
	f1 := top.Build()
	f1.StartSession(end, 1).Finish()
	fleetDigest := fnv.New64a()
	for _, h := range f1.Hosts() {
		hs, ok := firstHashSink(h.Sink)
		if !ok {
			t.Fatalf("host %s has no HashSink", h.Name)
		}
		rec := recorders[h.Name]
		if got := int(hs.Counters().Total); got == 0 || got*trace.RecordSize >= len(rec.b) {
			t.Fatalf("host %s: %d records in %d recorded bytes", h.Name, got, len(rec.b))
		}
		want := fnv.New64a()
		want.Write(rec.b)
		if hs.Sum64() != want.Sum64() {
			t.Fatalf("host %s: Sum64 %x, want FNV-1a over its %d recorded bytes %x", h.Name, hs.Sum64(), len(rec.b), want.Sum64())
		}
		fleetDigest.Write(binary.LittleEndian.AppendUint64(nil, hs.Sum64()))
	}
	if f1.Digest() != fleetDigest.Sum64() {
		t.Fatalf("fleet digest %x, want FNV-1a over the host digests %x", f1.Digest(), fleetDigest.Sum64())
	}

	top.NewSink = nil // default sink: HashSink
	f2 := top.Build()
	f2.StartSession(end, 3).Finish()
	if f1.Digest() != f2.Digest() {
		t.Fatalf("digest diverges across worker counts: %x vs %x", f1.Digest(), f2.Digest())
	}
	c1, c2 := f1.Counters(), f2.Counters()
	if c1 != c2 || c1.Total == 0 {
		t.Fatalf("counters diverge or empty: %+v vs %+v", c1, c2)
	}
	// A different seed must change the digest.
	top.Seed++
	f3 := top.Build()
	f3.StartSession(end, 1).Finish()
	if f3.Digest() == f1.Digest() {
		t.Fatal("different seed produced identical fleet digest")
	}
}

// TestFleetZeroRTT: a zero-latency link collapses the lookahead; the fleet
// must degenerate to lock-step and stay deterministic at any worker count.
func TestFleetZeroRTT(t *testing.T) {
	top := testTopology()
	top.Link = &netsim.PathConfig{Latency: 0}
	const end = sim.Time(500 * sim.Millisecond)
	base, _, baseStats := runOnce(t, top, end, 1)
	if baseStats.Lookahead != 0 || !baseStats.Bounded {
		t.Fatalf("expected zero bounded lookahead, got %+v", baseStats)
	}
	if baseStats.Delivered == 0 {
		t.Fatalf("no traffic in zero-RTT mode: %+v", baseStats)
	}
	encs, _, stats := runOnce(t, top, end, 4)
	if stats.Events != baseStats.Events || stats.Delivered != baseStats.Delivered {
		t.Fatalf("zero-RTT stats diverge: %+v vs %+v", stats, baseStats)
	}
	for i := range encs {
		if !bytes.Equal(encs[i], base[i]) {
			t.Fatalf("zero-RTT host %d trace differs across worker counts", i)
		}
	}
}

// TestFleetSingleHostUnbounded: a one-host fleet has no lookahead bound and
// must simply run to the end.
func TestFleetSingleHostUnbounded(t *testing.T) {
	top := Topology{Webservers: 1, Seed: 7}
	f := top.Build()
	stats := f.StartSession(sim.Time(sim.Second), 2).Finish()
	if stats.Bounded {
		t.Fatalf("single host reported bounded lookahead: %+v", stats)
	}
	if stats.Windows != 1 || stats.Events == 0 {
		t.Fatalf("expected one unbounded window with events, got %+v", stats)
	}
	if h := f.HostByName("ws-0000"); h == nil || h.Eng.Now() != sim.Time(sim.Second) {
		t.Fatalf("host clock not parked at end")
	}
}

func ExampleTopology() {
	f := Topology{Webservers: 1, Desktops: 3, Seed: 1}.Build()
	stats := f.StartSession(sim.Time(200*sim.Millisecond), 2).Finish()
	fmt.Println(stats.Bounded, stats.Sent > 0, stats.Delivered > 0)
	// Output: true true true
}

// TestSteadyStateAllocsPerEvent bounds the fleet's garbage once warm: after
// the pools, freelists and queues have reached their working size, the
// kernel select path keeps its state in the thread and the host models bind
// their continuations once, so what remains (about 0.08 per event) is
// netsim's and the daemons' incidental garbage. A per-request closure or
// request struct in either host model, or a per-call Pending in the kernel,
// would push it well past the bound. Run under -count=1 in CI
// (scripts/check.sh) so a regression fails.
func TestSteadyStateAllocsPerEvent(t *testing.T) {
	f := Topology{Webservers: 4, Desktops: 12, Seed: 1}.Build()
	s := f.StartSession(sim.Time(2*sim.Second), 1)
	defer s.Close()
	for s.Floor() < sim.Time(500*sim.Millisecond) && s.Step() {
	}
	events0 := s.stats.Events
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for s.Step() {
	}
	runtime.ReadMemStats(&m1)
	events := s.stats.Events - events0
	if events < 10000 {
		t.Fatalf("only %d events measured", events)
	}
	perEvent := float64(m1.Mallocs-m0.Mallocs) / float64(events)
	t.Logf("%d events, %.3f allocs/event", events, perEvent)
	if perEvent > 0.1 {
		t.Errorf("steady state allocates %.3f objects per event, want <= 0.1", perEvent)
	}
}
