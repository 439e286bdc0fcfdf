package fleet

import (
	"bytes"
	"fmt"
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
		NewSink:    func(string) trace.Sink { return trace.NewBuffer(trace.DefaultCapacity) },
	}
}

// runOnce builds the test fleet, runs it, and returns the per-host encoded
// trace bytes plus the merged analysis summary.
func runOnce(t *testing.T, top Topology, end sim.Time, workers int) ([][]byte, []analysis.Summary, RunStats) {
	t.Helper()
	f := top.Build()
	stats := f.StartSession(end, workers).Finish()
	encs := make([][]byte, len(f.Hosts()))
	sums := make([]analysis.Summary, len(f.Hosts()))
	for i, h := range f.Hosts() {
		buf, ok := h.Sink.(*trace.Buffer)
		if !ok {
			t.Fatalf("host %s sink is %T, want *trace.Buffer", h.Name, h.Sink)
		}
		var bb bytes.Buffer
		if err := buf.Encode(&bb); err != nil {
			t.Fatalf("encode %s: %v", h.Name, err)
		}
		encs[i] = bb.Bytes()
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

// TestFleetHashSinkMatchesBuffer: the digest-only sink used at 10k hosts
// agrees with the byte-level comparison — same topology run through
// HashSinks produces equal digests exactly when the Buffer runs produced
// equal bytes.
func TestFleetHashSinkMatchesBuffer(t *testing.T) {
	top := testTopology()
	top.NewSink = nil // default: HashSink
	const end = sim.Time(sim.Second)
	f1 := top.Build()
	f1.StartSession(end, 1).Finish()
	f2 := top.Build()
	f2.StartSession(end, 3).Finish()
	if f1.Digest() != f2.Digest() {
		t.Fatalf("digest diverges across worker counts: %x vs %x", f1.Digest(), f2.Digest())
	}
	if f1.Digest() == 0 {
		t.Fatal("zero digest")
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
