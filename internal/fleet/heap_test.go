package fleet

import (
	"runtime"
	"testing"

	"timerstudy/internal/sim"
)

// hostHeapBudget bounds the live heap one fleet host holds once built: its
// engine and RNG source, its kernel (jiffies base, timer wheel, threads),
// its HashSink and its model state. The benchmark's fleet workload holds
// two such planes at once, so its RSS tracks this figure.
const hostHeapBudget = 23 << 10

// TestHostHeapBudget builds the benchmark's fleet plane (128 webservers and
// 896 desktops at seed 1, session started) and bounds the heap it keeps
// after a collection, per host.
func TestHostHeapBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates every allocation")
	}
	const webservers, desktops = 128, 896
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f := Topology{Webservers: webservers, Desktops: desktops, Seed: 1}.Build()
	s := f.StartSession(sim.Time(250*sim.Millisecond), 1)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(f)
	s.Close()
	perHost := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / (webservers + desktops)
	t.Logf("%d B live heap per host (budget %d B)", perHost, hostHeapBudget)
	if perHost > hostHeapBudget {
		t.Errorf("a built fleet host holds %d B of live heap, want <= %d B", perHost, hostHeapBudget)
	}
}
