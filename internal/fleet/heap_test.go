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

// buildAllocsBudget bounds the heap allocations Topology.Build makes per
// host of the benchmark's plane: every host's engine, RNG source, kernel,
// processes, threads, daemons and sink. Each control.Resume rebuilds a
// plane, so this count is paid again on every resume.
const buildAllocsBudget = 140

// TestBuildAllocsPerHost counts the objects the benchmark's fleet plane
// (128 webservers and 896 desktops at seed 1) allocates while it is built,
// per host.
func TestBuildAllocsPerHost(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates beside the program")
	}
	const webservers, desktops = 128, 896
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f := Topology{Webservers: webservers, Desktops: desktops, Seed: 1}.Build()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(f)
	perHost := float64(after.Mallocs-before.Mallocs) / (webservers + desktops)
	t.Logf("%.1f heap allocations per built host (budget %d)", perHost, buildAllocsBudget)
	if perHost > buildAllocsBudget {
		t.Errorf("building a fleet host makes %.1f heap allocations, want <= %d", perHost, buildAllocsBudget)
	}
}
