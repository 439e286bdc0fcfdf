package analysis

import (
	"runtime"
	"runtime/debug"
	"testing"

	"timerstudy/internal/sim"
	"timerstudy/internal/trace"
)

// TestRunReusesArenaBlocks pins arena recycling: once one analysis has
// given its blocks back, a second Run (or RunParallel) over the same trace
// allocates no arena block. One P and no collector make sync.Pool reuse
// exact; under -race Pool drops Puts, so the test skips.
func TestRunReusesArenaBlocks(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random share of Puts under -race")
	}
	procs := runtime.GOMAXPROCS(1)
	gc := debug.SetGCPercent(-1)
	defer func() {
		debug.SetGCPercent(gc)
		runtime.GOMAXPROCS(procs)
	}()

	const timers = 3 * timerBlockSize // several blocks per shard
	buf := trace.NewBuffer(2 * timers)
	o := buf.Origin("kernel/x")
	for i := 0; i < timers; i++ {
		buf.Log(trace.Record{T: sim.Time(i), Op: trace.OpSet, TimerID: uint64(i), Timeout: int64(sim.Second), Origin: o})
		buf.Log(trace.Record{T: sim.Time(i + 1), Op: trace.OpExpire, TimerID: uint64(i), Origin: o})
	}
	p := Pipeline{}
	for _, workers := range []int{1, 2} {
		first, err := p.RunParallel(buf, workers)
		if err != nil {
			t.Fatal(err)
		}
		made := arenaBlocksMade.Load()
		again, err := p.RunParallel(buf, workers)
		if err != nil {
			t.Fatal(err)
		}
		if n := arenaBlocksMade.Load() - made; n != 0 {
			t.Fatalf("workers=%d: second analysis allocated %d arena blocks, want 0", workers, n)
		}
		if first.Summary != again.Summary || again.Summary.Timers != timers {
			t.Fatalf("workers=%d: recycled arena changed the report: %+v vs %+v", workers, first.Summary, again.Summary)
		}
	}
}
