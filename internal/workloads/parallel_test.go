package workloads

import (
	"sync/atomic"
	"testing"

	"timerstudy/internal/sim"
)

// TestRunAllDeterministicAcrossWorkers is the workload-level half of the
// parallel-safety argument: the same specs produce record-identical traces
// whether run serially or on a saturated pool.
func TestRunAllDeterministicAcrossWorkers(t *testing.T) {
	cfg := Config{Seed: 7, Duration: 20 * sim.Second}
	specs := EvaluationSpecs(cfg)
	serial := RunAll(specs, 1)
	parallel := RunAll(specs, len(specs))
	if len(serial) != len(parallel) {
		t.Fatalf("result counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range specs {
		s, p := serial[i], parallel[i]
		if s.Name != p.Name || s.OS != p.OS {
			t.Fatalf("spec %d: result order not preserved (%s/%s vs %s/%s)",
				i, s.OS, s.Name, p.OS, p.Name)
		}
		if s.Trace.Len() != p.Trace.Len() {
			t.Fatalf("%s/%s: record counts differ: %d vs %d",
				s.OS, s.Name, s.Trace.Len(), p.Trace.Len())
		}
		for j, r := range s.Trace.Records() {
			if r != p.Trace.Records()[j] {
				t.Fatalf("%s/%s: record %d differs: %+v vs %+v",
					s.OS, s.Name, j, r, p.Trace.Records()[j])
			}
		}
	}
}

// TestForEachIndexCallsEveryIndexOnce covers the pool sizes callers pass:
// 0 (GOMAXPROCS), one, fewer than n, and more than n.
func TestForEachIndexCallsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7} {
		for _, workers := range []int{0, 1, 3, 100} {
			calls := make([]atomic.Int32, n)
			ForEachIndex(n, workers, func(i int) { calls[i].Add(1) })
			for i := range calls {
				if got := calls[i].Load(); got != 1 {
					t.Fatalf("n=%d workers=%d: index %d called %d times", n, workers, i, got)
				}
			}
		}
	}
}

func TestEvaluationSpecsShape(t *testing.T) {
	cfg := Config{Seed: 1, Duration: sim.Minute}
	specs := EvaluationSpecs(cfg)
	if len(specs) != 9 {
		t.Fatalf("specs = %d, want 9 (4 linux + 4 vista + desktop)", len(specs))
	}
	last := specs[len(specs)-1]
	if last.OS != "vista" || last.Name != Desktop || last.Cfg.Duration != DesktopTraceDuration {
		t.Fatalf("desktop spec = %+v", last)
	}
	for _, s := range specs[:8] {
		if s.Cfg.Duration != cfg.Duration {
			t.Fatalf("spec %+v lost cfg duration", s)
		}
	}
}
