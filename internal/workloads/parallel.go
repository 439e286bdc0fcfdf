package workloads

import (
	"runtime"
	"sync"
)

// Every workload run is an independent deterministic function of its Spec —
// it owns its seeded rand.Rand, sim engine and trace buffer — so the nine
// evaluation traces can execute concurrently without changing a single byte
// of any result. This file provides the fan-out used by cmd/experiments and
// the root benchmarks.

// Spec names one workload run: which personality, which workload, and its
// configuration.
type Spec struct {
	// OS selects the personality: "linux" or "vista".
	OS string
	// Name is the workload name (Idle, Skype, ...).
	Name string
	// Cfg parameterizes the run.
	Cfg Config
}

// Run executes the spec.
func (s Spec) Run() *Result {
	switch s.OS {
	case "linux":
		return RunLinux(s.Name, s.Cfg)
	case "vista":
		return RunVista(s.Name, s.Cfg)
	default:
		panic("workloads: unknown OS " + s.OS)
	}
}

// ForEach runs every spec on a pool of up to workers goroutines (workers<=0
// means GOMAXPROCS) and hands each finished result to fn from the worker
// goroutine. fn must be safe for concurrent calls with distinct i; results
// are not retained here, so a caller that reduces each trace inside fn keeps
// at most workers traces alive at once.
func ForEach(specs []Spec, workers int, fn func(i int, res *Result)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(specs) {
		workers = len(specs)
	}
	if workers <= 1 {
		for i := range specs {
			fn(i, specs[i].Run())
		}
		return
	}
	ForEachIndex(len(specs), workers, func(i int) { fn(i, specs[i].Run()) })
}

// ForEachIndex calls fn(i) for every i in [0, n) on a pool of up to workers
// goroutines (workers<=0 means GOMAXPROCS) and returns once every call has.
// It is ForEach's pool, for callers whose per-index work is more than a
// bare Spec.Run; fn must be safe for concurrent calls with distinct i.
func ForEachIndex(n, workers int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// RunAll runs the specs concurrently and returns the results in spec order.
func RunAll(specs []Spec, workers int) []*Result {
	out := make([]*Result, len(specs))
	ForEach(specs, workers, func(i int, res *Result) { out[i] = res })
	return out
}

// EvaluationSpecs lists the paper's nine evaluation traces — the four Linux
// and four Vista workloads at cfg's duration, plus the 90-second Vista
// desktop of Figure 1 — in the order the tables and figures consume them.
func EvaluationSpecs(cfg Config) []Spec {
	var specs []Spec
	for _, n := range LinuxWorkloads() {
		specs = append(specs, Spec{OS: "linux", Name: n, Cfg: cfg})
	}
	for _, n := range VistaWorkloads() {
		specs = append(specs, Spec{OS: "vista", Name: n, Cfg: cfg})
	}
	desktopCfg := cfg
	desktopCfg.Duration = DesktopTraceDuration
	specs = append(specs, Spec{OS: "vista", Name: Desktop, Cfg: desktopCfg})
	return specs
}
