package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"timerstudy/internal/analysis"
	"timerstudy/internal/sim"
)

// goldenDuration keeps the determinism test fast; the property it checks is
// duration-independent (every run owns its engine and seeded rand).
const goldenDuration = 30 * sim.Second

// TestParallelMatchesSerial is the golden test for the execution axis: the
// rendered tables and figures must be byte-identical whether the work runs
// serially or on a saturated pool.
func TestParallelMatchesSerial(t *testing.T) {
	render := func(workers int) []byte {
		set, err := computeExperiments(1, goldenDuration, workers, false, nil)
		if err != nil {
			t.Fatalf("computeExperiments: %v", err)
		}
		var buf bytes.Buffer
		writeFigures(&buf, set, nil)
		fmt.Fprint(&buf, analysis.RenderRelations(set.relations))
		return buf.Bytes()
	}
	serial := render(1)
	got := render(8)
	if !bytes.Equal(serial, got) {
		sl, pl := bytes.Split(serial, []byte("\n")), bytes.Split(got, []byte("\n"))
		for i := 0; i < len(sl) && i < len(pl); i++ {
			if !bytes.Equal(sl[i], pl[i]) {
				t.Fatalf("parallel output diverges at line %d:\nserial: %s\nparallel: %s", i+1, sl[i], pl[i])
			}
		}
		t.Fatalf("parallel output lengths differ: serial %d lines, parallel %d lines", len(sl), len(pl))
	}
}

// TestBenchReportShape checks the -bench recorder captures one entry per
// evaluation trace plus per-section timings, with sane totals.
func TestBenchReportShape(t *testing.T) {
	bench := &benchReport{}
	set, err := computeExperiments(1, goldenDuration, 2, false, bench)
	if err != nil {
		t.Fatalf("computeExperiments: %v", err)
	}
	writeFigures(&bytes.Buffer{}, set, bench)

	if len(bench.Runs) != 10 {
		t.Fatalf("runs = %d, want 10 (9 evaluation traces + webserver relations)", len(bench.Runs))
	}
	for _, r := range bench.Runs {
		if r.Records <= 0 || r.RunMS < 0 || r.AnalyzeMS < 0 {
			t.Fatalf("implausible run entry: %+v", r)
		}
		if r.Allocs == 0 || r.AllocMB <= 0 || r.AllocsPerRecord <= 0 {
			t.Fatalf("alloc columns not filled: %+v", r)
		}
	}
	if bench.Totals.Allocs == 0 || bench.Totals.AllocMB <= 0 || bench.Totals.AllocsPerRecord <= 0 {
		t.Fatalf("alloc totals not filled: %+v", bench.Totals)
	}
	if bench.Config.AllocNote == "" {
		t.Fatal("workers=2 must flag per-run alloc columns as upper bounds")
	}
	if len(bench.Sections) == 0 {
		t.Fatalf("no sections recorded")
	}
	if bench.Totals.ComputeWallMS <= 0 || bench.Totals.RunWallSumMS <= 0 {
		t.Fatalf("totals not filled: %+v", bench.Totals)
	}
	if bench.Totals.RecordsAnalyzed <= 0 {
		t.Fatalf("records not summed: %+v", bench.Totals)
	}
}

// TestSpillMatchesMemory is the golden determinism test for the streaming
// path: every table and figure must be byte-identical whether each trace is
// analyzed from its in-memory buffer or spilled to a v2 file during the run
// and replayed from disk.
func TestSpillMatchesMemory(t *testing.T) {
	render := func(spill bool) []byte {
		set, err := computeExperiments(1, goldenDuration, 4, spill, nil)
		if err != nil {
			t.Fatalf("computeExperiments(spill=%v): %v", spill, err)
		}
		if warnDropped(&bytes.Buffer{}, set) {
			t.Fatalf("golden run dropped records (spill=%v)", spill)
		}
		var buf bytes.Buffer
		writeFigures(&buf, set, nil)
		fmt.Fprint(&buf, analysis.RenderRelations(set.relations))
		return buf.Bytes()
	}
	mem := render(false)
	spilled := render(true)
	if !bytes.Equal(mem, spilled) {
		ml, sl := bytes.Split(mem, []byte("\n")), bytes.Split(spilled, []byte("\n"))
		for i := 0; i < len(ml) && i < len(sl); i++ {
			if !bytes.Equal(ml[i], sl[i]) {
				t.Fatalf("spill output diverges at line %d:\nmemory: %s\nspill:  %s", i+1, ml[i], sl[i])
			}
		}
		t.Fatalf("spill output lengths differ: memory %d lines, spill %d lines", len(ml), len(sl))
	}
}

// TestWarnDropped checks the overflow warning fires per dropped run, names
// the workload and counts, and stays silent on clean sets.
func TestWarnDropped(t *testing.T) {
	var buf bytes.Buffer
	if warnDropped(&buf, experimentSet{}) {
		t.Fatal("clean set reported drops")
	}
	if buf.Len() != 0 {
		t.Fatalf("clean set produced output: %q", buf.String())
	}
	set := experimentSet{dropped: []droppedRun{
		{os: "linux", name: "idle", dropped: 5, total: 100},
		{os: "vista", name: "skype", dropped: 7, total: 200},
	}}
	if !warnDropped(&buf, set) {
		t.Fatal("dropped runs not reported")
	}
	out := buf.String()
	for _, want := range []string{
		"WARNING: linux/idle dropped 5 of 100 trace records",
		"WARNING: vista/skype dropped 7 of 200 trace records",
		"-spill",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("warning output missing %q:\n%s", want, out)
		}
	}
}
