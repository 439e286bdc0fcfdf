package main

import (
	"bytes"
	"encoding/json"
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
		set, err := computeExperiments(1, goldenDuration, workers, false)
		if err != nil {
			t.Fatalf("computeExperiments: %v", err)
		}
		var buf bytes.Buffer
		writeFigures(&buf, set)
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

// TestBenchReportDeterministic: the -bench report holds only counts and
// digests, so it is byte-identical at any worker count, and it covers every
// evaluation trace.
func TestBenchReportDeterministic(t *testing.T) {
	report := func(workers int) ([]byte, benchReport) {
		set, err := computeExperiments(1, goldenDuration, workers, false)
		if err != nil {
			t.Fatalf("computeExperiments(workers=%d): %v", workers, err)
		}
		r := newBenchReport(1, set)
		data, err := json.MarshalIndent(r, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return data, r
	}
	serial, r := report(1)
	if parallel, _ := report(4); !bytes.Equal(serial, parallel) {
		t.Fatalf("report differs between workers 1 and 4:\n%s\nvs\n%s", serial, parallel)
	}
	if len(r.Runs) != 10 {
		t.Fatalf("runs = %d, want 10 (9 evaluation traces + webserver relations)", len(r.Runs))
	}
	for _, run := range r.Runs {
		if run.Records == 0 {
			t.Fatalf("run without records: %+v", run)
		}
	}
	if len(r.FiguresSHA256) != 64 {
		t.Fatalf("figures digest %q is not a hex SHA-256", r.FiguresSHA256)
	}
}

// TestSpillMatchesMemory is the golden determinism test for the streaming
// path: every table and figure must be byte-identical whether each trace is
// analyzed from its in-memory buffer or spilled to a v2 file during the run
// and replayed from disk.
func TestSpillMatchesMemory(t *testing.T) {
	render := func(spill bool) []byte {
		set, err := computeExperiments(1, goldenDuration, 4, spill)
		if err != nil {
			t.Fatalf("computeExperiments(spill=%v): %v", spill, err)
		}
		if warnDropped(&bytes.Buffer{}, set) {
			t.Fatalf("golden run dropped records (spill=%v)", spill)
		}
		var buf bytes.Buffer
		writeFigures(&buf, set)
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
	set := experimentSet{runs: []benchRun{
		{OS: "linux", Workload: "idle", Records: 95, Dropped: 5},
		{OS: "linux", Workload: "skype", Records: 50},
		{OS: "vista", Workload: "skype", Records: 193, Dropped: 7},
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
