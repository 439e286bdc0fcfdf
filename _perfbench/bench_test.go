package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runTiny runs one workload at self-test scale and decodes its result line.
func runTiny(t *testing.T, workload string, traced bool) result {
	t.Helper()
	args := []string{"--workload", workload, "--seed", "3", "--seconds", "0.01", "--tiny"}
	if traced {
		args = append(args, "--trace", "1", "--spans", filepath.Join(t.TempDir(), "spans.jsonl"))
	}
	var out, errOut bytes.Buffer
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("%s: exit %d\n%s%s", workload, code, out.String(), errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v\n%s", workload, err, out.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct=%v failed=%d attempted=%d\n%s", workload, res.Correct, res.Failed, res.Attempted, out.String())
	}
	return res
}

// TestTinyRunsEmitEveryMetric runs every workload at a tiny scale and
// checks that each named end-to-end metric comes out with its unit, and
// that a traced run emits every per-layer metric.
func TestTinyRunsEmitEveryMetric(t *testing.T) {
	for _, w := range []string{"paper", "fleet", "serve"} {
		res := runTiny(t, w, false)
		if len(res.Metrics) != len(e2eMetrics) {
			t.Errorf("%s: %d metrics, want %d: %v", w, len(res.Metrics), len(e2eMetrics), res.Metrics)
		}
		for _, m := range e2eMetrics {
			got, ok := res.Metrics[m.name]
			if !ok || got.Unit != m.unit {
				t.Errorf("%s: metric %s = %+v, want unit %s", w, m.name, got, m.unit)
			}
		}
	}
	res := runTiny(t, "serve", true)
	if len(res.Metrics) != len(layerMetrics) {
		t.Errorf("traced: %d metrics, want %d", len(res.Metrics), len(layerMetrics))
	}
	for _, m := range layerMetrics {
		if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit {
			t.Errorf("traced: metric %s = %+v, want unit %s", m.name, got, m.unit)
		}
	}
}

// TestFlippedCheckpointByteIsFailedOp corrupts the midpoint checkpoint of
// a steered cycle: resuming must fail as an operation, not panic.
func TestFlippedCheckpointByteIsFailedOp(t *testing.T) {
	sc := fleetScaleFor(options{tiny: true})
	p, err := sc.newPlane(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, ops := runCycle(sc, p, nil, 0, func(cp []byte) { cp[len(cp)/2] ^= 0x40 })
	rep := newReport(&bytes.Buffer{})
	for _, err := range ops {
		rep.op(err)
	}
	if rep.attempted != 4 || rep.failed != 2 {
		t.Fatalf("attempted %d failed %d, want 4 and 2 (resume, digest): %v", rep.attempted, rep.failed, ops)
	}
	if ops[2] == nil || ops[3] == nil {
		t.Fatalf("resume and digest ops should fail: %v", ops)
	}
}

// TestServeWithheldBatchFailsOracle skips one ingest batch: the quiesced
// service must then disagree with the offline oracle.
func TestServeWithheldBatchFailsOracle(t *testing.T) {
	sc := serveScaleFor(options{tiny: true})
	pipe := paperPipeline()
	in, err := buildServeInput(sc, 7, pipe)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.batches[1]) < 2 {
		t.Fatalf("stream 1 has %d batches; the test needs two", len(in.batches[1]))
	}
	full, err := runRung(sc, in, pipe, sc.Nominal, nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range full.oracleErrs {
		if e != nil {
			t.Fatalf("complete rung failed its oracle check: %v", e)
		}
	}
	r, err := runRung(sc, in, pipe, sc.Nominal, nil, 0, &request{stream: 1, seq: 0})
	if err != nil {
		t.Fatal(err)
	}
	failed := 0
	for _, e := range r.oracleErrs {
		if e != nil {
			failed++
		}
	}
	if failed == 0 {
		t.Fatal("rung with a withheld batch passed its oracle check")
	}
	rep := newReport(&bytes.Buffer{})
	recordRung(rep, r)
	if rep.failed == 0 || errorRate(rep) == 0 {
		t.Fatalf("withheld batch not counted in error_rate: failed %d of %d", rep.failed, rep.attempted)
	}
}

// TestBenchmarkJSONListsTheMetrics keeps BENCHMARK.json and the metrics the
// program emits in step.
func TestBenchmarkJSONListsTheMetrics(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program %d", len(b.EndToEnd), len(e2eMetrics))
	}
	for i, m := range e2eMetrics {
		if b.EndToEnd[i].Name != m.name || b.EndToEnd[i].Unit != m.unit {
			t.Errorf("end_to_end[%d] = %+v, program has %s (%s)", i, b.EndToEnd[i], m.name, m.unit)
		}
	}
	if len(b.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(b.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		got := b.PerLayer[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per_layer[%d] = %+v, program has %s (%s, %s)", i, got, m.name, m.unit, m.better)
		}
	}
}
