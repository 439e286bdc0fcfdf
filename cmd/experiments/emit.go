package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"timerstudy/internal/trace"
)

// Live-service integration: -emit streams every experiment trace to a
// running `timerstat -serve` while the simulations execute.

var emitFl = flag.String("emit", "", "stream traces to a live timerstat -serve service at this base URL while running")

// emitTrace replays a finished run's in-memory trace to the -emit service
// under the given stream name. Emission is observability export, not part
// of the experiment: failures warn and drop, they never fail the run.
func emitTrace(url, name string, b *trace.Buffer) {
	sink, err := trace.NewHTTPSink(url, name, trace.HTTPSinkOptions{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: -emit %s: %v\n", name, err)
		return
	}
	for _, r := range b.Records() {
		r.Origin = sink.Origin(b.OriginName(r.Origin))
		sink.Log(r)
	}
	if err := sink.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: -emit %s: %v\n", name, err)
	}
	if st := sink.Stats(); st.DroppedFrames > 0 {
		fmt.Fprintf(os.Stderr, "experiments: -emit %s: dropped %d frames (%d records)\n",
			name, st.DroppedFrames, st.DroppedRecords)
	}
}

// mergeBenchKey sets one key in a benchmark JSON report (created if
// absent), preserving other keys — the same merge contract timerlint uses
// for "lint".
func mergeBenchKey(path, key string, v any) error {
	report := map[string]any{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &report); err != nil {
			return fmt.Errorf("parsing %s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	report[key] = v
	return writeJSON(path, report)
}
