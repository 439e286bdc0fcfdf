package workloads

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"timerstudy/internal/sim"
	"timerstudy/internal/trace"
)

// evaluationStreamDigests pins the SHA-256 of the v2 stream each evaluation
// trace writes through a default StreamWriter at seed 1 and 30 s. The
// rendered-report goldens would miss a reordered record or a shifted timer
// ID that leaves every table unchanged; these catch any moved byte.
var evaluationStreamDigests = map[string]string{
	"linux_idle":      "68789de5fec4a74aefc9e9674d112a93db585a5a3d304221cdc5a4da88ade2a5",
	"linux_skype":     "005f656ebe9aba8421d1209869905191e481ff4fc73dc349c7263729c0a29494",
	"linux_firefox":   "3c1619599a24f1702e89e840c66e6bd9f608206159ca0baddf9e6ac2acf5856d",
	"linux_webserver": "d0d9c5c39f6eafb6028b2c3f21b7cc22509e250be9c6b19013c572903543a568",
	"vista_idle":      "8f0529b2e364c7015c87a620d25d86843dbb4664723084c6d8b537776284c058",
	"vista_skype":     "03adee5fcc405a6992d55f2ec7534ce103481f832240f46778990f20b4cc7beb",
	"vista_firefox":   "5ea6954c948a0cfc54c8fb593b5265ec01e8c8008d4ff9a44512dda41cb43df4",
	"vista_webserver": "b1c3aca9f4e4db47a2e6fa50ecf5bbf4c5b1a38b0fc617153a063faac6abaded",
	"vista_desktop":   "74ec52fea6e6b02a90a9f0e87e6ccd525b50bc85ec7a1123330a100578d9178a",
}

func TestEvaluationStreamDigests(t *testing.T) {
	specs := EvaluationSpecs(Config{Seed: 1, Duration: 30 * sim.Second})
	bufs := make([]bytes.Buffer, len(specs))
	errs := make([]error, len(specs))
	for i := range specs {
		sw := trace.NewStreamWriter(&bufs[i])
		specs[i].Cfg.Sink = sw
		specs[i].Run()
		errs[i] = sw.Close()
	}
	for i, s := range specs {
		name := s.OS + "_" + s.Name
		if errs[i] != nil {
			t.Errorf("%s: %v", name, errs[i])
			continue
		}
		sum := sha256.Sum256(bufs[i].Bytes())
		if got, want := hex.EncodeToString(sum[:]), evaluationStreamDigests[name]; got != want {
			t.Errorf("%s: stream digest %s, want %s", name, got, want)
		}
	}
}
