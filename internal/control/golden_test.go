package control

import (
	"testing"

	"timerstudy/internal/fleet"
	"timerstudy/internal/sim"
)

// checkScript stages the steering script scripts/check.sh and the
// EXPERIMENTS.md tour pass to -steer:
//
//	10:spike:*:4:200ms,20:kill:ws-0000,25:policy:*:adaptive,30:coalesce:*:100ms,60:restart:ws-0000
func checkScript(t *testing.T, p *Plane) {
	t.Helper()
	ws := hostIndex(t, p, "ws-0000")
	cmds := []Command{
		{Window: 10, Kind: KindSpike, Host: -1, Arg: 4, Dur: 200 * sim.Millisecond},
		{Window: 20, Kind: KindKill, Host: ws},
		{Window: 25, Kind: KindPolicy, Host: -1, Arg: fleet.PolicyAdaptive},
		{Window: 30, Kind: KindCoalesce, Host: -1, Arg: int64(100 * sim.Millisecond)},
		{Window: 60, Kind: KindRestart, Host: ws},
	}
	for i, c := range cmds {
		if ok, reason := p.Enqueue(c); !ok {
			t.Fatalf("check.sh command %d rejected: %s", i, reason)
		}
	}
}

// TestGoldenDigests pins the fleet digests the experiments CLI prints for
// `-fleet -hosts 64 -fleet-duration 2s` (64 hosts split 8 webservers + 56
// desktops), unsteered and under the check.sh steering script. A change
// to any of them means the simulation itself changed, not just the CLI
// around it.
func TestGoldenDigests(t *testing.T) {
	spec := func(seed int64) Spec {
		return Spec{Webservers: 8, Desktops: 56, Seed: seed, End: 2 * sim.Second}
	}
	cases := []struct {
		name    string
		seed    int64
		steered bool
		workers int
		want    uint64
	}{
		{"plain/seed1/w1", 1, false, 1, 0x491484d6c3172a28},
		{"plain/seed1/w4", 1, false, 4, 0x491484d6c3172a28},
		{"steered/seed1/w1", 1, true, 1, 0xa50fbfadbfb70937},
		{"steered/seed7/w1", 7, true, 1, 0x2add8062e6760b7b},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := mustPlane(t, spec(tc.seed), WithWorkers(tc.workers))
			if tc.steered {
				checkScript(t, p)
			}
			p.Finish()
			if got := p.Fleet().Digest(); got != tc.want {
				t.Fatalf("digest %016x, want %016x", got, tc.want)
			}
		})
	}
}
