package main

import (
	"strings"
	"testing"

	"timerstudy/internal/control"
	"timerstudy/internal/fleet"
	"timerstudy/internal/sim"
	"timerstudy/internal/trace"
)

func steerFleet(t *testing.T) *fleet.Fleet {
	t.Helper()
	top := fleet.Topology{
		Webservers: 1, Desktops: 2, Seed: 1,
		NewSink: func(string) trace.Sink { return trace.NewHashSink() },
	}
	return top.Build()
}

func TestParseSteer(t *testing.T) {
	f := steerFleet(t)
	cmds, err := parseSteer("10:spike:*:4:500ms, 20:kill:ws-0000, 25:policy:*:adaptive, 30:coalesce:*:100ms, 60:restart:ws-0000", f)
	if err != nil {
		t.Fatalf("parseSteer: %v", err)
	}
	if len(cmds) != 5 {
		t.Fatalf("parsed %d commands", len(cmds))
	}
	want := []control.Command{
		{Window: 10, Kind: control.KindSpike, Host: -1, Arg: 4, Dur: 500 * sim.Millisecond},
		{Window: 20, Kind: control.KindKill, Host: 0},
		{Window: 25, Kind: control.KindPolicy, Host: -1, Arg: fleet.PolicyAdaptive},
		{Window: 30, Kind: control.KindCoalesce, Host: -1, Arg: int64(100 * sim.Millisecond)},
		{Window: 60, Kind: control.KindRestart, Host: 0},
	}
	for i := range want {
		if cmds[i] != want[i] {
			t.Fatalf("command %d: %+v != %+v", i, cmds[i], want[i])
		}
	}
}

func TestParseSteerErrors(t *testing.T) {
	f := steerFleet(t)
	cases := []struct {
		spec, want string
	}{
		{"10:spike", "window:kind:host"},
		{"x:spike:*", "bad window"},
		{"10:reboot:*", "unknown command kind"},
		{"10:kill:no-such-host", "unknown host"},
		{"10:policy:*:sometimes", "bad argument"},
		{"10:spike:*:4:fortnight", "bad duration"},
	}
	for _, tc := range cases {
		if _, err := parseSteer(tc.spec, f); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("parseSteer(%q): %v, want mention of %q", tc.spec, err, tc.want)
		}
	}
}
