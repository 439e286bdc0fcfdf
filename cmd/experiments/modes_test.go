package main

import (
	"flag"
	"slices"
	"strings"
	"testing"
)

// TestSelectMode: every flag combination a mode would silently ignore or
// misread is rejected, naming the flag, before anything runs. set lists
// the flags given on the command line in lexical order, as flag.Visit
// reports them.
func TestSelectMode(t *testing.T) {
	cases := []struct {
		set      []string
		selector string // the mode picked, when want is ""
		want     string // error substring
	}{
		{set: nil, selector: ""},
		{set: []string{"j", "quick", "seed", "spill", "strict"}, selector: ""},
		{set: []string{"fleet"}, selector: "fleet"},
		{set: []string{"fleet", "fleet-duration", "fleet-workers", "hosts", "seed"}, selector: "fleet"},
		{set: []string{"checkpoint", "fleet", "record-commands", "steer", "stop-window"}, selector: "fleet"},
		{set: []string{"checkpoint", "fleet", "fleet-workers", "resume"}, selector: "fleet"},
		{set: []string{"fleet", "fleet-duration", "hosts", "replay-commands", "seed"}, selector: "fleet"},
		{set: []string{"list"}, selector: "list"},
		{set: []string{"version"}, selector: "version"},

		// Fleet-only flags without -fleet used to run the paper suite.
		{set: []string{"fleet-duration", "hosts", "stop-window"}, want: "-fleet-duration does not apply to the paper suite"},
		{set: []string{"stop-window"}, want: "-stop-window does not apply to the paper suite"},
		{set: []string{"steer"}, want: "-steer does not apply to the paper suite"},
		{set: []string{"resume"}, want: "-resume does not apply to the paper suite"},
		// Flags of another mode.
		{set: []string{"fleet", "quick"}, want: "-quick does not apply to -fleet"},
		{set: []string{"cpuprofile", "fleet"}, want: "-cpuprofile does not apply to -fleet"},
		{set: []string{"list", "seed"}, want: "-seed does not apply to -list"},
		// The checkpoint carries the spec and the command log.
		{set: []string{"fleet", "replay-commands", "resume"}, want: "-resume cannot be combined with -replay-commands"},
		{set: []string{"fleet", "hosts", "resume"}, want: "-resume cannot be combined with -hosts"},
		{set: []string{"fleet", "resume", "seed"}, want: "-resume cannot be combined with -seed"},
		{set: []string{"fleet", "fleet-duration", "resume"}, want: "-resume cannot be combined with -fleet-duration"},
		// Stopping without a checkpoint discards the run.
		{set: []string{"fleet", "stop-window"}, want: "-stop-window requires -checkpoint"},
		// A stopped run has no completed counts to report.
		{set: []string{"bench", "checkpoint", "fleet", "stop-window"}, want: "-stop-window cannot be combined with -bench"},
		// Two selectors.
		{set: []string{"fleet", "list"}, want: "-fleet and -list select different modes"},
		{set: []string{"list", "version"}, want: "-list and -version select different modes"},
	}
	for _, tc := range cases {
		m, err := selectMode(tc.set)
		if tc.want != "" {
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("selectMode(%v) = %v, want error containing %q", tc.set, err, tc.want)
			}
			continue
		}
		if err != nil {
			t.Errorf("selectMode(%v): %v", tc.set, err)
			continue
		}
		if m.selector != tc.selector {
			t.Errorf("selectMode(%v) picked %q, want %q", tc.set, m.selector, tc.selector)
		}
	}
}

// TestModeTableCoversFlags: every registered flag is a selector or
// accepted by some mode, and the table names no unregistered flag.
func TestModeTableCoversFlags(t *testing.T) {
	var known []string
	for _, m := range modes {
		if m.selector != "" {
			known = append(known, m.selector)
		}
		known = append(known, m.flags...)
		for f, need := range m.requires {
			known = append(known, f, need)
		}
		for f, others := range m.excludes {
			known = append(known, f)
			known = append(known, others...)
		}
	}
	for _, name := range known {
		if flag.Lookup(name) == nil {
			t.Errorf("mode table names unregistered flag -%s", name)
		}
	}
	flag.VisitAll(func(f *flag.Flag) {
		if strings.HasPrefix(f.Name, "test.") {
			return
		}
		if !slices.Contains(known, f.Name) {
			t.Errorf("flag -%s belongs to no mode", f.Name)
		}
	})
}
