package main

import (
	"flag"
	"fmt"
	"slices"
	"strings"

	"timerstudy/internal/version"
	"timerstudy/internal/workloads"
)

// mode is one row of the mode table: what the binary runs, selected by at
// most one selector flag, and every flag that mode reads.
type mode struct {
	// selector is the bool flag that picks the mode; "" for the paper
	// suite, which runs when no selector is set.
	selector string
	// list is the mode's -list line and its selector's usage text.
	list string
	// flags are the flags the mode accepts besides its selector.
	flags []string
	// requires maps a flag to a flag that must be set alongside it.
	requires map[string]string
	// excludes maps a flag to flags it cannot be combined with.
	excludes map[string][]string
	run      func() int
}

// modes is the mode table; its first row is the default. It is filled in
// init because runList reads it.
var modes []mode

func init() {
	modes = []mode{
		{
			list:  "the paper's evaluation traces (Tables 1-3, Figures 2-11)",
			flags: []string{"duration", "quick", "seed", "j", "spill", "strict", "emit", "bench", "cpuprofile", "memprofile"},
			run:   runPaper,
		},
		{
			selector: "fleet",
			list:     "datacenter fleet under the deterministic control plane: plain, steered, replayed, checkpointed or resumed",
			flags: []string{"hosts", "fleet-duration", "fleet-workers", "seed", "emit", "bench",
				"steer", "poll", "record-commands", "replay-commands", "checkpoint", "stop-window", "resume"},
			// A run stopped early is only worth its checkpoint.
			requires: map[string]string{"stop-window": "checkpoint"},
			excludes: map[string][]string{
				// A checkpoint carries its spec and command log.
				"resume": {"hosts", "fleet-duration", "seed", "replay-commands"},
				// The report holds counts of completed runs only.
				"stop-window": {"bench"},
			},
			run: runFleet,
		},
		{selector: "list", list: "list modes, their flags, workloads and steering commands, then exit", run: runList},
		{selector: "version", list: "print build version and exit", run: printVersion},
	}
	for _, m := range modes {
		if m.selector != "" {
			flag.Bool(m.selector, false, m.list)
		}
	}
}

// selectMode picks the mode for the flags set on the command line, given
// in lexical order (flag.Visit's), and checks that each one belongs to it.
// It is pure: the error names the offending flag before anything runs.
func selectMode(set []string) (*mode, error) {
	m := &modes[0]
	for i := range modes {
		if modes[i].selector == "" || !slices.Contains(set, modes[i].selector) {
			continue
		}
		if m.selector != "" {
			return nil, fmt.Errorf("-%s and -%s select different modes", m.selector, modes[i].selector)
		}
		m = &modes[i]
	}
	for _, name := range set {
		if name != m.selector && !slices.Contains(m.flags, name) {
			return nil, fmt.Errorf("-%s does not apply to %s", name, m.name())
		}
	}
	for _, name := range set {
		for _, other := range m.excludes[name] {
			if slices.Contains(set, other) {
				return nil, fmt.Errorf("-%s cannot be combined with -%s", name, other)
			}
		}
		if need, ok := m.requires[name]; ok && !slices.Contains(set, need) {
			return nil, fmt.Errorf("-%s requires -%s", name, need)
		}
	}
	return m, nil
}

// name is how errors refer to the mode.
func (m *mode) name() string {
	if m.selector == "" {
		return "the paper suite"
	}
	return "-" + m.selector
}

// runList enumerates what this binary can run: the mode table, the
// single-host workloads and the steering commands.
func runList() int {
	fmt.Println("modes:")
	for _, m := range modes {
		sel := "(default)"
		if m.selector != "" {
			sel = "-" + m.selector
		}
		fmt.Printf("  %-14s %s\n", sel, m.list)
		if len(m.flags) > 0 {
			fmt.Printf("  %-14s -%s\n", "", strings.Join(m.flags, " -"))
		}
	}
	fmt.Println()
	fmt.Println("workloads (single-host traces):")
	for _, os := range []struct {
		name  string
		names []string
	}{{"linux", workloads.LinuxWorkloads()}, {"vista", workloads.VistaWorkloads()}} {
		for _, w := range os.names {
			fmt.Printf("  %s/%s\n", os.name, w)
		}
	}
	fmt.Println()
	fmt.Println("steering commands (-fleet -steer window:kind:host[:arg[:dur]], host \"*\" = fleet-wide):")
	fmt.Println("  spike     multiply desktop request rate by arg for dur (e.g. 10:spike:*:4:500ms)")
	fmt.Println("  kill      power a host off at the boundary (20:kill:ws-0000)")
	fmt.Println("  restart   power a killed host back on (60:restart:ws-0000)")
	fmt.Println("  policy    request-timeout policy: fixed | adaptive (25:policy:*:adaptive)")
	fmt.Println("  coalesce  periodic-timer coalescing window (30:coalesce:*:100ms)")
	return 0
}

func printVersion() int {
	fmt.Println(version.String())
	return 0
}
