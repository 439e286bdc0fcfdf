package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"timerstudy/internal/control"
	"timerstudy/internal/fleet"
	"timerstudy/internal/sim"
)

// Steering input for -fleet runs: the -steer script parser and the
// -poll client that lets a timerstat -serve dashboard stage commands.

// parseSteer turns the -steer spec into commands. Format, comma-separated:
//
//	window:kind:host[:arg[:dur]]
//
// window is the boundary to apply at (0 = next); kind is a control.Kind
// name; host is a fabric name or "*"; arg is numeric, with the mnemonics
// fixed/adaptive (policy) and Go durations (coalesce); dur is a Go
// duration.
func parseSteer(spec string, f *fleet.Fleet) ([]control.Command, error) {
	var cmds []control.Command
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		parts := strings.Split(field, ":")
		if len(parts) < 3 {
			return nil, fmt.Errorf("steer %q: want window:kind:host[:arg[:dur]]", field)
		}
		window, err := strconv.ParseUint(parts[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("steer %q: bad window: %v", field, err)
		}
		kind, err := control.ParseKind(parts[1])
		if err != nil {
			return nil, fmt.Errorf("steer %q: %v", field, err)
		}
		host, err := resolveHost(f, parts[2])
		if err != nil {
			return nil, fmt.Errorf("steer %q: %v", field, err)
		}
		c := control.Command{Window: window, Kind: kind, Host: host}
		if len(parts) > 3 {
			c.Arg, err = parseArg(kind, parts[3])
			if err != nil {
				return nil, fmt.Errorf("steer %q: %v", field, err)
			}
		}
		if len(parts) > 4 {
			d, err := time.ParseDuration(parts[4])
			if err != nil {
				return nil, fmt.Errorf("steer %q: bad duration: %v", field, err)
			}
			c.Dur = sim.FromStd(d)
		}
		cmds = append(cmds, c)
	}
	return cmds, nil
}

// parseArg resolves a steer argument, accepting the kind's mnemonics.
func parseArg(kind control.Kind, s string) (int64, error) {
	switch kind {
	case control.KindPolicy:
		switch s {
		case "fixed":
			return fleet.PolicyFixed, nil
		case "adaptive":
			return fleet.PolicyAdaptive, nil
		}
	case control.KindCoalesce:
		// Coalescing windows read best as durations ("100ms"), falling
		// through to raw nanoseconds for scripts that compute them.
		if d, err := time.ParseDuration(s); err == nil {
			return int64(sim.FromStd(d)), nil
		}
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad argument %q for %s", s, kind)
	}
	return n, nil
}

// resolveHost maps "*" or a fabric name to a control host index.
func resolveHost(f *fleet.Fleet, name string) (int32, error) {
	if name == "*" {
		return -1, nil
	}
	for i, h := range f.Hosts() {
		if h.Name == name {
			return int32(i), nil
		}
	}
	return 0, fmt.Errorf("unknown host %q", name)
}

// hubPoller drains a timerstat -serve command hub and reports verdicts
// back, making the dashboard's steering form drive this run.
type hubPoller struct {
	base   string
	client *http.Client
	last   time.Time
}

// hubStaged mirrors serve.StagedCommand without importing the service.
type hubStaged struct {
	Ticket uint64 `json:"ticket"`
	Kind   string `json:"kind"`
	Host   string `json:"host"`
	Arg    int64  `json:"arg"`
	DurMS  int64  `json:"dur_ms"`
	Window uint64 `json:"window"`
}

// hubResult mirrors serve.CommandResult.
type hubResult struct {
	Ticket   uint64 `json:"ticket"`
	Accepted bool   `json:"accepted"`
	Reason   string `json:"reason,omitempty"`
	Seq      uint64 `json:"seq,omitempty"`
	Window   uint64 `json:"window,omitempty"`
}

// poll drains the hub once per pollInterval of wall time: barriers are
// microseconds apart, HTTP round trips are not.
func (hp *hubPoller) poll(p *control.Plane) {
	if hp == nil || time.Since(hp.last) < pollInterval {
		return
	}
	hp.last = time.Now()
	resp, err := hp.client.Post(hp.base+"/api/command/drain", "application/json", nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: -poll: %v\n", err)
		return
	}
	var drained struct {
		Commands []hubStaged `json:"commands"`
	}
	err = json.NewDecoder(resp.Body).Decode(&drained)
	resp.Body.Close()
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: -poll: bad drain body: %v\n", err)
		return
	}
	results := make([]hubResult, 0, len(drained.Commands))
	for _, sc := range drained.Commands {
		res := hubResult{Ticket: sc.Ticket}
		c, err := hubCommand(p, sc)
		if err != nil {
			res.Reason = err.Error()
		} else if ok, reason := p.Enqueue(c); !ok {
			res.Reason = reason
		} else {
			res.Accepted = true
			pend := p.Pending()
			res.Seq = pend[len(pend)-1].Seq
			res.Window = pend[len(pend)-1].Window
		}
		results = append(results, res)
	}
	hp.report(p, results)
}

// hubCommand converts one hub entry to a control command.
func hubCommand(p *control.Plane, sc hubStaged) (control.Command, error) {
	kind, err := control.ParseKind(sc.Kind)
	if err != nil {
		return control.Command{}, err
	}
	host, err := resolveHost(p.Fleet(), sc.Host)
	if err != nil {
		return control.Command{}, err
	}
	return control.Command{
		Window: sc.Window,
		Kind:   kind,
		Host:   host,
		Arg:    sc.Arg,
		Dur:    sim.Duration(sc.DurMS) * sim.Millisecond,
	}, nil
}

// report posts verdicts, the current snapshot and fresh patches to the hub.
func (hp *hubPoller) report(p *control.Plane, results []hubResult) {
	snap, _ := json.Marshal(p.Snapshot())
	patches, _ := json.Marshal(p.DrainPatches())
	body, _ := json.Marshal(struct {
		Results  []hubResult     `json:"results,omitempty"`
		Snapshot json.RawMessage `json:"snapshot,omitempty"`
		Patches  json.RawMessage `json:"patches,omitempty"`
	}{results, snap, patches})
	resp, err := hp.client.Post(hp.base+"/api/command/report", "application/json", bytes.NewReader(body))
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: -poll: report: %v\n", err)
		return
	}
	resp.Body.Close()
}
