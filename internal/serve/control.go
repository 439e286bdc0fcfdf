package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"
)

// The command hub relays steering between the dashboard and the simulation
// driver. The service never touches fleet state itself — determinism lives
// in internal/control, which only the process that owns the simulation
// loop may drive — so the hub is a mailbox with three sides:
//
//   - Browsers/curl POST /api/command to stage a request and get a ticket.
//   - The driver (experiments -poll) POSTs /api/command/drain at each
//     window barrier, taking every staged request, and reports decisions
//     plus its latest control snapshot via POST /api/command/report.
//   - Anyone GETs /api/command/log for the decided results, the driver's
//     snapshot, and its recent patch feed.
//
// Commands are strings here (kind and host by name): the hub cannot
// validate against a fleet it does not have, and keeping it untyped means
// serve does not import the control plane. Validation happens where it is
// authoritative — control.Plane.Enqueue in the driver — and the verdict
// travels back as a CommandResult.

// CommandRequest is the POST /api/command body.
type CommandRequest struct {
	// Kind is the command name (control.Kind.String(): "spike", "kill",
	// "restart", "policy", "coalesce").
	Kind string `json:"kind"`
	// Host is the target host name, or "*" for fleet-wide.
	Host string `json:"host"`
	// Arg is the kind-specific operand (spike factor, policy id,
	// coalescing window in nanoseconds).
	Arg int64 `json:"arg"`
	// DurMS bounds the effect in virtual milliseconds, for kinds that
	// expire.
	DurMS int64 `json:"dur_ms"`
	// Window is the fleet window boundary to apply at; 0 means the next
	// boundary.
	Window uint64 `json:"window"`
}

// StagedCommand is one hub entry awaiting the driver.
type StagedCommand struct {
	Ticket uint64 `json:"ticket"`
	CommandRequest
}

// CommandResult is the driver's verdict on one staged command.
type CommandResult struct {
	Ticket   uint64 `json:"ticket"`
	Accepted bool   `json:"accepted"`
	Reason   string `json:"reason,omitempty"`
	// Seq and Window are the control plane's stamps for accepted commands.
	Seq    uint64 `json:"seq,omitempty"`
	Window uint64 `json:"window,omitempty"`
}

// ControlReport is the POST /api/command/report body: decisions plus the
// driver's current view, stored verbatim (the snapshot/patch shapes belong
// to the control package and the hub does not interpret them).
type ControlReport struct {
	Results  []CommandResult `json:"results,omitempty"`
	Snapshot json.RawMessage `json:"snapshot,omitempty"`
	Patches  json.RawMessage `json:"patches,omitempty"`
}

// hub is the staging state; one per Server.
type hub struct {
	mu       sync.Mutex
	ticket   uint64
	staged   []StagedCommand
	results  []CommandResult // ring of the newest decisions
	snapshot json.RawMessage
	patches  json.RawMessage
	reports  uint64
}

// handleCommand stages one steering request.
func (s *Server) handleCommand(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req CommandRequest
	if err := json.NewDecoder(limitBody(w, r)).Decode(&req); err != nil {
		http.Error(w, "bad command JSON: "+err.Error(), http.StatusBadRequest)
		return
	}
	if req.Kind == "" {
		http.Error(w, "command needs a kind", http.StatusBadRequest)
		return
	}
	h := &s.hub
	h.mu.Lock()
	if len(h.staged) >= maxStagedCommands {
		h.mu.Unlock()
		http.Error(w, "command backlog full (no driver polling?)", http.StatusServiceUnavailable)
		return
	}
	h.ticket++
	sc := StagedCommand{Ticket: h.ticket, CommandRequest: req}
	h.staged = append(h.staged, sc)
	h.mu.Unlock()
	w.WriteHeader(http.StatusAccepted)
	writeJSONValue(w, struct {
		Ticket uint64 `json:"ticket"`
	}{sc.Ticket})
}

// handleCommandDrain hands the driver every staged command, emptying the
// backlog. POST: draining mutates the hub.
func (s *Server) handleCommandDrain(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	h := &s.hub
	h.mu.Lock()
	out := h.staged
	h.staged = nil
	h.mu.Unlock()
	if out == nil {
		out = []StagedCommand{}
	}
	writeJSONValue(w, struct {
		Commands []StagedCommand `json:"commands"`
	}{out})
}

// handleCommandReport stores the driver's decisions and latest view.
func (s *Server) handleCommandReport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var rep ControlReport
	if err := json.NewDecoder(limitBody(w, r)).Decode(&rep); err != nil {
		http.Error(w, "bad report JSON: "+err.Error(), http.StatusBadRequest)
		return
	}
	h := &s.hub
	h.mu.Lock()
	h.results = append(h.results, rep.Results...)
	if over := len(h.results) - maxCommandResults; over > 0 {
		h.results = append(h.results[:0:0], h.results[over:]...)
	}
	if len(rep.Snapshot) > 0 {
		h.snapshot = rep.Snapshot
	}
	if len(rep.Patches) > 0 {
		h.patches = rep.Patches
	}
	h.reports++
	h.mu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

// handleCommandLog serves the decided results (optionally ?after=TICKET),
// the driver's latest snapshot and its recent patches.
func (s *Server) handleCommandLog(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	after := uint64(0)
	if v := r.URL.Query().Get("after"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			http.Error(w, "bad after", http.StatusBadRequest)
			return
		}
		after = n
	}
	h := &s.hub
	h.mu.Lock()
	results := make([]CommandResult, 0, len(h.results))
	for _, res := range h.results {
		if res.Ticket > after {
			results = append(results, res)
		}
	}
	resp := struct {
		Staged   int             `json:"staged"`
		Reports  uint64          `json:"reports"`
		Results  []CommandResult `json:"results"`
		Snapshot json.RawMessage `json:"snapshot,omitempty"`
		Patches  json.RawMessage `json:"patches,omitempty"`
	}{len(h.staged), h.reports, results, h.snapshot, h.patches}
	h.mu.Unlock()
	writeJSONValue(w, resp)
}

// limitBody bounds a control-endpoint body: steering payloads are tiny,
// and anything near the trace-batch limit is abuse, not steering.
func limitBody(w http.ResponseWriter, r *http.Request) io.Reader {
	return http.MaxBytesReader(w, r.Body, maxCommandBody)
}

// writeJSONValue marshals v with the API's indentation contract.
func writeJSONValue(w http.ResponseWriter, v any) {
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, append(body, '\n'))
}
