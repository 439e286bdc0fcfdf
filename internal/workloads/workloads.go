// Package workloads builds the traced systems of Section 3.5: an idle
// desktop, the Firefox web browser rendering a Flash-heavy page, a Skype
// call, and a loaded web server — each on both the Linux and the Vista
// personality — plus the busy Vista desktop (Outlook + browser) behind
// Figure 1.
//
// Every workload is a deterministic function of its seed. Application
// behaviour is modelled from the timer signatures the paper documents
// (Table 3, Figures 3-7): the models issue the same syscall/API streams the
// real programs issued, so the analysis pipeline sees the same shapes.
package workloads

import (
	"timerstudy/internal/sim"
	"timerstudy/internal/trace"
)

// Config parameterizes a workload run.
type Config struct {
	// Seed drives all randomness.
	Seed int64
	// Duration is the traced virtual time (the paper runs 30 minutes; the
	// desktop trace of Figure 1 runs 90 seconds).
	Duration sim.Duration
	// TraceCap bounds the in-memory trace; 0 means the paper's 512 MiB
	// relayfs equivalent.
	TraceCap int
	// Sink, if non-nil, receives the trace records instead of an in-memory
	// buffer — e.g. a trace.StreamWriter spilling to disk during the run.
	// Result.Trace is then nil (the records were never stored); TraceCap is
	// ignored. Record bytes are identical either way: sinks intern origins
	// with the same ID assignment.
	Sink trace.Sink
}

// Default returns the paper's 30-minute configuration.
func Default() Config {
	return Config{Seed: 1, Duration: 30 * sim.Minute}
}

func (c Config) traceCap() int {
	if c.TraceCap > 0 {
		return c.TraceCap
	}
	return trace.DefaultCapacity
}

// traceSink resolves the destination for the run's records: the configured
// external sink, or a fresh in-memory buffer. buf is nil exactly when the
// records are going elsewhere (Result.Trace will be nil too).
func (c Config) traceSink() (sink trace.Sink, buf *trace.Buffer) {
	if c.Sink != nil {
		return c.Sink, nil
	}
	buf = trace.NewBuffer(c.traceCap())
	return buf, buf
}

// sinkCounters reads the operation counters off a sink when it keeps them
// (Buffer and StreamWriter both do).
func sinkCounters(s trace.Sink) trace.Counters {
	if c, ok := s.(interface{ Counters() trace.Counters }); ok {
		return c.Counters()
	}
	return trace.Counters{}
}

// Result is a completed workload run.
type Result struct {
	// Name identifies the workload ("idle", "firefox", ...).
	Name string
	// OS is "linux" or "vista".
	OS string
	// Trace holds the recorded operations. It is nil when the run streamed
	// its records to an external Config.Sink; use Counters for the totals
	// and replay the sink's output for analysis.
	Trace *trace.Buffer
	// Counters are the sink-side operation totals, valid whether the records
	// were buffered or streamed away.
	Counters trace.Counters
	// Duration is the traced virtual time.
	Duration sim.Duration
	// Stats carries engine-level wakeup/idle accounting.
	Stats sim.Stats
}

// Workload names.
const (
	Idle      = "idle"
	Skype     = "skype"
	Firefox   = "firefox"
	Webserver = "webserver"
	Desktop   = "desktop"
)

// LinuxWorkloads lists the Table 1 columns in paper order.
func LinuxWorkloads() []string { return []string{Idle, Skype, Firefox, Webserver} }

// VistaWorkloads lists the Table 2 columns in paper order.
func VistaWorkloads() []string { return []string{Idle, Skype, Firefox, Webserver} }

// RunLinux runs a named Linux workload.
func RunLinux(name string, cfg Config) *Result {
	switch name {
	case Idle:
		return LinuxIdle(cfg)
	case Skype:
		return LinuxSkype(cfg)
	case Firefox:
		return LinuxFirefox(cfg)
	case Webserver:
		return LinuxWebserver(cfg)
	default:
		panic("workloads: unknown linux workload " + name)
	}
}

// RunVista runs a named Vista workload.
func RunVista(name string, cfg Config) *Result {
	switch name {
	case Idle:
		return VistaIdle(cfg)
	case Skype:
		return VistaSkype(cfg)
	case Firefox:
		return VistaFirefox(cfg)
	case Webserver:
		return VistaWebserver(cfg)
	case Desktop:
		return VistaDesktop(cfg)
	default:
		panic("workloads: unknown vista workload " + name)
	}
}
