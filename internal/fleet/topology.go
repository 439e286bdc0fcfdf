package fleet

import (
	"fmt"

	"timerstudy/internal/netsim"
	"timerstudy/internal/sim"
	"timerstudy/internal/trace"
)

// Topology describes a datacenter to build: N webserver hosts ("ws-0000"…)
// and M desktop hosts ("pc-0000"…) over a uniform link matrix. The zero
// value of every optional field picks the registry default.
type Topology struct {
	// Webservers and Desktops count the two host classes. Webservers get
	// fleet indexes [0, Webservers); desktops follow.
	Webservers int
	Desktops   int
	// Seed drives all randomness; each host derives an independent stream
	// from it (splitmix64 over the host index).
	Seed int64
	// Link, when non-nil, overrides the fabric's default path (latency /
	// jitter / loss) for every host pair. The fleet's lookahead is the
	// link's base latency.
	Link *netsim.PathConfig
	// Threads is the number of client loops per desktop (default 2).
	Threads int
	// ThinkMean and ServiceMean override the request-rate defaults.
	ThinkMean   sim.Duration
	ServiceMean sim.Duration
	// NewSink builds each host's trace sink; nil means a trace.HashSink
	// (digest-only — the only thing that fits at 10k hosts).
	NewSink func(host string) trace.Sink
}

// splitmix64 decorrelates per-host seeds: sequential inputs produce
// independent-looking 64-bit streams (Steele et al., the standard seed
// expander).
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// HostSeed returns the engine seed for host index i under fleet seed s.
func HostSeed(s int64, i int) int64 {
	return int64(splitmix64(uint64(s) ^ splitmix64(uint64(i)+1)))
}

// Build constructs the fabric and the fleet. Hosts are added in a fixed
// order (all webservers, then all desktops, both by index), which — with
// the per-index seeds — makes the whole build a pure function of the
// Topology value.
func (t Topology) Build() *Fleet {
	if t.Webservers < 0 || t.Desktops < 0 || t.Webservers+t.Desktops == 0 {
		panic("fleet: topology needs at least one host")
	}
	threads := t.Threads
	if threads <= 0 {
		threads = defaultClientThreads
	}
	think := t.ThinkMean
	if think <= 0 {
		think = defaultThinkMean
	}
	service := t.ServiceMean
	if service <= 0 {
		service = defaultServiceMean
	}
	newSink := t.NewSink
	if newSink == nil {
		newSink = func(string) trace.Sink { return trace.NewHashSink() }
	}

	names := make([]string, 0, t.Webservers+t.Desktops)
	for i := 0; i < t.Webservers; i++ {
		names = append(names, fmt.Sprintf("ws-%04d", i))
	}
	for i := 0; i < t.Desktops; i++ {
		names = append(names, fmt.Sprintf("pc-%04d", i))
	}

	fab := netsim.NewFabric()
	for _, n := range names {
		fab.AddHost(n)
	}
	if t.Link != nil {
		fab.SetDefaultPath(*t.Link)
	}
	fab.Freeze()

	f := New(fab)
	for i, n := range names {
		var m Model
		if i < t.Webservers {
			m = newWebserverModel(service)
		} else {
			m = newDesktopModel(t.Webservers, threads, think)
		}
		f.AddHost(n, HostSeed(t.Seed, i), newSink(n), m)
	}
	return f
}
