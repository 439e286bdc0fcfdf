package netsim

import (
	"sort"

	"timerstudy/internal/sim"
)

// The ARP/neighbour subsystem, shaped to reproduce the timer family Table 3
// attributes to ARP: a 2 s periodic gc, a 4 s periodic neighbour-table scan,
// a 5 s per-entry probe timeout that LAN activity cancels "at random
// intervals after it has been set" (the paper traces this to chatter on the
// department LAN), and an 8 s periodic cache flush.
const (
	arpGCInterval      = 2 * sim.Second
	arpPeriodicScan    = 4 * sim.Second
	arpDelayProbe      = 5 * sim.Second
	arpFlushInterval   = 8 * sim.Second
	arpSolicitInterval = 1 * sim.Second
	arpMaxSolicits     = 3
	arpMaxProbes       = 3
	// arpReachableTime is how long a confirmation keeps an entry fresh
	// (jittered per entry, as the kernel jitters base_reachable_time).
	arpReachableTime = 30 * sim.Second
)

type arpPayload struct {
	request bool // request (or probe) vs. reply
}

// The two ARP payloads, boxed once so sending one allocates nothing.
var (
	arpRequest any = arpPayload{request: true}
	arpReply   any = arpPayload{request: false}
)

type arpState uint8

const (
	arpIncomplete arpState = iota
	arpReachable
	arpStale
	arpProbing
)

type arpEntry struct {
	host        string
	state       arpState
	confirmedAt sim.Time
	reachFor    sim.Duration
	// timer is the per-neighbour timer struct (dynamically allocated with
	// the entry, as in neigh_alloc). It serves solicit retransmits, the
	// 5 s delay-probe, and probe retries, depending on state.
	timer    Handle
	solicits int
	probes   int
	waiting  []func(bool)
}

type arpCache struct {
	s       *Stack
	entries map[string]*arpEntry
	gc      Handle
	scan    Handle
	flush   Handle
	// hosts and sorted are sortedEntries' reused scratch.
	hosts  []string
	sorted []*arpEntry
}

func newARPCache(s *Stack) *arpCache {
	a := &arpCache{s: s, entries: map[string]*arpEntry{}}
	a.gc = s.fac.NewTimer("kernel/arp:gc", a.onGC)
	a.gc.Arm(arpGCInterval)
	a.scan = s.fac.NewTimer("kernel/arp:neigh-periodic", a.onScan)
	a.scan.Arm(arpPeriodicScan)
	a.flush = s.fac.NewTimer("kernel/arp:cache-flush", a.onFlush)
	a.flush.Arm(arpFlushInterval)
	return a
}

func (a *arpCache) entry(host string) *arpEntry {
	e, ok := a.entries[host]
	if !ok {
		e = &arpEntry{host: host, state: arpIncomplete}
		e.reachFor = arpReachableTime/2 + sim.Duration(a.s.net.rng.Int63n(int64(arpReachableTime)))
		e.timer = a.s.fac.NewTimer("kernel/arp:neigh-timer", func() { a.onEntryTimer(e) })
		a.entries[host] = e
	}
	return e
}

// resolve makes host reachable before transmission; cb(false) after solicit
// retries exhaust (no such host).
func (a *arpCache) resolve(host string, cb func(bool)) {
	e := a.entry(host)
	switch e.state {
	case arpReachable, arpStale, arpProbing:
		// Usable immediately; stale entries get verified in the background.
		cb(true)
	case arpIncomplete:
		e.waiting = append(e.waiting, cb)
		if len(e.waiting) == 1 {
			e.solicits = 0
			a.solicit(e)
		}
	}
}

func (a *arpCache) solicit(e *arpEntry) {
	a.s.net.Send(Packet{From: a.s.host, To: e.host, Size: 28,
		Payload: arpRequest})
	e.timer.Arm(arpSolicitInterval)
}

// observed confirms a neighbour from any traffic. If the 5 s delay-probe was
// pending, this is the Table 3 "5 s ARP timer canceled at a random interval".
func (a *arpCache) observed(host string) {
	e := a.entry(host)
	if (e.state == arpStale || e.state == arpProbing) && e.timer.Pending() {
		_ = e.timer.Stop()
	}
	wasIncomplete := e.state == arpIncomplete
	e.state = arpReachable
	e.confirmedAt = a.s.fac.Now()
	if wasIncomplete {
		if e.timer.Pending() {
			_ = e.timer.Stop()
		}
		waiting := e.waiting
		e.waiting = nil
		for _, cb := range waiting {
			cb(true)
		}
	}
}

// receive handles ARP packets.
func (a *arpCache) receive(from string, pl arpPayload) {
	if pl.request {
		a.s.net.Send(Packet{From: a.s.host, To: from, Size: 28,
			Payload: arpReply})
	}
	a.observed(from)
}

// onEntryTimer multiplexes the per-entry timer by state.
func (a *arpCache) onEntryTimer(e *arpEntry) {
	switch e.state {
	case arpIncomplete:
		e.solicits++
		if e.solicits >= arpMaxSolicits {
			waiting := e.waiting
			e.waiting = nil
			delete(a.entries, e.host)
			e.timer.Release()
			for _, cb := range waiting {
				cb(false)
			}
			return
		}
		a.solicit(e)
	case arpStale:
		// Delay-probe expired with no confirming traffic: actively probe.
		e.state = arpProbing
		e.probes = 0
		a.probe(e)
	case arpProbing:
		e.probes++
		if e.probes >= arpMaxProbes {
			delete(a.entries, e.host)
			e.timer.Release()
			return
		}
		a.probe(e)
	}
}

func (a *arpCache) probe(e *arpEntry) {
	a.s.net.Send(Packet{From: a.s.host, To: e.host, Size: 28,
		Payload: arpRequest})
	e.timer.Arm(arpSolicitInterval)
}

// sortedEntries returns entries in host order: deterministic iteration.
// The slice is scratch, valid until the next call.
func (a *arpCache) sortedEntries() []*arpEntry {
	a.hosts = a.hosts[:0]
	for h := range a.entries {
		a.hosts = append(a.hosts, h)
	}
	sort.Strings(a.hosts)
	a.sorted = a.sorted[:0]
	for _, h := range a.hosts {
		a.sorted = append(a.sorted, a.entries[h])
	}
	return a.sorted
}

// onGC ages reachable entries to stale and arms the 5 s delay-probe.
func (a *arpCache) onGC() {
	now := a.s.fac.Now()
	for _, e := range a.sortedEntries() {
		if e.state == arpReachable && now.Sub(e.confirmedAt) > e.reachFor {
			e.state = arpStale
			e.timer.Arm(arpDelayProbe)
		}
	}
	a.gc.Arm(arpGCInterval)
}

// onScan is the neighbour-table periodic work (neigh_periodic_work).
func (a *arpCache) onScan() {
	// Drop long-dead stale entries that never re-confirmed.
	now := a.s.fac.Now()
	for _, e := range a.sortedEntries() {
		if e.state == arpStale && now.Sub(e.confirmedAt) > 4*e.reachFor && !e.timer.Pending() {
			delete(a.entries, e.host)
			e.timer.Release()
		}
	}
	a.scan.Arm(arpPeriodicScan)
}

// onFlush is the periodic cache flush of Table 3.
func (a *arpCache) onFlush() {
	// The flush drops nothing that is in active use; it bounds table size.
	if len(a.entries) > 512 {
		for _, e := range a.sortedEntries() {
			if e.state == arpStale && !e.timer.Pending() {
				delete(a.entries, e.host)
				e.timer.Release()
			}
		}
	}
	a.flush.Arm(arpFlushInterval)
}

// Reachable reports whether host is currently resolved (tests).
func (a *arpCache) reachable(host string) bool {
	e, ok := a.entries[host]
	return ok && e.state == arpReachable
}

// ARPReachable exposes neighbour state for tests and workloads.
func (s *Stack) ARPReachable(host string) bool { return s.arp.reachable(host) }

// AttachBlackhole attaches a host that answers ARP (as a gateway proxy-ARPs
// for routed destinations) but silently drops everything else — the
// behaviour of an unplugged or crashed machine behind a router, which is
// what makes TCP grind through its full SYN backoff in the Section 2.2.2
// case study.
func (n *Network) AttachBlackhole(host string) {
	n.Attach(host, func(p Packet) {
		if pl, ok := p.Payload.(arpPayload); ok && pl.request {
			n.Send(Packet{From: host, To: p.From, Size: 28, Payload: arpReply})
		}
	})
}
