package netsim

import (
	"math/rand"
	"sort"

	"timerstudy/internal/sim"
)

// Packet is anything delivered across the simulated network.
type Packet struct {
	From, To string
	// Size in bytes, for serialization delay.
	Size int
	// Payload is opaque to the network.
	Payload any

	// seg is the TCP segment a Stack transmits, carried by value so a
	// segment is never boxed into Payload; tcp marks it.
	seg segment
	tcp bool
}

// pathKey orders a host pair canonically.
type pathKey struct{ a, b string }

func mkPath(a, b string) pathKey {
	if a > b {
		a, b = b, a
	}
	return pathKey{a, b}
}

// PathConfig describes one link's behaviour.
type PathConfig struct {
	// Latency is the one-way propagation delay.
	Latency sim.Duration
	// Jitter is the maximum additional uniform random delay.
	Jitter sim.Duration
	// Loss is the probability a packet is dropped.
	Loss float64
}

// Network is the simulated LAN/WAN: point-to-point delivery with
// per-path latency, jitter and loss, plus broadcast for ARP-style traffic.
type Network struct {
	eng   *sim.Engine
	rng   *rand.Rand
	def   PathConfig
	paths map[pathKey]PathConfig
	hosts map[string]func(Packet)
	// sorted caches the attached host names in order for Broadcast; nil
	// after an Attach adds a host.
	sorted []string
	// free is the freelist of delivery nodes (see delivery).
	free *delivery
	// links interns the per-direction event labels ("net:a->b") so Send
	// does not build a string per packet. Keys are directional, so pathKey
	// is used here without mkPath canonicalization.
	links map[pathKey]string
	// Bandwidth is the serialization rate in bytes per virtual second
	// (default 125 MB/s ≈ gigabit).
	Bandwidth int64

	// Delivered and Dropped count packets for diagnostics.
	Delivered, Dropped uint64
}

// NewNetwork builds a network with a default path configuration (a quiet
// gigabit department LAN: 65 µs one-way, 20 µs jitter, no loss).
func NewNetwork(eng *sim.Engine) *Network {
	return &Network{
		eng:       eng,
		rng:       eng.Rand(),
		def:       PathConfig{Latency: 65 * sim.Microsecond, Jitter: 20 * sim.Microsecond},
		paths:     map[pathKey]PathConfig{},
		hosts:     map[string]func(Packet){},
		links:     map[pathKey]string{},
		Bandwidth: 125 << 20,
	}
}

// SetDefaultPath changes the default link behaviour.
func (n *Network) SetDefaultPath(cfg PathConfig) { n.def = cfg }

// SetPath overrides the link between two hosts (order-insensitive).
func (n *Network) SetPath(a, b string, cfg PathConfig) { n.paths[mkPath(a, b)] = cfg }

// Attach registers a host's receive function. Reattaching replaces it.
func (n *Network) Attach(host string, recv func(Packet)) {
	if _, ok := n.hosts[host]; !ok {
		n.sorted = nil
	}
	n.hosts[host] = recv
}

// delivery is one packet in flight. Nodes recycle through the network's
// freelist and carry a callback bound once when the node is first
// allocated, so a send schedules an existing closure instead of building
// one per packet (the fleet hosts' deliverFn idiom).
type delivery struct {
	n       *Network
	recv    func(Packet)
	p       Packet
	counted bool // point-to-point sends count in Delivered; broadcasts do not
	fire    func()
	next    *delivery
}

// schedule queues p for recv after delay on a pooled delivery node.
//
//lint:allocfree per-packet path; nodes come from the freelist once warm (TestSendZeroAllocSteadyState)
func (n *Network) schedule(delay sim.Duration, label string, recv func(Packet), p Packet, counted bool) {
	d := n.free
	if d == nil {
		//lint:ignore allocfree cold path: the freelist grows to the peak number of packets in flight, once
		d = n.newDelivery()
	} else {
		n.free = d.next
	}
	d.recv, d.p, d.counted = recv, p, counted
	n.eng.After(delay, label, d.fire)
}

// newDelivery allocates a node and binds its callback; the cold path of
// schedule.
func (n *Network) newDelivery() *delivery {
	d := &delivery{n: n}
	d.fire = d.deliver
	return d
}

// deliver hands the packet to its receiver. The node goes back on the
// freelist first, so whatever the receiver sends can reuse it.
//
//lint:allocfree per-packet path: a freelist push and the receiver call
func (d *delivery) deliver() {
	n, recv, p, counted := d.n, d.recv, d.p, d.counted
	d.recv, d.p = nil, Packet{}
	d.next, n.free = n.free, d
	if counted {
		n.Delivered++
	}
	recv(p)
}

// linkLabel returns the interned event label for one direction of a link.
func (n *Network) linkLabel(from, to string) string {
	k := pathKey{from, to}
	if s, ok := n.links[k]; ok {
		return s
	}
	s := "net:" + from + "->" + to
	n.links[k] = s
	return s
}

// pathFor returns the config governing a packet between two hosts.
func (n *Network) pathFor(a, b string) PathConfig {
	if cfg, ok := n.paths[mkPath(a, b)]; ok {
		return cfg
	}
	return n.def
}

// Send transmits a packet; it may be silently lost. Unknown destinations are
// dropped (an unplugged cable), which is how workloads simulate unreachable
// servers.
//
//lint:allocfree per-packet path: path and label lookups in warmed maps, then a pooled delivery
func (n *Network) Send(p Packet) {
	cfg := n.pathFor(p.From, p.To)
	if cfg.Loss > 0 && n.rng.Float64() < cfg.Loss {
		n.Dropped++
		return
	}
	recv, ok := n.hosts[p.To]
	if !ok {
		n.Dropped++
		return
	}
	delay := cfg.Latency
	if cfg.Jitter > 0 {
		delay += sim.Duration(n.rng.Int63n(int64(cfg.Jitter)))
	}
	if n.Bandwidth > 0 && p.Size > 0 {
		delay += sim.Duration(int64(p.Size) * int64(sim.Second) / n.Bandwidth)
	}
	n.schedule(delay, n.linkLabel(p.From, p.To), recv, p, true)
}

// Broadcast delivers a packet to every attached host except the sender —
// the LAN chatter that keeps ARP caches warm in the paper's testbed. Hosts
// are visited in sorted order so simulations stay deterministic.
func (n *Network) Broadcast(from string, payload any) {
	for _, host := range n.sortedHosts() {
		if host == from {
			continue
		}
		cfg := n.pathFor(from, host)
		delay := cfg.Latency
		if cfg.Jitter > 0 {
			delay += sim.Duration(n.rng.Int63n(int64(cfg.Jitter)))
		}
		n.schedule(delay, "net:broadcast", n.hosts[host], Packet{From: from, To: host, Payload: payload}, false)
	}
}

// sortedHosts returns the cached sorted host list, rebuilding it after an
// Attach added a host. Callers must not mutate it.
func (n *Network) sortedHosts() []string {
	if n.sorted == nil {
		n.sorted = make([]string, 0, len(n.hosts))
		for h := range n.hosts {
			n.sorted = append(n.sorted, h)
		}
		sort.Strings(n.sorted)
	}
	return n.sorted
}

// Hosts returns the attached host names, sorted.
func (n *Network) Hosts() []string { return append([]string(nil), n.sortedHosts()...) }
