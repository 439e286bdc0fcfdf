package netsim

import (
	"errors"

	"timerstudy/internal/sim"
)

// Transport constants mirroring the Linux values the paper observes
// (Table 3): the 200 ms minimum RTO (seen as 0.204 s = 51 jiffies), the
// 40 ms delayed-ACK timer (0.04 s), the 3 s initial connect/retransmit
// timeout, and the 7200 s keepalive.
const (
	// MinRTO is the minimum retransmission timeout.
	MinRTO = 200 * sim.Millisecond
	// MaxRTO caps exponential backoff.
	MaxRTO = 120 * sim.Second
	// InitialRTO applies before any RTT sample exists (RFC 1122 / BSD 3 s).
	InitialRTO = 3 * sim.Second
	// DelayedAckTimeout is the receiver's ACK delay.
	DelayedAckTimeout = 40 * sim.Millisecond
	// KeepaliveIdle is the famous two-hour keepalive.
	KeepaliveIdle = 7200 * sim.Second
	// MaxDataRetries aborts a connection after this many consecutive
	// retransmissions (tcp_retries2-ish).
	MaxDataRetries = 12
	// MaxSynRetries aborts connection establishment (tcp_syn_retries).
	MaxSynRetries = 5
	headerSize    = 40
)

// ErrTimeout is returned when retransmissions are exhausted.
var ErrTimeout = errors.New("netsim: connection timed out")

// ErrReset is returned for connections aborted by the peer or closed
// locally with I/O pending.
var ErrReset = errors.New("netsim: connection reset")

type segKind uint8

const (
	segSYN segKind = iota
	segSYNACK
	segDATA
	segACK
	segFIN
)

type segment struct {
	kind     segKind
	fromPort uint16
	toPort   uint16
	seq      uint64 // message sequence for DATA
	ack      uint64 // cumulative: highest delivered seq
	payload  any
	size     int
	// wndClosed advertises a zero receive window; probe marks a
	// window-probe segment from the persist machinery.
	wndClosed bool
	probe     bool
}

// RTOEstimator is the Jacobson/Karels mean-and-variance estimator used by
// TCP (Section 5.1: "A prominent example of the use of adaptive
// timeouts..."), with Karn's rule applied by the caller (no samples from
// retransmitted messages).
type RTOEstimator struct {
	srtt   sim.Duration
	rttvar sim.Duration
	seeded bool
}

// Observe folds in one RTT sample.
func (e *RTOEstimator) Observe(rtt sim.Duration) {
	if !e.seeded {
		e.srtt = rtt
		e.rttvar = rtt / 2
		e.seeded = true
		return
	}
	err := rtt - e.srtt
	if err < 0 {
		err = -err
	}
	e.srtt += (rtt - e.srtt) / 8
	e.rttvar += (err - e.rttvar) / 4
}

// RTO returns srtt + 4·rttvar clamped to [MinRTO, MaxRTO], or InitialRTO
// before the first sample.
func (e *RTOEstimator) RTO() sim.Duration {
	if !e.seeded {
		return InitialRTO
	}
	rto := e.srtt + 4*e.rttvar
	if rto < MinRTO {
		rto = MinRTO
	}
	if rto > MaxRTO {
		rto = MaxRTO
	}
	return rto
}

// SRTT returns the smoothed RTT (zero before seeding).
func (e *RTOEstimator) SRTT() sim.Duration { return e.srtt }

// Stack is one host's TCP-lite instance.
type Stack struct {
	net  *Network
	fac  Facility
	host string

	listeners map[uint16]func(*Conn)
	conns     map[connKey]*Conn
	nextPort  uint16

	arp *arpCache

	// KeepaliveEnabled arms the 7200 s keepalive on established
	// connections (on for the Linux personality, off for Vista — the paper
	// notes its absence from the Vista webserver trace).
	KeepaliveEnabled bool

	// OriginPrefix labels this stack's kernel timers; default "kernel/tcp".
	OriginPrefix string

	// OnRaw receives non-TCP, non-ARP packets addressed to this host
	// (datagram traffic like the Skype voice stream). May be nil.
	OnRaw func(Packet)
}

// NewStack attaches a TCP-lite instance for host to the network, arming its
// timers through fac. The ARP neighbour subsystem starts immediately.
func NewStack(n *Network, host string, fac Facility) *Stack {
	s := &Stack{
		net: n, fac: fac, host: host,
		listeners:    map[uint16]func(*Conn){},
		conns:        map[connKey]*Conn{},
		nextPort:     32768,
		OriginPrefix: "kernel/tcp",
	}
	s.arp = newARPCache(s)
	n.Attach(host, s.receive)
	return s
}

// Host returns the stack's host name.
func (s *Stack) Host() string { return s.host }

// Facility returns the timer facility (used by the ARP subsystem and tests).
func (s *Stack) Facility() Facility { return s.fac }

// Listen registers an accept callback for a port.
func (s *Stack) Listen(port uint16, accept func(*Conn)) {
	s.listeners[port] = accept
}

// connKey identifies a connection within its stack. It is a comparable
// value, so looking up the connection of every arriving segment builds no
// string.
type connKey struct {
	remote                string
	remotePort, localPort uint16
}

type connState uint8

const (
	stateSynSent connState = iota
	stateEstablished
	stateClosed
)

type outMsg struct {
	seq     uint64
	size    int
	payload any
	acked   func(error)
	retrans int
	sentAt  sim.Time
}

// Conn is a TCP-lite connection carrying whole messages reliably with
// cumulative ACKs, one message in flight per direction.
type Conn struct {
	stack      *Stack
	remote     string
	remotePort uint16
	localPort  uint16
	state      connState
	server     bool

	est RTOEstimator

	retransTimer   Handle
	delackTimer    Handle
	keepaliveTimer Handle
	persistTimer   Handle

	nextSeq       uint64
	inflight      *outMsg
	sendq         []*outMsg
	lastDelivered uint64
	ackPending    bool
	recvClosed    bool // we advertise a zero window
	peerClosed    bool // the peer advertised a zero window
	persistShift  int  // persist backoff exponent

	onConnect   func(*Conn, error)
	synSent     sim.Time
	synRetries  int
	gotFirstAck bool

	// OnMessage receives delivered application messages.
	OnMessage func(c *Conn, size int, payload any)
	// OnClose runs once when the connection dies (FIN, reset, or timeout
	// abort). err is nil for a clean remote close.
	OnClose func(err error)
}

// RemoteHost returns the peer's host name.
func (c *Conn) RemoteHost() string { return c.remote }

// Established reports whether the handshake completed and the connection is
// still open.
func (c *Conn) Established() bool { return c.state == stateEstablished }

// Estimator exposes the connection's RTO state (read-only use).
func (c *Conn) Estimator() *RTOEstimator { return &c.est }

func (s *Stack) newConn(remote string, remotePort, localPort uint16, server bool) *Conn {
	c := &Conn{
		stack: s, remote: remote, remotePort: remotePort, localPort: localPort,
		server: server,
	}
	// The per-socket timer structures, created at socket creation as in
	// inet_csk: stable identities per connection.
	c.retransTimer = s.fac.NewTimer(s.OriginPrefix+":retransmit", c.onRetransTimeout)
	c.delackTimer = s.fac.NewTimer(s.OriginPrefix+":delack", c.onDelackTimeout)
	c.keepaliveTimer = s.fac.NewTimer(s.OriginPrefix+":keepalive", c.onKeepalive)
	c.persistTimer = s.fac.NewTimer(s.OriginPrefix+":persist", c.onPersist)
	s.conns[connKey{remote, remotePort, localPort}] = c
	return c
}

// Connect opens a connection; cb receives the established connection or an
// error after SYN retries are exhausted. Name resolution (ARP) happens
// first, as for a LAN peer.
func (s *Stack) Connect(remote string, port uint16, cb func(*Conn, error)) {
	s.nextPort++
	localPort := s.nextPort
	c := s.newConn(remote, port, localPort, false)
	c.state = stateSynSent
	c.onConnect = cb
	s.arp.resolve(remote, func(ok bool) {
		if c.state != stateSynSent {
			return
		}
		if !ok {
			c.fail(ErrTimeout)
			return
		}
		c.sendSYN()
	})
}

func (c *Conn) sendSYN() {
	c.synSent = c.stack.fac.Now()
	c.transmit(segment{kind: segSYN, size: headerSize})
	c.armRetrans()
}

func (c *Conn) armRetrans() {
	rto := c.est.RTO()
	for i := 0; i < c.backoffShifts(); i++ {
		rto *= 2
		if rto >= MaxRTO {
			rto = MaxRTO
			break
		}
	}
	c.retransTimer.Arm(rto)
}

func (c *Conn) backoffShifts() int {
	if c.inflight != nil {
		return c.inflight.retrans
	}
	return 0
}

func (c *Conn) transmit(seg segment) {
	seg.fromPort = c.localPort
	seg.toPort = c.remotePort
	seg.ack = c.lastDelivered
	seg.wndClosed = c.recvClosed
	c.stack.net.Send(Packet{
		From: c.stack.host, To: c.remote,
		Size: seg.size, Payload: seg,
	})
}

// Send queues a message; acked runs when the peer's ACK covers it (or with
// an error when the connection dies first).
func (c *Conn) Send(size int, payload any, acked func(error)) {
	if c.state == stateClosed {
		if acked != nil {
			acked(ErrReset)
		}
		return
	}
	c.nextSeq++
	m := &outMsg{seq: c.nextSeq, size: size, payload: payload, acked: acked}
	c.sendq = append(c.sendq, m)
	c.pump()
}

func (c *Conn) pump() {
	if c.state != stateEstablished || c.inflight != nil || len(c.sendq) == 0 {
		return
	}
	if c.peerClosed {
		// The peer advertised a zero window: nothing may be sent. The
		// persist timer probes the receiver so that a lost window-update
		// cannot deadlock the connection (Section 5.1's second adaptive
		// TCP timer), backing off exponentially like the RTO.
		if !c.persistTimer.Pending() {
			c.armPersist()
		}
		return
	}
	m := c.sendq[0]
	c.sendq = c.sendq[:copy(c.sendq, c.sendq[1:])]
	c.inflight = m
	m.sentAt = c.stack.fac.Now()
	// Data carries a cumulative ACK: cancel a pending delayed ACK.
	if c.ackPending {
		_ = c.delackTimer.Stop()
		c.ackPending = false
	}
	c.transmit(segment{kind: segDATA, seq: m.seq, size: m.size + headerSize, payload: m.payload})
	c.armRetrans()
}

func (c *Conn) onRetransTimeout() {
	switch c.state {
	case stateSynSent:
		c.synRetries++
		if c.synRetries >= MaxSynRetries {
			c.fail(ErrTimeout)
			return
		}
		// Exponential backoff on the initial 3 s timeout: 3, 6, 12, 24 s...
		c.transmit(segment{kind: segSYN, size: headerSize})
		rto := InitialRTO
		for i := 0; i < c.synRetries; i++ {
			rto *= 2
		}
		c.retransTimer.Arm(rto)
	case stateEstablished:
		if c.inflight == nil {
			return // spurious
		}
		c.inflight.retrans++
		if c.inflight.retrans > MaxDataRetries {
			c.fail(ErrTimeout)
			return
		}
		c.transmit(segment{kind: segDATA, seq: c.inflight.seq,
			size: c.inflight.size + headerSize, payload: c.inflight.payload})
		c.armRetrans()
	}
}

func (c *Conn) onDelackTimeout() {
	if c.state != stateEstablished || !c.ackPending {
		return
	}
	c.ackPending = false
	c.transmit(segment{kind: segACK, size: headerSize})
}

// armPersist schedules the next zero-window probe with exponential backoff.
func (c *Conn) armPersist() {
	d := c.est.RTO()
	for i := 0; i < c.persistShift; i++ {
		d *= 2
		if d >= MaxRTO {
			d = MaxRTO
			break
		}
	}
	c.persistTimer.Arm(d)
}

// onPersist fires the window probe.
func (c *Conn) onPersist() {
	if c.state != stateEstablished || !c.peerClosed {
		return
	}
	c.persistShift++
	c.transmit(segment{kind: segACK, size: headerSize, probe: true})
	c.armPersist()
}

func (c *Conn) onKeepalive() {
	// Two virtual hours of idleness: probe. No workload in this study runs
	// long enough to reach it (the paper makes the same observation); the
	// probe simply re-arms.
	if c.state == stateEstablished {
		c.transmit(segment{kind: segACK, size: headerSize})
		c.keepaliveTimer.Arm(KeepaliveIdle)
	}
}

// fail aborts the connection with an error.
func (c *Conn) fail(err error) {
	if c.state == stateClosed {
		return
	}
	cb := c.onConnect
	c.teardown()
	if cb != nil {
		cb(nil, err)
	} else if c.inflight != nil && c.inflight.acked != nil {
		c.inflight.acked(err)
	}
	if c.OnClose != nil {
		c.OnClose(err)
	}
}

// Close sends FIN and tears the connection down. Pending sends error with
// ErrReset.
func (c *Conn) Close() {
	if c.state == stateClosed {
		return
	}
	c.transmit(segment{kind: segFIN, size: headerSize})
	pendingErr := c.pendingSends()
	c.teardown()
	for _, m := range pendingErr {
		if m.acked != nil {
			m.acked(ErrReset)
		}
	}
}

func (c *Conn) pendingSends() []*outMsg {
	var out []*outMsg
	if c.inflight != nil {
		out = append(out, c.inflight)
	}
	out = append(out, c.sendq...)
	return out
}

func (c *Conn) teardown() {
	c.state = stateClosed
	c.inflight = nil
	c.sendq = nil
	_ = c.retransTimer.Stop()
	_ = c.delackTimer.Stop()
	_ = c.persistTimer.Stop()
	if c.stack.KeepaliveEnabled {
		_ = c.keepaliveTimer.Stop()
	}
	// The socket dies; its embedded timer structs go back to the slab.
	c.retransTimer.Release()
	c.delackTimer.Release()
	c.keepaliveTimer.Release()
	c.persistTimer.Release()
	delete(c.stack.conns, connKey{c.remote, c.remotePort, c.localPort})
}

// receive dispatches an incoming packet to ARP or the owning connection.
func (s *Stack) receive(p Packet) {
	switch seg := p.Payload.(type) {
	case arpPayload:
		s.arp.receive(p.From, seg)
		return
	case segment:
		s.arp.observed(p.From)
		s.receiveSegment(p.From, seg)
	default:
		// Datagrams and LAN noise: refresh the neighbour cache, then hand
		// non-broadcast traffic to the raw tap.
		s.arp.observed(p.From)
		if s.OnRaw != nil {
			s.OnRaw(p)
		}
	}
}

func (s *Stack) receiveSegment(from string, seg segment) {
	c, ok := s.conns[connKey{from, seg.fromPort, seg.toPort}]
	if !ok {
		if seg.kind == segSYN {
			if accept, lok := s.listeners[seg.toPort]; lok {
				nc := s.newConn(from, seg.fromPort, seg.toPort, true)
				nc.establish()
				nc.synSent = s.fac.Now() // SYNACK departure, for the RTT sample
				nc.transmit(segment{kind: segSYNACK, size: headerSize})
				accept(nc)
			}
			// No listener: silently drop, the client's SYN backs off —
			// the "refused connection" behaviour layered services retry
			// against in Section 2.2.2.
		}
		return
	}
	c.noteWindow(seg)
	switch seg.kind {
	case segSYN:
		// Duplicate SYN on an accepted connection: re-ack.
		c.transmit(segment{kind: segSYNACK, size: headerSize})
	case segSYNACK:
		if c.state == stateSynSent {
			_ = c.retransTimer.Stop()
			rtt := s.fac.Now().Sub(c.synSent)
			if c.synRetries == 0 {
				c.est.Observe(rtt)
			}
			c.establish()
			cb := c.onConnect
			c.onConnect = nil
			c.transmit(segment{kind: segACK, size: headerSize})
			if cb != nil {
				cb(c, nil)
			}
		}
	case segDATA:
		if c.state != stateEstablished {
			return
		}
		c.sampleHandshakeRTT()
		c.processAck(seg.ack)
		if seg.seq == c.lastDelivered+1 {
			c.lastDelivered = seg.seq
			if c.OnMessage != nil {
				c.OnMessage(c, seg.size-headerSize, seg.payload)
			}
		}
		// Delayed ACK: arm (or leave armed) the 40 ms timer; a response
		// written before it fires piggybacks the ACK instead.
		if c.state == stateEstablished && c.inflight == nil && len(c.sendq) == 0 {
			if !c.ackPending {
				c.ackPending = true
				c.delackTimer.Arm(DelayedAckTimeout)
			}
		} else if c.state == stateEstablished {
			c.pump()
		}
	case segACK:
		c.sampleHandshakeRTT()
		if seg.probe {
			// Window probe: answer immediately with our window state.
			c.transmit(segment{kind: segACK, size: headerSize})
		}
		c.processAck(seg.ack)
	case segFIN:
		if c.state == stateClosed {
			return
		}
		pending := c.pendingSends()
		c.teardown()
		for _, m := range pending {
			if m.acked != nil {
				m.acked(ErrReset)
			}
		}
		if c.OnClose != nil {
			c.OnClose(nil)
		}
	}
}

// sampleHandshakeRTT seeds a server-side estimator from the SYNACK→ACK
// round trip, as real stacks do — without it every response's retransmit
// timer would be armed at the 3 s initial RTO instead of the ~0.2 s minimum
// the paper observes (Table 3's 0.204 s row).
func (c *Conn) sampleHandshakeRTT() {
	if !c.server || c.gotFirstAck {
		return
	}
	c.gotFirstAck = true
	c.est.Observe(c.stack.fac.Now().Sub(c.synSent))
}

// noteWindow folds the peer's advertised window into sender state and
// restarts transmission when it reopens.
func (c *Conn) noteWindow(seg segment) {
	wasClosed := c.peerClosed
	c.peerClosed = seg.wndClosed
	if wasClosed && !c.peerClosed {
		c.persistShift = 0
		if c.persistTimer.Pending() {
			_ = c.persistTimer.Stop()
		}
		c.pump()
	}
}

// PauseReceiving advertises a zero receive window (the application stopped
// reading); the peer's sends queue behind its persist timer.
func (c *Conn) PauseReceiving() {
	if c.recvClosed || c.state != stateEstablished {
		c.recvClosed = true
		return
	}
	c.recvClosed = true
	c.transmit(segment{kind: segACK, size: headerSize})
}

// ResumeReceiving reopens the window and announces it.
func (c *Conn) ResumeReceiving() {
	if !c.recvClosed {
		return
	}
	c.recvClosed = false
	if c.state == stateEstablished {
		c.transmit(segment{kind: segACK, size: headerSize})
	}
}

func (c *Conn) establish() {
	c.state = stateEstablished
	if c.stack.KeepaliveEnabled {
		c.keepaliveTimer.Arm(KeepaliveIdle)
	}
	c.pump()
}

func (c *Conn) processAck(ack uint64) {
	if c.inflight == nil || ack < c.inflight.seq {
		return
	}
	m := c.inflight
	c.inflight = nil
	_ = c.retransTimer.Stop()
	if m.retrans == 0 { // Karn's rule
		c.est.Observe(c.stack.fac.Now().Sub(m.sentAt))
	}
	if m.acked != nil {
		m.acked(nil)
	}
	c.pump()
}
