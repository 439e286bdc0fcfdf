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

	// labels are the four per-connection timer origins, interned once per
	// OriginPrefix instead of concatenated for every connection.
	labels connLabels

	// Recycling. freeConns and freeMsgs are LIFO freelists of dead
	// connections and acknowledged messages. A connection is recyclable
	// once it is closed, its owner has released it, no ARP resolution
	// still refers to it and no timer callback of it is still queued; it
	// first waits on dead until depth, the count of stack calls in
	// progress, is back to zero, so no frame on the call stack still
	// holds it when a new connection reuses it.
	freeConns []*Conn
	freeMsgs  []*outMsg
	dead      []*Conn
	depth     int

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

// connLabels are a stack's interned per-connection timer origins.
type connLabels struct {
	prefix                                 string
	retransmit, delack, keepalive, persist string
}

// connLabels returns the timer origins for the current OriginPrefix,
// building them only when the prefix changed.
func (s *Stack) connLabels() *connLabels {
	if s.labels.retransmit == "" || s.labels.prefix != s.OriginPrefix {
		p := s.OriginPrefix
		s.labels = connLabels{
			prefix:     p,
			retransmit: p + ":retransmit",
			delack:     p + ":delack",
			keepalive:  p + ":keepalive",
			persist:    p + ":persist",
		}
	}
	return &s.labels
}

// enter and exit bracket every stack entry point that can run application
// callbacks; exit recycles the connections that died meanwhile once the
// outermost call returns.
func (s *Stack) enter() { s.depth++ }

func (s *Stack) exit() {
	s.depth--
	if s.depth == 0 && len(s.dead) > 0 {
		s.reap()
	}
}

// reap moves dead connections to the freelist.
func (s *Stack) reap() {
	for i, c := range s.dead {
		s.freeConns = append(s.freeConns, c)
		s.dead[i] = nil
	}
	s.dead = s.dead[:0]
}

// newMsg returns a message from the freelist, or a new one.
func (s *Stack) newMsg() *outMsg {
	if n := len(s.freeMsgs); n > 0 {
		m := s.freeMsgs[n-1]
		s.freeMsgs = s.freeMsgs[:n-1]
		return m
	}
	return &outMsg{}
}

// freeMsg recycles a message nothing refers to any more.
func (s *Stack) freeMsg(m *outMsg) {
	*m = outMsg{}
	s.freeMsgs = append(s.freeMsgs, m)
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

	// Recycling state (see Stack). due counts, per timer, the callbacks
	// still to come: an Arm of an idle timer adds one, a Stop that catches
	// the timer pending or a callback that runs takes one away. A timer
	// that expired but whose callback is still queued (a Vista DPC) counts
	// as due. stale is what was due when the connection closed.
	due       [nConnTimers]uint8
	stale     int
	resolving bool // an ARP resolution will call back
	released  bool // the owner called Release
	recycled  bool // on the dead list or the freelist
	fns       connFns

	// OnMessage receives delivered application messages.
	OnMessage func(c *Conn, size int, payload any)
	// OnClose runs once when the connection dies (FIN, reset, or timeout
	// abort). err is nil for a clean remote close.
	OnClose func(err error)
}

// connFns are a Conn's callbacks, bound once when the Go object is first
// allocated and kept across the connections it carries.
type connFns struct {
	retransmit, delack, keepalive, persist func()
	resolved                               func(bool)
}

// The connection's timers, indexing Conn.due.
const (
	timerRetransmit = iota
	timerDelack
	timerKeepalive
	timerPersist
	nConnTimers
)

// arm arms one of the connection's timers.
func (c *Conn) arm(i int, h Handle, d sim.Duration) {
	if !h.Pending() {
		c.due[i]++
	}
	h.Arm(d)
}

// stop cancels one of the connection's timers; reports whether it was
// pending.
func (c *Conn) stop(i int, h Handle) bool {
	if h.Stop() {
		c.due[i]--
		return true
	}
	return false
}

// fired accounts a timer callback. It reports false for a callback that
// was still queued when the connection closed: those do nothing.
func (c *Conn) fired(i int) bool {
	if c.state == stateClosed {
		if c.stale > 0 {
			c.stale--
			c.recycle()
		}
		return false
	}
	c.due[i]--
	return true
}

// Release hands the connection back to its stack for reuse by a later
// connection once it has closed. It may come before the close: the stack
// then recycles c when it closes. Either way the owner must not use c
// after Release, except inside the callbacks the stack still makes on it
// while it is open. A connection that is never released is left to the
// garbage collector, as before.
func (c *Conn) Release() {
	c.stack.enter()
	c.released = true
	c.recycle()
	c.stack.exit()
}

// recycle queues a dead, released, unreferenced connection for reuse.
func (c *Conn) recycle() {
	if c.state != stateClosed || !c.released || c.resolving || c.stale > 0 || c.recycled {
		return
	}
	c.recycled = true
	c.stack.dead = append(c.stack.dead, c)
}

// RemoteHost returns the peer's host name.
func (c *Conn) RemoteHost() string { return c.remote }

// Established reports whether the handshake completed and the connection is
// still open.
func (c *Conn) Established() bool { return c.state == stateEstablished }

// Estimator exposes the connection's RTO state (read-only use).
func (c *Conn) Estimator() *RTOEstimator { return &c.est }

func (s *Stack) newConn(remote string, remotePort, localPort uint16, server bool) *Conn {
	var c *Conn
	if n := len(s.freeConns); n > 0 {
		c = s.freeConns[n-1]
		s.freeConns[n-1] = nil
		s.freeConns = s.freeConns[:n-1]
		*c = Conn{stack: s, fns: c.fns, sendq: c.sendq[:0]}
	} else {
		c = &Conn{stack: s}
		c.fns = connFns{
			retransmit: c.onRetransTimeout,
			delack:     c.onDelackTimeout,
			keepalive:  c.onKeepalive,
			persist:    c.onPersist,
			resolved:   c.onResolved,
		}
	}
	c.remote, c.remotePort, c.localPort, c.server = remote, remotePort, localPort, server
	// The per-socket timer structures, created at socket creation as in
	// inet_csk: stable identities per connection.
	l := s.connLabels()
	c.retransTimer = s.fac.NewTimer(l.retransmit, c.fns.retransmit)
	c.delackTimer = s.fac.NewTimer(l.delack, c.fns.delack)
	c.keepaliveTimer = s.fac.NewTimer(l.keepalive, c.fns.keepalive)
	c.persistTimer = s.fac.NewTimer(l.persist, c.fns.persist)
	s.conns[connKey{remote, remotePort, localPort}] = c
	return c
}

// Connect opens a connection; cb receives the established connection or an
// error after SYN retries are exhausted. Name resolution (ARP) happens
// first, as for a LAN peer.
func (s *Stack) Connect(remote string, port uint16, cb func(*Conn, error)) {
	s.enter()
	defer s.exit()
	s.nextPort++
	localPort := s.nextPort
	c := s.newConn(remote, port, localPort, false)
	c.state = stateSynSent
	c.onConnect = cb
	c.resolving = true
	s.arp.resolve(remote, c.fns.resolved)
}

// onResolved continues Connect once ARP has resolved (or failed).
func (c *Conn) onResolved(ok bool) {
	c.stack.enter()
	defer c.stack.exit()
	c.resolving = false
	if c.state != stateSynSent {
		c.recycle()
		return
	}
	if !ok {
		c.fail(ErrTimeout)
		return
	}
	c.sendSYN()
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
	c.arm(timerRetransmit, c.retransTimer, rto)
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
		Size: seg.size, seg: seg, tcp: true,
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
	m := c.stack.newMsg()
	m.seq, m.size, m.payload, m.acked = c.nextSeq, size, payload, acked
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
		_ = c.stop(timerDelack, c.delackTimer)
		c.ackPending = false
	}
	c.transmit(segment{kind: segDATA, seq: m.seq, size: m.size + headerSize, payload: m.payload})
	c.armRetrans()
}

func (c *Conn) onRetransTimeout() {
	c.stack.enter()
	defer c.stack.exit()
	if !c.fired(timerRetransmit) {
		return
	}
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
		c.arm(timerRetransmit, c.retransTimer, rto)
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
	c.stack.enter()
	defer c.stack.exit()
	if !c.fired(timerDelack) || c.state != stateEstablished || !c.ackPending {
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
	c.arm(timerPersist, c.persistTimer, d)
}

// onPersist fires the window probe.
func (c *Conn) onPersist() {
	c.stack.enter()
	defer c.stack.exit()
	if !c.fired(timerPersist) || c.state != stateEstablished || !c.peerClosed {
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
	c.stack.enter()
	defer c.stack.exit()
	if c.fired(timerKeepalive) && c.state == stateEstablished {
		c.transmit(segment{kind: segACK, size: headerSize})
		c.arm(timerKeepalive, c.keepaliveTimer, KeepaliveIdle)
	}
}

// fail aborts the connection with an error.
func (c *Conn) fail(err error) {
	if c.state == stateClosed {
		return
	}
	cb := c.onConnect
	if cb != nil {
		// The connection never reached its owner: it is the stack's to
		// recycle.
		c.released = true
	}
	inflight, queued := c.teardown()
	if cb != nil {
		cb(nil, err)
	}
	if c.OnClose != nil {
		c.OnClose(err)
	}
	c.freePending(inflight, queued)
}

// Close sends FIN and tears the connection down. Pending sends error with
// ErrReset.
func (c *Conn) Close() {
	if c.state == stateClosed {
		return
	}
	c.stack.enter()
	defer c.stack.exit()
	c.transmit(segment{kind: segFIN, size: headerSize})
	inflight, queued := c.teardown()
	c.resetPending(inflight, queued)
}

// resetPending errors the messages a teardown detached with ErrReset, the
// in-flight one first, then recycles them.
func (c *Conn) resetPending(inflight *outMsg, queued []*outMsg) {
	if inflight != nil && inflight.acked != nil {
		inflight.acked(ErrReset)
	}
	for _, m := range queued {
		if m.acked != nil {
			m.acked(ErrReset)
		}
	}
	c.freePending(inflight, queued)
}

// freePending recycles the messages a teardown detached.
func (c *Conn) freePending(inflight *outMsg, queued []*outMsg) {
	if inflight != nil {
		c.stack.freeMsg(inflight)
	}
	for i, m := range queued {
		c.stack.freeMsg(m)
		queued[i] = nil
	}
}

// teardown closes the connection and detaches its unacknowledged messages
// for the caller to settle. queued aliases the send queue's storage, which
// nothing appends to once the connection is closed.
func (c *Conn) teardown() (inflight *outMsg, queued []*outMsg) {
	inflight, queued = c.inflight, c.sendq
	c.state = stateClosed
	c.inflight = nil
	c.sendq = c.sendq[:0]
	_ = c.stop(timerRetransmit, c.retransTimer)
	_ = c.stop(timerDelack, c.delackTimer)
	_ = c.stop(timerPersist, c.persistTimer)
	if c.stack.KeepaliveEnabled {
		_ = c.stop(timerKeepalive, c.keepaliveTimer)
	}
	// A timer that expired but whose callback has not run yet (a queued
	// DPC) still calls back once; the connection is not reused before.
	for i, n := range c.due {
		c.stale += int(n)
		c.due[i] = 0
	}
	// The socket dies; its embedded timer structs go back to the slab.
	c.retransTimer.Release()
	c.delackTimer.Release()
	c.keepaliveTimer.Release()
	c.persistTimer.Release()
	delete(c.stack.conns, connKey{c.remote, c.remotePort, c.localPort})
	c.recycle()
	return inflight, queued
}

// receive dispatches an incoming packet to ARP or the owning connection.
func (s *Stack) receive(p Packet) {
	if p.tcp {
		s.enter()
		s.arp.observed(p.From)
		s.receiveSegment(p.From, &p.seg)
		s.exit()
		return
	}
	switch pl := p.Payload.(type) {
	case arpPayload:
		s.arp.receive(p.From, pl)
	default:
		// Datagrams and LAN noise: refresh the neighbour cache, then hand
		// non-broadcast traffic to the raw tap.
		s.arp.observed(p.From)
		if s.OnRaw != nil {
			s.OnRaw(p)
		}
	}
}

func (s *Stack) receiveSegment(from string, seg *segment) {
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
			_ = c.stop(timerRetransmit, c.retransTimer)
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
				c.arm(timerDelack, c.delackTimer, DelayedAckTimeout)
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
		inflight, queued := c.teardown()
		c.resetPending(inflight, queued)
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
func (c *Conn) noteWindow(seg *segment) {
	wasClosed := c.peerClosed
	c.peerClosed = seg.wndClosed
	if wasClosed && !c.peerClosed {
		c.persistShift = 0
		if c.persistTimer.Pending() {
			_ = c.stop(timerPersist, c.persistTimer)
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
		c.arm(timerKeepalive, c.keepaliveTimer, KeepaliveIdle)
	}
	c.pump()
}

func (c *Conn) processAck(ack uint64) {
	if c.inflight == nil || ack < c.inflight.seq {
		return
	}
	m := c.inflight
	c.inflight = nil
	_ = c.stop(timerRetransmit, c.retransTimer)
	if m.retrans == 0 { // Karn's rule
		c.est.Observe(c.stack.fac.Now().Sub(m.sentAt))
	}
	if m.acked != nil {
		m.acked(nil)
	}
	c.stack.freeMsg(m)
	c.pump()
}
