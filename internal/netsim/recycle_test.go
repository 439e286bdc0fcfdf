package netsim

import (
	"testing"

	"timerstudy/internal/sim"
	"timerstudy/internal/trace"
)

// Callbacks of the recycling tests, bound once at package level so the
// allocation guards measure the stack, not the test's closures.
var (
	replyOnce = func(c *Conn, _ int, _ any) { c.Send(1200, "response", nil) }
	acceptRel = func(c *Conn) {
		c.OnMessage = replyOnce
		c.Release() // recycled once the client's FIN closes it
	}
	closeRel    = func(c *Conn, _ int, _ any) { c.Close(); c.Release() }
	requestOnce = func(c *Conn, err error) {
		if err == nil {
			c.OnMessage = closeRel
			c.Send(300, "GET /", nil)
		}
	}
)

// cycle runs one request/response connection to completion.
func (f *fixture) cycle(cli *Stack) {
	cli.Connect("server", 80, requestOnce)
	f.eng.Run(f.eng.Now().Add(sim.Second))
}

// TestReleasedConnsAreReused pins recycling on both personalities: a
// released connection's Go object carries the next connection, Linux timer
// identities recur through the slab exactly as before, and Vista
// connections still get fresh KTIMER identities.
func TestReleasedConnsAreReused(t *testing.T) {
	for _, tc := range []struct {
		name      string
		stack     func(*fixture, string) *Stack
		freshIDs  bool
		wantConns int
	}{
		{"linux", (*fixture).linuxStack, false, 1},
		{"vista", (*fixture).vistaStack, true, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(1)
			srv := tc.stack(f, "server")
			cli := tc.stack(f, "client")
			srv.Listen(80, acceptRel)
			seen := map[*Conn]bool{}
			for i := 0; i < 5; i++ {
				f.cycle(cli)
				for _, c := range cli.freeConns {
					seen[c] = true
				}
			}
			if len(seen) != tc.wantConns || len(srv.freeConns) != tc.wantConns {
				t.Fatalf("client used %d Conn objects, server holds %d free; want %d each",
					len(seen), len(srv.freeConns), tc.wantConns)
			}
			ids := map[uint64]bool{}
			for _, r := range f.tr.Records() {
				if r.Op == trace.OpSet && f.tr.OriginName(r.Origin) == "kernel/tcp:retransmit" {
					ids[r.TimerID] = true
				}
			}
			// Both ends arm a retransmit timer every cycle. The two stacks
			// number their timers independently, so the client's and the
			// server's identities may coincide: Linux reuses one slab
			// struct per end (at most 2 identities), Vista gets a fresh one
			// per connection (at least 5).
			if fresh := len(ids) >= 5; fresh != tc.freshIDs || (!fresh && len(ids) > 2) {
				t.Fatalf("%d distinct retransmit timer identities over 5 connections; want fresh per connection = %v",
					len(ids), tc.freshIDs)
			}
		})
	}
}

// fakeHandle is a timer whose expiry the test drives: expire takes it out
// of the pending state without running the callback, the way a Vista
// clock interrupt leaves its DPC queued.
type fakeHandle struct {
	fn               func()
	pending, expired bool
}

func (h *fakeHandle) Arm(sim.Duration) { h.pending, h.expired = true, false }
func (h *fakeHandle) Stop() bool {
	was := h.pending
	h.pending = false
	return was
}
func (h *fakeHandle) Pending() bool { return h.pending }
func (h *fakeHandle) Release()      {}
func (h *fakeHandle) expire()       { h.pending, h.expired = false, true }

type fakeFacility struct {
	eng     *sim.Engine
	handles map[string]*fakeHandle
}

func (f *fakeFacility) NewTimer(origin string, fn func()) Handle {
	h := &fakeHandle{fn: fn}
	f.handles[origin] = h
	return h
}
func (f *fakeFacility) Now() sim.Time { return f.eng.Now() }

// TestQueuedCallbackDelaysReuse pins the stale-callback rule: a connection
// that closes while one of its timers has expired but not yet called back
// is not reused until that callback has arrived, and the late callback
// does nothing.
func TestQueuedCallbackDelaysReuse(t *testing.T) {
	f := newFixture(1)
	fac := &fakeFacility{eng: f.eng, handles: map[string]*fakeHandle{}}
	srv := f.linuxStack("server")
	cli := NewStack(f.net, "client", fac)
	srv.Listen(80, acceptRel)
	var conn *Conn
	cli.Connect("server", 80, func(c *Conn, err error) { conn = c })
	f.eng.Run(f.eng.Now().Add(sim.Second))
	if conn == nil {
		t.Fatal("no connection")
	}
	conn.Send(100, "data", nil)
	retrans := fac.handles["kernel/tcp:retransmit"]
	if !retrans.pending {
		t.Fatal("retransmit timer not armed by the send")
	}
	retrans.expire() // expired; its callback is still queued
	conn.Close()
	conn.Release()
	if len(cli.freeConns) != 0 {
		t.Fatal("connection reused while a timer callback was still queued")
	}
	sent := f.net.Delivered + uint64(f.eng.Pending())
	retrans.fn() // the queued callback finally runs
	if len(cli.freeConns) != 1 {
		t.Fatalf("connection not recycled after its last callback: %d free", len(cli.freeConns))
	}
	if now := f.net.Delivered + uint64(f.eng.Pending()); now != sent {
		t.Fatal("late callback on a closed connection transmitted")
	}
}

// TestSendZeroAllocSteadyState guards the per-packet path: once the
// delivery freelist is warm, sending a datagram or a TCP-sized packet and
// delivering it allocates nothing.
func TestSendZeroAllocSteadyState(t *testing.T) {
	f := newFixture(1)
	var got int
	f.net.Attach("dst", func(p Packet) { got += p.Size })
	f.net.Attach("src", func(Packet) {})
	p := Packet{From: "src", To: "dst", Size: 320, Payload: "frame"}
	f.net.Send(p)
	f.eng.RunAll()
	if allocs := testing.AllocsPerRun(1000, func() {
		f.net.Send(p)
		f.eng.RunAll()
	}); allocs != 0 {
		t.Fatalf("warm Send plus delivery allocates %.1f objects/op, want 0", allocs)
	}
	if got == 0 || f.net.Delivered < 1000 {
		t.Fatalf("delivered %d packets", f.net.Delivered)
	}
}

// connCycleAllocBound is the allocation budget of one warm Linux
// connect/request/response/close cycle on both ends. It measures 0; the
// one allowed allocation covers amortized growth of the stacks' connection
// maps and freelists.
const connCycleAllocBound = 1

// TestConnCycleAllocs guards the connection path: with released
// connections, their timers and messages recycled, a warm Linux cycle stays
// within connCycleAllocBound allocations.
func TestConnCycleAllocs(t *testing.T) {
	f := newFixture(1)
	srv := f.linuxStack("server")
	cli := f.linuxStack("client")
	srv.Listen(80, acceptRel)
	for i := 0; i < 5; i++ {
		f.cycle(cli)
	}
	allocs := testing.AllocsPerRun(50, func() { f.cycle(cli) })
	if allocs > connCycleAllocBound {
		t.Fatalf("warm connect/send/close cycle allocates %.2f objects, want <= %d", allocs, connCycleAllocBound)
	}
	if len(cli.freeConns) != 1 || len(srv.freeConns) != 1 {
		t.Fatalf("free conns: client %d, server %d; want 1 each", len(cli.freeConns), len(srv.freeConns))
	}
}
