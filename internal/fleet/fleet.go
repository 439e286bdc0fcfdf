package fleet

import (
	"math"
	"sync"
	"sync/atomic"

	"timerstudy/internal/fnv1a"
	"timerstudy/internal/kernel"
	"timerstudy/internal/netsim"
	"timerstudy/internal/sim"
	"timerstudy/internal/trace"
	"timerstudy/internal/workloads"
)

// Fleet is a set of simulated hosts advancing in lock-step windows over a
// frozen netsim.Fabric. Build it with New + AddHost (or a Topology), then
// run one Session over it.
type Fleet struct {
	fabric *netsim.Fabric
	hosts  []*Host
	byName map[string]int

	// next is the per-host next-event index: next[i] is host i's
	// Eng.NextAt(), or never when its queue is empty or its engine is
	// stopped. refresh rewrites an entry at every point the host's queue
	// can change: after its own window advance, after a barrier merge,
	// in Kill, Restart and Steer, and for every host at StartSession. A
	// window reads the index instead of touching idle engines.
	next []sim.Time
	// act lists the hosts the current window advances (next[i] before
	// the horizon), in index order; recv lists the hosts that received
	// messages at the current barrier. Both keep their capacity.
	act, recv []int

	// jobs feeds the persistent worker pool; nil while no session is active
	// or when running with one worker.
	jobs chan func()
	// horizon is the current window's end, written by advanceAll before
	// the fan-out and only read by the workers; advanceFn is
	// f.advanceHost bound once, so a window allocates no closure.
	horizon   sim.Time
	advanceFn func(i int)
	// Fan-out state of each, reused by every call: jobFn is f.fanJob bound
	// once, fanIdx and fanFn are the current call's index list and body,
	// cursor hands out chunks of fanIdx and wg waits for the jobs.
	jobFn  func()
	fanIdx []int
	fanFn  func(i int)
	cursor atomic.Int64
	wg     sync.WaitGroup
	// inSession guards against overlapping sessions.
	inSession bool
}

// never is the next-event index entry of a host with nothing it can run.
const never = sim.Time(math.MaxInt64)

// RunStats summarizes one session run.
type RunStats struct {
	// Windows is the number of synchronization barriers (advance+route
	// rounds) the run needed.
	Windows int
	// Events is the total engine events executed across all hosts inside
	// the windowed advance (the cleanup clock-advance at the end adds
	// none).
	Events uint64
	// Sent, Delivered, Lost total the cross-host traffic.
	Sent, Delivered, Lost uint64
	// Lookahead is the conservative window width used (0 in degenerate
	// lock-step mode; Bounded false when the fabric allows no cross-host
	// traffic at all).
	Lookahead sim.Duration
	// Bounded reports whether cross-host traffic constrained the run.
	Bounded bool
	// HostAdvances counts host window advances summed over windows: only
	// hosts with an event due before a window's horizon are advanced.
	HostAdvances uint64
}

// New returns an empty fleet over a frozen fabric. Freezing first is
// required: host construction interns delivery labels and a session reads
// the link matrix from parallel workers.
func New(fabric *netsim.Fabric) *Fleet {
	if !fabric.Frozen() {
		panic("fleet: fabric must be frozen before New")
	}
	f := &Fleet{fabric: fabric, byName: map[string]int{}}
	f.advanceFn = f.advanceHost
	f.jobFn = f.fanJob
	return f
}

// AddHost creates a host with its own engine (seeded independently), kernel
// personality and sink, then boots the model. Hosts must be added in the
// same order on every run — the index is part of the deterministic message
// order. The name must be registered on the fabric, and no session may be
// active (StartSession indexes every host's first event).
func (f *Fleet) AddHost(name string, seed int64, sink trace.Sink, model Model) *Host {
	if f.inSession {
		panic("fleet: AddHost during an active session")
	}
	if _, dup := f.byName[name]; dup {
		panic("fleet: duplicate host " + name)
	}
	label := f.fabric.RecvLabel(name)
	if label == "" {
		panic("fleet: host " + name + " not registered on the fabric")
	}
	eng := sim.NewEngine(seed)
	kern := kernel.NewLinux(eng, sink)
	h := &Host{
		Index:     len(f.hosts),
		Name:      name,
		Eng:       eng,
		Sink:      sink,
		Kern:      kern,
		Kit:       workloads.NewHostKit(eng, kern),
		fleet:     f,
		model:     model,
		recvLabel: label,
	}
	h.deliverFn = h.deliver
	f.byName[name] = h.Index
	f.hosts = append(f.hosts, h)
	f.next = append(f.next, never)
	model.Boot(h)
	return h
}

// Hosts returns the fleet's hosts in index order. The slice is shared;
// callers must not mutate it.
func (f *Fleet) Hosts() []*Host { return f.hosts }

// HostByName returns a host by fabric name, or nil.
func (f *Fleet) HostByName(name string) *Host {
	if i, ok := f.byName[name]; ok {
		return f.hosts[i]
	}
	return nil
}

// eachChunk is the unit of work stealing: big enough to amortize the atomic
// increment, small enough to balance uneven hosts.
const eachChunk = 16

// each applies fn to every host index in idx, fanning out across the worker
// pool. workers==1 (or a single index) bypasses the pool entirely and runs
// the exact serial order — the baseline the determinism gate compares
// against. fn bodies may touch only the indexed host's state plus
// frozen/immutable fleet state; the goroutinecapture analyzer audits call
// sites through the (workers, func) parameter pair.
//
//lint:allocfree the fan-out hands the pool the pre-bound jobFn; the index list and body travel in fleet fields
func (f *Fleet) each(workers int, idx []int, fn func(i int)) {
	n := len(idx)
	if workers <= 1 || n <= 1 || f.jobs == nil {
		for _, i := range idx {
			fn(i)
		}
		return
	}
	// Wake no more workers than there are chunks to claim.
	workers = min(workers, (n+eachChunk-1)/eachChunk)
	f.fanIdx, f.fanFn = idx, fn
	f.cursor.Store(0)
	f.wg.Add(workers)
	for w := 0; w < workers; w++ {
		f.jobs <- f.jobFn
	}
	f.wg.Wait()
}

// fanJob is one pool worker's share of an each call: it claims eachChunk
// entries of fanIdx at a time until none are left. The fields it reads were
// written before the job was sent on jobs.
func (f *Fleet) fanJob() {
	defer f.wg.Done()
	idx, fn := f.fanIdx, f.fanFn
	for {
		base := int(f.cursor.Add(eachChunk)) - eachChunk
		if base >= len(idx) {
			return
		}
		for _, i := range idx[base:min(base+eachChunk, len(idx))] {
			fn(i)
		}
	}
}

// advanceAll moves every host with an event due strictly before horizon up
// to the horizon, in parallel, and returns the total events executed. The
// hosts it advanced are left in f.act for route.
//
//lint:allocfree the per-window advance: an index scan, then the pre-bound advanceFn over the active list
func (f *Fleet) advanceAll(workers int, horizon sim.Time) uint64 {
	f.horizon = horizon
	f.act = f.act[:0]
	for i, t := range f.next {
		if t < horizon {
			f.act = append(f.act, i)
		}
	}
	f.each(workers, f.act, f.advanceFn)
	var total uint64
	for _, i := range f.act {
		total += uint64(f.hosts[i].windowExecuted)
	}
	return total
}

// advanceHost runs host i's engine up to (strictly before) f.horizon and
// refreshes its index entry. It touches only host i's state; each worker
// calls it on distinct indices.
func (f *Fleet) advanceHost(i int) {
	h := f.hosts[i]
	h.windowExecuted = h.Eng.AdvanceUntil(f.horizon)
	f.refresh(i)
}

// refresh re-reads host i's next event into the index.
func (f *Fleet) refresh(i int) {
	eng := f.hosts[i].Eng
	t, ok := eng.NextAt()
	if !ok || eng.Stopped() {
		t = never
	}
	f.next[i] = t
}

// route is the serial barrier phase: drain the outboxes of the hosts the
// window advanced — only they ran callbacks that can Send — into the
// destinations' staged queues in host-index order (deterministic regardless
// of which worker advanced whom), then merge and schedule deliveries on the
// hosts that received any. It returns the number of messages moved.
// Messages addressed to a down host (Host.Kill) are dropped here and
// counted against the destination's Lost — the wire reached the machine,
// the machine was off.
//
//lint:allocfree outbox drain into staged queues that keep their capacity
func (f *Fleet) route() int {
	moved := 0
	f.recv = f.recv[:0]
	for _, i := range f.act {
		h := f.hosts[i]
		for _, m := range h.outbox {
			dst := f.hosts[m.Dst]
			if dst.Down {
				dst.Lost++
				continue
			}
			if len(dst.staged) == 0 {
				f.recv = append(f.recv, int(m.Dst))
			}
			dst.staged = append(dst.staged, m)
			moved++
		}
		h.outbox = h.outbox[:0]
	}
	for _, i := range f.recv {
		f.hosts[i].mergeStaged()
		f.refresh(i)
	}
	return moved
}

// minNextAt returns the earliest pending event time across the fleet, read
// from the index, and the first host indexed at it. Stopped engines
// (killed hosts) index as never: their backlog cannot execute, and letting
// it anchor the idle-jump target would pin the fleet to an instant that
// never drains.
func (f *Fleet) minNextAt() (host int, t sim.Time, ok bool) {
	t = never
	for i, at := range f.next {
		if at < t {
			host, t = i, at
		}
	}
	return host, t, t != never
}

// Counters sums the per-host sink counters (for sinks that keep them). A
// teed host sink reports its first counter-keeping inner sink, so it is
// counted once — every sink in a tee sees the identical record sequence.
func (f *Fleet) Counters() trace.Counters {
	var total trace.Counters
	for _, h := range f.hosts {
		if c, ok := h.Sink.(interface{ Counters() trace.Counters }); ok {
			hc := c.Counters()
			for i := range hc.ByOp {
				total.ByOp[i] += hc.ByOp[i]
			}
			total.Total += hc.Total
			total.Dropped += hc.Dropped
			total.Unknown += hc.Unknown
		}
	}
	return total
}

// firstHashSink finds the digest-bearing sink in a host sink's fan.
func firstHashSink(s trace.Sink) (*trace.HashSink, bool) {
	for _, inner := range trace.Fan(s) {
		if hs, ok := inner.(*trace.HashSink); ok {
			return hs, true
		}
	}
	return nil, false
}

// Digest folds the per-host trace digests (hosts using trace.HashSink) into
// one fleet-wide FNV-1a 64 value in host-index order. Two runs are
// byte-identical iff their digests match. Hosts whose sink is not a
// HashSink contribute nothing.
func (f *Fleet) Digest() uint64 {
	d := uint64(fnv1a.Offset64)
	for _, h := range f.hosts {
		if hs, ok := firstHashSink(h.Sink); ok {
			d = fnv1a.Uint(d, hs.Sum64(), 8)
		}
	}
	return d
}
