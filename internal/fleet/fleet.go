package fleet

import (
	"sync"
	"sync/atomic"

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

	// jobs feeds the persistent worker pool; nil while no session is active
	// or when running with one worker.
	jobs chan func()
	// horizon is the current window's end, written by advanceAll before
	// the fan-out and only read by the workers; advanceFn is
	// f.advanceHost bound once, so a window allocates no closure.
	horizon   sim.Time
	advanceFn func(i int)
	// active guards against overlapping sessions.
	active bool
}

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
	return f
}

// AddHost creates a host with its own engine (seeded independently), kernel
// personality and sink, then boots the model. Hosts must be added in the
// same order on every run — the index is part of the deterministic message
// order. The name must be registered on the fabric.
func (f *Fleet) AddHost(name string, seed int64, sink trace.Sink, model Model) *Host {
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

// each applies fn to every host index, fanning out across the worker pool.
// workers==1 (or a single host) bypasses the pool entirely and runs the
// exact serial order — the baseline the determinism gate compares against.
// fn bodies may touch only the indexed host's state plus frozen/immutable
// fleet state; the goroutinecapture analyzer audits call sites through the
// (workers, func) parameter pair.
func (f *Fleet) each(workers int, fn func(i int)) {
	n := len(f.hosts)
	if workers <= 1 || n <= 1 || f.jobs == nil {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	job := func() {
		defer wg.Done()
		for {
			base := int(next.Add(eachChunk)) - eachChunk
			if base >= n {
				return
			}
			hi := base + eachChunk
			if hi > n {
				hi = n
			}
			for i := base; i < hi; i++ {
				fn(i)
			}
		}
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		f.jobs <- job
	}
	wg.Wait()
}

// advanceAll moves every host's engine up to (strictly before) horizon in
// parallel and returns the total events executed.
//
//lint:allocfree the per-window advance: the pre-bound advanceFn over every host
func (f *Fleet) advanceAll(workers int, horizon sim.Time) uint64 {
	f.horizon = horizon
	f.each(workers, f.advanceFn)
	var total uint64
	for _, h := range f.hosts {
		total += uint64(h.windowExecuted)
	}
	return total
}

// advanceHost runs host i's engine up to (strictly before) f.horizon. It
// touches only host i's state; each worker calls it on distinct indices.
func (f *Fleet) advanceHost(i int) {
	h := f.hosts[i]
	h.windowExecuted = h.Eng.AdvanceUntil(f.horizon)
}

// route is the serial barrier phase: drain every outbox into the
// destinations' staged queues in host-index order (deterministic regardless
// of which worker advanced whom), then merge and schedule deliveries. It
// returns the number of messages moved. Messages addressed to a down host
// (Host.Kill) are dropped here and counted against the destination's Lost —
// the wire reached the machine, the machine was off.
//
//lint:allocfree outbox drain into staged queues that keep their capacity
func (f *Fleet) route() int {
	moved := 0
	for _, h := range f.hosts {
		for _, m := range h.outbox {
			dst := f.hosts[m.Dst]
			if dst.Down {
				dst.Lost++
				continue
			}
			dst.staged = append(dst.staged, m)
			moved++
		}
		h.outbox = h.outbox[:0]
	}
	if moved == 0 {
		return 0
	}
	for _, h := range f.hosts {
		h.mergeStaged()
	}
	return moved
}

// minNextAt returns the earliest pending event time across the fleet.
// Stopped engines (killed hosts) are skipped: their backlog cannot execute,
// and letting it anchor the idle-jump target would pin the fleet to an
// instant that never drains.
func (f *Fleet) minNextAt() (sim.Time, bool) {
	var best sim.Time
	found := false
	for _, h := range f.hosts {
		if h.Eng.Stopped() {
			continue
		}
		if t, ok := h.Eng.NextAt(); ok && (!found || t < best) {
			best, found = t, true
		}
	}
	return best, found
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
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	d := uint64(offset64)
	for _, h := range f.hosts {
		hs, ok := firstHashSink(h.Sink)
		if !ok {
			continue
		}
		s := hs.Sum64()
		for i := 0; i < 8; i++ {
			d ^= uint64(byte(s >> (8 * i)))
			d *= prime64
		}
	}
	return d
}
