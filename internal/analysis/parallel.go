package analysis

import (
	"runtime"
	"sync"

	"timerstudy/internal/trace"
)

// Parallel analysis. RunParallel splits the pipeline three ways:
//
//   - chunk decode fans out inside trace.ForEachChunk (frames are still
//     read in file order, so the origin table grows deterministically);
//   - the router (the ForEachChunk callback, on the calling goroutine)
//     partitions each chunk's records by hashed TimerID into per-shard
//     batches, preserving record order within every shard;
//   - each shard worker folds its batches with the exact serial shard code.
//
// Determinism at any worker count follows from three facts. First, a
// timer's whole record sequence lands in one shard in stream order, so
// every per-timer fold (lifecycle state machine, countdown chains,
// classification) sees exactly what the serial pass sees. Second, all
// cross-timer accumulation is commutative-additive (sums, maxima, set
// union, histogram bins) and every finished slice sorts by a total order of
// its own values — never by arrival order. Third, the one summary that
// genuinely needs the global record order, Summary.Concurrency (the max of
// simultaneously pending timers), is tracked by the router itself, which is
// the only place that still sees every record in stream order.

// shardBatch is one chunk's worth of records for one shard, with the origin
// snapshot of the chunk they came from.
type shardBatch struct {
	recs    []trace.Record
	origins []string
}

// hashTimerID mixes timer identities (a splitmix64-style finalizer) before
// the shard modulus and the ID-cache slot so strided ID patterns still
// spread evenly.
func hashTimerID(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x
}

// openTracker mirrors the shard open/close transitions over the global
// record order to compute Summary.Concurrency exactly: a Set/Wait on a
// closed timer opens it, Cancel/Expire on an open timer closes it, and the
// running count's maximum is the answer.
type openTracker struct {
	open     map[uint64]bool
	cur, max int
}

func (c *openTracker) observe(r trace.Record) {
	switch r.Op {
	case trace.OpSet, trace.OpWait:
		if !c.open[r.TimerID] {
			c.open[r.TimerID] = true
			c.cur++
			if c.cur > c.max {
				c.max = c.cur
			}
		}
	case trace.OpCancel, trace.OpExpire:
		if c.open[r.TimerID] {
			c.open[r.TimerID] = false
			c.cur--
		}
	}
}

// RunParallel executes the pipeline like Run but decodes and analyzes on up
// to workers goroutines, producing a Report identical to Run's at any
// worker count. workers < 1 means GOMAXPROCS. Sources without chunked
// access (anything but Buffer and StreamReader) analyze serially.
func (p Pipeline) RunParallel(src trace.Source, workers int) (*Report, error) {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	cs, ok := src.(trace.ChunkedSource)
	if !ok || workers == 1 {
		return p.Run(src)
	}

	shards := make([]*shard, workers)
	chans := make([]chan shardBatch, workers)
	var wg sync.WaitGroup
	var batchPool sync.Pool
	for i := range shards {
		shards[i] = p.newShard()
		chans[i] = make(chan shardBatch, 4)
		wg.Add(1)
		go func(s *shard, ch <-chan shardBatch) {
			defer wg.Done()
			for b := range ch {
				for _, r := range b.recs {
					s.record(r, b.origins, nil)
				}
				batchPool.Put(b.recs[:0])
			}
			s.fold()
		}(shards[i], chans[i])
	}

	tracker := openTracker{open: make(map[uint64]bool)}
	batches := make([][]trace.Record, workers)
	err := cs.ForEachChunk(workers, func(c trace.Chunk) error {
		for w := range batches {
			if v := batchPool.Get(); v != nil {
				batches[w] = v.([]trace.Record)[:0]
			} else {
				batches[w] = nil
			}
		}
		for _, r := range c.Records {
			w := int(hashTimerID(r.TimerID) % uint64(workers))
			batches[w] = append(batches[w], r)
			tracker.observe(r)
		}
		// Records are copied out of the chunk above, so recycling the chunk
		// when this callback returns is safe; batch ownership passes to the
		// shard, which recycles it through batchPool.
		for w, b := range batches {
			if len(b) == 0 {
				if cap(b) > 0 {
					batchPool.Put(b)
				}
				continue
			}
			batches[w] = nil
			chans[w] <- shardBatch{recs: b, origins: c.Origins}
		}
		return nil
	})
	for _, ch := range chans {
		close(ch)
	}
	wg.Wait()
	if err != nil {
		return nil, err
	}
	for _, s := range shards[1:] {
		shards[0].merge(s)
	}
	rep := p.report(shards[0], nil, tracker.max)
	for _, s := range shards {
		s.releaseArena()
	}
	return rep, nil
}
