package serve

import (
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"time"
)

// Metrics is the service's self-observability: lock-free counters bumped on
// the ingest and merge paths, snapshotted with runtime gauges for
// /api/metrics and the loopback benchmark.
type Metrics struct {
	Posts         atomic.Uint64 // accepted ingest POSTs
	DupPosts      atomic.Uint64 // idempotent re-sends acknowledged
	Rejected      atomic.Uint64 // refused POSTs (gap, conflict, decode error, limits)
	IngestBytes   atomic.Uint64
	IngestRecords atomic.Uint64
	IngestFrames  atomic.Uint64
	StreamsOpened atomic.Uint64
	StreamsClosed atomic.Uint64
	Merges        atomic.Uint64
	MergeNSLast   atomic.Uint64
	MergeNSTotal  atomic.Uint64
	MergedRecords atomic.Uint64 // records covered by the latest merge
	// TimerIDCollisions is the latest merge's count of timer IDs shared by
	// more than one stream (analysis.Report.TimerIDCollisions).
	TimerIDCollisions atomic.Uint64
}

// MetricsSnapshot is the JSON shape of /api/metrics.
type MetricsSnapshot struct {
	Version string  `json:"version"`
	UptimeS float64 `json:"uptime_s"`

	Goroutines int `json:"goroutines"`
	// HeapAllocBytes is MemStats.HeapAlloc, read without a collection: it
	// counts garbage not yet swept, so it swings with GC timing.
	HeapAllocBytes uint64 `json:"heap_alloc_bytes"`
	// HeapLiveBytes is the heap the last GC marked live
	// (/gc/heap/live:bytes): a stable reading of what the service holds,
	// with no collection forced to take it.
	HeapLiveBytes uint64 `json:"heap_live_bytes"`
	HeapSysBytes  uint64 `json:"heap_sys_bytes"`
	NumGC         uint32 `json:"num_gc"`

	Posts         uint64 `json:"ingest_posts"`
	DupPosts      uint64 `json:"ingest_dup_posts"`
	Rejected      uint64 `json:"ingest_rejected"`
	IngestBytes   uint64 `json:"ingest_bytes"`
	IngestRecords uint64 `json:"ingest_records"`
	IngestFrames  uint64 `json:"ingest_frames"`

	StreamsOpen   uint64 `json:"streams_open"`
	StreamsClosed uint64 `json:"streams_closed"`

	Merges        uint64  `json:"merges"`
	MergeLastMS   float64 `json:"merge_last_ms"`
	MergeTotalMS  float64 `json:"merge_total_ms"`
	MergedRecords uint64  `json:"merged_records"`
	// TimerIDCollisions is nonzero when streams share timer IDs, so the
	// merged view folds each shared ID as one timer per stream.
	TimerIDCollisions uint64 `json:"timer_id_collisions"`

	IngestBytesPerSec   float64 `json:"ingest_bytes_per_sec"`
	IngestRecordsPerSec float64 `json:"ingest_records_per_sec"`
}

// Snapshot renders the counters plus runtime gauges. uptime is computed by
// the caller from its injected clock so the snapshot itself never reads the
// host clock.
func (m *Metrics) Snapshot(version string, uptime time.Duration) MetricsSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(live)
	opened, closed := m.StreamsOpened.Load(), m.StreamsClosed.Load()
	s := MetricsSnapshot{
		Version:        version,
		UptimeS:        uptime.Seconds(),
		Goroutines:     runtime.NumGoroutine(),
		HeapAllocBytes: ms.HeapAlloc,
		HeapLiveBytes:  live[0].Value.Uint64(),
		HeapSysBytes:   ms.HeapSys,
		NumGC:          ms.NumGC,
		Posts:          m.Posts.Load(),
		DupPosts:       m.DupPosts.Load(),
		Rejected:       m.Rejected.Load(),
		IngestBytes:    m.IngestBytes.Load(),
		IngestRecords:  m.IngestRecords.Load(),
		IngestFrames:   m.IngestFrames.Load(),
		StreamsOpen:    opened - closed,
		StreamsClosed:  closed,
		Merges:         m.Merges.Load(),
		MergeLastMS:    float64(m.MergeNSLast.Load()) / 1e6,
		MergeTotalMS:   float64(m.MergeNSTotal.Load()) / 1e6,
		MergedRecords:  m.MergedRecords.Load(),
	}
	s.TimerIDCollisions = m.TimerIDCollisions.Load()
	if up := uptime.Seconds(); up > 0 {
		s.IngestBytesPerSec = float64(s.IngestBytes) / up
		s.IngestRecordsPerSec = float64(s.IngestRecords) / up
	}
	return s
}
