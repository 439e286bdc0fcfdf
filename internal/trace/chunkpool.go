package trace

import "sync"

// Chunk-buffer recycler. Every default-size chunk buffer the package uses —
// a StreamWriter's in-place frame, and the parallel read path's raw record
// payloads and decoded records — comes from these pools and goes back when
// its owner is done, so a process that writes and reads stream after stream
// reuses a few chunk buffers instead of allocating 2.5 MiB per stream and
// per pass. The serial read path holds no chunk at all: it decodes 40 KiB
// blocks straight out of its reader's buffer (see readBlocks). The pools
// hold pointers to slices: putting a bare slice would box its header on
// every call. Buffers of any other size (small writer chunks, frames up to
// the maxChunkRecords bound) are allocated and dropped as before.

// chunkBytes is the payload size of one default-size record chunk.
const chunkBytes = DefaultChunkRecords * RecordSize

var (
	rawChunks = sync.Pool{New: func() any {
		b := make([]byte, chunkBytes)
		return &b
	}}
	recChunks = sync.Pool{New: func() any {
		r := make([]Record, DefaultChunkRecords)
		return &r
	}}
)

// getRawChunk returns a chunkBytes-long byte buffer from the recycler.
func getRawChunk() *[]byte { return rawChunks.Get().(*[]byte) }

// putRawChunk gives a buffer from getRawChunk back; nil is ignored.
func putRawChunk(p *[]byte) {
	if p != nil && cap(*p) == chunkBytes {
		*p = (*p)[:chunkBytes]
		rawChunks.Put(p)
	}
}

// getRecChunk returns a DefaultChunkRecords-long record buffer from the
// recycler.
func getRecChunk() *[]Record { return recChunks.Get().(*[]Record) }

// putRecChunk gives a buffer from getRecChunk back; nil is ignored.
func putRecChunk(p *[]Record) {
	if p != nil && cap(*p) == DefaultChunkRecords {
		*p = (*p)[:DefaultChunkRecords]
		recChunks.Put(p)
	}
}
