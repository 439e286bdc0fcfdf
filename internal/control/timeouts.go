package control

// The control plane's bounds registry (magictimeout discipline: every
// fixed constant lives here with its provenance). The plane introduces no
// fixed virtual-time durations of its own — command timing is expressed in
// window boundaries, and the durations commands carry (spike length,
// coalescing window) are caller inputs, not constants.
const (
	// maxQueue bounds pending commands between barriers; Enqueue rejects
	// beyond it. Sized like the game-loop input queues this
	// façade is modeled on: far above any interactive rate, small enough
	// that a runaway feeder fails fast instead of ballooning memory.
	maxQueue = 256
	// maxPatchBuffer bounds the patch feed between drains; the oldest
	// entries are evicted (and counted) on overflow.
	maxPatchBuffer = 1024
)
