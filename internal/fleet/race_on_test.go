//go:build race

package fleet

// raceEnabled mirrors the -race build tag: the race detector adds shadow
// memory to every allocation, so heap-size tests skip under it.
const raceEnabled = true
