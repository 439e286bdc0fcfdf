//go:build !race

package trace

// raceEnabled mirrors the -race build tag: under the race detector
// sync.Pool drops a random share of Puts, so recycling tests skip.
const raceEnabled = false
