//go:build race

package datacube

// raceEnabled: under the race detector sync.Pool drops buffers at random,
// so allocation counts are not a property of the code.
const raceEnabled = true
