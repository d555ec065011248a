//go:build !race

package datacube

const raceEnabled = false
