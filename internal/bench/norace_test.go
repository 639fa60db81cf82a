//go:build !race

package bench

// raceDetector reports that the test binary was built with -race.
const raceDetector = false
