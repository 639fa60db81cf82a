//go:build !race

package core

// raceDetector reports that the test binary was built with -race.
const raceDetector = false
